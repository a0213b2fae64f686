"""Command-line entry point.

Subcommands: import, train, tune, eval, cv-predict, minimal-pairs,
attention, regress, ceiling. Each reads an optional JSON config file
(--config), lets explicit flags override config keys, writes its outputs
atomically (temp file + rename) and drops a run manifest next to the
first output. Exit codes: 0 success, 1 invalid input or usage, 2 runtime
or numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# Each command runs in a process of its own, and for a short stage the
# start-up costs more than the work. So this module imports at load only
# what every command uses: the standard library, numpy (which seeding
# loads anyway), errors, corpus and seeding. Each cmd_* imports the rest
# of the package itself, so a process compiles and holds only the modules
# its command runs: `ceiling` never loads the model, `eval` never loads
# the trainer, and only `tune` loads a process pool.
from . import __version__
from .corpus import (kfold, parse_corpus, parse_row, read_rows, read_text,
                     rescale_rating, split, unscale_rating, write_corpus,
                     COLUMNS)
from .errors import (ContractError, IntegrityError, NumericError, ParseError,
                     UndefinedCorrelationError, ValidationError, in_file)
from .seeding import derive_seed

USER_ERRORS = (ValidationError, ParseError, ContractError, IntegrityError,
               FileNotFoundError, UndefinedCorrelationError)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default; we contract exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------

def _fmt_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _atomic_write(path: Path, write) -> None:
    """Run `write(tmp)` on a new temp file beside `path`, then rename it.

    Each call gets its own temp file, so runs writing the same output never
    clobber each other's, and the temp file is removed if anything fails.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    os.close(fd)
    try:
        # mkstemp makes the file private; give it the mode a plain write has
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        write(Path(tmp))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(cell) for cell in row])
    _atomic_write_text(path, buf.getvalue())


def _interval_rows(intervals, *prefix) -> list[tuple]:
    """CSV rows `(*prefix, *key, n, mean, lo, hi)` of `bootstrap_ci` rows."""
    return [(*prefix, *r.key, r.n, r.mean, r.lo, r.hi) for r in intervals]


def _read_json(path) -> tuple[object, str]:
    """The JSON value in file `path`, and the sha256 of the bytes read."""
    text, digest = read_text(path)
    try:
        return json.loads(text), digest
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply") from None


def _effective_config(args) -> dict:
    """defaults < config file < explicit flags, each value checked against
    its flag's type and range, then every output path resolved (a derived
    one defaults to the main output's path with the flag's suffix) and
    checked against the other files, before any input is read."""
    command = COMMANDS[args.command]
    flags = command.flags_by_key(args.command)
    merged = {key: flag.default for key, flag in flags.items()
              if flag.default is not None}
    if args.config:
        file_config, _ = _read_json(args.config)
        if not isinstance(file_config, dict):
            raise ValidationError(f"{args.config}: config must be an object")
        unknown = set(file_config) - set(flags)
        if unknown:
            raise ValidationError(
                f"{args.config}: unknown config keys: {sorted(unknown)}")
        for key, value in file_config.items():
            # null leaves a key without a default unset, as omitting it does
            if value is not None or flags[key].default is not None:
                flags[key].check(f"config {key}", value, args.config)
        merged.update(file_config)
    for key, flag in flags.items():
        value = getattr(args, key, None)
        if value is not None:
            flag.check(flag.name, value)
            merged[key] = value
    for key in command.required:
        if not merged.get(key):
            raise ValidationError(
                f"{args.command} requires {flags[key].name}")
    main_output = next(merged[key] for key, flag in flags.items()
                       if flag.writes is True)
    for key, flag in flags.items():
        if isinstance(flag.writes, str) and not merged.get(key):
            merged[key] = str(Path(main_output).with_suffix(flag.writes))
    _check_files(args, merged, flags)
    return merged


def _output_paths(args, cfg: dict) -> dict[str, Path]:
    """{flag: path} of each file the run writes, in flag-table order, the
    manifest last."""
    flags = COMMANDS[args.command].flags_by_key(args.command)
    paths = {flag.name: Path(cfg[key])
             for key, flag in flags.items() if flag.writes}
    first = next(iter(paths.values()))
    paths["--manifest"] = Path(args.manifest or f"{first}.manifest.json")
    return paths


def _check_files(args, cfg: dict, flags: dict[str, Flag]) -> None:
    """Reject a run that would write one file twice, or write a file it
    reads, naming both flags, before any input but --config is read."""
    taken = {os.path.realpath(args.config): "--config"} if args.config else {}
    for key, flag in flags.items():
        value = cfg.get(key) if flag.reads else None
        for path in value if isinstance(value, list) else [value]:
            if isinstance(path, str):
                if flag.repeatable:  # tune's name=path sources
                    path = path.partition("=")[2] or path
                taken[os.path.realpath(path)] = flag.name
    for name, path in _output_paths(args, cfg).items():
        other = taken.setdefault(os.path.realpath(path), name)
        if other != name:
            raise ValidationError(f"{other} and {name} both name {path}")


def _environment() -> dict:
    """What the run's numbers depend on beyond its inputs: the python and
    numpy versions, the BLAS thread variables as this process saw them,
    the CPUs and the process's peak resident set so far."""
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }
    if hasattr(os, "sched_getaffinity"):
        env["cpu_affinity"] = len(os.sched_getaffinity(0))
    try:
        import resource
    except ImportError:  # not on Windows
        return env
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    env["peak_rss_mb"] = round(
        peak / (2**20 if sys.platform == "darwin" else 2**10), 1)
    return env


def _write_manifest(args, argv: list[str], config: dict, inputs: dict,
                    started: str) -> None:
    """The run's manifest; `inputs` holds each input's (path, sha256),
    hashed by the loader that read it, so no file is read again."""
    *outputs, path = _output_paths(args, config).values()
    manifest = {
        "command": args.command,
        "argv": argv,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest(),
        "environment": _environment(),
        "inputs": {name: {"path": str(p), "sha256": digest}
                   for name, (p, digest) in inputs.items()},
        "outputs": [str(p) for p in outputs],
        "seed": config.get("seed", 0),
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    _atomic_write_text(path,
                       json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_corpus(cfg: dict):
    """The command's `--corpus` records; a corpus with none exits 1 naming
    the file, before any vector file or checkpoint is read."""
    records = parse_corpus(cfg["corpus"])
    if not records:
        raise ValidationError("no records", path=cfg["corpus"])
    return records


def _record_tokens(records, with_context: bool) -> set[str]:
    """The tokens that embedding `records` looks up: every target token,
    and every context token if the command reads contexts."""
    tokens = set()
    for record in records:
        tokens.update(record.tokens)
        if with_context:
            tokens.update(record.context_tokens)
    return tokens


def _load_source(cfg: dict, records, with_context: bool):
    """The command's vector source and its manifest input entry.

    A GloVe table parses only the rows of the records' tokens.
    """
    from .embeddings import load_glove, load_precomputed

    glove = cfg.get("glove")
    precomputed = cfg.get("precomputed")
    if bool(glove) == bool(precomputed):
        raise ValidationError(
            "exactly one of --glove / --precomputed is required")
    if glove:
        table = load_glove(glove, cfg["unk_policy"],
                           keep=_record_tokens(records, with_context))
        return table, (Path(glove), table.sha256)
    source = load_precomputed(precomputed)
    return source, (Path(precomputed), source.sha256)


def _subset_records(records, cfg: dict):
    subset = cfg["subset"]
    if subset == "all":
        return records
    sp = split(records, cfg["train_fraction"], cfg["split_seed"])
    keep = set(sp.train_ids if subset == "train" else sp.test_ids)
    return [r for r in records if r.id in keep]


def _model_train_config(cfg: dict, input_dim: int):
    """The TrainConfig that `cfg` asks for, seeded by its `seed`."""
    from .model import ModelConfig
    from .trainer import TrainConfig

    return TrainConfig(
        model=ModelConfig(
            input_dim=input_dim,
            hidden_dim=cfg["hidden_dim"],
            dropout_rate=cfg["dropout_rate"],
            use_attention=cfg["pooling"] == "attention",
            seed=derive_seed(cfg["seed"], "model-init")),
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], lr=cfg["lr"],
        grad_clip=cfg.get("grad_clip"), seed=derive_seed(cfg["seed"], "train"))


# ---------------------------------------------------------------------------
# import
# ---------------------------------------------------------------------------

# raw-column synonyms accepted by the one-time dataset converter
IMPORT_SYNONYMS = {
    "id": ["id", "item_id", "item", "tgrep_id", "tgrep.id", "workerid_item"],
    "sentence": ["sentence", "utterance", "target", "tokens", "sentence_grammatical"],
    "context": ["context", "context_tokens", "prior_context", "preceding_context"],
    "mean_rating": ["mean_rating", "rating", "mean", "strength_rating",
                    "mean_strength"],
    "participant_ratings": ["participant_ratings", "ratings",
                            "individual_ratings"],
    "no_context_mean_rating": ["no_context_mean_rating", "nocontext_rating",
                               "rating_nocontext", "mean_nocontext"],
    "partitive": ["partitive"],
    "strength": ["strength", "determiner_strength", "strengthsome",
                 "strength_some"],
    "mention": ["mention", "linguistic_mention", "redmention",
                "prior_mention"],
    "subjecthood": ["subjecthood", "subject", "redsubjecthood"],
    "modification": ["modification", "modified", "redmodification"],
    "some_index": ["some_index"],
    "of_partitive_indices": ["of_partitive_indices"],
    "of_other_indices": ["of_other_indices"],
}

_TRUTHY = {"1", "true", "yes", "y", "t"}
_FALSY = {"0", "false", "no", "n", "f"}


def _import_binary(cell: str) -> str:
    """The corpus cell of a yes/no/true/false cell, 1 or 0; any other cell
    unchanged, for the corpus row parser to reject."""
    norm = cell.strip().lower()
    return "1" if norm in _TRUTHY else "0" if norm in _FALSY else cell


def cmd_import(cfg):
    """Convert a raw ratings file, one row per item, to the corpus TSV.

    Each raw row becomes the corpus's 14 cells, which `corpus.parse_row`
    checks as it checks a corpus file, so its errors name the input and
    the row. Import's own are the column synonyms and `column_map`, the
    yes/no vocabulary of the binary features, tokenizing, the defaults of
    `some_index` and the of-indices, and the mean: the mean of a
    participant-ratings cell (comma- or semicolon-joined) replaces a mean
    cell that is missing or differs from it by more than 1e-6.
    """
    from .embeddings import tokenize

    raw_path = Path(cfg["input"])
    rows = read_rows(raw_path,
                     "\t" if raw_path.suffix.lower() == ".tsv" else ",")
    if not rows:
        raise ValidationError(f"{raw_path}: empty input")
    header = [h.strip().lower() for h in rows[0]]

    def find(field: str) -> int | None:
        override = cfg["column_map"].get(field)
        candidates = [override.lower()] if override else IMPORT_SYNONYMS[field]
        for name in candidates:
            if name in header:
                return header.index(name)
        return None

    col = {field: find(field) for field in IMPORT_SYNONYMS}
    for required in ("id", "sentence", "partitive", "strength", "mention",
                     "subjecthood", "modification"):
        if col[required] is None:
            raise ValidationError(
                f"{raw_path}: no column found for {required!r} "
                f"(tried {IMPORT_SYNONYMS[required]}); use column_map")
    if col["mean_rating"] is None and col["participant_ratings"] is None:
        raise ValidationError(
            f"{raw_path}: need a mean_rating or participant_ratings column")

    def cell(row, field):
        idx = col[field]
        return row[idx].strip() if idx is not None and idx < len(row) else ""

    split_text = str.split if cfg["pretokenized"] else tokenize
    positions = {name: i for i, name in enumerate(COLUMNS)}
    records, seen_ids = [], set()
    with in_file(raw_path):
        for row_num, row in enumerate(rows[1:], start=2):
            if not any(c.strip() for c in row):
                continue
            tokens = split_text(cell(row, "sentence"))
            lowered = [t.lower() for t in tokens]
            ratings = [p for p in cell(row, "participant_ratings")
                       .replace(";", ",").split(",") if p.strip()]
            mean = cell(row, "mean_rating")
            if ratings:
                try:  # trust the raw ratings; recompute a mean that differs
                    observed = sum(map(float, ratings)) / len(ratings)
                    if not (mean and abs(float(mean) - observed) <= 1e-6):
                        mean = repr(observed)
                except ValueError:
                    pass  # the row parser names the cell that is not a number
            some = cell(row, "some_index")
            if not some and tokens:  # no tokens: the row parser says so
                if "some" not in lowered:
                    raise ValidationError(f"no 'some' token in {tokens}",
                                          row=row_num)
                some = str(lowered.index("some"))
            of_cells = (cell(row, "of_partitive_indices"),
                        cell(row, "of_other_indices"))
            cells = {
                "id": cell(row, "id"), "tokens": " ".join(tokens),
                "context_tokens": " ".join(split_text(cell(row, "context"))),
                "mean_rating": mean, "participant_ratings": ",".join(ratings),
                "no_context_mean_rating": cell(row, "no_context_mean_rating"),
                "strength": cell(row, "strength"), "some_index": some,
                "of_partitive_indices": of_cells[0],
                "of_other_indices": of_cells[1],
                **{name: _import_binary(cell(row, name)) for name in
                   ("partitive", "mention", "subjecthood", "modification")}}
            record = parse_row([cells[name] for name in COLUMNS], positions,
                               row_num, seen_ids)
            if not any(of_cells):
                # heuristic: a partitive item's "of" right after "some" is
                # the partitive one; every other "of" is non-partitive
                after = record.some_index + 1
                if (record.features.partitive and after < len(tokens)
                        and lowered[after] == "of"):
                    record.of_partitive_indices = [after]
                record.of_other_indices = [
                    i for i, t in enumerate(lowered)
                    if t == "of" and i not in record.of_partitive_indices]
            records.append(record)

    def write_validated(tmp):
        write_corpus(records, tmp)
        parse_corpus(tmp)  # round-trip validation before the rename

    _atomic_write(cfg["output"], write_validated)
    print(f"imported {len(records)} records -> {cfg['output']}")
    return {"input": (raw_path, rows.sha256)}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(cfg):
    from .metrics import mse, pearson_or_nan
    from .model import save_checkpoint
    from .trainer import evaluate, examples_from_records, train

    records = _read_corpus(cfg)
    source, source_input = _load_source(cfg, records, cfg["with_context"])
    seed = cfg["seed"]

    sp = split(records, cfg["train_fraction"], seed)
    by_id = {r.id: r for r in records}
    train_records = [by_id[i] for i in sp.train_ids]
    test_records = [by_id[i] for i in sp.test_ids]

    if cfg["valid_fraction"] > 0 and train_records:
        carve = split(train_records, 1.0 - cfg["valid_fraction"],
                      derive_seed(seed, "valid-carve"))
        core_records = [by_id[i] for i in carve.train_ids]
        valid_records = [by_id[i] for i in carve.test_ids]
    else:
        core_records, valid_records = train_records, []

    train_ex = examples_from_records(core_records, source,
                                     cfg["with_context"])
    valid_ex = examples_from_records(valid_records, source,
                                     cfg["with_context"])
    test_ex = examples_from_records(test_records, source,
                                    cfg["with_context"])

    config = _model_train_config(cfg, source.dim)
    try:
        params, curve = train(train_ex, valid_ex, config)
    except ContractError as exc:  # the split left no item to train on
        raise ValidationError(str(exc), path=cfg["corpus"]) from None
    if curve.aborted:
        raise NumericError(f"training aborted: {curve.aborted}")

    _atomic_write(cfg["out"],
                  lambda tmp: save_checkpoint(params, config.model, tmp))
    _write_csv(cfg["curve"], ["epoch", "train_mse", "valid_r"],
               [(i + 1, e.train_mse, e.valid_r)
                for i, e in enumerate(curve.epochs)])
    _atomic_write_text(cfg["split_manifest"], sp.to_json() + "\n")

    rows = [("train_items", len(train_ex)), ("valid_items", len(valid_ex)),
            ("test_items", len(test_ex)),
            ("best_epoch", curve.best_epoch or 0)]
    if test_ex:
        scores = evaluate(test_ex, params, config)
        targets = np.array([ex.target for ex in test_ex])
        rows.append(("test_mse", mse(scores, targets)))
        rows.append(("test_pearson_r", pearson_or_nan(scores, targets)))
    _write_csv(cfg["metrics"], ["metric", "value"], rows)

    print(f"trained {config.model.hidden_dim}d model "
          f"(best epoch {curve.best_epoch}) -> {cfg['out']}")
    return {"corpus": (Path(cfg["corpus"]), records.sha256),
            "embeddings": source_input}


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

PAPER_GRID = [
    {"hidden_dim": h, "dropout_rate": d}
    for h in (100, 200, 400, 800) for d in (0.1, 0.2, 0.3, 0.4)
]


def _grid_entry_problem(entry) -> str | None:
    """Why a tune grid entry is unusable, or None if it is fine."""
    if not isinstance(entry, dict):
        return "not an object"
    unknown = sorted(set(entry) - set(_GRID_FLAGS))
    if unknown:
        return f"unknown keys {unknown}"
    for key, flag in _GRID_FLAGS.items():
        if key in entry:
            problem = flag.problem(entry[key])
        elif flag.default is None:
            problem = "is missing"
        else:
            continue
        if problem:
            return f"{key} {problem}"
    return None


def _parse_grid(obj, path=None) -> list[dict]:
    """The entries of a JSON tune grid, each with its defaults filled in;
    `path` names the file it came from."""
    if not isinstance(obj, list) or not obj:
        raise ValidationError("grid must be a nonempty JSON array", path=path)
    entries = []
    for entry in obj:
        problem = _grid_entry_problem(entry)
        if problem:
            where = f" (grid file {path})" if path else ""
            raise ValidationError(
                f"bad grid entry {entry!r}: {problem}{where}")
        entries.append({key: flag.default
                        for key, flag in _GRID_FLAGS.items()} | entry)
        entries[-1]["dropout_rate"] = float(entry["dropout_rate"])
    return entries


def _grid_points(entries: list[dict], cfg: dict, sources: dict) -> list:
    """The GridPoint of each parsed grid entry, training as `train` would
    with `cfg` and the entry's keys (`tune` seeds each fold itself)."""
    from .trainer import GridPoint

    points = []
    for entry in entries:
        name = entry["embedding"]
        if name not in sources:
            raise ValidationError(f"grid references embedding {name!r} but "
                                  f"no such source was given")
        config = _model_train_config({**cfg, **entry}, sources[name].dim)
        points.append(GridPoint(config, name, entry["with_context"]))
    return points


def cmd_tune(cfg):
    from .embeddings import load_glove, load_precomputed
    from .trainer import tune

    records = _read_corpus(cfg)
    seed = cfg["seed"]
    sp = split(records, cfg["train_fraction"], seed)
    by_id = {r.id: r for r in records}
    train_records = [by_id[i] for i in sp.train_ids]

    inputs = {"corpus": (Path(cfg["corpus"]), records.sha256)}
    grid_obj = cfg.get("grid") or PAPER_GRID
    if isinstance(grid_obj, str):
        grid_json, digest = _read_json(grid_obj)
        grid = _parse_grid(grid_json, path=grid_obj)
        inputs["grid"] = (Path(grid_obj), digest)
    else:
        grid = _parse_grid(grid_obj)

    sources = {}
    if cfg.get("glove"):
        with_context = any(entry["with_context"] for entry in grid)
        table = load_glove(cfg["glove"], cfg["unk_policy"],
                           keep=_record_tokens(train_records, with_context))
        sources["glove"] = table
        inputs["glove"] = (Path(cfg["glove"]), table.sha256)
    if cfg.get("precomputed"):
        for spec in (cfg["precomputed"] if isinstance(cfg["precomputed"], list)
                     else [cfg["precomputed"]]):
            name, _, path = spec.partition("=")
            if not path:
                name, path = "precomputed", name
            sources[name] = load_precomputed(path)
            inputs[name] = (Path(path), sources[name].sha256)
    if not sources:
        raise ValidationError("tune needs --glove and/or --precomputed")

    points = _grid_points(grid, cfg, sources)
    folds = kfold(train_records, cfg["k"], derive_seed(seed, "cv-folds"))
    results = tune(train_records, sources, points, folds,
                   seed=derive_seed(seed, "tune"), workers=cfg["workers"])

    k = cfg["k"]
    header = (["hidden_dim", "dropout_rate", "pooling", "with_context",
               "embedding"] + [f"fold_{i}_r" for i in range(k)]
              + ["mean_r", "error"])
    rows = []
    for res in results:
        model = res.point.config.model
        fold_cells = list(res.fold_rs) + [""] * (k - len(res.fold_rs))
        rows.append([model.hidden_dim, model.dropout_rate,
                     "attention" if model.use_attention else "final_state",
                     int(res.point.with_context), res.point.embedding]
                    + fold_cells + [res.mean_r, res.error or ""])
    _write_csv(cfg["out"], header, rows)

    hidden, dropout, pooling, _, embedding = rows[0][:5]
    print(f"best config: hidden={hidden} dropout={dropout} "
          f"pooling={pooling} embedding={embedding} "
          f"mean_r={results[0].mean_r:.4f}")
    return inputs


# ---------------------------------------------------------------------------
# eval / cv-predict
# ---------------------------------------------------------------------------

def cmd_eval(cfg):
    from .embeddings import embed_utterance
    from .metrics import mse, pearson_or_nan
    from .model import load_checkpoint, predict_batch

    corpus = _read_corpus(cfg)
    params, mconfig = load_checkpoint(cfg["model"])
    records = _subset_records(corpus, cfg)
    source, source_input = _load_source(cfg, records, cfg["with_context"])
    embedded = [embed_utterance(record, source, cfg["with_context"])
                for record in records]
    scores, attention = predict_batch(embedded, params, mconfig)
    if attention is None:
        attention = [[] for _ in records]
    preds = [(record.id, float(score), list(weights), record.mean_rating)
             for record, score, weights in zip(records, scores, attention)]

    scores = np.array([p[1] for p in preds])
    targets = np.array([rescale_rating(p[3]) for p in preds])
    rows = [("n_items", len(preds)), ("mse", mse(scores, targets)),
            ("pearson_r", pearson_or_nan(scores, targets))]
    _write_csv(cfg["out"], ["metric", "value"], rows)
    _write_csv(cfg["predictions"], ["id", "score", "attention"],
               [(rid, score, ";".join(repr(float(w)) for w in weights))
                for rid, score, weights, _ in preds])
    _write_csv(cfg["scatter"], ["id", "empirical", "predicted"],
               [(rid, empirical, unscale_rating(score))
                for rid, score, _, empirical in preds])

    print(f"evaluated {len(preds)} items -> {cfg['out']}")
    return {"corpus": (Path(cfg["corpus"]), corpus.sha256),
            "model": (Path(cfg["model"]), params.sha256),
            "embeddings": source_input}


def cmd_cv_predict(cfg):
    from .trainer import cv_predict, examples_from_records

    records = _read_corpus(cfg)
    source, source_input = _load_source(cfg, records, cfg["with_context"])
    examples = examples_from_records(records, source, cfg["with_context"])
    config = _model_train_config(cfg, source.dim)
    try:
        scores = cv_predict(examples, config, cfg["k"],
                            derive_seed(cfg["seed"], "cv-predict"))
    except ContractError as exc:  # the corpus has fewer items than folds
        raise ValidationError(str(exc), path=cfg["corpus"]) from None

    _write_csv(cfg["out"], ["id", "score"],
               [(ex.id, scores[ex.id]) for ex in examples])
    print(f"wrote {len(scores)} out-of-fold predictions -> {cfg['out']}")
    return {"corpus": (Path(cfg["corpus"]), records.sha256),
            "embeddings": source_input}


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def cmd_minimal_pairs(cfg):
    from .embeddings import load_glove
    from .model import load_checkpoint
    from .probes.minimal_pairs import (generate_minimal_pairs, load_frames,
                                       minimal_pair_report, score_variants)

    frames = load_frames(cfg.get("frames"))
    variants = generate_minimal_pairs(frames)
    params, mconfig = load_checkpoint(cfg["model"])
    table = load_glove(cfg["glove"], cfg["unk_policy"],
                       keep={t for v in variants for t in v.tokens()})
    scores = score_variants(variants, params, mconfig, table)
    groups = minimal_pair_report(variants, scores, B=cfg["bootstrap"],
                                 seed=derive_seed(cfg["seed"], "minimal-pairs"))

    _write_csv(cfg["out"],
               ["variant_id", "frame_id", "some_subject", "passive",
                "partitive", "prenominal_mod", "postnominal_mod", "text",
                "score", "raw_rating"],
               [(v.variant_id, v.frame_id, v.features["some_subject"],
                 v.features["passive"], v.features["partitive"],
                 v.features["prenominal_mod"], v.features["postnominal_mod"],
                 v.text, float(s), unscale_rating(float(s)))
                for v, s in zip(variants, scores)])
    _write_csv(cfg["groups"], ["grouping", "level", "n", "mean", "lo", "hi"],
               _interval_rows(groups))

    print(f"scored {len(variants)} variants -> {cfg['out']}")
    inputs = {"model": (Path(cfg["model"]), params.sha256),
              "glove": (Path(cfg["glove"]), table.sha256)}
    if cfg.get("frames"):
        inputs["frames"] = (Path(cfg["frames"]), frames.sha256)
    return inputs


def cmd_attention(cfg):
    from .model import load_checkpoint
    from .probes.attention import (attention_by_position,
                                   attention_for_records,
                                   partitive_of_analysis)

    records = _read_corpus(cfg)
    params, mconfig = load_checkpoint(cfg["model"])
    source, source_input = _load_source(cfg, records, with_context=False)
    weights = attention_for_records(records, params, mconfig, source)
    seed = cfg["seed"]
    report = attention_by_position(records, weights, cfg["max_len"],
                                   B=cfg["bootstrap"],
                                   seed=derive_seed(seed, "attention"))
    of_report = partitive_of_analysis(records, weights, B=cfg["bootstrap"],
                                      seed=derive_seed(seed, "of-analysis"))

    _write_csv(cfg["out"],
               ["analysis", "group", "position", "n", "mean", "lo", "hi"],
               _interval_rows(report.position_curves, "some_vs_other")
               + _interval_rows(report.subjecthood_curves,
                                "subjecthood_renormalized"))
    _write_csv(cfg["of_out"], ["mode", "kind", "n_tokens", "mean", "lo", "hi"],
               _interval_rows(of_report.raw, "raw")
               + _interval_rows(of_report.normalized, "normalized"))
    _write_csv(cfg["summary"], ["metric", "value"],
               [("some_mean_weight", report.some_mean),
                ("other_mean_weight", report.other_mean),
                ("n_length_filtered", report.n_length_filtered),
                ("n_multi_of", of_report.n_multi_of),
                ("skipped_missing_some", report.skipped_missing_some)])

    print(f"attention analyses ({report.n_length_filtered} length-filtered, "
          f"{of_report.n_multi_of} multi-of) -> {cfg['out']}")
    return {"corpus": (Path(cfg["corpus"]), records.sha256),
            "model": (Path(cfg["model"]), params.sha256),
            "embeddings": source_input}


def cmd_regress(cfg):
    from .probes.regression import RegressionSpec, regression_compare

    records = _read_corpus(cfg)
    path = cfg["predictions"]
    rows = read_rows(path)
    if not rows or "id" not in rows[0] or "score" not in rows[0]:
        raise ValidationError("need id,score columns", path=path)
    preds: dict[str, float] = {}
    for row_num, row in enumerate(rows[1:], start=2):
        if not row:
            continue  # a blank line holds no prediction
        cells = dict(zip(rows[0], row))
        rid = cells.get("id")
        if rid in preds:
            raise ValidationError(f"duplicate id {rid!r}", row=row_num,
                                  path=path)
        try:
            score = float(cells.get("score"))
        except (TypeError, ValueError):
            score = math.nan  # reported as a non-finite score is
        if not math.isfinite(score):
            raise ValidationError(
                f"score {cells.get('score')!r} is not a finite number",
                row=row_num, path=path)
        preds[rid] = score

    interactions = []
    if cfg["interactions"]:
        raw = (cfg["interactions"] if isinstance(cfg["interactions"], list)
               else [p for p in cfg["interactions"].split(",") if p])
        for pair in raw:
            a, sep, b = (pair if isinstance(pair, str)
                         else ":".join(pair)).partition(":")
            if not sep:
                raise ValidationError(
                    f"interaction {pair!r} must look like a:b")
            interactions.append((a.strip(), b.strip()))

    spec = RegressionSpec(interactions=interactions)
    with in_file(path):  # scores too spread out to standardize name it
        comparison = regression_compare(
            records, preds, spec, B=cfg["bootstrap"],
            seed=derive_seed(cfg["seed"], "regress"))
    _write_csv(cfg["out"],
               ["predictor", "beta_original", "ci_orig_lo", "ci_orig_hi",
                "beta_extended", "ci_ext_lo", "ci_ext_hi", "p_shrink",
                "stars"],
               [(r.predictor, r.beta_original, r.ci_original[0],
                 r.ci_original[1], r.beta_extended, r.ci_extended[0],
                 r.ci_extended[1], r.p_shrink, r.stars)
                for r in comparison.rows])
    print(f"compared {comparison.n_items} items over "
          f"{comparison.n_bootstrap} resamples -> {cfg['out']}")
    return {"corpus": (Path(cfg["corpus"]), records.sha256),
            "predictions": (Path(path), rows.sha256)}


def cmd_ceiling(cfg):
    from .metrics import bootstrap_ceiling, pearson_or_nan

    records = _read_corpus(cfg)
    items = [r.participant_ratings for r in records
             if len(r.participant_ratings) >= 2]
    rows = [("n_items", len(items))]
    if items:
        rows.append(("ceiling_r", bootstrap_ceiling(
            items, cfg["bootstrap"], derive_seed(cfg["seed"], "ceiling"))))
    paired = [(r.mean_rating, r.no_context_mean_rating) for r in records
              if r.no_context_mean_rating is not None]
    rows.append(("n_with_no_context_rating", len(paired)))
    if len(paired) >= 2:
        x = np.array([p[0] for p in paired])
        y = np.array([p[1] for p in paired])
        rows.append(("context_vs_no_context_r", pearson_or_nan(x, y)))

    _write_csv(cfg["out"], ["metric", "value"], rows)
    print(f"agreement ceiling report -> {cfg['out']}")
    return {"corpus": (Path(cfg["corpus"]), records.sha256)}


# ---------------------------------------------------------------------------
# the flag table: the parser, the config keys and the required checks
# ---------------------------------------------------------------------------

# JSON types a --config value may have for each flag type, and their name
_CONFIG_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
                 float: ((int, float), "a number"), str: ((str,), "a string"),
                 dict: ((dict,), "an object")}

# what a config list's elements (an object's values) may be, by their name
_CONFIG_ITEMS = {
    "strings": lambda v: isinstance(v, str),
    "objects": lambda v: isinstance(v, dict),
    "'a:b' strings or [a, b] pairs": lambda v: isinstance(v, str) or (
        isinstance(v, list) and len(v) == 2
        and all(isinstance(s, str) for s in v)),
}

# the range a number may lie in, by the words a message names it with
_RULES = {
    ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "a finite number above 0": lambda v: math.isfinite(v) and v > 0,
    "in [0, 1)": lambda v: 0 <= v < 1, "in (0, 1)": lambda v: 0 < v < 1,
}


@dataclass(frozen=True)
class Flag:
    """A config key's flag (None: config file only), its value type, its
    default (None: unset), for a number its range, and for a path whether
    the command reads or writes the file."""

    name: str | None
    type: type = str  # bool: a switch that sets True
    choices: tuple[str, ...] | None = None
    help: str | None = None
    # a key of _CONFIG_ITEMS: a config file may give a list of these
    # instead (a dict flag's object holds them as its values)
    items: str | None = None
    repeatable: bool = False
    rule: str | None = None  # a key of _RULES
    default: object = None
    reads: bool = False  # names a file the command reads
    # names a file the command writes: True for the run's main output, or
    # the suffix that the main output's path takes to give this default
    writes: bool | str = False
    per_command: dict = field(default_factory=dict)  # {command: overrides}

    def problem(self, value) -> str | None:
        """Why this flag could not have set `value`, or None if it could."""
        types, what = _CONFIG_TYPES[self.type]
        if self.items and self.type is not dict:
            types, what = types + (list,), what + " or a list"
        if self.choices:
            what = "one of " + ", ".join(map(repr, self.choices))
        if not (isinstance(value, types)
                and (bool in types or not isinstance(value, bool))
                and (not self.choices or value in self.choices)):
            return f"must be {what}, got {value!r}"
        if self.items and isinstance(value, (list, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                if not _CONFIG_ITEMS[self.items](item):
                    return f"must hold {self.items}, got {item!r}"
        if self.rule and not _RULES[self.rule](value):
            return f"must be {self.rule}, got {value!r}"
        return None

    def check(self, what: str, value, path=None) -> None:
        """Reject a value that this flag could not have set; `what` names
        the flag or config key, `path` the config file."""
        problem = self.problem(value)
        if problem:
            raise ValidationError(f"{what} {problem}", path=path)


FLAGS = {
    "input": Flag("--input", reads=True), "model": Flag("--model", reads=True),
    "corpus": Flag("--corpus", reads=True),
    "glove": Flag("--glove", reads=True),
    "output": Flag("--output", writes=True),
    "pretokenized": Flag("--pretokenized", bool, default=False, help=(
        "sentence/context cells are already space-tokenized")),
    "column_map": Flag(None, dict, items="strings", default={}),
    "frames": Flag("--frames", reads=True,
                   help="frame TSV (default: bundled)"),
    "precomputed": Flag("--precomputed", reads=True, per_command={"tune": {
        "repeatable": True, "items": "strings",
        "help": "name=path, repeatable"}}),
    "grid": Flag("--grid", reads=True, items="objects",
                 help="grid JSON file (default: built-in grid)"),
    "hidden_dim": Flag("--hidden-dim", int, rule=">= 1", default=100),
    "dropout_rate": Flag("--dropout", float, rule="in [0, 1)", default=0.2),
    "pooling": Flag("--pooling", choices=("attention", "final_state"),
                    default="attention"),
    "with_context": Flag("--with-context", bool, default=False),
    "subset": Flag("--subset", choices=("all", "train", "test"),
                   default="all"),
    # k's upper bound is the corpus size, which kfold checks
    "k": Flag("--k", int, rule=">= 2", default=5,
              per_command={"cv-predict": {"default": 6}}),
    "epochs": Flag("--epochs", int, rule=">= 1", default=40,
                   per_command={"tune": {"default": 15}}),
    "batch_size": Flag("--batch-size", int, rule=">= 1", default=32),
    "lr": Flag("--lr", float, rule="a finite number above 0", default=0.001),
    "grad_clip": Flag("--grad-clip", float, rule="a finite number above 0"),
    "train_fraction": Flag("--train-fraction", float, rule="in (0, 1)",
                           default=0.7),
    "valid_fraction": Flag("--valid-fraction", float, rule="in [0, 1)",
                           default=0.1),
    "split_seed": Flag("--split-seed", int, default=0),
    "max_len": Flag("--max-len", int, rule=">= 1", default=30),
    # regress takes 0 for point fits only
    "bootstrap": Flag("--bootstrap", int, rule=">= 1", default=1000,
                      per_command={"regress": {"rule": ">= 0",
                                               "default": 10000}}),
    "seed": Flag("--seed", int, default=0),
    "interactions": Flag("--interactions",
                         items="'a:b' strings or [a, b] pairs",
                         help="comma-joined a:b pairs", default=""),
    "unk_policy": Flag("--unk-policy", choices=(
        "zero_vector", "unk_token", "mean_vector"), default="zero_vector"),
    "workers": Flag("--workers", int, rule=">= 1", default=1,
                    help="fold worker processes"),
    "out": Flag("--out", writes=True, per_command={
        "train": {"help": "checkpoint path"},
        "tune": {"help": "ranked report CSV"}, "eval": {"help": "report CSV"},
        "minimal-pairs": {"help": "per-variant CSV"},
        "attention": {"help": "position-curve CSV"}}),
    "curve": Flag("--curve", writes=".curve.csv", help="learning-curve CSV"),
    "split_manifest": Flag("--split-manifest", writes=".split.json"),
    "metrics": Flag("--metrics", writes=".metrics.csv"),
    "predictions": Flag("--predictions", per_command={
        "eval": {"writes": ".predictions.csv",
                 "help": "per-item predictions CSV"},
        "regress": {"reads": True, "help": "id,score CSV from cv-predict"}}),
    "scatter": Flag("--scatter", writes=".scatter.csv",
                    help="id,empirical,predicted CSV"),
    "groups": Flag("--groups", writes=".groups.csv", help="grouped-means CSV"),
    "of_out": Flag("--of-out", writes=".of.csv", help="of-token CSV"),
    "summary": Flag("--summary", writes=".summary.csv", help="summary CSV"),
}

# the rules and defaults of a tune grid entry's keys, taken from the flags
# they mirror; an entry must give its model size and dropout
_GRID_FLAGS = {
    **{key: replace(FLAGS[key], default=None)
       for key in ("hidden_dim", "dropout_rate")},
    "pooling": FLAGS["pooling"], "with_context": FLAGS["with_context"],
    "embedding": Flag(None, default="glove")}


@dataclass(frozen=True)
class Command:
    help: str
    fn: Callable[[dict], dict]  # returns the manifest's inputs
    flags: str  # config keys with a flag, in --help order
    required: tuple[str, ...]
    config_only: tuple[str, ...] = ()

    def flags_by_key(self, name: str) -> dict[str, Flag]:
        """Every config key of subcommand `name` and its flag there."""
        return {k: replace(FLAGS[k], **FLAGS[k].per_command.get(name, {}))
                for k in self.flags.split() + list(self.config_only)}


COMMANDS = {
    "import": Command(
        "convert a released raw dataset to the corpus TSV", cmd_import,
        "input output pretokenized", ("input", "output"),
        config_only=("column_map",)),
    "train": Command(
        "train one model on the train split", cmd_train,
        "corpus glove precomputed hidden_dim dropout_rate pooling "
        "with_context epochs batch_size lr grad_clip train_fraction "
        "valid_fraction seed unk_policy out curve split_manifest metrics",
        ("corpus", "out")),
    "tune": Command(
        "grid search with k-fold CV on the train split", cmd_tune,
        "corpus glove precomputed grid k epochs batch_size lr "
        "train_fraction seed unk_policy out workers", ("corpus", "out")),
    "eval": Command(
        "evaluate a checkpoint on a corpus", cmd_eval,
        "model corpus glove precomputed with_context subset train_fraction "
        "split_seed unk_policy out predictions scatter",
        ("model", "corpus", "out")),
    "cv-predict": Command(
        "out-of-fold predictions for every record", cmd_cv_predict,
        "corpus glove precomputed hidden_dim dropout_rate pooling "
        "with_context epochs batch_size lr grad_clip k seed unk_policy out",
        ("corpus", "out")),
    "minimal-pairs": Command(
        "score the 800-variant minimal-pair suite", cmd_minimal_pairs,
        "frames model glove bootstrap seed unk_policy out groups",
        ("model", "glove", "out")),
    "attention": Command(
        "attention-weight analyses", cmd_attention,
        "corpus model glove precomputed max_len bootstrap seed unk_policy "
        "out of_out summary", ("corpus", "model", "out")),
    "regress": Command(
        "original vs extended rating regression", cmd_regress,
        "corpus predictions bootstrap seed interactions out",
        ("corpus", "predictions", "out")),
    "ceiling": Command(
        "inter-annotator agreement ceiling", cmd_ceiling,
        "corpus bootstrap seed out", ("corpus", "out")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sil", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--manifest", help=(
            "run manifest path (default: <first output>.manifest.json)"))
        for dest, flag in command.flags_by_key(name).items():
            text = flag.help
            default = (f"--out with suffix {flag.writes}"
                       if isinstance(flag.writes, str) else flag.default)
            if default not in (None, ""):
                shown = "off" if default is False else default
                text = (f"{text} (default: {shown})" if text
                        else f"default: {shown}")
            if flag.type is bool:
                p.add_argument(flag.name, dest=dest, action="store_const",
                               const=True, default=None, help=text)
            elif flag.name:
                p.add_argument(flag.name, dest=dest, type=flag.type,
                               choices=flag.choices, help=text,
                               action="append" if flag.repeatable else "store")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    started = datetime.now(timezone.utc).isoformat()
    try:
        cfg = _effective_config(args)
        inputs = COMMANDS[args.command].fn(cfg)
    except USER_ERRORS as exc:
        print(f"sil {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ArithmeticError, OSError, KeyError, MemoryError,
            ValueError) as exc:
        # every user error is a ValueError matched above; this one is
        # numpy refusing a size it cannot hold ("array is too big"). A
        # bare MemoryError says nothing, so name its type
        print(f"sil {args.command}: runtime error: "
              f"{str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2

    _write_manifest(args, argv, cfg, inputs, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
