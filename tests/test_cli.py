"""Command-line surface: exit codes, artifacts, manifests, reproducibility."""

import ast
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import platform
import shlex
import struct
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (corpus_records, make_precomputed, make_records,
                      vocab_of, write_glove)

import sil
from sil.cli import (COMMANDS, FLAGS, PAPER_GRID, _grid_entry_problem,
                     _grid_points, _parse_grid, build_parser, main)
from sil.corpus import COLUMNS, parse_corpus, write_corpus
from sil.embeddings import (UNK_POLICIES, UNK_TOKEN, embed_utterance,
                            load_glove, save_precomputed)
from sil.errors import ContractError, ValidationError
from sil.model import load_checkpoint, predict_batch


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_dicts(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    records = make_records(24, seed=5, no_context_col=True)
    corpus = root / "corpus.tsv"
    write_corpus(records, corpus)
    glove = root / "vectors.txt"
    write_glove(glove, sorted(vocab_of(records)), dim=8)
    return {"root": root, "corpus": corpus, "glove": glove,
            "records": records}


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace["root"] / "model.bin"
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--hidden-dim", "4", "--epochs", "2", "--batch-size", "8",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# exit codes and argument handling
# ---------------------------------------------------------------------------

def test_no_command_exits_one(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_one(capsys):
    assert main(["train", "--bogus"]) == 1


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0


def test_missing_required_flag_reports_validation(workspace, capsys):
    rc = main(["train", "--corpus", str(workspace["corpus"])])
    assert rc == 1
    assert "requires --out" in capsys.readouterr().err


def test_both_embedding_sources_rejected(workspace, tmp_path, capsys):
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--precomputed", str(workspace["glove"]),
               "--out", str(tmp_path / "m.bin")])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err


def test_corrupt_corpus_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("id\tnot_a_real_corpus\n", encoding="utf-8")
    rc = main(["ceiling", "--corpus", str(bad),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1


def test_missing_input_file_exits_one(tmp_path, capsys):
    rc = main(["ceiling", "--corpus", str(tmp_path / "nope.tsv"),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1


def edit_corpus_line(corpus, out, line, edit):
    """Copy a corpus TSV with the tab-split fields of one line edited."""
    lines = corpus.read_text(encoding="utf-8").split("\n")
    fields = lines[line - 1].split("\t")
    edit(fields)
    lines[line - 1] = "\t".join(fields)
    out.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("line, edit, named", [
    (4, lambda f: f.pop(), "line 4: expected 14 fields, got 13"),
    (3, lambda f: f.__setitem__(3, "high"),
     "line 3: cannot parse mean_rating from 'high'"),
    (5, lambda f: f.__setitem__(6, "2"), "row 5: partitive must be 0 or 1"),
    (6, lambda f: f.__setitem__(4, "9.0"),
     "row 6: participant rating 9.0 outside [1, 7]"),
    (1, lambda f: f.remove("strength"), "missing columns: strength"),
])
def test_bad_corpus_names_file(workspace, tmp_path, capsys, line, edit,
                               named):
    bad = tmp_path / "bad.tsv"
    edit_corpus_line(workspace["corpus"], bad, line, edit)
    rc = main(["ceiling", "--corpus", str(bad),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}: {named}" in err


@pytest.mark.parametrize("content, named", [
    (b"", "line 1: empty corpus file"),
    (b"id\ttokens\n\xff\xfe\n", "not UTF-8 text (invalid start byte)"),
    ("\t".join(COLUMNS).encode("utf-8") + b"\n" + b"a" * 200_000 + b"\n",
     "field larger than field limit"),
])
def test_unreadable_corpus_names_file(tmp_path, capsys, content, named):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(content)
    rc = main(["ceiling", "--corpus", str(bad),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if not named.startswith("line "):
        last_line = content.count(b"\n")  # the bad byte's or field's line
        named = f"line {last_line}: {named}"
    assert f"{bad}: {named}" in err


def test_unwritable_output_exits_two(workspace, tmp_path, capsys):
    blocked = tmp_path / "blocker"
    blocked.write_text("", encoding="utf-8")  # a file where a directory
    # of the output's path should be: found only when the output is written
    rc = main(["ceiling", "--corpus", str(workspace["corpus"]),
               "--bootstrap", "10", "--out", str(blocked / "report.csv")])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]  # no temp


def test_output_write_spares_existing_tmp_file(workspace, tmp_path):
    out = tmp_path / "ceiling.csv"
    other = tmp_path / "ceiling.csv.tmp"  # another run's temp file
    other.write_text("not ours", encoding="utf-8")
    rc = main(["ceiling", "--corpus", str(workspace["corpus"]),
               "--bootstrap", "10", "--out", str(out)])
    assert rc == 0
    assert other.read_text(encoding="utf-8") == "not ours"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ceiling.csv", "ceiling.csv.manifest.json", "ceiling.csv.tmp"]
    plain = tmp_path / "plain.txt"
    plain.write_text("", encoding="utf-8")
    assert out.stat().st_mode == plain.stat().st_mode


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_checkpoint_curve_metrics(workspace, trained, capsys):
    params, config = load_checkpoint(trained)
    assert config.hidden_dim == 4
    assert config.input_dim == 8

    curve = read_csv(trained.with_suffix(".curve.csv"))
    assert curve[0] == ["epoch", "train_mse", "valid_r"]
    assert len(curve) == 3  # header + 2 epochs
    assert float(curve[1][1]) > 0

    metrics = dict(read_csv(trained.with_suffix(".metrics.csv"))[1:])
    assert int(metrics["train_items"]) > 0
    assert int(metrics["test_items"]) == 7  # floor(24 * 0.3)
    assert "test_mse" in metrics and "test_pearson_r" in metrics


def test_train_manifest_records_provenance(workspace, trained):
    manifest = json.loads(
        (trained.parent / (trained.name + ".manifest.json"))
        .read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 2
    assert manifest["seed"] == 7
    digest = hashlib.sha256(
        workspace["corpus"].read_bytes()).hexdigest()
    assert manifest["inputs"]["corpus"]["sha256"] == digest
    assert str(trained) in manifest["outputs"]
    assert "--hidden-dim" in manifest["argv"]
    assert manifest["started_at"] <= manifest["finished_at"]


def test_manifest_records_the_environment(workspace, trained):
    manifest = json.loads(
        (trained.parent / (trained.name + ".manifest.json"))
        .read_text(encoding="utf-8"))
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["blas_threads"] == {var: os.environ.get(var)
                                   for var in _BLAS_VARS}
    assert env["cpu_count"] == os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        assert 1 <= env["cpu_affinity"] <= env["cpu_count"]
    if importlib.util.find_spec("resource"):
        assert env["peak_rss_mb"] > 0


def test_environment_block_leaves_outputs_unchanged(workspace, trained,
                                                    tmp_path, monkeypatch):
    # the same train and eval with the block emptied: every checkpoint and
    # CSV keeps its bytes
    def run(tag):
        out = tmp_path / f"{tag}.bin"
        assert main(["train", "--corpus", str(workspace["corpus"]),
                     "--glove", str(workspace["glove"]), "--hidden-dim", "4",
                     "--epochs", "2", "--batch-size", "8", "--seed", "7",
                     "--out", str(out)]) == 0
        assert main(["eval", "--model", str(out), "--corpus",
                     str(workspace["corpus"]), "--glove",
                     str(workspace["glove"]),
                     "--out", str(tmp_path / f"{tag}.eval.csv")]) == 0
        return {p.name[len(tag):]: p.read_bytes()
                for p in sorted(tmp_path.glob(f"{tag}.*"))
                if not p.name.endswith(".manifest.json")}

    with_block = run("on")
    monkeypatch.setattr("sil.cli._environment", lambda: {})
    without = run("off")
    assert len(with_block) == 7 and with_block == without
    assert with_block[".bin"] == trained.read_bytes()


def test_train_leaves_no_temp_files(workspace, trained):
    leftovers = list(workspace["root"].glob("*.tmp"))
    assert leftovers == []


def test_train_is_bit_reproducible(workspace, tmp_path):
    outs = []
    for name in ("a.bin", "b.bin"):
        out = tmp_path / name
        rc = main(["train", "--corpus", str(workspace["corpus"]),
                   "--glove", str(workspace["glove"]),
                   "--hidden-dim", "3", "--epochs", "2",
                   "--batch-size", "8", "--seed", "11", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_seed_changes_checkpoint(workspace, tmp_path, trained):
    out = tmp_path / "other-seed.bin"
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--hidden-dim", "4", "--epochs", "2", "--batch-size", "8",
               "--seed", "8", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() != trained.read_bytes()


def test_split_manifest_partitions_ids(workspace, tmp_path):
    out = tmp_path / "m.bin"
    split_path = tmp_path / "split.json"
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--hidden-dim", "3", "--epochs", "1", "--batch-size", "8",
               "--seed", "0", "--out", str(out),
               "--split-manifest", str(split_path)])
    assert rc == 0
    blob = json.loads(split_path.read_text(encoding="utf-8"))
    all_ids = {r.id for r in workspace["records"]}
    assert set(blob["train_ids"]) | set(blob["test_ids"]) == all_ids
    assert not set(blob["train_ids"]) & set(blob["test_ids"])


# ---------------------------------------------------------------------------
# config file layering
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corpus": str(workspace["corpus"]),
        "glove": str(workspace["glove"]),
        "hidden_dim": 3, "epochs": 3, "batch_size": 8, "seed": 1,
    }), encoding="utf-8")
    out = tmp_path / "m.bin"
    rc = main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert len(read_csv(out.with_suffix(".curve.csv"))) == 4  # 3 epochs


def test_flags_override_config_file(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corpus": str(workspace["corpus"]),
        "glove": str(workspace["glove"]),
        "hidden_dim": 3, "epochs": 3, "batch_size": 8, "seed": 1,
    }), encoding="utf-8")
    out = tmp_path / "m.bin"
    rc = main(["train", "--config", str(cfg), "--epochs", "1",
               "--out", str(out)])
    assert rc == 0
    assert len(read_csv(out.with_suffix(".curve.csv"))) == 2  # 1 epoch
    manifest = json.loads((tmp_path / "m.bin.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["config"]["epochs"] == 1


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epoch": 3}), encoding="utf-8")
    rc = main(["train", "--config", str(cfg),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--out", str(tmp_path / "m.bin")])
    assert rc == 1
    assert "epoch" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value, named", [
    ("train", "epochs", "2", "config epochs must be an integer, got '2'"),
    ("eval", "with_context", "no",
     "config with_context must be true or false, got 'no'"),
    ("train", "unk_policy", "nearest",
     "config unk_policy must be one of 'zero_vector', 'unk_token', "
     "'mean_vector', got 'nearest'"),
])
def test_config_value_of_wrong_type_exits_one(workspace, trained, tmp_path,
                                              capsys, command, key, value,
                                              named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "out.bin"
    argv = [command, "--config", str(cfg),
            "--corpus", str(workspace["corpus"]),
            "--glove", str(workspace["glove"]), "--out", str(out)]
    if command == "eval":
        argv += ["--model", str(trained)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"sil {command}: error: {cfg}: {named}" in err
    assert not out.exists()


def test_config_accepts_int_for_float_and_null_for_unset(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": 1, "grad_clip": None, "epochs": 1,
                               "hidden_dim": 2, "batch_size": 8}),
                   encoding="utf-8")
    out = tmp_path / "m.bin"
    rc = main(["train", "--config", str(cfg),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "m.bin.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["config"]["lr"] == 1


def _write_predictions(workspace, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,score\n")
        for i, r in enumerate(workspace["records"]):
            fh.write(f"{r.id},{0.3 + 0.01 * i}\n")


@pytest.mark.parametrize("command, key, value, named", [
    ("tune", "precomputed", [5], "config precomputed must hold strings, "
                                 "got 5"),
    ("regress", "interactions", [5], "config interactions must hold 'a:b' "
                                     "strings or [a, b] pairs, got 5"),
    ("regress", "interactions", [["a", "b", "c"]], "got ['a', 'b', 'c']"),
    ("import", "column_map", {"id": 5}, "config column_map must hold "
                                        "strings, got 5"),
])
def test_nested_config_value_of_wrong_type_exits_one(
        workspace, tmp_path, capsys, command, key, value, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    preds = tmp_path / "p.csv"
    _write_predictions(workspace, preds)
    out = tmp_path / "out.csv"
    corpus = str(workspace["corpus"])
    argv = {
        "tune": ["--corpus", corpus, "--glove", str(workspace["glove"]),
                 "--out", str(out)],
        "regress": ["--corpus", corpus, "--predictions", str(preds),
                    "--bootstrap", "0", "--out", str(out)],
        "import": ["--input", corpus, "--output", str(out)],
    }[command]
    assert main([command, "--config", str(cfg)] + argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"sil {command}: error: {cfg}: " in err and named in err
    assert not out.exists()


def test_regress_interactions_from_config(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"interactions": [
        "partitive:strength", ["mention", "subjecthood"]]}), encoding="utf-8")
    preds = tmp_path / "p.csv"
    _write_predictions(workspace, preds)
    out = tmp_path / "coef.csv"
    rc = main(["regress", "--config", str(cfg),
               "--corpus", str(workspace["corpus"]),
               "--predictions", str(preds), "--bootstrap", "0",
               "--out", str(out)])
    assert rc == 0
    names = [r["predictor"] for r in read_dicts(out)]
    assert "partitive:strength" in names
    assert "mention:subjecthood" in names


def _subcommands():
    return build_parser()._subparsers._group_actions[0].choices


def _valid_value(action):
    """A config value of the type the flag parses to, in every range."""
    if action.const is True:
        return True
    if action.choices:
        return action.choices[0]
    return {int: 2, float: 0.5}.get(action.type, "x")


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_flag_table_is_consistent(tmp_path, capsys, command):
    assert main([command, "--help"]) == 0
    capsys.readouterr()
    actions = [a for a in _subcommands()[command]._actions
               if a.dest not in ("help", "config", "manifest")]
    assert actions
    for action in actions:
        cfg = tmp_path / f"{action.dest}.json"
        cfg.write_text(json.dumps({action.dest: _valid_value(action)}),
                       encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "unknown config keys" not in err and "requires --" in err, \
            (action.dest, err)
    # every required key, left out alone, is named
    required = {"import": ["input", "output"], "train": ["corpus", "out"],
                "tune": ["corpus", "out"],
                "eval": ["model", "corpus", "out"],
                "cv-predict": ["corpus", "out"],
                "minimal-pairs": ["model", "glove", "out"],
                "attention": ["corpus", "model", "out"],
                "regress": ["corpus", "predictions", "out"],
                "ceiling": ["corpus", "out"]}[command]
    for missing in required:
        argv = [command]
        for key in required:
            if key != missing:
                argv += [f"--{key}", str(tmp_path / "absent")]
        assert main(argv) == 1
        assert f"{command} requires --{missing}" in capsys.readouterr().err


def _readme_command_lines() -> list[str]:
    """Every `sil ...` line of README's fenced bash blocks, with its
    backslash continuations joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines, block, pending = [], None, ""
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            block = None if block is not None else line[3:].strip()
            continue
        if block != "bash":
            continue
        pending += line.strip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        if pending.startswith("sil "):
            lines.append(pending)
        pending = ""
    return lines


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    assert {line.split()[1] for line in lines} == set(_subcommands())


def test_manifest_path_flag(workspace, tmp_path):
    out = tmp_path / "c.csv"
    manifest = tmp_path / "run.json"
    rc = main(["ceiling", "--corpus", str(workspace["corpus"]),
               "--bootstrap", "50", "--out", str(out),
               "--manifest", str(manifest)])
    assert rc == 0
    assert json.loads(manifest.read_text(encoding="utf-8"))["command"] == \
        "ceiling"


# ---------------------------------------------------------------------------
# output paths: declared in the flag table, resolved before any input is read
# ---------------------------------------------------------------------------

def _command_line(command, workspace, trained, tmp_path) -> list[str]:
    """A quick run of `command` on the workspace, without its --out."""
    corpus, glove = str(workspace["corpus"]), str(workspace["glove"])
    small = ["--hidden-dim", "2", "--epochs", "1", "--batch-size", "8"]
    if command == "import":
        raw = tmp_path / "raw.csv"
        raw.write_text(RAW_HEADER + "\n" + "\n".join(RAW_ROWS) + "\n",
                       encoding="utf-8")
        return ["import", "--input", str(raw)]
    if command == "tune":
        grid = tmp_path / "grid.json"
        grid.write_text('[{"hidden_dim": 2, "dropout_rate": 0}]',
                        encoding="utf-8")
        return ["tune", "--corpus", corpus, "--glove", glove, "--grid",
                str(grid), "--k", "2", *small[2:]]
    if command == "regress":
        preds = tmp_path / "p.csv"
        _write_predictions(workspace, preds)
        return ["regress", "--corpus", corpus, "--predictions", str(preds),
                "--bootstrap", "0"]
    return {
        "train": ["train", "--corpus", corpus, "--glove", glove, *small],
        "eval": ["eval", "--model", str(trained), "--corpus", corpus,
                 "--glove", glove],
        "cv-predict": ["cv-predict", "--corpus", corpus, "--glove", glove,
                       "--k", "2", *small],
        "minimal-pairs": ["minimal-pairs", "--model", str(trained),
                          "--glove", glove, "--bootstrap", "2"],
        "attention": ["attention", "--corpus", corpus, "--model",
                      str(trained), "--glove", glove, "--bootstrap", "2"],
        "ceiling": ["ceiling", "--corpus", corpus, "--bootstrap", "2"],
    }[command]


# each command's main output, then each derived output's flag and suffix
_OUTPUTS = {
    "import": ("corpus.tsv", []),
    "train": ("m.bin", [("curve", ".curve.csv"),
                        ("split_manifest", ".split.json"),
                        ("metrics", ".metrics.csv")]),
    "tune": ("t.csv", []),
    "eval": ("r.csv", [("predictions", ".predictions.csv"),
                       ("scatter", ".scatter.csv")]),
    "cv-predict": ("o.csv", []),
    "minimal-pairs": ("v.csv", [("groups", ".groups.csv")]),
    "attention": ("a.csv", [("of_out", ".of.csv"),
                            ("summary", ".summary.csv")]),
    "regress": ("g.csv", []),
    "ceiling": ("c.csv", []),
}


@pytest.mark.parametrize("command", sorted(_OUTPUTS))
def test_manifest_lists_the_outputs_in_table_order(workspace, trained,
                                                   tmp_path, command):
    main_name, derived = _OUTPUTS[command]
    out = tmp_path / main_name
    out_flag = "--output" if command == "import" else "--out"
    argv = _command_line(command, workspace, trained, tmp_path)
    assert main(argv + [out_flag, str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json")
                          .read_text(encoding="utf-8"))
    expected = [str(out)] + [str(out.with_suffix(suffix))
                             for _, suffix in derived]
    assert manifest["outputs"] == expected
    assert all(Path(path).is_file() for path in expected)
    flags = COMMANDS[command].flags_by_key(command)
    assert [key for key, flag in flags.items() if flag.writes] == \
        ["output" if command == "import" else "out"] + [k for k, _ in derived]
    for key, suffix in derived:
        assert flags[key].writes == suffix
        # the manifest's config records the resolved path
        assert manifest["config"][key] == str(out.with_suffix(suffix))


def test_an_output_flag_overrides_its_derived_default(workspace, tmp_path):
    out, curve = tmp_path / "m.bin", tmp_path / "elsewhere" / "lc.csv"
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--hidden-dim", "2",
               "--epochs", "1", "--curve", str(curve), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "m.bin.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["outputs"] == [str(out), str(curve),
                                   str(tmp_path / "m.split.json"),
                                   str(tmp_path / "m.metrics.csv")]
    assert curve.is_file() and not (tmp_path / "m.curve.csv").exists()


def test_help_names_each_derived_default(capsys):
    for name, command in COMMANDS.items():
        assert main([name, "--help"]) == 0
        shown = " ".join(capsys.readouterr().out.split())
        for key, flag in command.flags_by_key(name).items():
            if isinstance(flag.writes, str):
                assert f"default: --out with suffix {flag.writes}" in \
                    shown, (name, key)


def _assert_refused(capsys, command, said, *untouched):
    err = capsys.readouterr().err
    assert err == f"sil {command}: error: {said}\n"
    for path, content in untouched:
        assert (path.read_bytes() if path.exists() else None) == content


def test_an_output_on_the_corpus_exits_one(workspace, tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_bytes(workspace["corpus"].read_bytes())
    rc = main(["ceiling", "--corpus", str(corpus), "--out", str(corpus)])
    assert rc == 1
    _assert_refused(capsys, "ceiling", f"--corpus and --out both name {corpus}",
                    (corpus, workspace["corpus"].read_bytes()),
                    (tmp_path / "c.tsv.manifest.json", None))


def test_two_outputs_on_one_path_exit_one(workspace, trained, tmp_path,
                                          capsys):
    report = tmp_path / "r.csv"
    rc = main(["eval", "--model", str(trained),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--out", str(report), "--predictions", str(report)])
    assert rc == 1
    _assert_refused(capsys, "eval",
                    f"--out and --predictions both name {report}",
                    (report, None), (tmp_path / "r.scatter.csv", None))


def test_the_manifest_on_an_output_exits_one(workspace, tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["ceiling", "--corpus", str(workspace["corpus"]),
               "--out", str(out), "--manifest", str(out)])
    assert rc == 1
    _assert_refused(capsys, "ceiling", f"--out and --manifest both name {out}",
                    (out, None))


@pytest.mark.parametrize("argv, said", [
    # an output given on a derived default's path
    (["--metrics", "m.curve.csv"], "--curve and --metrics both name {}"),
    # the manifest on a derived default's path, spelled another way
    (["--manifest", "sub/../m.split.json"],
     "--split-manifest and --manifest both name {}"),
])
def test_an_output_on_a_derived_default_exits_one(workspace, tmp_path,
                                                  capsys, monkeypatch,
                                                  argv, said):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--out", "m.bin", *argv])
    assert rc == 1
    _assert_refused(capsys, "train", said.format(argv[1]),
                    (tmp_path / "m.bin", None))


# each input flag, with a command that reads it and any other flags that
# command requires; every input names a file that does not exist, so the
# error shows that nothing was read
_INPUT_CASES = [
    ("ceiling", "--corpus", []),
    ("eval", "--model", ["--corpus", "absent.tsv"]),
    ("train", "--glove", ["--corpus", "absent.tsv"]),
    ("eval", "--precomputed", ["--corpus", "absent.tsv",
                               "--model", "absent.bin"]),
    ("minimal-pairs", "--frames", ["--model", "absent.bin",
                                   "--glove", "absent.txt"]),
    ("tune", "--grid", ["--corpus", "absent.tsv"]),
    ("regress", "--predictions", ["--corpus", "absent.tsv"]),
    ("import", "--input", []),
    ("ceiling", "--config", ["--corpus", "absent.tsv"]),
]


@pytest.mark.parametrize("command, flag, others", _INPUT_CASES,
                         ids=[f"{c}{f}" for c, f, _ in _INPUT_CASES])
def test_an_output_on_an_input_exits_one(tmp_path, capsys, monkeypatch,
                                         command, flag, others):
    monkeypatch.chdir(tmp_path)
    # a config file is read first, to learn the paths
    config = b"{}" if flag == "--config" else None
    if config:
        (tmp_path / "in.csv").write_bytes(config)
    out_flag = "--output" if command == "import" else "--out"
    rc = main([command, *others, flag, "in.csv", out_flag, "in.csv"])
    assert rc == 1
    _assert_refused(capsys, command, f"{flag} and {out_flag} both name in.csv",
                    (tmp_path / "in.csv", config))


def test_tune_source_path_after_the_name_is_an_input(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["tune", "--corpus", "absent.tsv", "--precomputed",
               "pc=vectors.jsonl", "--out", "t.csv",
               "--manifest", "vectors.jsonl"])
    assert rc == 1
    _assert_refused(capsys, "tune",
                    "--precomputed and --manifest both name vectors.jsonl")
    # the name alone is not a path
    rc = main(["tune", "--corpus", "absent.tsv", "--precomputed",
               "pc=vectors.jsonl", "--out", "pc"])
    assert rc == 1
    assert "absent.tsv" in capsys.readouterr().err


# an output that names a directory: ".", a path ending in "/", or a
# directory that exists; (command, argv, directories made first, the flag
# and path named). Every input is absent, so the error shows that nothing
# was read
_DIRECTORY_CASES = {
    "ceiling-dot": ("ceiling", ["--out", "."], [], "--out", "."),
    "ceiling-dir": ("ceiling", ["--out", "sub"], ["sub"], "--out", "sub"),
    "ceiling-dir-slash": ("ceiling", ["--out", "sub/"], ["sub"], "--out",
                          "sub/"),
    "ceiling-new-dir-slash": ("ceiling", ["--out", "new/"], [], "--out",
                              "new/"),
    "eval-dot": ("eval", ["--model", "absent.bin", "--out", "."], [],
                 "--out", "."),
    "eval-derived-default": ("eval", ["--model", "absent.bin", "--out",
                                      "r.csv"], ["r.scatter.csv"],
                             "--scatter", "r.scatter.csv"),
    "eval-given": ("eval", ["--model", "absent.bin", "--out", "r.csv",
                            "--predictions", "sub/"], ["sub"],
                   "--predictions", "sub/"),
    "manifest": ("ceiling", ["--out", "c.csv", "--manifest", ".."], [],
                 "--manifest", ".."),
    "manifest-default": ("ceiling", ["--out", "c.csv"],
                         ["c.csv.manifest.json"], "--manifest",
                         "c.csv.manifest.json"),
}


@pytest.mark.parametrize("case", sorted(_DIRECTORY_CASES))
def test_an_output_that_names_a_directory_exits_one(tmp_path, capsys,
                                                    monkeypatch, case):
    command, argv, dirs, flag, path = _DIRECTORY_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name in dirs:
        (tmp_path / name).mkdir()
    rc = main([command, "--corpus", "absent.tsv", *argv])
    assert rc == 1
    _assert_refused(capsys, command,
                    f"{flag} names a directory, not a file: {path}")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(dirs)
    for name in dirs:
        assert not any((tmp_path / name).iterdir())


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_reports_and_predictions(workspace, trained, tmp_path):
    report = tmp_path / "report.csv"
    preds = tmp_path / "preds.csv"
    scatter = tmp_path / "scatter.csv"
    rc = main(["eval", "--model", str(trained),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--subset", "all",
               "--out", str(report), "--predictions", str(preds),
               "--scatter", str(scatter)])
    assert rc == 0
    metrics = dict(read_csv(report)[1:])
    assert int(metrics["n_items"]) == 24
    assert float(metrics["mse"]) >= 0
    assert "pearson_r" in metrics

    rows = read_dicts(preds)
    assert len(rows) == 24
    for row in rows:
        assert 0.0 < float(row["score"]) < 1.0
        weights = [float(w) for w in row["attention"].split(";")]
        assert abs(sum(weights) - 1.0) < 1e-6

    scatter_rows = read_dicts(scatter)
    empirical = [float(r["empirical"]) for r in scatter_rows]
    predicted = [float(r["predicted"]) for r in scatter_rows]
    assert all(1.0 <= v <= 7.0 for v in empirical)
    assert all(1.0 <= v <= 7.0 for v in predicted)


@pytest.mark.parametrize("policy", UNK_POLICIES)
def test_eval_of_a_final_state_model(workspace, tmp_path, policy):
    # the file lacks two of the corpus's tokens, so some inputs read the
    # unknown row, as loaded without a cut to the corpus's tokens
    records = workspace["records"]
    glove = tmp_path / "vectors.txt"
    write_glove(glove, [*sorted(vocab_of(records) - {"dogs", "park"}),
                        UNK_TOKEN])
    model = tmp_path / "m.bin"
    assert main(["train", "--corpus", str(workspace["corpus"]),
                 "--glove", str(glove), "--unk-policy", policy,
                 "--pooling", "final_state", "--hidden-dim", "4",
                 "--epochs", "1", "--out", str(model)]) == 0
    preds = tmp_path / "preds.csv"
    assert main(["eval", "--model", str(model),
                 "--corpus", str(workspace["corpus"]), "--glove", str(glove),
                 "--unk-policy", policy, "--subset", "all",
                 "--out", str(tmp_path / "report.csv"),
                 "--predictions", str(preds)]) == 0
    rows = read_dicts(preds)
    assert [row["id"] for row in rows] == [r.id for r in records]
    assert all(row["attention"] == "" for row in rows)
    params, config = load_checkpoint(model)
    assert not config.use_attention
    table = load_glove(glove, policy)
    ids = [embed_utterance(record, table) for record in records]
    unknown = table.row_ids(["absent"])[0]
    assert any(unknown in item for item in ids)
    scores, attention = predict_batch(table.matrix, ids, params, config)
    assert attention is None
    assert [float(row["score"]) for row in rows] == scores.tolist()


def test_eval_subset_sizes_match_split(workspace, trained, tmp_path):
    sizes = {}
    for subset in ("train", "test"):
        report = tmp_path / f"{subset}.csv"
        rc = main(["eval", "--model", str(trained),
                   "--corpus", str(workspace["corpus"]),
                   "--glove", str(workspace["glove"]),
                   "--subset", subset, "--out", str(report)])
        assert rc == 0
        sizes[subset] = int(dict(read_csv(report)[1:])["n_items"])
    assert sizes == {"train": 17, "test": 7}


def _small_corpus(workspace, tmp_path, n):
    corpus = tmp_path / f"corpus{n}.tsv"
    write_corpus(workspace["records"][:n], corpus)
    return corpus


def test_train_on_one_test_item_reports_nan_r(workspace, tmp_path, capsys):
    # 5 records at --train-fraction 0.7 hold out floor(5 * 0.3) = 1 item
    out = tmp_path / "m.bin"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--corpus",
                   str(_small_corpus(workspace, tmp_path, 5)),
                   "--glove", str(workspace["glove"]), "--hidden-dim", "4",
                   "--epochs", "2", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in caught] == []
    metrics = dict(read_csv(out.with_suffix(".metrics.csv"))[1:])
    assert int(metrics["test_items"]) == 1
    assert math.isnan(float(metrics["test_pearson_r"]))
    assert (tmp_path / "m.bin.manifest.json").exists()


def test_eval_of_an_empty_subset_reports_nan(workspace, trained, tmp_path,
                                             capsys):
    # 3 records at --train-fraction 0.7 hold out floor(3 * 0.3) = 0 items
    report = tmp_path / "report.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--model", str(trained), "--corpus",
                   str(_small_corpus(workspace, tmp_path, 3)),
                   "--glove", str(workspace["glove"]), "--subset", "test",
                   "--out", str(report)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in caught] == []
    metrics = dict(read_csv(report)[1:])
    assert int(metrics["n_items"]) == 0
    assert math.isnan(float(metrics["mse"]))
    assert math.isnan(float(metrics["pearson_r"]))
    assert (tmp_path / "report.csv.manifest.json").exists()


@pytest.mark.parametrize("valid_fraction", ["0", "0.1"])
def test_train_on_an_empty_train_split_names_the_corpus(
        workspace, tmp_path, capsys, valid_fraction):
    # 24 records at --train-fraction 1e-300 hold out floor(24 * 1) = 24
    out = tmp_path / "m.bin"
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--train-fraction", "1e-300",
               "--valid-fraction", valid_fraction, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sil train: error: {workspace['corpus']}: "
        f"train set must be nonempty\n")
    assert not out.exists()


def test_cv_predict_on_a_header_only_corpus_names_it(workspace, tmp_path,
                                                     capsys):
    corpus = _small_corpus(workspace, tmp_path, 0)
    out = tmp_path / "cv.csv"
    rc = main(["cv-predict", "--corpus", str(corpus),
               "--glove", str(workspace["glove"]), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sil cv-predict: error: {corpus}: no records\n")
    assert not out.exists()


# each command on a header-only corpus; every other file it names is
# missing, so the corpus is the first file the command reads
@pytest.mark.parametrize("command, flags", [
    ("train", ["--glove"]),
    ("tune", ["--glove"]),
    ("eval", ["--model", "--glove", "--subset=test"]),
    ("eval", ["--model", "--glove", "--subset=all"]),
    ("cv-predict", ["--glove"]),
    ("attention", ["--model", "--glove"]),
    ("regress", ["--predictions"]),
    ("ceiling", []),
], ids=["train", "tune", "eval-test", "eval-all", "cv-predict", "attention",
        "regress", "ceiling"])
def test_a_header_only_corpus_exits_one_naming_it(workspace, tmp_path, capsys,
                                                  command, flags):
    corpus = _small_corpus(workspace, tmp_path, 0)
    argv = [command, "--corpus", str(corpus),
            "--out", str(tmp_path / "out.csv")]
    for flag in flags:
        argv += [flag] if "=" in flag else [flag, str(tmp_path / flag[2:])]
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sil {command}: error: {corpus}: no records\n")
    assert list(tmp_path.iterdir()) == [corpus]


@pytest.mark.parametrize("fraction", ["1.0", "-0.5"])
def test_valid_fraction_out_of_range_exits_one(workspace, tmp_path, capsys,
                                               fraction):
    out = tmp_path / "m.bin"
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--hidden-dim", "4",
               "--epochs", "1", "--valid-fraction", fraction,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"--valid-fraction must be in [0, 1), got {fraction}" in err
    assert "Traceback" not in err
    assert not out.exists()


# what each numeric flag's message says its value must be, and the
# commands where it says otherwise
_FLAG_RULES = {"--lr": "a finite number above 0",
               "--grad-clip": "a finite number above 0",
               "--bootstrap": ">= 1", "--max-len": ">= 1",
               "--epochs": ">= 1", "--batch-size": ">= 1",
               "--hidden-dim": ">= 1", "--k": ">= 2", "--workers": ">= 1",
               "--dropout": "in [0, 1)", "--valid-fraction": "in [0, 1)",
               "--train-fraction": "in (0, 1)"}
_COMMAND_RULES = {("regress", "--bootstrap"): ">= 0"}
# the flags that take any integer: each seeds a run
_UNRANGED = {"seed", "split_seed"}
# a value just outside each rule
_OUTSIDE = {"a finite number above 0": "0", ">= 0": "-1", ">= 1": "0",
            ">= 2": "1", "in [0, 1)": "1", "in (0, 1)": "1"}


def _rule(command, flag):
    return _COMMAND_RULES.get((command, flag), _FLAG_RULES[flag])


def _numeric_flags(command):
    """The flags of `command` that take a number in a range."""
    return [flag.name for key, flag in
            COMMANDS[command].flags_by_key(command).items()
            if flag.type in (int, float) and key not in _UNRANGED]


def _absent_inputs(command, tmp_path):
    """Each input flag `command` requires, naming a file that is absent."""
    return [arg for key in COMMANDS[command].required if key != "out"
            for arg in (FLAGS[key].name, str(tmp_path / "absent"))]


# every numeric flag of every command at a value outside its range, and
# more values for some
_BAD_FLAG_CASES = list(dict.fromkeys([
    ("train", "--lr", "nan"), ("train", "--lr", "inf"),
    ("train", "--lr", "-1"), ("train", "--lr", "0"),
    ("train", "--grad-clip", "nan"), ("train", "--grad-clip", "inf"),
    ("train", "--grad-clip", "0"), ("train", "--grad-clip", "-1"),
    ("tune", "--lr", "nan"), ("tune", "--lr", "-1"),
    ("cv-predict", "--lr", "inf"), ("cv-predict", "--grad-clip", "0"),
    ("ceiling", "--bootstrap", "-1"), ("minimal-pairs", "--bootstrap", "0"),
    ("attention", "--bootstrap", "0"), ("attention", "--max-len", "0"),
    ("attention", "--max-len", "-2"),
    ("train", "--epochs", "0"), ("train", "--batch-size", "0"),
    ("train", "--hidden-dim", "0"), ("train", "--hidden-dim", "-3"),
    ("cv-predict", "--epochs", "0"), ("cv-predict", "--batch-size", "-1"),
    ("cv-predict", "--hidden-dim", "0"), ("cv-predict", "--k", "1"),
    ("tune", "--epochs", "0"), ("tune", "--batch-size", "0"),
    ("tune", "--k", "1"), ("tune", "--k", "0"),
    ("train", "--dropout", "1.5"), ("train", "--dropout", "-0.1"),
    ("train", "--train-fraction", "1.5"), ("train", "--train-fraction", "0"),
    ("train", "--valid-fraction", "nan"), ("cv-predict", "--lr", "nan"),
    ("cv-predict", "--dropout", "nan"), ("tune", "--workers", "-1"),
    ("tune", "--train-fraction", "inf"), ("eval", "--train-fraction", "1.5"),
    ("regress", "--bootstrap", "-1"),
    *[(command, flag, _OUTSIDE[_rule(command, flag)])
      for command in COMMANDS for flag in _numeric_flags(command)],
]))


@pytest.mark.parametrize("command, flag, value", _BAD_FLAG_CASES)
def test_bad_step_size_exits_one(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out.csv"
    # no input exists: a flag's range is checked before any file is read
    rc = main([command, *_absent_inputs(command, tmp_path), flag, value,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    said = f"sil {command}: error: {flag} must be {_rule(command, flag)}, got "
    assert err.startswith(said)
    assert err[len(said):].rstrip("\n") in (value, repr(float(value)))
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("train", "lr", float("nan")), ("train", "dropout_rate", 1.0),
    ("eval", "train_fraction", 0), ("attention", "max_len", 0),
    ("cv-predict", "k", 1), ("tune", "workers", -1),
    ("regress", "bootstrap", -1),
])
def test_bad_config_value_exits_one(tmp_path, capsys, command, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = main([command, "--config", str(config),
               *_absent_inputs(command, tmp_path), "--out", str(out)])
    assert rc == 1
    rule = _rule(command, FLAGS[key].name)
    assert capsys.readouterr().err == (
        f"sil {command}: error: {config}: config {key} must be {rule}, "
        f"got {value!r}\n")
    assert not out.exists()


def test_every_numeric_flag_has_a_range():
    for name, command in COMMANDS.items():
        for key, flag in command.flags_by_key(name).items():
            if flag.type in (int, float):
                assert (flag.rule is None) == (key in _UNRANGED), (name, key)


def test_every_default_is_in_range():
    for name, command in COMMANDS.items():
        for key, flag in command.flags_by_key(name).items():
            if flag.default is not None:
                assert flag.problem(flag.default) is None, (name, key)


# the defaults that differ by command; every other flag has one default
_COMMAND_DEFAULTS = {("tune", "epochs"): 15, ("cv-predict", "k"): 6,
                     ("regress", "bootstrap"): 10000}


def test_help_shows_each_command_default():
    for name, command in COMMANDS.items():
        flags = command.flags_by_key(name)
        for key, flag in flags.items():
            default = _COMMAND_DEFAULTS.get((name, key), FLAGS[key].default)
            assert flag.default == default, (name, key)
        for action in _subcommands()[name]._actions:
            default = flags[action.dest].default if action.dest in flags \
                else None
            if default not in (None, ""):
                shown = "off" if default is False else default
                assert action.help.endswith(f"default: {shown})") or \
                    action.help == f"default: {shown}", (name, action.dest)


def test_help_names_the_default_beside_its_flag(capsys):
    assert main(["tune", "--help"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    assert "--epochs EPOCHS default: 15 " in shown
    assert "--workers WORKERS fold worker processes (default: 1)" in shown
    assert main(["regress", "--help"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    assert "--bootstrap BOOTSTRAP default: 10000 " in shown


def test_paper_grid_entries_are_valid():
    for entry in PAPER_GRID:
        assert _grid_entry_problem(entry) is None, entry


def test_a_grid_entry_trains_as_the_train_flags_would():
    entries = _parse_grid([{"hidden_dim": 3, "dropout_rate": 0,
                            "pooling": "final_state", "with_context": True,
                            "embedding": "pc"}])
    cfg = {key: flag.default for key, flag in
           COMMANDS["tune"].flags_by_key("tune").items()}
    (point,) = _grid_points(entries, cfg, {"pc": SimpleNamespace(dim=5)})
    model, config = point.config.model, point.config
    assert (model.input_dim, model.hidden_dim, model.use_attention) == \
        (5, 3, False)
    assert repr(model.dropout_rate) == "0.0"
    assert (config.epochs, config.batch_size, config.lr, config.grad_clip) \
        == (15, 32, 0.001, None)
    assert (point.embedding, point.with_context) == ("pc", True)
    with pytest.raises(ValidationError, match="embedding 'pc' but no such"):
        _grid_points(entries, cfg, {"glove": SimpleNamespace(dim=5)})


@pytest.mark.parametrize("error, said", [
    (MemoryError("Unable to allocate 116. TiB for an array with shape "
                 "(1000000000000, 16) and data type int64"),
     "Unable to allocate 116. TiB"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_two(tmp_path, monkeypatch, capsys, error, said):
    def exhausted(cfg):
        raise error

    monkeypatch.setitem(COMMANDS, "minimal-pairs", dataclasses.replace(
        COMMANDS["minimal-pairs"], fn=exhausted))
    out = tmp_path / "mp.csv"
    rc = main(["minimal-pairs", *_absent_inputs("minimal-pairs", tmp_path),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sil minimal-pairs: runtime error: {said}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("error, code, said", [
    (ValidationError("bad row", row=3, path="c.tsv"), 1,
     "error: c.tsv: row 3: bad row"),
    (ContractError("k must be in [2, 5], got 6"), 1,
     "error: k must be in [2, 5], got 6"),
    (ValueError("array is too big"), 2, "runtime error: array is too big"),
], ids=["validation", "contract", "numpy"])
def test_value_error_exits_by_kind(tmp_path, monkeypatch, capsys, error,
                                   code, said):
    def failing(cfg):
        raise error

    monkeypatch.setitem(COMMANDS, "ceiling", dataclasses.replace(
        COMMANDS["ceiling"], fn=failing))
    rc = main(["ceiling", "--corpus", str(tmp_path / "absent"),
               "--out", str(tmp_path / "c.csv")])
    assert rc == code
    assert capsys.readouterr().err == f"sil ceiling: {said}\n"


# 2**62: numpy refuses an array of this many elements before allocating
_UNSHAPEABLE = "4611686018427387904"


@pytest.mark.parametrize("command, flag", [
    ("ceiling", "--bootstrap"), ("minimal-pairs", "--bootstrap"),
    ("attention", "--bootstrap"), ("train", "--hidden-dim"),
])
def test_unshapeable_count_exits_two(workspace, trained, tmp_path, capsys,
                                     command, flag):
    corpus, glove = str(workspace["corpus"]), str(workspace["glove"])
    inputs = {"ceiling": ["--corpus", corpus],
              "minimal-pairs": ["--model", str(trained), "--glove", glove],
              "attention": ["--corpus", corpus, "--model", str(trained),
                            "--glove", glove],
              "train": ["--corpus", corpus, "--glove", glove]}[command]
    out = tmp_path / "out.csv"
    rc = main([command, *inputs, flag, _UNSHAPEABLE, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sil {command}: runtime error: ")
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# import
# ---------------------------------------------------------------------------

RAW_HEADER = ("tgrep_id,sentence_grammatical,rating,partitive,"
              "strengthsome,redmention,redsubjecthood,redmodification")
RAW_ROWS = [
    'r1,"Some of the dogs barked.",5.5,True,4.2,0,1,0',
    'r2,"Some people like music of quality.",3.0,False,2.0,1,0,1',
    'r3,"The vet saw some cats.",4.25,False,3.5,0,0,0',
]


def test_import_converts_raw_csv(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW_HEADER + "\n" + "\n".join(RAW_ROWS) + "\n",
                   encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    rc = main(["import", "--input", str(raw), "--output", str(out)])
    assert rc == 0
    records = {r.id: r for r in parse_corpus(out)}
    assert set(records) == {"r1", "r2", "r3"}

    r1 = records["r1"]
    assert r1.tokens == ["some", "of", "the", "dogs", "barked", "."]
    assert r1.some_index == 0
    assert r1.of_partitive_indices == [1]
    assert r1.of_other_indices == []
    assert r1.mean_rating == 5.5
    assert r1.features.partitive == 1
    assert r1.features.subjecthood == 1

    r2 = records["r2"]
    assert r2.of_partitive_indices == []
    assert r2.of_other_indices == [4]
    assert r2.features.linguistic_mention == 1

    r3 = records["r3"]
    assert r3.some_index == 3
    assert r3.features.utterance_length == 6


def test_import_recomputes_mean_from_participants(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "id,sentence,mean_rating,ratings,partitive,strength,mention,"
        "subjecthood,modification\n"
        'p1,"Some dogs ran.",9.9,"4,5,6",0,3.0,0,0,0\n',
        encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    rc = main(["import", "--input", str(raw), "--output", str(out)])
    assert rc == 0
    record = parse_corpus(out)[0]
    assert record.mean_rating == 5.0  # raw ratings win over a bad mean
    assert record.participant_ratings == [4.0, 5.0, 6.0]


def test_import_missing_feature_column_exits_one(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("id,sentence,rating\n"
                   'x,"Some dogs ran.",4.0\n', encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    rc = main(["import", "--input", str(raw), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "partitive" in err and "column_map" in err
    assert not out.exists()


@pytest.mark.parametrize("column", ["of_partitive_indices",
                                    "of_other_indices"])
def test_import_non_integer_of_index_exits_one(tmp_path, capsys, column):
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW_HEADER + f",{column}\n" + RAW_ROWS[0] + ',"1,x"\n',
                   encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    rc = main(["import", "--input", str(raw), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{raw}: line 2: cannot parse {column} from 'x'" in err
    assert not out.exists()


def test_import_non_numeric_rating_names_file(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW_HEADER + "\n" + RAW_ROWS[0].replace(",5.5,", ",high,")
                   + "\n", encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    rc = main(["import", "--input", str(raw), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{raw}: line 2: cannot parse mean_rating from 'high'" in err
    assert not out.exists()


@pytest.mark.parametrize("extra_column, rows, named", [
    ("", [RAW_ROWS[0].replace(",5.5,", ",nan,")],
     "row 2: mean_rating nan outside [1, 7]"),
    ("", [RAW_ROWS[0].replace(",4.2,", ",9.0,")],
     "row 2: strength 9.0 outside [1, 7]"),
    ("", [RAW_ROWS[0], RAW_ROWS[1].replace("r2,", "r1,")],
     "row 3: duplicate id 'r1'"),
    (",some_index", [RAW_ROWS[0] + ",1e400"],
     "line 2: cannot parse some_index from '1e400'"),
    (",some_index", [RAW_ROWS[0] + ",0.7"],
     "line 2: cannot parse some_index from '0.7'"),
    (",some_index", [RAW_ROWS[0] + ",6"],
     "row 2: some_index 6 outside token range"),
    (",ratings", [RAW_ROWS[0].replace(",5.5,", ",,") + ',"4;x"'],
     "line 2: cannot parse participant rating from 'x'"),
    ("", [RAW_ROWS[0].replace(",True,", ",maybe,")],
     "line 2: cannot parse partitive from 'maybe'"),
], ids=["nan-rating", "strength", "duplicate-id", "some-index-overflow",
        "some-index-fraction", "some-index-past-end", "participant-rating",
        "binary-feature"])
def test_import_bad_cell_names_input_row(tmp_path, capsys, extra_column,
                                         rows, named):
    raw = tmp_path / "raw.csv"
    raw.write_text(RAW_HEADER + extra_column + "\n" + "\n".join(rows) + "\n",
                   encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    rc = main(["import", "--input", str(raw), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and ".tmp" not in err
    assert f"sil import: error: {raw}: {named}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.csv"]


def test_import_column_map_override(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "key,text,score,part,str,men,subj,mod\n"
        'k1,"Some dogs ran.",4.0,1,3.5,0,1,0\n', encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"column_map": {
        "id": "key", "sentence": "text", "mean_rating": "score",
        "partitive": "part", "strength": "str", "mention": "men",
        "subjecthood": "subj", "modification": "mod"}}), encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    rc = main(["import", "--config", str(cfg), "--input", str(raw),
               "--output", str(out)])
    assert rc == 0
    assert parse_corpus(out)[0].id == "k1"


def test_import_of_a_written_corpus_writes_it_again(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def marks_every_of(record):
        """Whether import's of-index default leaves `record` as it is."""
        return (record.of_partitive_indices or record.of_other_indices
                or "of" not in (t.lower() for t in record.tokens))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(records=corpus_records(st))
    def check(records):
        hypothesis.assume(all(map(marks_every_of, records)))
        written = tmp_path / "in.tsv"
        write_corpus(records, written)
        out = tmp_path / "out.tsv"
        assert main(["import", "--pretokenized", "--input", str(written),
                     "--output", str(out)]) == 0
        assert out.read_bytes() == written.read_bytes()

    check()


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def test_tune_ranks_grid(workspace, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"hidden_dim": 3, "dropout_rate": 0.0},
        {"hidden_dim": 2, "dropout_rate": 0.1},
    ]), encoding="utf-8")
    out = tmp_path / "tune.csv"
    rc = main(["tune", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--grid", str(grid),
               "--k", "2", "--epochs", "1", "--batch-size", "8",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    rows = read_dicts(out)
    assert len(rows) == 2
    assert {"hidden_dim", "dropout_rate", "pooling", "with_context",
            "embedding", "fold_0_r", "fold_1_r", "mean_r",
            "error"} <= set(rows[0])
    assert float(rows[0]["mean_r"]) >= float(rows[1]["mean_r"])


@pytest.mark.parametrize("bad, named", [
    ({"with_context": "no"}, "with_context must be true or false, got 'no'"),
    ({"embedding": ["glove"]}, "embedding must be a string, got ['glove']"),
    ({"hidden_dim": 100.7}, "hidden_dim must be an integer, got 100.7"),
    ({"pooling": "max"}, "pooling must be one of 'attention', "
                         "'final_state', got 'max'"),
    ({"with_contxt": True}, "unknown keys ['with_contxt']"),
])
def test_bad_grid_entry_exits_one(workspace, tmp_path, capsys, bad, named):
    entry = {"hidden_dim": 2, "dropout_rate": 0.0, **bad}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([entry]), encoding="utf-8")
    out = tmp_path / "tune.csv"
    rc = main(["tune", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--grid", str(grid),
               "--k", "2", "--epochs", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"sil tune: error: bad grid entry {entry!r}: {named}" in err
    assert not out.exists()


def _tune_precomputed(workspace, tmp_path):
    rng = np.random.default_rng(3)
    source = make_precomputed(
        {r.id: rng.standard_normal((len(r.tokens), 8))
         for r in workspace["records"]})
    path = tmp_path / "pc.jsonl"
    save_precomputed(source, path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"hidden_dim": 2, "dropout_rate": 0.0,
                                 "embedding": "pc"}]), encoding="utf-8")
    return ["tune", "--corpus", str(workspace["corpus"]),
            "--precomputed", f"pc={path}", "--grid", str(grid),
            "--k", "2", "--epochs", "1", "--batch-size", "8"], path


def test_tune_manifest_hashes_precomputed_sources(workspace, tmp_path):
    argv, path = _tune_precomputed(workspace, tmp_path)
    out = tmp_path / "tune.csv"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "tune.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["inputs"]["pc"] == {
        "path": str(path),
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    assert "corpus" in manifest["inputs"]


def test_tune_workers_flag_leaves_environment(workspace, tmp_path):
    argv, _ = _tune_precomputed(workspace, tmp_path)
    environment = dict(os.environ)
    outs = []
    for workers in ("2", "1"):
        out = tmp_path / f"tune-{workers}.csv"
        assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
        assert dict(os.environ) == environment
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag, named", [
    ("-3", "--workers must be >= 1, got -3"),
    ("0", "--workers must be >= 1, got 0"),
], ids=["flag-negative", "flag-zero"])
def test_bad_worker_count_exits_one(workspace, tmp_path, capsys, flag, named):
    argv, _ = _tune_precomputed(workspace, tmp_path)
    out = tmp_path / "tune.csv"
    assert main(argv + ["--workers", flag, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"sil tune: error: {named}" in err
    assert not out.exists()


def test_workers_unset_runs_serially(workspace, tmp_path, monkeypatch):
    argv, _ = _tune_precomputed(workspace, tmp_path)
    out = tmp_path / "tune-1.csv"
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    unset = tmp_path / "tune.csv"
    assert main(argv + ["--out", str(unset)]) == 0
    assert unset.read_bytes() == out.read_bytes()
    manifest = json.loads((tmp_path / "tune.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["config"]["workers"] == 1


# ---------------------------------------------------------------------------
# cv-predict + regress + probes + ceiling
# ---------------------------------------------------------------------------

def test_cv_predict_then_regress(workspace, tmp_path):
    preds = tmp_path / "cv.csv"
    rc = main(["cv-predict", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--hidden-dim", "3",
               "--epochs", "1", "--batch-size", "8", "--k", "3",
               "--seed", "0", "--out", str(preds)])
    assert rc == 0
    rows = read_dicts(preds)
    assert [r["id"] for r in rows] == \
        [r.id for r in workspace["records"]]  # corpus order

    coef = tmp_path / "coef.csv"
    rc = main(["regress", "--corpus", str(workspace["corpus"]),
               "--predictions", str(preds), "--bootstrap", "40",
               "--seed", "0", "--out", str(coef)])
    assert rc == 0
    crows = read_dicts(coef)
    names = [r["predictor"] for r in crows]
    assert names[0] == "intercept"
    assert names[-1] == "nn_prediction"
    assert "partitive" in names
    assert crows[-1]["beta_original"] == "nan"
    for row in crows[:-1]:
        assert float(row["ci_orig_lo"]) <= float(row["ci_orig_hi"])


def test_regress_interaction_flag(workspace, tmp_path):
    preds = tmp_path / "p.csv"
    with open(preds, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,score\n")
        for i, r in enumerate(workspace["records"]):
            fh.write(f"{r.id},{0.3 + 0.01 * i}\n")
    out = tmp_path / "coef.csv"
    rc = main(["regress", "--corpus", str(workspace["corpus"]),
               "--predictions", str(preds), "--bootstrap", "0",
               "--interactions", "partitive:strength,mention:subjecthood",
               "--out", str(out)])
    assert rc == 0
    names = [r["predictor"] for r in read_dicts(out)]
    assert "partitive:strength" in names
    assert "mention:subjecthood" in names


def test_regress_bad_interaction_exits_one(workspace, tmp_path, capsys):
    preds = tmp_path / "p.csv"
    with open(preds, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,score\n")
        for r in workspace["records"]:
            fh.write(f"{r.id},0.5\n")
    rc = main(["regress", "--corpus", str(workspace["corpus"]),
               "--predictions", str(preds), "--bootstrap", "0",
               "--interactions", "partitive-strength",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "a:b" in capsys.readouterr().err


def test_regress_negative_bootstrap_exits_one(workspace, tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = main(["regress", "--corpus", str(workspace["corpus"]),
               "--predictions", str(tmp_path / "absent.csv"),
               "--bootstrap", "-1", "--out", str(out)])
    assert rc == 1
    assert "--bootstrap must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_regress_non_numeric_score_exits_one(workspace, tmp_path, capsys):
    preds = tmp_path / "p.csv"
    with open(preds, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,score\n")
        for i, r in enumerate(workspace["records"]):
            fh.write(f"{r.id},{'high' if i == 2 else 0.5}\n")
    rc = main(["regress", "--corpus", str(workspace["corpus"]),
               "--predictions", str(preds), "--bootstrap", "0",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "p.csv" in err and "row 4" in err and "'high'" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_regress_non_finite_score_exits_one(workspace, tmp_path, capfd,
                                            cell):
    preds = tmp_path / "p.csv"
    with open(preds, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,score\n")
        for i, r in enumerate(workspace["records"]):
            fh.write(f"{r.id},{cell if i == 2 else 0.5 + 0.01 * i}\n")
    out = tmp_path / "c.csv"
    rc = main(["regress", "--corpus", str(workspace["corpus"]),
               "--predictions", str(preds), "--bootstrap", "20",
               "--out", str(out)])
    assert rc == 1
    # capfd also holds what LAPACK would print from C
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (f"sil regress: error: {preds}: row 4: score "
                            f"{cell!r} is not a finite number\n")
    assert not out.exists()


def test_regress_scores_too_spread_to_standardize_exit_one(
        workspace, tmp_path, capfd):
    preds = tmp_path / "p.csv"
    with open(preds, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,score\n")
        for i, r in enumerate(workspace["records"]):
            fh.write(f"{r.id},{'1e308' if i == 2 else 0.5 + 0.01 * i}\n")
    out = tmp_path / "c.csv"
    rc = main(["regress", "--corpus", str(workspace["corpus"]),
               "--predictions", str(preds), "--bootstrap", "20",
               "--out", str(out)])
    assert rc == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (f"sil regress: error: {preds}: cannot "
                            f"standardize nn_prediction: its spread is not "
                            f"finite\n")
    assert not out.exists()


def test_minimal_pairs_command(workspace, trained, tmp_path):
    out = tmp_path / "variants.csv"
    groups = tmp_path / "groups.csv"
    rc = main(["minimal-pairs", "--model", str(trained),
               "--glove", str(workspace["glove"]), "--bootstrap", "10",
               "--seed", "0", "--out", str(out), "--groups", str(groups)])
    assert rc == 0
    rows = read_dicts(out)
    assert len(rows) == 800
    assert len({r["variant_id"] for r in rows}) == 800
    sample = rows[0]
    assert sample["text"].endswith(".")
    assert 0.0 < float(sample["score"]) < 1.0
    assert 1.0 <= float(sample["raw_rating"]) <= 7.0

    grows = read_dicts(groups)
    sizes = {(g["grouping"], g["level"]): int(g["n"]) for g in grows}
    assert sizes[("modification", "modified")] == 600
    assert sizes[("modification", "unmodified")] == 200


def test_attention_command(workspace, trained, tmp_path):
    out = tmp_path / "curves.csv"
    of_out = tmp_path / "of.csv"
    summary = tmp_path / "summary.csv"
    rc = main(["attention", "--model", str(trained),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--bootstrap", "10",
               "--seed", "0", "--out", str(out), "--of-out", str(of_out),
               "--summary", str(summary)])
    assert rc == 0
    rows = read_dicts(out)
    analyses = {r["analysis"] for r in rows}
    assert analyses == {"some_vs_other", "subjecthood_renormalized"}

    srows = dict(read_csv(summary)[1:])
    assert 0.0 < float(srows["some_mean_weight"]) <= 1.0
    assert int(srows["skipped_missing_some"]) == 0

    of_rows = read_dicts(of_out)
    raw_kinds = {r["kind"] for r in of_rows if r["mode"] == "raw"}
    assert "partitive" in raw_kinds  # synthetic partitives carry one of


def test_attention_requires_attention_model(workspace, tmp_path, capsys):
    out = tmp_path / "fs.bin"
    rc = main(["train", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--hidden-dim", "3",
               "--epochs", "1", "--batch-size", "8",
               "--pooling", "final_state", "--out", str(out)])
    assert rc == 0
    rc = main(["attention", "--model", str(out),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "attention" in capsys.readouterr().err


def test_ceiling_command(workspace, tmp_path):
    out = tmp_path / "ceiling.csv"
    rc = main(["ceiling", "--corpus", str(workspace["corpus"]),
               "--bootstrap", "100", "--seed", "0", "--out", str(out)])
    assert rc == 0
    rows = dict(read_csv(out)[1:])
    assert int(rows["n_items"]) == 24
    assert 0.0 < float(rows["ceiling_r"]) <= 1.0
    assert int(rows["n_with_no_context_rating"]) == 24
    assert -1.0 <= float(rows["context_vs_no_context_r"]) <= 1.0


def test_ceiling_deterministic(workspace, tmp_path):
    values = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["ceiling", "--corpus", str(workspace["corpus"]),
                   "--bootstrap", "100", "--seed", "3", "--out", str(out)])
        assert rc == 0
        values.append(out.read_bytes())
    assert values[0] == values[1]


def test_ceiling_bytes_match_per_item_loop(workspace, tmp_path):
    # written by the per-item resampling loop that the blocked bootstrap
    # replaced; the draws and sums are unchanged, so the bytes are too
    out = tmp_path / "ceiling.csv"
    rc = main(["ceiling", "--corpus", str(workspace["corpus"]),
               "--bootstrap", "100", "--seed", "0", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (
        b"metric,value\n"
        b"n_items,24\n"
        b"ceiling_r,0.9034140524653378\n"
        b"n_with_no_context_rating,24\n"
        b"context_vs_no_context_r,0.9035160252249287\n")


# ---------------------------------------------------------------------------
# bad vector files, checkpoints and precomputed sources exit 1
# ---------------------------------------------------------------------------

def test_bad_glove_file_names_file_and_line(trained, tmp_path, capsys):
    glove = tmp_path / "bad.txt"
    glove.write_text("cat 0.1 0.2\ndog 0.3\n", encoding="utf-8")
    rc = main(["minimal-pairs", "--model", str(trained), "--glove", str(glove),
               "--out", str(tmp_path / "v.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{glove}: line 2: expected 2 values, got 1" in err


def rewrite_config(checkpoint, out, edit):
    """Copy a checkpoint with its header config changed by `edit`."""
    blob = checkpoint.read_bytes()
    (length,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + length])
    edit(header["config"])
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    out.write_bytes(blob[:4] + struct.pack("<I", len(new)) + new
                    + blob[8 + length:])


@pytest.mark.parametrize("edit, named", [
    (lambda c: c.update(bogus=1), "unknown keys: bogus"),
    (lambda c: c.pop("hidden_dim"), "missing keys: hidden_dim"),
    (lambda c: c.update(hidden_dim="4"), "hidden_dim must be int"),
    (lambda c: c.update(hidden_dim=0),
     "invalid config: model dimensions must be positive"),
])
def test_bad_checkpoint_config_exits_one(workspace, trained, tmp_path, capsys,
                                         edit, named):
    model = tmp_path / "bad.bin"
    rewrite_config(trained, model, edit)
    rc = main(["eval", "--model", str(model),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(model) in err and named in err


def test_rewritten_checkpoint_config_still_loads(trained, tmp_path):
    model = tmp_path / "same.bin"
    rewrite_config(trained, model, lambda c: None)
    params, config = load_checkpoint(model)
    want_params, want_config = load_checkpoint(trained)
    assert config == want_config
    assert params.names() == want_params.names()


def test_checkpoint_tensors_must_fit_config(workspace, trained, tmp_path,
                                            capsys):
    model = tmp_path / "wide.bin"
    rewrite_config(trained, model, lambda c: c.update(hidden_dim=5))
    rc = main(["eval", "--model", str(model),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{model}: tensor 'attn.W' has shape (8, 4)" in err
    assert "needs (10, 5)" in err


def test_missing_precomputed_id_exits_one(workspace, trained, tmp_path,
                                          capsys):
    records = workspace["records"]
    source = make_precomputed(
        {r.id: np.ones((len(r.tokens), 8)) for r in records[:-1]})
    path = tmp_path / "pc.jsonl"
    save_precomputed(source, path)
    rc = main(["eval", "--model", str(trained),
               "--corpus", str(workspace["corpus"]),
               "--precomputed", str(path), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert repr(records[-1].id) in err


@pytest.mark.parametrize("command", ["eval", "attention"])
def test_first_missing_precomputed_id_is_named(workspace, trained, tmp_path,
                                               capsys, command):
    # two ids are missing, and the later one's target is the longer, so
    # it would be scored first: the earlier one is still the one named
    records = workspace["records"]
    first, later = next((i, j) for i in range(len(records))
                        for j in range(i + 1, len(records))
                        if len(records[j].tokens) > len(records[i].tokens))
    source = make_precomputed(
        {r.id: np.ones((len(r.tokens), 8)) for k, r in enumerate(records)
         if k not in (first, later)})
    path = tmp_path / "pc.jsonl"
    save_precomputed(source, path)
    rc = main([command, "--model", str(trained),
               "--corpus", str(workspace["corpus"]),
               "--precomputed", str(path), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sil {command}: error: no precomputed vectors for utterance "
        f"{records[first].id!r}\n")


def _glove_with(workspace, path, token, value):
    """The workspace vector file with `value` first on `token`'s row;
    returns the row's line number."""
    lines = workspace["glove"].read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines, start=1)
                if text.split()[0] == token)
    fields = lines[line - 1].split()
    fields[1] = value
    lines[line - 1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return line


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("command", ["eval", "minimal-pairs", "attention"])
def test_non_finite_vector_value_exits_one(workspace, trained, tmp_path,
                                           capsys, command, value):
    glove = tmp_path / "bad.txt"
    line = _glove_with(workspace, glove, "some", value)
    argv, out, _ = _vector_commands(workspace, trained, tmp_path)[command]
    argv[argv.index(str(workspace["glove"]))] = str(glove)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"sil {command}: error: {glove}: line {line}: vector value "
        f"{value!r} is not a finite number\n")
    assert not (tmp_path / out).exists()


def test_non_finite_value_on_a_row_not_read_is_no_error(workspace, trained,
                                                        tmp_path, capsys):
    glove = tmp_path / "extra.txt"
    glove.write_text(workspace["glove"].read_text(encoding="utf-8")
                     + "unread nan nan 1 2 3 4 5 6\n", encoding="utf-8")
    argv, out, _ = _vector_commands(workspace, trained, tmp_path)["eval"]
    argv[argv.index(str(workspace["glove"]))] = str(glove)
    assert main(argv) == 0
    # mean_vector averages every row, so every row is read
    assert main(argv + ["--unk-policy", "mean_vector"]) == 1
    assert "vector value 'nan' is not a finite number" in \
        capsys.readouterr().err


def test_non_finite_precomputed_value_exits_one(workspace, trained, tmp_path,
                                                capsys):
    records = workspace["records"]
    table = {r.id: np.ones((len(r.tokens), 8)) for r in records}
    table[records[3].id][1, 2] = np.nan
    path = tmp_path / "pc.jsonl"
    save_precomputed(make_precomputed(table), path)
    line = sorted(table).index(records[3].id) + 1
    rc = main(["eval", "--model", str(trained),
               "--corpus", str(workspace["corpus"]),
               "--precomputed", str(path), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sil eval: error: {path}: line {line}: vectors hold a value that "
        "is not a finite number\n")


def test_non_finite_checkpoint_tensor_exits_one(workspace, trained,
                                                tmp_path, capsys):
    params, _ = load_checkpoint(trained)
    blob = bytearray(trained.read_bytes())
    (offset,) = struct.unpack("<I", blob[4:8])
    offset += 8
    for name in params.names():  # the file's tensor order
        if name == "head.b":
            break
        offset += params.tensors[name].nbytes
    blob[offset:offset + 8] = struct.pack("<d", float("nan"))
    model = tmp_path / "nan.bin"
    model.write_bytes(blob)
    rc = main(["eval", "--model", str(model),
               "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sil eval: error: {model}: tensor 'head.b' holds a value that is "
        "not finite\n")
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------------------
# vector files are read once: the loader's sha256 goes into the manifest
# ---------------------------------------------------------------------------

def _vector_commands(workspace, trained, tmp_path):
    corpus, glove = str(workspace["corpus"]), str(workspace["glove"])
    return {
        "train": (["train", "--corpus", corpus, "--glove", glove,
                   "--hidden-dim", "2", "--epochs", "1",
                   "--out", str(tmp_path / "m.bin")], "m.bin", "embeddings"),
        "eval": (["eval", "--model", str(trained), "--corpus", corpus,
                  "--glove", glove, "--out", str(tmp_path / "e.csv")],
                 "e.csv", "embeddings"),
        "minimal-pairs": (["minimal-pairs", "--model", str(trained),
                           "--glove", glove, "--bootstrap", "10",
                           "--out", str(tmp_path / "v.csv")],
                          "v.csv", "glove"),
        "attention": (["attention", "--model", str(trained),
                       "--corpus", corpus, "--glove", glove,
                       "--bootstrap", "10", "--out", str(tmp_path / "a.csv")],
                      "a.csv", "embeddings"),
    }


@pytest.mark.parametrize("command",
                         ["train", "eval", "minimal-pairs", "attention"])
def test_manifest_hashes_vectors_from_the_load(workspace, trained, tmp_path,
                                               command):
    argv, out, key = _vector_commands(workspace, trained, tmp_path)[command]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / (out + ".manifest.json"))
                          .read_text(encoding="utf-8"))
    glove = workspace["glove"]
    assert manifest["inputs"][key] == {
        "path": str(glove),
        "sha256": hashlib.sha256(glove.read_bytes()).hexdigest()}
    if command != "minimal-pairs":
        corpus = workspace["corpus"]
        assert manifest["inputs"]["corpus"] == {
            "path": str(corpus),
            "sha256": hashlib.sha256(corpus.read_bytes()).hexdigest()}


def test_non_utf8_vector_file_exits_one(trained, tmp_path, capsys):
    glove = tmp_path / "bad.txt"
    glove.write_bytes(b"cat 0.1 0.2\ndog 0.3 \xff\n")
    rc = main(["minimal-pairs", "--model", str(trained), "--glove", str(glove),
               "--out", str(tmp_path / "v.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{glove}: line 2: not UTF-8 text" in err


def test_non_utf8_precomputed_file_exits_one(workspace, trained, tmp_path,
                                             capsys):
    path = tmp_path / "pc.jsonl"
    path.write_bytes(b'{"id": "u000", "layer": 0, "vectors": [[1.0]]}\n'
                     b'{"id": "\xff", "layer": 0, "vectors": [[1.0]]}\n')
    rc = main(["eval", "--model", str(trained),
               "--corpus", str(workspace["corpus"]),
               "--precomputed", str(path), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}: line 2: not UTF-8 text" in err


@pytest.mark.parametrize("bad, named", [
    ({"hidden_dim": 0}, "hidden_dim must be >= 1, got 0"),
    ({"dropout_rate": 1.5}, "dropout_rate must be in [0, 1), got 1.5"),
], ids=["hidden_dim", "dropout_rate"])
def test_grid_entry_out_of_range_exits_one(workspace, tmp_path, capsys, bad,
                                           named):
    entry = {"hidden_dim": 2, "dropout_rate": 0.0, **bad}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"hidden_dim": 2, "dropout_rate": 0.1},
                                entry]), encoding="utf-8")
    out = tmp_path / "tune.csv"
    rc = main(["tune", "--corpus", str(workspace["corpus"]),
               "--glove", str(workspace["glove"]), "--grid", str(grid),
               "--k", "2", "--epochs", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"sil tune: error: bad grid entry {entry!r}: {named} "
            f"(grid file {grid})") in err
    assert not out.exists()


def _long_target_corpus(workspace, tmp_path, n_tokens):
    """The workspace corpus with its first record's target n_tokens long,
    a precomputed file with one row per token of every full target, and
    the {id: rows} it holds."""
    records = [dataclasses.replace(r) for r in workspace["records"]]
    records[0].tokens = (records[0].tokens * n_tokens)[:n_tokens]
    corpus = tmp_path / "long.tsv"
    write_corpus(records, corpus)
    rng = np.random.default_rng(4)
    table = {r.id: rng.standard_normal((len(r.tokens), 8)) for r in records}
    path = tmp_path / "pc.jsonl"
    save_precomputed(make_precomputed(table), path)
    return corpus, path, table


def test_precomputed_rows_sliced_to_truncated_target(workspace, trained,
                                                     tmp_path):
    corpus, path, table = _long_target_corpus(workspace, tmp_path, 45)
    out = tmp_path / "r.csv"
    assert main(["eval", "--model", str(trained), "--corpus", str(corpus),
                 "--precomputed", str(path), "--out", str(out)]) == 0
    # the 45-token target scores as its first 30 rows alone
    first = workspace["records"][0].id
    sliced = tmp_path / "sliced.jsonl"
    save_precomputed(make_precomputed(
        {**table, first: table[first][:30]}), sliced)
    records = parse_corpus(corpus)
    records[0].tokens = records[0].tokens[:30]
    cut = tmp_path / "cut.tsv"
    write_corpus(records, cut)
    again = tmp_path / "again.csv"
    assert main(["eval", "--model", str(trained), "--corpus", str(cut),
                 "--precomputed", str(sliced), "--out", str(again)]) == 0
    assert (out.with_suffix(".predictions.csv").read_bytes()
            == again.with_suffix(".predictions.csv").read_bytes())


@pytest.mark.parametrize("n_tokens", [29, 31])
def test_precomputed_row_count_still_checked(workspace, trained, tmp_path,
                                             capsys, n_tokens):
    corpus, path, table = _long_target_corpus(workspace, tmp_path, n_tokens)
    first = workspace["records"][0].id
    short = tmp_path / "short.jsonl"
    save_precomputed(make_precomputed(
        {**table, first: table[first][:-1]}), short)
    rc = main(["eval", "--model", str(trained), "--corpus", str(corpus),
               "--precomputed", str(short), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{n_tokens - 1} precomputed vectors for {n_tokens} tokens" in err


@pytest.mark.parametrize("command", ["train", "eval", "cv-predict"])
def test_precomputed_with_context_exits_one(workspace, trained, tmp_path,
                                            capsys, command):
    _, path, _ = _long_target_corpus(workspace, tmp_path, 5)
    argv = [command, "--corpus", str(workspace["corpus"]),
            "--precomputed", str(path), "--with-context",
            "--out", str(tmp_path / "o.csv")]
    if command == "eval":
        argv += ["--model", str(trained)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "precomputed vectors already reflect their context" in err


def test_empty_precomputed_file_exits_one(workspace, trained, tmp_path,
                                          capsys):
    path = tmp_path / "pc.jsonl"
    path.write_text("\n", encoding="utf-8")
    rc = main(["eval", "--model", str(trained),
               "--corpus", str(workspace["corpus"]),
               "--precomputed", str(path), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sil eval: error: {path}: line 1: empty precomputed-embedding "
        "file\n")


def test_cv_predict_k_above_the_corpus_size_exits_one(workspace, tmp_path,
                                                      capsys):
    corpus = workspace["corpus"]
    n = len(workspace["records"])
    out = tmp_path / "cv.csv"
    rc = main(["cv-predict", "--corpus", str(corpus),
               "--glove", str(workspace["glove"]), "--k", str(n + 1),
               "--hidden-dim", "2", "--epochs", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"sil cv-predict: error: {corpus}: k must be in [2, {n}], "
        f"got {n + 1}\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# the paper's headline configuration: GloVe inputs read with their contexts
# ---------------------------------------------------------------------------

def test_with_context_train_then_eval_scores_the_context_and_target(
        tmp_path):
    from sil.embeddings import load_glove
    from sil.model import forward

    records = make_records(12, seed=8, with_context=True)
    # a context past the 150-token cap, a target past the 30-token cap
    # (kept whole with context), and a token only a context holds
    records[0].context_tokens = [f"c{i}" for i in range(160)]
    records[1].tokens = records[1].tokens + ["again"] * 30
    records[2].context_tokens = records[2].context_tokens + ["contextonly"]
    assert all(r.context_tokens for r in records)
    corpus = tmp_path / "corpus.tsv"
    write_corpus(records, corpus)
    glove = tmp_path / "vectors.txt"
    write_glove(glove, sorted(vocab_of(records)), dim=8)
    model = tmp_path / "model.bin"
    assert main(["train", "--corpus", str(corpus), "--glove", str(glove),
                 "--with-context", "--hidden-dim", "3", "--epochs", "2",
                 "--batch-size", "4", "--out", str(model)]) == 0
    out = tmp_path / "eval.csv"
    assert main(["eval", "--model", str(model), "--corpus", str(corpus),
                 "--glove", str(glove), "--with-context", "--subset", "all",
                 "--out", str(out)]) == 0

    # the oracle: each input built token by token from the whole table
    table = load_glove(glove)
    params, config = load_checkpoint(model)
    rows = read_dicts(out.with_suffix(".predictions.csv"))
    assert [row["id"] for row in rows] == [r.id for r in records]
    for record, row in zip(records, rows):
        tokens = record.context_tokens[-150:] + record.tokens
        embedded = np.vstack([table.lookup(t) for t in tokens])
        want = float(forward(embedded, params, config).score.value)
        assert abs(float(row["score"]) - want) <= 1e-12, record.id
        assert len(row["attention"].split(";")) == len(tokens)


# ---------------------------------------------------------------------------
# checkpoints and precomputed files are read once too
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["eval", "minimal-pairs", "attention"])
def test_manifest_hashes_checkpoint_from_the_load(workspace, trained, tmp_path,
                                                  command):
    argv, out, _ = _vector_commands(workspace, trained, tmp_path)[command]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / (out + ".manifest.json"))
                          .read_text(encoding="utf-8"))
    assert manifest["inputs"]["model"] == {
        "path": str(trained),
        "sha256": hashlib.sha256(trained.read_bytes()).hexdigest()}


def _precomputed_file(workspace, tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "pc.jsonl"
    save_precomputed(make_precomputed(
        {r.id: rng.standard_normal((len(r.tokens), 8))
         for r in workspace["records"]}), path)
    return path


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_hashes_precomputed_from_the_load(workspace, trained,
                                                   tmp_path, command):
    pc = _precomputed_file(workspace, tmp_path)
    out = tmp_path / "o.bin"
    argv = [command, "--corpus", str(workspace["corpus"]),
            "--precomputed", str(pc), "--out", str(out)]
    argv += (["--model", str(trained)] if command == "eval"
             else ["--hidden-dim", "2", "--epochs", "1"])
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "o.bin.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["inputs"]["embeddings"] == {
        "path": str(pc), "sha256": hashlib.sha256(pc.read_bytes()).hexdigest()}


def _read_once_cases(workspace, trained, tmp_path):
    """argv and the input files it must open once, per command and source:
    every corpus, vector, checkpoint, predictions and import input."""
    corpus, glove, model = (str(workspace["corpus"]), str(workspace["glove"]),
                            str(trained))
    pc = str(_precomputed_file(workspace, tmp_path))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"hidden_dim": 2, "dropout_rate": 0.0},
        {"hidden_dim": 2, "dropout_rate": 0.0, "embedding": "pc"}]),
        encoding="utf-8")
    fit = ["--hidden-dim", "2", "--epochs", "1", "--batch-size", "8"]
    out = ["--out", str(tmp_path / "o.csv")]
    preds = tmp_path / "p.csv"
    _write_predictions(workspace, preds)
    cases = {"tune": (["tune", "--corpus", corpus, "--glove", glove,
                       "--precomputed", f"pc={pc}", "--grid", str(grid),
                       "--k", "2", "--epochs", "1", *out],
                      [corpus, glove, pc, str(grid)]),
             "regress": (["regress", "--corpus", corpus, "--predictions",
                          str(preds), "--bootstrap", "10", *out],
                         [corpus, str(preds)]),
             "ceiling": (["ceiling", "--corpus", corpus, "--bootstrap", "10",
                          *out], [corpus]),
             "import": (["import", "--pretokenized", "--input", corpus,
                         "--output", str(tmp_path / "o.tsv")], [corpus])}
    for name, source in (("glove", ["--glove", glove]),
                         ("precomputed", ["--precomputed", pc])):
        vectors = source[1]
        cases[f"train-{name}"] = (
            ["train", "--corpus", corpus, *source, *fit,
             "--out", str(tmp_path / "m.bin")], [corpus, vectors])
        cases[f"cv-predict-{name}"] = (
            ["cv-predict", "--corpus", corpus, *source, *fit, "--k", "2",
             *out], [corpus, vectors])
        cases[f"eval-{name}"] = (
            ["eval", "--model", model, "--corpus", corpus, *source, *out],
            [model, corpus, vectors])
        cases[f"attention-{name}"] = (
            ["attention", "--model", model, "--corpus", corpus, *source,
             "--bootstrap", "10", *out], [model, corpus, vectors])
    cases["minimal-pairs-glove"] = (
        ["minimal-pairs", "--model", model, "--glove", glove,
         "--bootstrap", "10", *out], [model, glove])
    frames = tmp_path / "frames.tsv"
    frames.write_bytes(
        resources.files("sil").joinpath("data/frames.tsv").read_bytes())
    cases["minimal-pairs-frames"] = (
        ["minimal-pairs", "--model", model, "--glove", glove,
         "--frames", str(frames), "--bootstrap", "10", *out],
        [model, glove, str(frames)])
    return cases


@pytest.mark.parametrize("case", [
    "train-glove", "train-precomputed", "eval-glove", "eval-precomputed",
    "cv-predict-glove", "cv-predict-precomputed", "tune",
    "minimal-pairs-glove", "minimal-pairs-frames", "attention-glove",
    "attention-precomputed", "regress", "ceiling", "import"])
def test_each_model_and_vector_file_is_opened_once(workspace, trained,
                                                   tmp_path, monkeypatch,
                                                   case):
    import builtins
    import io
    argv, inputs = _read_once_cases(workspace, trained, tmp_path)[case]
    opened = []
    real = builtins.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.path.abspath(file))
        return real(file, *args, **kwargs)

    # pathlib opens through io.open
    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    assert main(argv) == 0
    for path in inputs:
        assert opened.count(os.path.abspath(path)) == 1, path


# ---------------------------------------------------------------------------
# malformed text inputs exit 1 naming the file, never with a traceback
# ---------------------------------------------------------------------------

NOT_UTF8 = b"id,score\nu000,0.5\n\xff\xfe,0.1\n"
FRAMES_HEADER = (b"frame_id\tsubj_premod\tsubj_head\tsubj_postmod\tobj_premod"
                 b"\tobj_head\tobj_postmod\tverb_active\tverb_passive"
                 b"\tpassive_aux\tother_det\tcomplement\n")
HUGE_FIELD = b"id,score\nu000,0.5\n" + b"a" * 131_073 + b",0.1\n"


def _text_input_argv(workspace, kind, path, out):
    """argv of a command that reads `path` as its `kind` input.

    Every other input is valid, or a missing file where a valid `path`
    would otherwise start training or scoring, and `import` writes below
    a plain file, so no argv can succeed.
    """
    corpus, glove = str(workspace["corpus"]), str(workspace["glove"])
    missing = str(out.parent / "missing.bin")
    blocker = out.parent / "blocker"
    blocker.touch()
    return {
        "corpus": ["train", "--corpus", path, "--glove", missing,
                   "--out", str(out)],
        "frames": ["minimal-pairs", "--frames", path, "--model", missing,
                   "--glove", glove, "--out", str(out)],
        "predictions": ["regress", "--corpus", corpus, "--predictions", path,
                        "--bootstrap", "0", "--out", str(out)],
        "config": ["ceiling", "--config", path, "--out", str(out)],
        "grid": ["tune", "--corpus", corpus, "--glove", missing,
                 "--grid", path, "--out", str(out)],
        "import": ["import", "--input", path,
                   "--output", str(blocker / "out.tsv")],
    }[kind]


@pytest.mark.parametrize("kind, content, named", [
    ("corpus", NOT_UTF8, "line 3: not UTF-8 text (invalid start byte)"),
    ("frames", NOT_UTF8, "line 3: not UTF-8 text (invalid start byte)"),
    ("predictions", NOT_UTF8, "line 3: not UTF-8 text (invalid start byte)"),
    ("config", NOT_UTF8, "line 3: not UTF-8 text (invalid start byte)"),
    ("grid", NOT_UTF8, "line 3: not UTF-8 text (invalid start byte)"),
    ("import", NOT_UTF8, "line 3: not UTF-8 text (invalid start byte)"),
    ("predictions", HUGE_FIELD,
     "line 3: field larger than field limit (131072)"),
    ("import", HUGE_FIELD, "line 3: field larger than field limit (131072)"),
    ("corpus", HUGE_FIELD, "line 3: field larger than field limit (131072)"),
    ("config", b"[" * 100_000, "JSON nested too deeply"),
    ("grid", b'{"a": ' * 100_000, "JSON nested too deeply"),
    ("frames", FRAMES_HEADER
     + b"f01\t\tdogs\tin town\tred\tcars\ton show\tsaw\tseen\twere\tthe\t\n",
     "row 2: empty subj_premod"),
    ("frames", b"frame_id\tsubj_head\nf01\tdogs\n",
     "frames file missing columns: ['subj_premod', 'subj_postmod', "
     "'obj_premod', 'obj_head', 'obj_postmod', 'verb_active', "
     "'verb_passive', 'passive_aux', 'other_det', 'complement']"),
    ("frames", FRAMES_HEADER
     + b"f01\tbig\tdogs\tin town\tred\tcars\ton show\tsaw\tseen\twere"
       b"\tthe\t\n"
     + b"f02\tsmall\tdogs\tat home\tblue\tcars\tfor sale\tsaw\tseen"
       b"\twere\tthe\t\n",
     "row 3: duplicate verb/NP combination in frame f02"),
    ("config", b'["seed", 1]', "config must be an object"),
    ("grid", b'{"hidden_dim": 2}', "grid must be a nonempty JSON array"),
    ("grid", b"[]", "grid must be a nonempty JSON array"),
    ("import", RAW_HEADER.replace(",rating,", ",").encode("utf-8") + b"\n"
     + RAW_ROWS[0].replace(",5.5,", ",").encode("utf-8") + b"\n",
     "need a mean_rating or participant_ratings column"),
    ("import", (RAW_HEADER + "\n" + RAW_ROWS[0] + "\n"
                + 'r2,"The dogs barked.",3.0,False,2.0,1,0,1\n')
     .encode("utf-8"),
     "row 3: no 'some' token in ['the', 'dogs', 'barked', '.']"),
], ids=["corpus-utf8", "frames-utf8", "predictions-utf8", "config-utf8",
        "grid-utf8", "import-utf8", "predictions-field", "import-field",
        "corpus-field", "config-depth", "grid-depth", "frames-empty-cell",
        "frames-missing-columns", "frames-duplicate", "config-not-object",
        "grid-not-array", "grid-empty", "import-no-rating-column",
        "import-no-some"])
def test_malformed_text_input_names_file(workspace, tmp_path, capsys, kind,
                                         content, named):
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    out = tmp_path / "out.csv"
    assert main(_text_input_argv(workspace, kind, str(path), out)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}: {named}" in err
    assert not out.exists()


@pytest.mark.parametrize("entry, named", [
    (5, "not an object"), ({"dropout_rate": 0.1}, "hidden_dim is missing"),
], ids=["not-object", "no-hidden-dim"])
def test_unusable_grid_entry_names_the_grid_file(workspace, tmp_path, capsys,
                                                 entry, named):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"hidden_dim": 2, "dropout_rate": 0.0},
                                entry]), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(_text_input_argv(workspace, "grid", str(grid), out)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == (f"sil tune: error: bad grid entry {entry!r}: {named} "
                   f"(grid file {grid})\n")
    assert not out.exists()


def test_tune_without_a_vector_source_exits_one(workspace, tmp_path, capsys):
    out = tmp_path / "out.csv"
    rc = main(["tune", "--corpus", str(workspace["corpus"]),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == \
        "sil tune: error: tune needs --glove and/or --precomputed\n"
    assert not out.exists()


@pytest.mark.parametrize("column, cell, named", [
    ("id", " ", "empty id"), ("tokens", "", "record has no tokens"),
    ("of_partitive_indices", "0,99", "of-index 99 outside token range"),
    ("of_other_indices", "-1", "of-index -1 outside token range"),
])
def test_bad_corpus_row_names_file_and_row(workspace, tmp_path, capsys,
                                           column, cell, named):
    lines = workspace["corpus"].read_text(encoding="utf-8").split("\n")
    cells = lines[3].split("\t")
    cells[COLUMNS.index(column)] = cell
    lines[3] = "\t".join(cells)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = main(["ceiling", "--corpus", str(corpus), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"sil ceiling: error: {corpus}: row 4: {named}\n"
    assert not out.exists()


def test_regress_duplicate_prediction_id_exits_one(workspace, tmp_path,
                                                   capsys):
    preds = tmp_path / "p.csv"
    _write_predictions(workspace, preds)
    rid = workspace["records"][1].id
    with open(preds, "a", encoding="utf-8", newline="") as fh:
        fh.write(f"{rid},0.9\n")
    out = tmp_path / "r.csv"
    rc = main(["regress", "--corpus", str(workspace["corpus"]),
               "--predictions", str(preds), "--bootstrap", "0",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    row = len(workspace["records"]) + 2
    assert f"{preds}: row {row}: duplicate id {rid!r}" in err
    assert not out.exists()


def test_regress_skips_blank_prediction_lines(workspace, tmp_path):
    preds = tmp_path / "p.csv"
    _write_predictions(workspace, preds)
    lines = preds.read_text(encoding="utf-8").split("\n")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n",
                      encoding="utf-8")
    outs = []
    for path in (preds, spaced):
        out = tmp_path / f"{path.stem}.out.csv"
        assert main(["regress", "--corpus", str(workspace["corpus"]),
                     "--predictions", str(path), "--bootstrap", "0",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_tune_manifest_hashes_grid_file(workspace, tmp_path):
    argv, _ = _tune_precomputed(workspace, tmp_path)
    out = tmp_path / "tune.csv"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "tune.csv.manifest.json")
                          .read_text(encoding="utf-8"))
    grid = tmp_path / "grid.json"
    assert manifest["inputs"]["grid"] == {
        "path": str(grid),
        "sha256": hashlib.sha256(grid.read_bytes()).hexdigest()}


# a valid start for each kind of file, so that random bytes after it reach
# the row and value checks and not only the header check
_VALID_STARTS = {
    "corpus": "\t".join(COLUMNS).encode("utf-8") + b"\n",
    "frames": b"frame_id\tverb_active\n",
    "predictions": b"id,score\n",
    "config": b'{"corpus": ',
    "grid": b'[{"hidden_dim": ',
    "import": b"id,sentence,partitive,strength,mention,subjecthood,"
              b"modification,mean_rating\n",
}


def test_random_bytes_in_text_inputs_never_raise(workspace, tmp_path,
                                                 capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(kind=st.sampled_from(sorted(_VALID_STARTS)),
                      valid_start=st.booleans(),
                      data=st.binary(max_size=300))
    def check(kind, valid_start, data):
        path = tmp_path / "input.csv"
        path.write_bytes(_VALID_STARTS[kind] * valid_start + data)
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        rc = main(_text_input_argv(workspace, kind, str(path), out))
        assert rc in (1, 2)
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    check()


# ---------------------------------------------------------------------------
# process start-up: the modules a command loads, and its BLAS threads
# ---------------------------------------------------------------------------

_SRC = str(Path(sil.__file__).resolve().parents[1])
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_sil(argv, cwd, env=None, code="sys.exit(main(sys.argv[1:]))"):
    """Run `code` after `from sil.cli import main`, as the `sil` script
    does, in a fresh interpreter; its completed process."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-c", f"import sys\nfrom sil.cli import main\n{code}",
         *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120)


_CORE = {"sil", "sil.cli", "sil.corpus", "sil.errors", "sil.seeding"}
_SCORING = {"sil.embeddings", "sil.metrics", "sil.model"}
# the sil modules each command's process holds when it exits
_LOADED = {
    "train": _CORE | _SCORING | {"sil.optim", "sil.trainer"},
    "eval": _CORE | _SCORING,
    "minimal-pairs":
        _CORE | _SCORING | {"sil.probes", "sil.probes.minimal_pairs"},
    "attention": _CORE | _SCORING | {"sil.probes", "sil.probes.attention"},
    "regress": _CORE | {"sil.probes", "sil.probes.regression"},
    "ceiling": _CORE | {"sil.metrics"},
}


@pytest.mark.parametrize("command", sorted(_LOADED))
def test_command_loads_only_the_modules_it_runs(workspace, trained, tmp_path,
                                                command):
    corpus, glove = str(workspace["corpus"]), str(workspace["glove"])
    preds = tmp_path / "p.csv"
    _write_predictions(workspace, preds)
    argv = {
        "train": ["--corpus", corpus, "--glove", glove, "--hidden-dim", "4",
                  "--epochs", "1"],
        "eval": ["--model", str(trained), "--corpus", corpus,
                 "--glove", glove],
        "minimal-pairs": ["--model", str(trained), "--glove", glove,
                          "--bootstrap", "10"],
        "attention": ["--corpus", corpus, "--model", str(trained),
                      "--glove", glove, "--bootstrap", "10"],
        "regress": ["--corpus", corpus, "--predictions", str(preds),
                    "--bootstrap", "10"],
        "ceiling": ["--corpus", corpus, "--bootstrap", "10"],
    }[command]
    done = _run_sil(
        [command, *argv, "--out", str(tmp_path / "out.csv")], tmp_path,
        code="imported = set(sys.modules)\nrc = main(sys.argv[1:])\n"
             "print(repr((rc, sorted(sys.modules), "
             "sorted(set(sys.modules) - imported))))")
    assert done.returncode == 0, done.stderr
    rc, modules, run_loaded = ast.literal_eval(done.stdout.splitlines()[-1])
    modules = set(modules)
    assert rc == 0, done.stderr
    assert {m for m in modules if m.split(".")[0] == "sil"} == _LOADED[command]
    assert "concurrent.futures" not in modules
    assert "sil.autodiff" not in modules
    # numpy 2.4's np.unique and np.quantile import numpy.ma as they run,
    # which adds milliseconds to a run; these commands call neither
    if command in ("ceiling", "eval", "train"):
        assert "numpy.ma" not in run_loaded


def test_blas_threads_default_to_one(workspace, tmp_path):
    """An unset BLAS thread count gives the checkpoint one thread gives.

    H=100 makes the products big enough for OpenBLAS to split them over
    threads, which sums in another order. On a host with one core both
    runs use one thread, so there the test cannot fail.
    """
    unset = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    digests = []
    for name, env in (("unset", unset),
                      ("one", {**unset, **dict.fromkeys(_BLAS_VARS, "1")})):
        out = tmp_path / f"{name}.bin"
        done = _run_sil(
            ["train", "--corpus", str(workspace["corpus"]),
             "--glove", str(workspace["glove"]), "--hidden-dim", "100",
             "--with-context", "--epochs", "1", "--out", str(out)],
            tmp_path, env=env)
        assert done.returncode == 0, done.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
