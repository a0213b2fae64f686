"""Workload sizes, their generated inputs, the CLI stages and their checks.

Every workload runs the same six `sil` stages in order (train, eval,
minimal-pairs, attention, regress, ceiling), so every end-to-end metric
exists on every workload. The sizes decide which stages dominate: each
workload runs its focus stages at the paper's shapes and the others at
small, fixed sizes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import checks
import gen
from checks import require

FRAMES_IN_BUNDLE = 25
VARIANTS_PER_FRAME = 32
GROUP_ROWS = 10  # five groupings x two levels
ATTENTION_SUMMARY = ("some_mean_weight", "other_mean_weight",
                     "n_length_filtered", "n_multi_of",
                     "skipped_missing_some")
DROPOUT = 0.2  # the train stage's --dropout, one point of the paper grid
EPOCHS = 1


@dataclass(frozen=True)
class Sizes:
    corpus_items: int       # the corpus regress and ceiling read
    train_items: int        # first items of the corpus, given to `sil train`
    train_fraction: float
    valid_fraction: float
    hidden_dim: int
    with_context: bool
    batch_size: int
    eval_all: bool          # eval the whole corpus, else the test split
                            # of the train corpus
    vector_rows: int        # 0: every stage reads exactly the corpus
                            # vocabulary; else the stages after train read
                            # this many rows and train reads the corpus
                            # vocabulary
    frames: int             # minimal-pair frames: 25 is the bundled table,
                            # fewer are generated short-sentence frames
    attention_items: int    # first corpus items, given to `sil attention`
    probe_bootstrap: int    # --bootstrap of minimal-pairs and attention
    regress_bootstrap: int
    ceiling_bootstrap: int
    setup_repeats: int
    samples: dict = field(default_factory=dict)  # long stages sampled
                            # fewer than run.SAMPLES times: stage -> count
    probe_model_hidden: int = 0  # 0: minimal-pairs and attention read the
                            # trained checkpoint; else a generated one of
                            # this hidden size

    # sil's split arithmetic (corpus.split): the test side gets
    # floor(n * (1 - fraction)) items
    @property
    def test_items(self) -> int:
        return math.floor(self.train_items * (1.0 - self.train_fraction))

    @property
    def valid_items(self) -> int:
        if self.valid_fraction <= 0:
            return 0
        n = self.train_items - self.test_items
        return math.floor(n * (1.0 - (1.0 - self.valid_fraction)))

    @property
    def fit_items(self) -> int:
        return self.train_items - self.test_items - self.valid_items

    @property
    def eval_items(self) -> int:
        return self.corpus_items if self.eval_all else self.test_items


WORKLOADS = {
    # H=100 with contexts: ragged sequences up to ~200 tokens, tape-bound
    "train-narrow-context": Sizes(
        corpus_items=gen.N_ITEMS, train_items=24, train_fraction=0.6,
        valid_fraction=0.1, hidden_dim=100, with_context=True,
        batch_size=4, eval_all=False, vector_rows=0, frames=1,
        attention_items=8, probe_bootstrap=100, regress_bootstrap=100,
        ceiling_bootstrap=20, setup_repeats=3,
        samples={"train": 2}, probe_model_hidden=8),
    # H=800 target-only: BLAS outer products, GEMVs and Adam over 22.4M
    "train-wide-target": Sizes(
        corpus_items=gen.N_ITEMS, train_items=4, train_fraction=0.5,
        valid_fraction=0.0, hidden_dim=800,
        with_context=False, batch_size=2, eval_all=False,
        vector_rows=0, frames=1, attention_items=8, probe_bootstrap=100,
        regress_bootstrap=100, ceiling_bootstrap=20, setup_repeats=3,
        samples={"train": 2, "eval": 3}, probe_model_hidden=8),
    # the paper's probe stages on a tenth of the corpus and a large vector
    # file; the small train stage reads the corpus vocabulary only
    "probes": Sizes(
        corpus_items=gen.N_ITEMS // 10, train_items=16, train_fraction=0.7,
        valid_fraction=0.2, hidden_dim=100, with_context=False,
        batch_size=8, eval_all=True, vector_rows=100_000,
        frames=FRAMES_IN_BUNDLE, attention_items=gen.N_ITEMS // 10,
        probe_bootstrap=1000, regress_bootstrap=10_000,
        ceiling_bootstrap=1000, setup_repeats=2,
        samples={"train": 2, "eval": 2, "minimal-pairs": 2,
                 "attention": 2, "regress": 2, "ceiling": 2}),
}


def quick(sizes: Sizes) -> Sizes:
    """Tiny sizes with the same stage structure, for the schema self-check."""
    return replace(
        sizes, corpus_items=80, train_items=min(sizes.train_items, 16),
        hidden_dim=min(sizes.hidden_dim, 8),
        vector_rows=min(sizes.vector_rows, 3000), frames=1,
        attention_items=min(sizes.attention_items, 16),
        probe_bootstrap=20, regress_bootstrap=50, ceiling_bootstrap=10,
        setup_repeats=2)


def describe(sizes: Sizes) -> dict:
    """The sizes, with the paper's value of every count scaled down."""
    out = asdict(sizes)
    paper = {"corpus_items": gen.N_ITEMS, "frames": FRAMES_IN_BUNDLE,
             "attention_items": gen.N_ITEMS, "regress_bootstrap": 10_000,
             "ceiling_bootstrap": 1000, "probe_bootstrap": 1000}
    out["scaled_down_from_paper"] = {
        k: v for k, v in paper.items() if out[k] < v}
    out.update(dim=gen.DIM, dropout=DROPOUT, epochs=EPOCHS)
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    items: list            # generated corpus items, in file order
    files: list[str]       # names under the inputs directory
    max_sequence: int      # longest model input of the train stage

    def by_id(self) -> dict:
        return {it.id: it for it in self.items}


def make_inputs(sizes: Sizes, seed: int, src: Path, out: Path) -> Inputs:
    """Write every input file of one workload run into `out`."""
    out.mkdir(parents=True)
    items = gen.make_items(seed, sizes.corpus_items)
    gen.write_corpus(items, out / "corpus.tsv")
    gen.write_corpus(items[:sizes.train_items], out / "train.tsv")
    gen.write_corpus(items[:sizes.attention_items], out / "attention.tsv")
    files = ["corpus.tsv", "train.tsv", "attention.tsv", "vectors.txt"]

    vocab = gen.corpus_vocab(items)
    if sizes.vector_rows:
        gen.write_vectors(seed, vocab, out / "vocab.txt")
        files.append("vocab.txt")
        frames_tsv = src / "sil" / "data" / "frames.tsv"
        vocab = gen.vocabulary(seed, vocab + gen.frame_vocab(frames_tsv),
                               sizes.vector_rows)
    gen.write_vectors(seed, vocab, out / "vectors.txt")
    if sizes.frames < FRAMES_IN_BUNDLE:
        gen.write_frames(seed, sizes.frames, out / "frames.tsv")
        files.append("frames.tsv")
    if sizes.probe_model_hidden:
        gen.write_checkpoint(seed, gen.DIM, sizes.probe_model_hidden,
                             out / "probe.ckpt")
        files.append("probe.ckpt")
    if not sizes.eval_all:
        # regress needs a score per corpus item; eval covers only a split
        gen.write_predictions(seed, items, out / "predictions.csv")
        files.append("predictions.csv")
    train = items[:sizes.train_items]
    longest = max(len(checks.model_input(it, sizes.with_context))
                  for it in train)
    return Inputs(items=items, files=files, max_sequence=longest)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

@dataclass
class Stage:
    name: str
    argv: list[str]         # after `sil`
    outputs: list[str]      # result files whose bytes must repeat


def stages(sizes: Sizes) -> list[Stage]:
    ctx = ["--with-context"] if sizes.with_context else []
    frames = ["--frames", "frames.tsv"] \
        if sizes.frames < FRAMES_IN_BUNDLE else []
    eval_corpus = "corpus.tsv" if sizes.eval_all else "train.tsv"
    subset = "all" if sizes.eval_all else "test"
    predictions = "eval.predictions.csv" if sizes.eval_all \
        else "predictions.csv"
    probe_model = "probe.ckpt" if sizes.probe_model_hidden else "model.ckpt"
    train_vectors = "vocab.txt" if sizes.vector_rows else "vectors.txt"
    return [
        Stage("train", [
            "train", "--corpus", "train.tsv", "--glove", train_vectors,
            "--hidden-dim", str(sizes.hidden_dim),
            "--dropout", str(DROPOUT), *ctx, "--epochs", str(EPOCHS),
            "--batch-size", str(sizes.batch_size),
            "--train-fraction", str(sizes.train_fraction),
            "--valid-fraction", str(sizes.valid_fraction),
            "--out", "model.ckpt"],
            ["model.ckpt", "model.curve.csv", "model.split.json",
             "model.metrics.csv"]),
        Stage("eval", [
            "eval", "--model", "model.ckpt", "--corpus", eval_corpus,
            "--glove", "vectors.txt", *ctx, "--subset", subset,
            "--train-fraction", str(sizes.train_fraction),
            "--out", "eval.csv"],
            ["eval.csv", "eval.predictions.csv", "eval.scatter.csv"]),
        Stage("minimal-pairs", [
            "minimal-pairs", "--model", probe_model, "--glove",
            "vectors.txt", *frames,
            "--bootstrap", str(sizes.probe_bootstrap), "--out", "mp.csv"],
            ["mp.csv", "mp.groups.csv"]),
        Stage("attention", [
            "attention", "--corpus", "attention.tsv", "--model",
            probe_model, "--glove", "vectors.txt",
            "--bootstrap", str(sizes.probe_bootstrap), "--out", "attn.csv"],
            ["attn.csv", "attn.of.csv", "attn.summary.csv"]),
        Stage("regress", [
            "regress", "--corpus", "corpus.tsv", "--predictions",
            predictions, "--bootstrap", str(sizes.regress_bootstrap),
            "--out", "regress.csv"],
            ["regress.csv"]),
        Stage("ceiling", [
            "ceiling", "--corpus", "corpus.tsv",
            "--bootstrap", str(sizes.ceiling_bootstrap),
            "--out", "ceiling.csv"],
            ["ceiling.csv"]),
    ]


# ---------------------------------------------------------------------------
# Output checks, one function per stage; each raises CheckFailed
# ---------------------------------------------------------------------------

def check_train(d: Path, sizes: Sizes, inputs: Inputs) -> None:
    config, _ = checks.read_checkpoint(d / "model.ckpt")
    require(config["hidden_dim"] == sizes.hidden_dim
            and config["input_dim"] == gen.DIM,
            f"checkpoint config {config} does not match the stage flags")
    m = checks.metric_rows(d / "model.metrics.csv")
    expected = {"train_items": sizes.fit_items,
                "valid_items": sizes.valid_items,
                "test_items": sizes.test_items}
    for key, want in expected.items():
        require(int(m.get(key, -1)) == want,
                f"train metrics: {key}={m.get(key)}, expected {want}")
    require(1 <= int(m["best_epoch"]) <= EPOCHS,
            f"train metrics: best_epoch={m['best_epoch']}")
    require(math.isfinite(float(m["test_mse"])), "train: test_mse not finite")
    curve = checks.read_csv(d / "model.curve.csv")
    require(len(curve) == EPOCHS,
            f"learning curve has {len(curve)} rows, expected {EPOCHS}")


def check_eval(d: Path, sizes: Sizes, inputs: Inputs) -> None:
    n = sizes.eval_items
    m = checks.metric_rows(d / "eval.csv")
    require(int(m["n_items"]) == n, f"eval n_items={m['n_items']}, want {n}")
    rows = checks.read_csv(d / "eval.predictions.csv")
    require(len(rows) == n, f"eval predictions: {len(rows)} rows, want {n}")
    by_id = inputs.by_id()
    ids = [r["id"] for r in rows]
    if sizes.eval_all:
        require(ids == [it.id for it in inputs.items],
                "eval predictions are not the corpus items in order")
    else:
        train_ids = {it.id for it in inputs.items[:sizes.train_items]}
        require(len(set(ids)) == n and set(ids) <= train_ids,
                "eval predictions are not distinct train-corpus items")
    checks.finite_unit_interval([float(r["score"]) for r in rows], "eval")
    for r in rows:
        w = [float(x) for x in r["attention"].split(";")]
        want = len(checks.model_input(by_id[r["id"]], sizes.with_context))
        require(len(w) == want,
                f"eval {r['id']}: {len(w)} attention weights, want {want}")
        require(abs(math.fsum(w) - 1.0) <= checks.TOL,
                f"eval {r['id']}: attention weights sum to {math.fsum(w)!r}")
    scatter = checks.read_csv(d / "eval.scatter.csv")
    require(len(scatter) == n, f"eval scatter: {len(scatter)} rows")
    checks.check_against_reference(rows, by_id, sizes.with_context,
                                   d / "model.ckpt", d / "vectors.txt")


def check_minimal_pairs(d: Path, sizes: Sizes, inputs: Inputs) -> None:
    n = VARIANTS_PER_FRAME * sizes.frames
    rows = checks.read_csv(d / "mp.csv")
    require(len(rows) == n, f"minimal-pairs: {len(rows)} variants, want {n}")
    require(len({r["variant_id"] for r in rows}) == n,
            "minimal-pairs: variant ids repeat")
    checks.finite_unit_interval([float(r["score"]) for r in rows],
                                "minimal-pairs")
    groups = checks.read_csv(d / "mp.groups.csv")
    require(len(groups) == GROUP_ROWS,
            f"minimal-pairs groups: {len(groups)} rows, want {GROUP_ROWS}")
    per_grouping: dict[str, int] = {}
    for g in groups:
        per_grouping[g["grouping"]] = per_grouping.get(g["grouping"], 0) \
            + int(g["n"])
        require(1.0 <= float(g["lo"]) <= float(g["hi"]) <= 7.0,
                f"minimal-pairs group {g['grouping']}/{g['level']}: "
                f"interval {g['lo']}, {g['hi']}")
    require(all(v == n for v in per_grouping.values()),
            "minimal-pairs groups do not partition the variants")


def check_attention(d: Path, sizes: Sizes, inputs: Inputs) -> None:
    items = inputs.items[:sizes.attention_items]
    cap = checks.TARGET_CAP
    summary = checks.metric_rows(d / "attn.summary.csv")
    require(tuple(summary) == ATTENTION_SUMMARY,
            f"attention summary rows {list(summary)}")
    expected = {
        "skipped_missing_some": sum(it.some_index >= cap for it in items),
        "n_length_filtered": sum(it.some_index < cap
                                 and len(it.tokens) <= cap for it in items),
        "n_multi_of": sum(
            len([i for i in it.of_partitive + it.of_other if i < cap]) >= 2
            for it in items),
    }
    for key, want in expected.items():
        require(int(summary[key]) == want,
                f"attention {key}={summary[key]}, want {want}")
    for key in ("some_mean_weight", "other_mean_weight"):
        require(0.0 <= float(summary[key]) <= 1.0,
                f"attention {key}={summary[key]} outside [0, 1]")
    # raw rows: each of-token kind present; normalized rows: each kind
    # present among items with two or more of-tokens
    of_idx = [([i for i in it.of_partitive if i < cap],
               [i for i in it.of_other if i < cap]) for it in items]
    multi = [(p, o) for p, o in of_idx if len(p) + len(o) >= 2]
    want_of = sum(any(x[k] for x in of_idx) for k in (0, 1)) \
        + sum(any(x[k] for x in multi) for k in (0, 1))
    of_rows = checks.read_csv(d / "attn.of.csv")
    require(len(of_rows) == want_of,
            f"attention of-token rows: {len(of_rows)}, want {want_of}")
    rows = checks.read_csv(d / "attn.csv")
    require(rows, "attention: position curves are empty")
    for r in rows + of_rows:
        lo, mean, hi = float(r["lo"]), float(r["mean"]), float(r["hi"])
        require(0.0 <= lo <= hi <= 1.0 and 0.0 <= mean <= 1.0,
                f"attention: mean {mean}, interval {lo}, {hi}")


def check_regress(d: Path, sizes: Sizes, inputs: Inputs) -> None:
    rows = {r["predictor"]: r for r in checks.read_csv(d / "regress.csv")}
    want = [*checks.REGRESSION_PREDICTORS, "nn_prediction"]
    require(sorted(rows) == sorted(want), f"regress predictors {list(rows)}")
    oracle = checks.original_model_fit(inputs.items)
    for name, beta in oracle.items():
        got = float(rows[name]["beta_original"])
        require(abs(got - beta) <= checks.TOL,
                f"regress {name}: beta_original {got!r}, lstsq {beta!r}")
        require(0.0 <= float(rows[name]["p_shrink"]) <= 1.0,
                f"regress {name}: p_shrink {rows[name]['p_shrink']}")


def check_ceiling(d: Path, sizes: Sizes, inputs: Inputs) -> None:
    m = checks.metric_rows(d / "ceiling.csv")
    rated = sum(len(it.ratings) >= 2 for it in inputs.items)
    paired = sum(it.no_context is not None for it in inputs.items)
    require(int(m["n_items"]) == rated,
            f"ceiling n_items={m['n_items']}, want {rated}")
    require(int(m["n_with_no_context_rating"]) == paired,
            "ceiling n_with_no_context_rating="
            f"{m['n_with_no_context_rating']}")
    for key in ("ceiling_r", "context_vs_no_context_r"):
        require(-1.0 <= float(m[key]) <= 1.0, f"ceiling {key}={m[key]}")


CHECKS = {"train": check_train, "eval": check_eval,
          "minimal-pairs": check_minimal_pairs, "attention": check_attention,
          "regress": check_regress, "ceiling": check_ceiling}

