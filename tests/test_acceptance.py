"""Acceptance checks, one per numbered criterion.

Each test prints exactly one `CRITERION n: PASS/FAIL/SKIP` line (echoed
again in the terminal summary). Checks that need the released corpus or
real GloVe vectors look in SIL_DATA_DIR and skip with a reason when the
data is absent; everything else runs on synthetic fixtures. Set
SIL_FULL_TUNE=1 to run the complete hyperparameter grid instead of the
single default configuration when the data is available.
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (ACCEPTANCE_LINES, make_records, make_table, vocab_of,
                      write_glove)

from sil.autodiff import backward, constant
from sil.cli import COMMANDS, PAPER_GRID, _grid_points, _parse_grid
from sil.corpus import parse_corpus, rescale_rating, split
from sil.embeddings import load_glove
from sil.metrics import bootstrap_ceiling, mse, pearson
from sil.model import ModelConfig, forward, init_params
from sil.probes.attention import (attention_by_position,
                                  attention_for_records,
                                  partitive_of_analysis)
from sil.probes.minimal_pairs import (generate_minimal_pairs, load_frames,
                                      minimal_pair_report, score_variants)
from sil.probes.regression import RegressionSpec, regression_compare
from sil.trainer import (GridPoint, TrainConfig, cv_predict, evaluate,
                         examples_from_records, train, tune)

GOLDEN_ACTIVE = ("Some of the organic farmers in the mountains milked "
                 "the brown goats who graze on the meadows.")
GOLDEN_PASSIVE = ("Some of the brown goats who graze on the meadows "
                  "were milked by the organic farmers in the mountains.")

_cache: dict = {}


def report(n: int, status: str, detail: str = "") -> None:
    line = f"CRITERION {n}: {status}" + (f" ({detail})" if detail else "")
    print(line)
    ACCEPTANCE_LINES.append(line)


def criterion(n):
    """Guarantee the criterion line exists even when the body blows up."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (pytest.skip.Exception, AssertionError):
                raise
            except Exception as exc:
                report(n, "FAIL", f"unexpected error: {exc}")
                raise
        return run
    return wrap


# ---------------------------------------------------------------------------
# released-data discovery
# ---------------------------------------------------------------------------

def data_dir() -> Path | None:
    value = os.environ.get("SIL_DATA_DIR")
    return Path(value) if value else None


def released_corpus(tmp_root: Path):
    if "corpus" in _cache:
        return _cache["corpus"]
    d = data_dir()
    if d is None:
        result = (None, "SIL_DATA_DIR unset")
    elif (d / "corpus.tsv").exists():
        result = (parse_corpus(d / "corpus.tsv"), None)
    else:
        from sil.cli import main
        result = (None, f"no corpus.tsv or importable raw file in {d}")
        for raw in sorted(d.glob("*.csv")) + sorted(d.glob("*.tsv")):
            out = tmp_root / "imported-corpus.tsv"
            if main(["import", "--input", str(raw),
                     "--output", str(out)]) == 0:
                result = (parse_corpus(out), None)
                break
    _cache["corpus"] = result
    return result


def released_glove():
    d = data_dir()
    if d is None:
        return None, "SIL_DATA_DIR unset"
    for pattern in ("glove*100d*.txt", "glove*.txt", "vectors*.txt"):
        hits = sorted(d.glob(pattern))
        if hits:
            return hits[0], None
    return None, f"no GloVe file in {d}"


def tune_winner(train_records, table, grid: list[dict], **flags):
    """The hidden_dim and dropout of the best entry of the JSON tune grid
    `grid` over 5 folds of `train_records`, its points built as `sil tune`
    builds them from its flag defaults with `flags` set."""
    from sil.corpus import kfold
    cfg = {key: flag.default for key, flag in
           COMMANDS["tune"].flags_by_key("tune").items()} | flags
    sources = {"glove": table}
    points = _grid_points(_parse_grid(grid), cfg, sources)
    ranked = tune(train_records, sources, points,
                  kfold(train_records, 5, seed=0), seed=0,
                  workers=cfg["workers"])
    best = ranked[0].point.config.model
    return best.hidden_dim, best.dropout_rate


def released_model(tmp_root: Path):
    """Train (or fetch the cached) criterion-4 model on the released data."""
    if "model" in _cache:
        return _cache["model"]
    records, why = released_corpus(tmp_root)
    if records is None:
        _cache["model"] = (None, why)
        return _cache["model"]
    glove_path, why = released_glove()
    if glove_path is None:
        _cache["model"] = (None, why)
        return _cache["model"]

    table = load_glove(glove_path)
    sp = split(records, 0.7, seed=0)
    by_id = {r.id: r for r in records}
    train_records = [by_id[i] for i in sp.train_ids]
    test_records = [by_id[i] for i in sp.test_ids]

    hidden, dropout = 100, 0.2
    if os.environ.get("SIL_FULL_TUNE") == "1":
        hidden, dropout = tune_winner(
            train_records, table, PAPER_GRID, epochs=40,
            workers=int(os.environ.get("SIL_WORKERS", "1")))

    carve = split(train_records, 0.9, seed=1)
    core = [by_id[i] for i in carve.train_ids]
    valid = [by_id[i] for i in carve.test_ids]
    config = TrainConfig(
        model=ModelConfig(input_dim=table.dim, hidden_dim=hidden,
                          dropout_rate=dropout, seed=0),
        seed=0)
    train_ex = examples_from_records(core, table)
    valid_ex = examples_from_records(valid, table)
    test_ex = examples_from_records(test_records, table)
    params, curve = train(train_ex, valid_ex, config)
    _cache["model"] = ((params, config, table, records, test_ex,
                        hidden, dropout), None)
    return _cache["model"]


def test_tune_winner_is_the_point_tune_ranks_first():
    """SIL_FULL_TUNE's tuning step, on a 2-point grid: its winner is the
    first point `tune` ranks when the same points are built by hand."""
    from sil.corpus import kfold
    records = make_records(20, seed=3)
    table = make_table(sorted(vocab_of(records)))
    grid = [{"hidden_dim": 2, "dropout_rate": 0.1},
            {"hidden_dim": 3, "dropout_rate": 0}]
    won = tune_winner(records, table, grid, epochs=2, batch_size=8, lr=0.01)
    by_hand = [GridPoint(TrainConfig(
        ModelConfig(input_dim=8, hidden_dim=e["hidden_dim"],
                    dropout_rate=float(e["dropout_rate"])),
        epochs=2, batch_size=8, lr=0.01)) for e in grid]
    ranked = tune(records, {"glove": table}, by_hand,
                  kfold(records, 5, seed=0), seed=0)
    best = ranked[0].point.config.model
    assert won == (best.hidden_dim, best.dropout_rate)
    assert [r.error for r in ranked] == [None, None]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@criterion(1)
def test_criterion_1_gradients_match_finite_differences():
    started = time.time()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        config = ModelConfig(
            input_dim=int(rng.integers(2, 9)),
            hidden_dim=int(rng.integers(2, 9)),
            dropout_rate=0.0,
            use_attention=trial % 2 == 0,
            seed=trial)
        params = init_params(config)
        x = rng.standard_normal((int(rng.integers(1, 6)),
                                 config.input_dim)) * 0.5
        target = float(rng.uniform(0.2, 0.8))

        def loss_value():
            s = forward(x, params, config).score.value
            return (float(s) - target) ** 2

        fp = forward(x, params, config)
        diff = fp.score - constant(np.array(target))
        grads = backward(diff * diff)
        eps = 1e-5
        for name, arr in params.tensors.items():
            flat = arr.reshape(-1)
            g = grads[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(8, flat.size),
                                  replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_value()
                flat[idx] = orig - eps
                dn = loss_value()
                flat[idx] = orig
                numeric = (up - dn) / (2 * eps)
                analytic = float(g[idx])
                rel = abs(numeric - analytic) / max(
                    abs(numeric), abs(analytic), 1e-6)
                worst = max(worst, rel)
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 60
    report(1, "PASS" if ok else "FAIL",
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60


@criterion(2)
def test_criterion_2_memorizes_toy_items():
    started = time.time()
    records = make_records(8, seed=0)
    table = make_table(sorted(vocab_of(records)))
    examples = examples_from_records(records, table)
    config = TrainConfig(
        model=ModelConfig(input_dim=8, hidden_dim=32, dropout_rate=0.0,
                          use_attention=True, seed=0),
        epochs=500, batch_size=8, lr=0.001, seed=0)
    params, curve = train(examples, [], config)
    elapsed = time.time() - started
    best = min(e.train_mse for e in curve.epochs)
    reached = [i + 1 for i, e in enumerate(curve.epochs)
               if e.train_mse < 1e-3]
    ok = curve.aborted is None and bool(reached) and elapsed < 60
    report(2, "PASS" if ok else "FAIL",
           f"best MSE {best:.2e}"
           + (f", reached at epoch {reached[0]}" if reached else "")
           + f", {elapsed:.1f}s")
    assert curve.aborted is None
    assert reached, f"train MSE never fell below 1e-3 (best {best:.2e})"
    assert elapsed < 60
    _cache["criterion2"] = (params, curve, config, examples)


@criterion(3)
def test_criterion_3_released_dataset_reproduction(tmp_path):
    records, why = released_corpus(tmp_path)
    if records is None:
        report(3, "SKIP", why)
        pytest.skip(why)

    problems = []
    if len(records) != 1362:
        problems.append(f"{len(records)} records, expected 1362")
    sp = split(records, 0.7, seed=0)
    if (len(sp.train_ids), len(sp.test_ids)) != (954, 408):
        problems.append(f"split {len(sp.train_ids)}/{len(sp.test_ids)}, "
                        f"expected 954/408")
    items = [r.participant_ratings for r in records
             if len(r.participant_ratings) >= 2]
    ceiling = bootstrap_ceiling(items, 1000, seed=0) if items else float("nan")
    if not 0.91 <= ceiling <= 0.95:
        problems.append(f"ceiling {ceiling:.4f} outside [0.91, 0.95]")
    paired = [(r.mean_rating, r.no_context_mean_rating) for r in records
              if r.no_context_mean_rating is not None]
    note = "no-context column absent"
    if len(paired) >= 2:
        r = pearson(np.array([p[0] for p in paired]),
                    np.array([p[1] for p in paired]))
        note = f"context vs no-context r={r:.3f}"
        if abs(r - 0.68) > 0.02:
            problems.append(f"context correlation {r:.3f} not 0.68 +/- 0.02")
    status = "PASS" if not problems else "FAIL"
    report(3, status, "; ".join(problems) if problems else
           f"n=1362, split 954/408, ceiling {ceiling:.3f}, {note}")
    assert not problems, problems


@criterion(4)
def test_criterion_4_desk_scale_quality(tmp_path):
    bundle, why = released_model(tmp_path)
    if bundle is None:
        report(4, "SKIP", why)
        pytest.skip(why)
    params, config, table, records, test_ex, hidden, dropout = bundle
    scores = evaluate(test_ex, params, config)
    targets = np.array([ex.target for ex in test_ex])
    r = pearson(scores, targets)
    tuned = "full grid" if os.environ.get("SIL_FULL_TUNE") == "1" \
        else "default config"
    ok = r >= 0.5
    report(4, "PASS" if ok else "FAIL",
           f"held-out r={r:.3f} ({tuned}: hidden {hidden}, "
           f"dropout {dropout})")
    assert ok, f"held-out r {r:.3f} below the 0.5 floor"


@criterion(5)
def test_criterion_5_minimal_pair_suite(tmp_path):
    frames = load_frames()
    variants = generate_minimal_pairs(frames)
    texts = {v.text for v in variants}
    structural_ok = (len(variants) == 800
                     and len({v.variant_id for v in variants}) == 800
                     and GOLDEN_ACTIVE in texts
                     and GOLDEN_PASSIVE in texts)

    bundle, why = released_model(tmp_path)
    if bundle is None:
        status = "PASS" if structural_ok else "FAIL"
        report(5, status,
               "800 variants, golden strings byte-exact; "
               f"model orderings SKIP: {why}")
        assert structural_ok
        return

    params, config, table = bundle[0], bundle[1].model, bundle[2]
    scores = score_variants(variants, params, config, table)
    means = {row.key: row.mean
             for row in minimal_pair_report(variants, scores, B=200, seed=0)}
    orderings = {
        "partitive>no_partitive":
            means[("partitive", "partitive")]
            > means[("partitive", "no_partitive")],
        "subject>other":
            means[("grammatical_function", "subject")]
            > means[("grammatical_function", "other")],
        "unmodified>modified":
            means[("modification", "unmodified")]
            > means[("modification", "modified")],
    }
    bad = [k for k, v in orderings.items() if not v]
    ok = structural_ok and not bad
    report(5, "PASS" if ok else "FAIL",
           "800 variants, golden strings byte-exact, orderings "
           + ("all hold" if not bad else f"violated: {', '.join(bad)}"))
    assert structural_ok
    assert not bad, bad


@criterion(6)
def test_criterion_6_attention_analyses(tmp_path):
    # weight normalization is checked on a synthetic model either way
    records = make_records(20, seed=9)
    table = make_table(sorted(vocab_of(records)))
    config = ModelConfig(input_dim=8, hidden_dim=6, dropout_rate=0.0, seed=3)
    weights = attention_for_records(records, init_params(config), config,
                                    table)
    sums_ok = all(abs(w.sum() - 1.0) <= 1e-9 and np.all(w >= 0)
                  for w in weights.values())

    bundle, why = released_model(tmp_path)
    if bundle is None:
        status = "PASS" if sums_ok else "FAIL"
        report(6, status,
               "weights sum to 1 +/- 1e-9; corpus counts SKIP: " + why)
        assert sums_ok
        return

    params, tconfig, table, corpus_records = bundle[0], bundle[1], \
        bundle[2], bundle[3]
    corpus_weights = attention_for_records(corpus_records, params,
                                           tconfig.model, table)
    corpus_sums_ok = all(abs(w.sum() - 1.0) <= 1e-9
                         for w in corpus_weights.values())
    rep = attention_by_position(corpus_records, corpus_weights, max_len=30,
                                B=200, seed=0)
    of_rep = partitive_of_analysis(corpus_records, corpus_weights,
                                   B=200, seed=0)
    problems = []
    if not (sums_ok and corpus_sums_ok):
        problems.append("weights do not sum to 1")
    if rep.n_length_filtered != 1028:
        problems.append(f"length filter kept {rep.n_length_filtered}, "
                        f"expected 1028")
    if of_rep.n_multi_of != 128:
        problems.append(f"multi-of subset {of_rep.n_multi_of}, expected 128")
    if not rep.some_mean > rep.other_mean:
        problems.append(f"some weight {rep.some_mean:.4f} not above "
                        f"other {rep.other_mean:.4f}")
    report(6, "PASS" if not problems else "FAIL",
           "; ".join(problems) if problems else
           f"sums ok, 1028 length-filtered, 128 multi-of, "
           f"some {rep.some_mean:.3f} > other {rep.other_mean:.3f}")
    assert not problems, problems


@criterion(7)
def test_criterion_7_regression_probe(tmp_path):
    # synthetic mediation: the NN predictor IS the mediated feature's effect
    records = make_records(40, seed=2)
    for r in records:
        r.mean_rating = 3.0 + 2.0 * r.features.partitive
    nn = {r.id: r.mean_rating for r in records}
    comp = regression_compare(records, nn, RegressionSpec(), B=1000, seed=0)
    mediated_p = comp.row("partitive").p_shrink
    others = {name: comp.row(name).p_shrink
              for name in ("strength", "mention", "subjecthood",
                           "modification", "utterance_length")}
    problems = []
    if not mediated_p > 0.95:
        problems.append(f"mediated p_shrink {mediated_p:.3f} <= 0.95")
    for name, p in others.items():
        if not 0.2 <= p <= 0.8:
            problems.append(f"non-mediated {name} p_shrink {p:.3f} "
                            f"outside [0.2, 0.8]")
    synthetic_ok = not problems

    bundle, why = released_model(tmp_path)
    if bundle is None:
        status = "PASS" if synthetic_ok else "FAIL"
        report(7, status,
               ("synthetic mediation ok; " if synthetic_ok
                else "; ".join(problems) + "; ")
               + "corpus shrinkage SKIP: " + why)
        assert synthetic_ok, problems
        return

    params, tconfig, table, corpus_records = bundle[0], bundle[1], \
        bundle[2], bundle[3]
    examples = examples_from_records(corpus_records, table)
    preds = cv_predict(examples, tconfig, k=6, seed=0)
    comp = regression_compare(corpus_records, preds, RegressionSpec(),
                              B=10000, seed=0)
    for name in ("partitive", "subjecthood", "modification"):
        p = comp.row(name).p_shrink
        if not p > 0.5:
            problems.append(f"{name} p_shrink {p:.3f} not above 0.5")
    report(7, "PASS" if not problems else "FAIL",
           "; ".join(problems) if problems else
           "synthetic mediation ok; corpus coefficients shrink")
    assert not problems, problems


@criterion(8)
def test_criterion_8_determinism():
    notes = []

    # criterion 2 rerun: training is byte-deterministic
    if "criterion2" not in _cache:
        test_criterion_2_memorizes_toy_items.__wrapped__()
        ACCEPTANCE_LINES.pop()  # keep one line per criterion
    params_a, curve_a, config, examples = _cache["criterion2"]
    params_b, curve_b = train(examples, [], config)
    train_same = (
        all(params_a.tensors[n].tobytes() == params_b.tensors[n].tobytes()
            for n in params_a.names())
        and [e.train_mse for e in curve_a.epochs]
        == [e.train_mse for e in curve_b.epochs])
    notes.append("train rerun byte-identical" if train_same
                 else "TRAIN RERUN DIVERGED")

    # criterion 5 rerun: variant scoring is byte-deterministic
    frames = load_frames()
    variants = generate_minimal_pairs(frames)
    mp_config = ModelConfig(input_dim=8, hidden_dim=4, dropout_rate=0.0,
                            seed=4)
    mp_params = init_params(mp_config)
    vocab = sorted({t for v in variants for t in v.tokens()})
    table = make_table(vocab)
    s1 = score_variants(variants, mp_params, mp_config, table)
    s2 = score_variants(variants, mp_params, mp_config, table)
    texts_1 = [v.text for v in variants]
    texts_2 = [v.text for v in generate_minimal_pairs(load_frames())]
    mp_same = s1.tobytes() == s2.tobytes() and texts_1 == texts_2
    notes.append("variant scoring byte-identical" if mp_same
                 else "VARIANT SCORING DIVERGED")

    # criterion 4 stand-in: the tuning loop is run-to-run deterministic
    records = make_records(16, seed=3)
    sources = {"glove": make_table(sorted(vocab_of(records)))}
    from sil.corpus import kfold
    folds = kfold(records, 2, seed=0)
    grid = [GridPoint(TrainConfig(
        ModelConfig(input_dim=8, hidden_dim=3, dropout_rate=0.1),
        epochs=2, batch_size=8, lr=0.01))]
    t1 = tune(records, sources, grid, folds, seed=5)
    t2 = tune(records, sources, grid, folds, seed=5)
    tune_same = t1[0].fold_rs == t2[0].fold_rs \
        and t1[0].mean_r == t2[0].mean_r
    notes.append("tune rerun identical" if tune_same
                 else "TUNE RERUN DIVERGED")

    ok = train_same and mp_same and tune_same
    report(8, "PASS" if ok else "FAIL", "; ".join(notes))
    assert ok, notes
