"""Probes: templated minimal pairs, attention analyses, coefficient shrinkage."""

import math

import numpy as np
import pytest
from conftest import make_records, make_table, vocab_of

from sil.corpus import MAX_TARGET_TOKENS, FeatureVector, UtteranceRecord
from sil.errors import ContractError, ValidationError
from sil.model import ModelConfig, init_params, predict_batch
from sil.probes.attention import (attention_by_position,
                                  attention_for_records,
                                  partitive_of_analysis)
from sil.probes.minimal_pairs import (FEATURE_BITS, MinimalPairVariant,
                                      SentenceFrame, generate_minimal_pairs,
                                      load_frames,
                                      minimal_pair_report, realize,
                                      score_variants)
from sil.probes import regression
from sil.probes.regression import (MAIN_EFFECTS, RegressionSpec, _p_shrink,
                                   _stars, build_design, regression_compare)
from sil.seeding import rng_for

REFERENCE_ACTIVE = ("Some of the organic farmers in the mountains milked "
                    "the brown goats who graze on the meadows.")
REFERENCE_PASSIVE = ("Some of the brown goats who graze on the meadows "
                     "were milked by the organic farmers in the mountains.")
REFERENCE_BARE = ("Some organic farmers in the mountains milked "
                  "the brown goats who graze on the meadows.")


# ---------------------------------------------------------------------------
# minimal pairs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frames():
    return load_frames()


@pytest.fixture(scope="module")
def variants(frames):
    return generate_minimal_pairs(frames)


def variant_by_id(variants, vid):
    return next(v for v in variants if v.variant_id == vid)


def test_exactly_800_unique_variants(frames, variants):
    assert len(frames) == 25
    assert len(variants) == 800
    assert len({v.variant_id for v in variants}) == 800
    assert len({v.text for v in variants}) == 800


def test_reference_sentences_realized_exactly(variants):
    texts = {v.text for v in variants}
    assert REFERENCE_ACTIVE in texts
    assert REFERENCE_PASSIVE in texts
    assert REFERENCE_BARE in texts
    active = variant_by_id(variants, "f13.10111")
    assert active.text == REFERENCE_ACTIVE
    assert variant_by_id(variants, "f13.01111").text == REFERENCE_PASSIVE


def test_variant_ids_encode_features(variants):
    v = variant_by_id(variants, "f13.10111")
    assert v.features == {"some_subject": 1, "passive": 0, "partitive": 1,
                          "prenominal_mod": 1, "postnominal_mod": 1}


def test_every_variant_has_exactly_one_some(variants):
    for v in variants:
        assert v.tokens().count("some") == 1, v.variant_id
        assert v.text.endswith(".")
        assert v.text[0].isupper()


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(tok in it for tok in needle)


def test_single_bit_toggles_only_add_words(variants):
    by_id = {v.variant_id: v for v in variants}
    for v in variants:
        for bit in ("partitive", "prenominal_mod", "postnominal_mod"):
            if v.features[bit] == 1:
                continue
            flipped = dict(v.features, **{bit: 1})
            code = "".join(str(flipped[b]) for b in FEATURE_BITS)
            richer = by_id[f"{v.frame_id}.{code}"]
            assert _is_subsequence(v.tokens(), richer.tokens()), \
                (v.variant_id, bit)
            assert len(richer.tokens()) > len(v.tokens())


def test_some_np_grammatical_function():
    base = dict(some_subject=1, passive=0, partitive=0,
                prenominal_mod=0, postnominal_mod=0)
    v = MinimalPairVariant("x", "f", "t", dict(base))
    assert v.some_is_subject
    v = MinimalPairVariant("x", "f", "t", dict(base, passive=1))
    assert not v.some_is_subject  # passivization promotes the other NP
    v = MinimalPairVariant("x", "f", "t", dict(base, some_subject=0))
    assert not v.some_is_subject
    v = MinimalPairVariant("x", "f", "t",
                           dict(base, some_subject=0, passive=1))
    assert v.some_is_subject


def test_realize_uses_passive_aux(frames):
    frame = next(f for f in frames if f.frame_id == "f13")
    text = realize(frame, dict(some_subject=0, passive=1, partitive=0,
                               prenominal_mod=0, postnominal_mod=0))
    # modifier bits strip the some-NP only; the agent NP keeps its form
    assert text == ("Some goats were milked by the organic farmers "
                    "in the mountains.")


def test_group_sizes(variants):
    scores = np.full(800, 0.5)
    rows = minimal_pair_report(variants, scores, B=10, seed=0)
    sizes = {row.key: row.n for row in rows}
    assert sizes[("partitive", "partitive")] == 400
    assert sizes[("partitive", "no_partitive")] == 400
    assert sizes[("grammatical_function", "subject")] == 400
    assert sizes[("grammatical_function", "other")] == 400
    assert sizes[("prenominal", "modified")] == 400
    assert sizes[("postnominal", "modified")] == 400
    assert sizes[("modification", "modified")] == 600
    assert sizes[("modification", "unmodified")] == 200


def test_constant_scores_give_flat_means(variants):
    rows = minimal_pair_report(variants, np.full(800, 0.5), B=10, seed=0)
    for g in rows:
        assert g.mean == pytest.approx(4.0, abs=1e-12)
        assert g.lo == pytest.approx(4.0, abs=1e-12)
        assert g.hi == pytest.approx(4.0, abs=1e-12)


def test_injected_partitive_signal_surfaces_in_groups(variants):
    scores = np.array([0.5 + 0.1 * v.features["partitive"]
                       for v in variants])
    rows = minimal_pair_report(variants, scores, B=50, seed=0)
    groups = {row.key: row for row in rows}
    assert groups[("partitive", "partitive")].mean == \
        pytest.approx(4.6, abs=1e-9)
    assert groups[("partitive", "no_partitive")].mean == \
        pytest.approx(4.0, abs=1e-9)


def test_score_variants_runs_model(frames):
    subset = generate_minimal_pairs(frames[:2])
    vocab = sorted({t for v in subset for t in v.tokens()})
    table = make_table(vocab, dim=8)
    config = ModelConfig(input_dim=8, hidden_dim=3, dropout_rate=0.0, seed=1)
    params = init_params(config)
    scores = score_variants(subset, params, config, table)
    assert scores.shape == (64,)
    assert np.all((scores > 0.0) & (scores < 1.0))
    again = score_variants(subset, params, config, table)
    assert scores.tobytes() == again.tobytes()


def test_score_variants_cuts_long_variants_as_embedding_does():
    frame = SentenceFrame(
        frame_id="long", subj_premod="very old and rather tired",
        subj_head="farmers",
        subj_postmod="from the far green hills beyond the old river",
        obj_premod="small brown and white", obj_head="goats",
        obj_postmod="who graze on the wide meadows near the village",
        verb_active="milked", verb_passive="milked", passive_aux="were",
        complement="every single morning before the sun came up")
    subset = generate_minimal_pairs([frame])
    assert max(len(v.tokens()) for v in subset) > MAX_TARGET_TOKENS
    vocab = sorted({t for v in subset for t in v.tokens()})
    table = make_table(vocab, dim=8)
    config = ModelConfig(input_dim=8, hidden_dim=3, dropout_rate=0.0, seed=1)
    params = init_params(config)
    scores = score_variants(subset, params, config, table)
    embedded = [np.vstack([table.lookup(t)
                           for t in v.tokens()[:MAX_TARGET_TOKENS]])
                for v in subset]
    cut, _ = predict_batch([len(x) for x in embedded], embedded.__getitem__,
                           params, config)
    np.testing.assert_allclose(scores, cut, rtol=0, atol=1e-12)


def test_load_frames_rejects_missing_columns(tmp_path):
    path = tmp_path / "frames.tsv"
    path.write_text("frame_id\tsubj_head\nf01\tdogs\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="missing columns"):
        load_frames(path)


def test_load_frames_rejects_empty_required_cell(tmp_path):
    good = load_frames()
    header = ("frame_id\tsubj_premod\tsubj_head\tsubj_postmod\tobj_premod"
              "\tobj_head\tobj_postmod\tverb_active\tverb_passive"
              "\tpassive_aux\tother_det\tcomplement")
    row = "f01\tbig\t\tin town\tred\tcars\ton show\tsaw\tseen\twere\tthe\t"
    path = tmp_path / "frames.tsv"
    path.write_text(header + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="empty subj_head"):
        load_frames(path)
    assert good, "bundled table must still parse"


# ---------------------------------------------------------------------------
# attention analyses
# ---------------------------------------------------------------------------

def attn_record(rid, n_tokens, some_index=0, subjecthood=0, partitive_of=(),
                other_of=(), length=None):
    tokens = ["tok"] * n_tokens
    if some_index is not None and some_index < n_tokens:
        tokens[some_index] = "some"  # larger index mimics truncation
    return UtteranceRecord(
        id=rid, tokens=tokens, context_tokens=[], mean_rating=4.0,
        participant_ratings=[4.0],
        features=FeatureVector(
            partitive=1 if partitive_of else 0, determiner_strength=4.0,
            linguistic_mention=0, subjecthood=subjecthood, modification=0,
            utterance_length=length if length is not None else n_tokens),
        some_index=some_index,
        of_partitive_indices=list(partitive_of),
        of_other_indices=list(other_of))


def by_key(rows):
    return {row.key: row for row in rows}


def test_renormalization_zeroes_some_and_rescales():
    record = attn_record("a", 3, some_index=0, subjecthood=1)
    weights = {"a": np.array([1 / 3, 1 / 3, 1 / 3])}
    report = attention_by_position([record], weights, B=10, seed=0)
    raw = by_key(report.position_curves)
    assert raw[("some", 0)].mean == pytest.approx(1 / 3)
    assert raw[("other", 1)].mean == pytest.approx(1 / 3)
    assert report.some_mean == pytest.approx(1 / 3)
    assert report.other_mean == pytest.approx(1 / 3)
    renorm = by_key(report.subjecthood_curves)
    assert set(renorm) == {("subject", 1), ("subject", 2)}
    assert renorm[("subject", 1)].mean == pytest.approx(0.5)
    assert renorm[("subject", 2)].mean == pytest.approx(0.5)
    assert report.n_length_filtered == 1
    assert report.skipped_missing_some == 0


def test_subjecthood_splits_groups():
    records = [attn_record("s", 3, subjecthood=1),
               attn_record("n", 3, subjecthood=0)]
    weights = {"s": np.array([0.5, 0.4, 0.1]),
               "n": np.array([0.2, 0.3, 0.5])}
    report = attention_by_position(records, weights, B=10, seed=0)
    renorm = by_key(report.subjecthood_curves)
    assert renorm[("subject", 1)].mean == pytest.approx(0.8)
    assert renorm[("subject", 2)].mean == pytest.approx(0.2)
    assert renorm[("non_subject", 1)].mean == pytest.approx(0.375)
    assert renorm[("non_subject", 2)].mean == pytest.approx(0.625)


def test_length_filter_keeps_raw_curves_only():
    # weights exist for 30 kept tokens but the utterance itself is longer
    long = attn_record("long", 30, length=31)
    short = attn_record("short", 3)
    weights = {"long": np.full(30, 1 / 30), "short": np.full(3, 1 / 3)}
    report = attention_by_position([long, short], weights, B=10, seed=0)
    assert report.n_length_filtered == 1
    raw_positions = {position for group, position
                     in by_key(report.position_curves)
                     if group == "other"}
    assert max(raw_positions) == 29  # long record still feeds raw curves
    renorm_positions = {position for _, position
                        in by_key(report.subjecthood_curves)}
    assert renorm_positions == {1, 2}


def test_length_filter_keeps_max_len_and_drops_longer():
    # the renormalized curves keep targets of at most max_len tokens
    at_limit = attn_record("at", 4, subjecthood=1)
    over = attn_record("over", 4, subjecthood=0, length=5)
    weights = {"at": np.full(4, 0.25), "over": np.full(4, 0.25)}
    report = attention_by_position([at_limit, over], weights, max_len=4,
                                   B=10, seed=0)
    assert report.n_length_filtered == 1
    assert {group for group, _ in by_key(report.subjecthood_curves)} == \
        {"subject"}


def test_one_token_utterance_is_not_renormalized():
    # only "some": nothing is left to renormalize, so the record is not
    # counted among the length-filtered ones
    alone = attn_record("alone", 1, subjecthood=1)
    ok = attn_record("ok", 3, subjecthood=1)
    weights = {"alone": np.array([1.0]), "ok": np.array([0.5, 0.3, 0.2])}
    report = attention_by_position([alone, ok], weights, B=10, seed=0)
    assert report.n_length_filtered == 1
    assert set(by_key(report.subjecthood_curves)) == \
        {("subject", 1), ("subject", 2)}


def test_some_and_other_means_pool_their_own_tokens():
    records = [attn_record("a", 3, some_index=1), attn_record("b", 4)]
    weights = {"a": np.array([0.1, 0.7, 0.2]),
               "b": np.array([0.4, 0.3, 0.2, 0.1])}
    report = attention_by_position(records, weights, B=10, seed=0)
    assert report.some_mean == np.mean([0.7, 0.4])
    assert report.other_mean == np.mean([0.1, 0.2, 0.3, 0.2, 0.1])


def test_records_without_usable_some_are_counted():
    no_index = attn_record("x", 3, some_index=None)
    truncated_away = attn_record("y", 3, some_index=5)
    ok = attn_record("z", 3)
    weights = {"x": np.full(3, 1 / 3), "y": np.full(3, 1 / 3),
               "z": np.full(3, 1 / 3)}
    report = attention_by_position([no_index, truncated_away, ok],
                                   weights, B=10, seed=0)
    assert report.skipped_missing_some == 2


def test_all_records_unusable_raises():
    record = attn_record("x", 3, some_index=None)
    with pytest.raises(ContractError, match="some"):
        attention_by_position([record], {"x": np.full(3, 1 / 3)},
                              B=10, seed=0)


def test_records_missing_weights_are_ignored():
    records = [attn_record("a", 3), attn_record("b", 3)]
    weights = {"a": np.full(3, 1 / 3)}
    report = attention_by_position(records, weights, B=10, seed=0)
    assert report.skipped_missing_some == 0
    assert by_key(report.position_curves)[("some", 0)].n == 1


def test_attention_for_records_truncates(tiny_table):
    config = ModelConfig(input_dim=8, hidden_dim=3, dropout_rate=0.0, seed=0)
    params = init_params(config)
    records = [attn_record("short", 5), attn_record("long", 45)]
    for r in records:
        r.tokens = ["some"] + ["the"] * (len(r.tokens) - 1)
    weights = attention_for_records(records, params, config, tiny_table)
    assert weights["short"].shape == (5,)
    assert weights["long"].shape == (30,)
    for w in weights.values():
        assert abs(w.sum() - 1.0) < 1e-9


def test_attention_for_records_rejects_model_without_attention(tiny_table):
    config = ModelConfig(input_dim=8, hidden_dim=3, dropout_rate=0.0,
                         use_attention=False, seed=0)
    params = init_params(config)
    with pytest.raises(ContractError, match="without attention"):
        attention_for_records([attn_record("a", 5)], params, config,
                              tiny_table)


def test_of_weight_normalization():
    record = attn_record("a", 6, partitive_of=(1,), other_of=(4,))
    weights = {"a": np.array([0.2, 0.3, 0.2, 0.1, 0.1, 0.1])}
    report = partitive_of_analysis([record], weights, B=10, seed=0)
    raw = by_key(report.raw)
    assert raw[("partitive",)].mean == pytest.approx(0.3)
    assert raw[("other",)].mean == pytest.approx(0.1)
    norm = by_key(report.normalized)
    assert norm[("partitive",)].mean == pytest.approx(0.75)
    assert norm[("other",)].mean == pytest.approx(0.25)
    assert report.n_multi_of == 1


def test_single_of_skips_normalized_comparison():
    record = attn_record("a", 4, partitive_of=(1,))
    weights = {"a": np.array([0.4, 0.3, 0.2, 0.1])}
    report = partitive_of_analysis([record], weights, B=10, seed=0)
    assert [s.key for s in report.raw] == [("partitive",)]
    assert report.raw[0].n == 1
    assert report.normalized == []
    assert report.n_multi_of == 0


def test_of_indices_beyond_kept_weights_drop_out():
    record = attn_record("a", 3, partitive_of=(1,), other_of=(7,))
    weights = {"a": np.array([0.5, 0.3, 0.2])}
    report = partitive_of_analysis([record], weights, B=10, seed=0)
    kinds = [s.key for s in report.raw]
    assert kinds == [("partitive",)]
    assert report.n_multi_of == 0


def test_of_normalization_pools_across_records():
    a = attn_record("a", 5, partitive_of=(1,), other_of=(3,))
    b = attn_record("b", 5, partitive_of=(1,), other_of=(3,))
    weights = {"a": np.array([0.2, 0.4, 0.2, 0.1, 0.1]),
               "b": np.array([0.2, 0.1, 0.2, 0.4, 0.1])}
    report = partitive_of_analysis([a, b], weights, B=10, seed=0)
    norm = by_key(report.normalized)
    assert norm[("partitive",)].n == 2
    assert norm[("partitive",)].mean == pytest.approx((0.8 + 0.2) / 2)
    assert norm[("other",)].mean == pytest.approx((0.2 + 0.8) / 2)
    assert report.n_multi_of == 2


# ---------------------------------------------------------------------------
# regression comparison
# ---------------------------------------------------------------------------

def test_exact_linear_recovery_without_standardization():
    records = make_records(40, seed=2)
    X, names, _ = build_design(records, RegressionSpec(), None)
    planted = dict(zip(names, [2.0, 1.5, -0.25, 0.5, -0.75, 0.3, 0.1]))
    for r, rating in zip(records, X @ [planted[n] for n in names]):
        r.mean_rating = float(rating)
    rng = np.random.default_rng(0)
    nn = {r.id: float(rng.normal()) for r in records}
    comp = regression_compare(records, nn, RegressionSpec(), B=0, seed=0)
    for name in names:
        assert comp.row(name).beta_original == \
            pytest.approx(planted[name], abs=1e-9), name


def test_b_zero_reports_point_fit_only():
    records = make_records(20, seed=3)
    nn = {r.id: 0.5 * i for i, r in enumerate(records)}
    comp = regression_compare(records, nn, RegressionSpec(), B=0, seed=0)
    assert comp.n_bootstrap == 0
    for row in comp.rows:
        assert math.isnan(row.p_shrink)
        assert row.stars == ""
        if row.predictor != "nn_prediction":
            assert row.ci_original == (row.beta_original, row.beta_original)


def test_mediated_predictor_shrinks_with_high_confidence():
    records = make_records(40, seed=2)
    for r in records:
        r.mean_rating = 3.0 + 2.0 * r.features.partitive
    nn = {r.id: r.mean_rating for r in records}
    comp = regression_compare(records, nn, RegressionSpec(), B=400, seed=0)
    mediated = comp.row("partitive")
    assert mediated.beta_original == pytest.approx(2.0, abs=1e-9)
    assert abs(mediated.beta_extended) < abs(mediated.beta_original)
    assert mediated.p_shrink > 0.99
    assert mediated.stars in ("**", "***")
    for name in ("strength", "mention", "subjecthood"):
        assert 0.25 < comp.row(name).p_shrink < 0.85, name


def test_intervals_are_the_bootstrap_order_statistics():
    records = make_records(30, seed=9)
    rng = np.random.default_rng(1)
    nn = {r.id: r.mean_rating + float(rng.normal()) for r in records}
    B = 41
    comp = regression_compare(records, nn, RegressionSpec(), B=B, seed=3)
    # the oracle: each resample drawn by its own integers call and fit by
    # public lstsq, original then extended
    X_orig, _, y = build_design(records, RegressionSpec(), None)
    X_ext, _, _ = build_design(records, RegressionSpec(), nn)
    stream = rng_for(3, "regression-bootstrap")
    drawn = {"original": [], "extended": []}
    for _ in range(B):
        idx = stream.integers(0, len(records), size=len(records))
        for model, X in (("original", X_orig), ("extended", X_ext)):
            drawn[model].append(
                np.linalg.lstsq(X[idx], y[idx], rcond=None)[0])
    drawn = {model: np.sort(d, axis=0) for model, d in drawn.items()}
    # np.quantile's linear rule reads sorted draw (B - 1) * q; with 41
    # draws that is draw 1 for 2.5% and draw 39 for 97.5%, no interpolation
    for j, row in enumerate(comp.rows):
        expected = {"extended": row.ci_extended}
        if j < drawn["original"].shape[1]:
            expected["original"] = row.ci_original
        for model, ci in expected.items():
            assert ci == (drawn[model][1, j], drawn[model][39, j]), \
                (row.predictor, model)


def _per_draw_lstsq(X, y, p_orig, B, seed):
    """The bootstrap as one integers call and two public lstsq calls per
    draw: the reference the stacked draws must equal byte for byte."""
    rng = np.random.default_rng(seed)
    n = len(y)
    draws_orig, draws_ext = [], []
    for _ in range(B):
        idx = rng.integers(0, n, size=n)
        draws_orig.append(
            np.linalg.lstsq(X[idx][:, :p_orig], y[idx], rcond=None)[0])
        draws_ext.append(np.linalg.lstsq(X[idx], y[idx], rcond=None)[0])
    return np.array(draws_orig), np.array(draws_ext), rng


def _regression_arrays(n_items, seed, spec, nn_of):
    records = make_records(n_items, seed=seed)
    nn = {r.id: nn_of(r, i) for i, r in enumerate(records)}
    X_orig, _, y = build_design(records, spec, None)
    X_ext, _, _ = build_design(records, spec, nn)
    # the original design is the extended one without its last column
    assert X_ext[:, :-1].tobytes() == X_orig.tobytes()
    return X_ext, y, X_orig.shape[1]


def _assert_draws_match_per_draw_lstsq(X, y, p_orig, B, seed=5):
    rng = np.random.default_rng(seed)
    draws_orig, draws_ext = regression._bootstrap_draws(X, y, p_orig, B, rng)
    ref_orig, ref_ext, ref_rng = _per_draw_lstsq(X, y, p_orig, B, seed)
    assert draws_orig.tobytes() == ref_orig.tobytes()
    assert draws_ext.tobytes() == ref_ext.tobytes()
    # the blocked draws leave the generator where the per-draw calls do
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_stacked_draws_with_an_interaction_equal_per_draw_lstsq():
    spec = RegressionSpec(interactions=[("partitive", "mention")])
    X, y, p_orig = _regression_arrays(
        30, 11, spec, lambda r, i: r.mean_rating + 0.1 * (i % 7))
    _assert_draws_match_per_draw_lstsq(X, y, p_orig, 97)


def test_stacked_draws_on_a_rank_deficient_design_equal_per_draw_lstsq():
    # constant NN predictions standardize to a zero column, so lstsq
    # returns the minimum-norm fit of the extended model
    X, y, p_orig = _regression_arrays(25, 12, RegressionSpec(),
                                      lambda r, i: 0.5)
    assert not X[:, -1].any()
    assert np.linalg.matrix_rank(X) == p_orig
    _assert_draws_match_per_draw_lstsq(X, y, p_orig, 40)


def test_a_single_stacked_draw_equals_per_draw_lstsq():
    X, y, p_orig = _regression_arrays(40, 13, RegressionSpec(),
                                      lambda r, i: float(i))
    _assert_draws_match_per_draw_lstsq(X, y, p_orig, 1)


def test_a_partial_last_block_equals_per_draw_lstsq(monkeypatch):
    X, y, p_orig = _regression_arrays(20, 14, RegressionSpec(),
                                      lambda r, i: float(i % 5))
    n, p = X.shape
    # blocks of 7 draws: 20 draws are two full blocks and one of 6
    monkeypatch.setattr(regression, "_BLOCK_BYTES",
                        7 * X.itemsize * n * (p + 1))
    _assert_draws_match_per_draw_lstsq(X, y, p_orig, 20)


def test_draws_past_the_block_size_run_one_to_a_block():
    # one resample of 16 000 rows is over _BLOCK_BYTES, so each block
    # holds a single draw
    rng = np.random.default_rng(15)
    n, p = 16000, 8
    assert regression._BLOCK_BYTES // (8 * n * (p + 1)) == 0
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    _assert_draws_match_per_draw_lstsq(X, y, p - 1, 3)


def test_stacked_fit_of_a_non_finite_design_raises():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(4, 20, 3))
    X[2, 5, 1] = np.inf
    with pytest.raises(np.linalg.LinAlgError):
        regression._lstsq_stacked(X, rng.normal(size=(4, 20)))


@pytest.mark.parametrize("p, stars", [
    (0.5, ""), (0.95, ""), (np.nextafter(0.95, 1), "*"),
    (0.99, "*"), (np.nextafter(0.99, 1), "**"),
    (0.999, "**"), (np.nextafter(0.999, 1), "***"), (1.0, "***"),
])
def test_stars_mark_p_strictly_above_each_level(p, stars):
    assert _stars(float(p)) == stars


def test_p_shrink_counts_exact_ties_as_half():
    extended = np.array([1.0, -2.0, 3.0, 0.5])
    original = np.array([-1.0, 2.0, 1.0, 1.0])
    # two exact ties in |beta|, one shrunk, one grown
    assert _p_shrink(extended, original) == 0.5
    assert _p_shrink(original, original) == 0.5


def test_nn_row_reports_extended_fit_only():
    records = make_records(20, seed=4)
    nn = {r.id: float(r.features.partitive) for r in records}
    comp = regression_compare(records, nn, RegressionSpec(), B=50, seed=0)
    row = comp.rows[-1]
    assert row.predictor == "nn_prediction"
    assert math.isnan(row.beta_original)
    assert math.isfinite(row.beta_extended)
    assert math.isnan(row.p_shrink)


def test_singular_design_names_the_collinear_predictors():
    records = make_records(30, seed=5)
    for r in records:
        r.features.modification = r.features.partitive
    nn = {r.id: 0.0 for r in records}
    with pytest.raises(ContractError) as exc:
        regression_compare(records, nn, RegressionSpec(), B=10, seed=0)
    assert "partitive" in str(exc.value)
    assert "modification" in str(exc.value)


def test_interaction_columns_are_products():
    records = make_records(15, seed=6)
    spec = RegressionSpec(interactions=[("partitive", "mention")])
    X, names, y = build_design(records, spec, None)
    assert names == ["intercept", *MAIN_EFFECTS, "partitive:mention"]
    np.testing.assert_allclose(X[:, -1], X[:, 1] * X[:, 3], atol=0)
    np.testing.assert_array_equal(
        y, [r.mean_rating for r in records])


def test_interaction_must_reference_declared_mains():
    with pytest.raises(ContractError, match="undeclared"):
        RegressionSpec(interactions=[("partitive", "nn_prediction")])


def test_standardization_centers_and_scales():
    records = make_records(25, seed=7)
    X, names, _ = build_design(records, RegressionSpec(), None)
    for j, name in enumerate(names):
        if name == "intercept":
            continue
        col = X[:, j]
        assert abs(col.mean()) < 1e-12, name
        if name in ("strength", "utterance_length"):
            assert col.std() == pytest.approx(1.0, abs=1e-12), name


def test_missing_nn_prediction_is_reported():
    records = make_records(10, seed=8)
    nn = {r.id: 0.1 for r in records[1:]}
    with pytest.raises(ContractError, match="missing NN predictions"):
        regression_compare(records, nn, RegressionSpec(), B=0, seed=0)


def test_default_main_effects_cover_all_features():
    assert MAIN_EFFECTS == ("partitive", "strength", "mention",
                            "subjecthood", "modification",
                            "utterance_length")
