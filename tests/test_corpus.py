"""Corpus TSV parsing, rescaling, truncation, splits and folds."""

import hashlib
import math

import numpy as np
import pytest

from sil.corpus import (COLUMNS, MAX_CONTEXT_TOKENS, MAX_TARGET_TOKENS, Split,
                        kfold, parse_corpus, rescale_rating, split, truncate,
                        unscale_rating, write_corpus)
from sil.errors import ContractError, ParseError, ValidationError

from conftest import corpus_records, make_records


def test_rescale_endpoints_and_midpoint():
    assert rescale_rating(1.0) == 0.0
    assert rescale_rating(7.0) == 1.0
    assert rescale_rating(4.0) == 0.5
    assert rescale_rating(5.3) == pytest.approx(0.71667, abs=5e-6)


def test_rescale_rejects_out_of_range():
    with pytest.raises(ContractError):
        rescale_rating(0.9)
    with pytest.raises(ContractError):
        rescale_rating(7.1)


def test_unscale_inverts_rescale():
    for r in np.linspace(1, 7, 13):
        assert unscale_rating(rescale_rating(float(r))) == \
            pytest.approx(float(r), abs=1e-12)


def test_round_trip_is_bit_exact(tmp_path):
    records = make_records(30, seed=1, with_context=True, no_context_col=True)
    p1 = tmp_path / "a.tsv"
    p2 = tmp_path / "b.tsv"
    write_corpus(records, p1)
    reparsed = parse_corpus(p1)
    write_corpus(reparsed, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert reparsed == records


def test_parse_of_written_records_gives_them_back(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(records=corpus_records(st))
    def check(records):
        path = tmp_path / "c.tsv"
        write_corpus(records, path)
        parsed = parse_corpus(path)
        assert parsed == records
        assert parsed.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    check()


def test_missing_column_rejected(tmp_path):
    records = make_records(3)
    path = tmp_path / "c.tsv"
    write_corpus(records, path)
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    header.remove("partitive")
    broken = "\t".join(header) + "\n" + "\n".join(lines[1:]) + "\n"
    path.write_text(broken)
    with pytest.raises(ValidationError, match="partitive"):
        parse_corpus(path)


def _write_with_cell(tmp_path, column, value):
    records = make_records(3)
    path = tmp_path / "c.tsv"
    write_corpus(records, path)
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    idx = header.index(column)
    cells = lines[2].split("\t")
    cells[idx] = value
    lines[2] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_rating_out_of_range_names_row(tmp_path):
    path = _write_with_cell(tmp_path, "mean_rating", "8.0")
    with pytest.raises(ValidationError) as exc:
        parse_corpus(path)
    assert exc.value.row == 3


def test_mean_must_match_participant_ratings(tmp_path):
    path = _write_with_cell(tmp_path, "participant_ratings",
                            "1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,7.0")
    with pytest.raises(ValidationError, match="mean"):
        parse_corpus(path)


def test_duplicate_id_rejected(tmp_path):
    records = make_records(3)
    records[2].id = records[0].id
    path = tmp_path / "c.tsv"
    write_corpus(records, path)
    with pytest.raises(ValidationError, match="duplicate"):
        parse_corpus(path)


def test_field_count_mismatch_is_parse_error(tmp_path):
    records = make_records(2)
    path = tmp_path / "c.tsv"
    write_corpus(records, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("short\trow\n")
    with pytest.raises(ParseError) as exc:
        parse_corpus(path)
    assert exc.value.line == 4


def test_some_index_range_checked(tmp_path):
    path = _write_with_cell(tmp_path, "some_index", "99")
    with pytest.raises(ValidationError, match="some_index"):
        parse_corpus(path)


def test_of_index_lists_must_not_overlap(tmp_path):
    records = make_records(3)
    target = next(r for r in records if r.of_partitive_indices)
    target.of_other_indices = list(target.of_partitive_indices)
    path = tmp_path / "c.tsv"
    write_corpus(records, path)
    with pytest.raises(ValidationError, match="overlap"):
        parse_corpus(path)


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(ParseError):
        parse_corpus(path)


def test_column_order_in_file_is_flexible(tmp_path):
    records = make_records(4, seed=3)
    path = tmp_path / "c.tsv"
    write_corpus(records, path)
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    perm = list(reversed(range(len(header))))
    shuffled = ["\t".join(line.split("\t")[i] for i in perm)
                for line in lines]
    path.write_text("\n".join(shuffled) + "\n")
    assert parse_corpus(path) == records


def test_target_truncation_keeps_first_30_and_drops_markers():
    base = make_records(1, seed=2)[0]
    base.tokens = [f"w{i}" for i in range(42)]
    base.tokens[35] = "some"
    base.some_index = 35
    base.of_partitive_indices = [36]
    base.of_other_indices = [5]
    base.features.utterance_length = 42
    out = truncate(base, with_context=False)
    assert out.tokens == base.tokens[:MAX_TARGET_TOKENS]
    assert out.some_index is None
    assert out.of_partitive_indices == []
    assert out.of_other_indices == [5]
    # untruncated length is preserved on the feature vector
    assert out.features.utterance_length == 42


def test_short_target_unchanged_and_same_object():
    record = make_records(1, seed=4)[0]
    assert len(record.tokens) <= MAX_TARGET_TOKENS
    assert truncate(record, with_context=False) is record
    # the flag is keyword-only: a positional mode string is not read as True
    with pytest.raises(TypeError):
        truncate(record, "target_only")


def test_context_truncation_keeps_last_150():
    record = make_records(1, seed=5)[0]
    record.context_tokens = [f"c{i}" for i in range(200)]
    out = truncate(record, with_context=True)
    assert out.context_tokens == record.context_tokens[-MAX_CONTEXT_TOKENS:]
    assert out.context_tokens[0] == "c50"
    assert out.tokens == record.tokens


def test_context_mode_leaves_long_target_alone():
    record = make_records(1, seed=6)[0]
    record.tokens = [f"w{i}" for i in range(42)]
    record.some_index = 0
    record.tokens[0] = "some"
    out = truncate(record, with_context=True)
    assert len(out.tokens) == 42


def test_split_sizes_and_determinism():
    records = make_records(10, seed=7)
    a = split(records, 0.7, seed=1)
    b = split(records, 0.7, seed=1)
    assert a == b
    assert len(a.train_ids) == 7 and len(a.test_ids) == 3
    assert sorted(a.train_ids + a.test_ids) == sorted(r.id for r in records)
    assert not set(a.train_ids) & set(a.test_ids)


def test_split_matches_published_partition_arithmetic():
    ids = [f"i{i}" for i in range(1362)]
    s = split(ids, 0.7, seed=0)
    assert len(s.train_ids) == 954
    assert len(s.test_ids) == 408


def test_split_depends_on_seed():
    records = make_records(40, seed=8)
    assert split(records, 0.7, seed=1) != split(records, 0.7, seed=2)


def test_split_fraction_validated():
    records = make_records(4)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ContractError):
            split(records, bad, seed=0)


def test_split_round_trips_through_json():
    s = split(make_records(12), 0.7, seed=3)
    assert Split.from_json(s.to_json()) == s


def test_kfold_sizes_for_954_by_5():
    ids = [f"i{i}" for i in range(954)]
    folds = kfold(ids, 5, seed=0)
    sizes = sorted(len(held) for _, held in folds)
    assert sizes == [190, 191, 191, 191, 191]


def test_kfold_each_id_held_out_exactly_once():
    ids = [f"i{i}" for i in range(1362)]
    folds = kfold(ids, 6, seed=1)
    held = [i for _, heldout in folds for i in heldout]
    assert sorted(held) == sorted(ids)
    for train_ids, heldout in folds:
        assert not set(train_ids) & set(heldout)
        assert sorted(train_ids + heldout) == sorted(ids)


def test_kfold_two_by_two():
    folds = kfold(["a", "b", "c", "d"], 2, seed=0)
    assert [len(h) for _, h in folds] == [2, 2]


def test_kfold_k_validated():
    ids = ["a", "b", "c"]
    with pytest.raises(ContractError):
        kfold(ids, 1, seed=0)
    with pytest.raises(ContractError):
        kfold(ids, 4, seed=0)


def test_kfold_determinism_and_seed_sensitivity():
    ids = [f"i{i}" for i in range(20)]
    assert kfold(ids, 4, seed=5) == kfold(ids, 4, seed=5)
    assert kfold(ids, 4, seed=5) != kfold(ids, 4, seed=6)


def test_fold_sizes_differ_by_at_most_one():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, min(n, 9)))
        folds = kfold([f"i{i}" for i in range(n)], k, seed=trial)
        sizes = [len(h) for _, h in folds]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert math.floor(n / k) in (min(sizes), max(sizes))


def test_columns_constant_matches_header():
    assert COLUMNS[0] == "id"
    assert len(COLUMNS) == 14
