"""Embedding tables: GloVe parsing, unknown-token policies, precomputed files."""

import hashlib
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sil import embeddings
from sil.corpus import truncate
from sil.embeddings import (EmbeddingTable, PrecomputedEmbeddings,
                            UNK_TOKEN, embed_utterance, input_rows,
                            load_glove, load_precomputed, save_glove,
                            save_precomputed, tokenize)
from sil.errors import ContractError, IntegrityError, ParseError

from conftest import make_records, make_table


def test_parse_simple_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("cat 0.1 0.2\ndog 0.3 0.4\n")
    table = load_glove(path)
    assert table.dim == 2
    np.testing.assert_array_equal(table.lookup("cat"), [0.1, 0.2])
    np.testing.assert_array_equal(table.lookup("dog"), [0.3, 0.4])
    assert "cat" in table and "fox" not in table


def test_zero_vector_policy_for_unseen_token(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("cat 0.1 0.2\n")
    table = load_glove(path)
    np.testing.assert_array_equal(table.lookup("unseen"), [0.0, 0.0])


def test_duplicate_token_keeps_first(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("cat 0.1 0.2\ncat 9.0 9.0\ndog 0.3 0.4\n")
    table = load_glove(path)
    assert table.matrix.shape[0] == 2
    np.testing.assert_array_equal(table.lookup("cat"), [0.1, 0.2])


def test_ragged_line_names_line_number(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("cat 0.1 0.2\ndog 0.3\n")
    with pytest.raises(ParseError) as exc:
        load_glove(path)
    assert exc.value.line == 2


def test_non_numeric_value_rejected(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("cat 0.1 oops\n")
    with pytest.raises(ParseError):
        load_glove(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("")
    with pytest.raises(ParseError):
        load_glove(path)


def test_unk_token_policy(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text(f"cat 0.1 0.2\n{UNK_TOKEN} 0.5 0.6\n")
    table = load_glove(path, unk_policy="unk_token")
    np.testing.assert_array_equal(table.lookup("unseen"), [0.5, 0.6])


def test_unk_token_policy_requires_unk_row(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("cat 0.1 0.2\n")
    with pytest.raises(ContractError):
        load_glove(path, unk_policy="unk_token")


def test_mean_vector_policy(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a 0.0 2.0\nb 2.0 0.0\n")
    table = load_glove(path, unk_policy="mean_vector")
    np.testing.assert_allclose(table.lookup("zzz"), [1.0, 1.0])


def test_unknown_policy_rejected():
    with pytest.raises(ContractError):
        EmbeddingTable(dim=1, vocab={"a": 0}, matrix=np.zeros((1, 1)),
                       unk_policy="nearest")


def test_save_load_round_trip_is_exact(tmp_path):
    table = make_table(["alpha", "beta", "gamma"], dim=5)
    path = tmp_path / "v.txt"
    save_glove(table, path)
    again = load_glove(path)
    assert again.vocab == table.vocab
    assert again.matrix.tobytes() == table.matrix.tobytes()


def test_lookup_is_deterministic():
    table = make_table(["x", "y"], dim=4)
    a = table.lookup("x")
    b = table.lookup("x")
    assert a.tobytes() == b.tobytes()


def test_embed_shapes_without_and_with_context():
    records = make_records(1, seed=0, with_context=True)
    record = records[0]
    record.tokens = ["some", "dogs", "liked", "the", "park"]
    record.context_tokens = ["a", "b", "c", "d", "e", "f", "g"]
    table = make_table(set(record.tokens) | set(record.context_tokens),
                       dim=100)
    no_ctx = embed_utterance(record, table, with_context=False)
    with_ctx = embed_utterance(record, table, with_context=True)
    assert no_ctx.shape == (5, 100)
    assert with_ctx.shape == (12, 100)
    # context rows come first
    np.testing.assert_array_equal(with_ctx[7:], no_ctx)


def test_embed_utterance_truncates_the_record():
    record = make_records(1, seed=0, with_context=True)[0]
    record.tokens = ["some"] + ["dogs"] * 44
    record.context_tokens = ["a"] * 160
    record.features.utterance_length = 45
    table = make_table(["some", "dogs", "a"], dim=4)
    # targets keep their first 30 tokens; contexts their last 150, with
    # the target whole; a record cut before the call is cut the same
    for with_context, rows in ((False, 30), (True, 150 + 45)):
        full = embed_utterance(record, table, with_context)
        assert full.shape == (rows, 4)
        cut = embed_utterance(truncate(record, with_context=with_context),
                              table, with_context)
        assert cut.tobytes() == full.tobytes()
    source = PrecomputedEmbeddings(
        dim=3, layer_id=0,
        table={record.id: np.arange(45 * 3.0).reshape(45, 3)})
    np.testing.assert_array_equal(embed_utterance(record, source),
                                  source.table[record.id][:30])


def _row_count_outcome(fn, *args):
    """`fn(*args)`'s row count, or its error's type and message."""
    try:
        result = fn(*args)
    except (ContractError, IntegrityError) as exc:
        return type(exc), str(exc)
    return result if isinstance(result, int) else len(result)


def test_input_rows_makes_embed_utterances_checks():
    record = make_records(1, seed=0, with_context=True)[0]
    record.tokens = ["some"] + ["dogs"] * 44
    record.context_tokens = ["a"] * 160
    record.features.utterance_length = 45
    table = make_table(["some", "dogs", "a"], dim=4)
    rows = np.ones((45, 3))
    sources = [
        table,
        PrecomputedEmbeddings(dim=3, layer_id=0, table={record.id: rows}),
        PrecomputedEmbeddings(dim=3, layer_id=0, table={"other": rows}),
        PrecomputedEmbeddings(dim=3, layer_id=0,
                              table={record.id: rows[:44]}),
    ]
    outcomes = []
    for source in sources:
        for with_context in (False, True):
            got = _row_count_outcome(input_rows, record, source, with_context)
            assert got == _row_count_outcome(embed_utterance, record, source,
                                             with_context)
            outcomes.append(got)
    assert outcomes[:3] == [30, 150 + 45, 30]
    assert {o[0] for o in outcomes[3:] if isinstance(o, tuple)} == \
        {ContractError, IntegrityError}


def test_precomputed_count_must_match_tokens():
    record = make_records(1, seed=1)[0]
    n = len(record.tokens)
    good = PrecomputedEmbeddings(
        dim=6, layer_id=2, table={record.id: np.ones((n, 6))})
    assert embed_utterance(record, good).shape == (n, 6)
    bad = PrecomputedEmbeddings(
        dim=6, layer_id=2, table={record.id: np.ones((n - 1, 6))})
    with pytest.raises(IntegrityError):
        embed_utterance(record, bad)


def test_precomputed_missing_id_is_lookup_error():
    source = PrecomputedEmbeddings(dim=2, layer_id=0,
                                   table={"u0": np.ones((1, 2))})
    with pytest.raises(KeyError):
        source.vectors_for("absent")


def test_precomputed_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    source = PrecomputedEmbeddings(
        dim=4, layer_id=9,
        table={"a": rng.standard_normal((3, 4)),
               "b": rng.standard_normal((5, 4))})
    path = tmp_path / "pc.jsonl"
    save_precomputed(source, path)
    again = load_precomputed(path)
    assert again.dim == 4 and again.layer_id == 9
    for rid in source.table:
        np.testing.assert_array_equal(again.table[rid], source.table[rid])


@pytest.mark.parametrize("chunk", [1, 7, 1 << 18])
def test_precomputed_load_hashes_the_bytes_it_reads(tmp_path, chunk):
    path = tmp_path / "pc.jsonl"
    path.write_bytes('{"id": "é", "layer": 2, "vectors": [[1.5, 2]]}\r\n\n'
                     '{"id": "b", "layer": 2, "vectors": [[3, 4]]}'
                     .encode("utf-8"))
    with mock.patch.object(embeddings, "_READ_CHUNK", chunk):
        source = load_precomputed(path)
    assert source.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert sorted(source.table) == ["b", "é"]
    np.testing.assert_array_equal(source.table["é"], [[1.5, 2.0]])


def test_precomputed_file_validates_uniformity(tmp_path):
    path = tmp_path / "pc.jsonl"
    path.write_text(
        '{"id": "a", "layer": 1, "vectors": [[1.0, 2.0]]}\n'
        '{"id": "b", "layer": 1, "vectors": [[1.0, 2.0, 3.0]]}\n')
    with pytest.raises(ParseError) as exc:
        load_precomputed(path)
    assert exc.value.line == 2

    path.write_text(
        '{"id": "a", "layer": 1, "vectors": [[1.0, 2.0]]}\n'
        '{"id": "b", "layer": 2, "vectors": [[1.0, 2.0]]}\n')
    with pytest.raises(ParseError, match="layer"):
        load_precomputed(path)

    path.write_text(
        '{"id": "a", "layer": 1, "vectors": [[1.0, 2.0]]}\n'
        '{"id": "a", "layer": 1, "vectors": [[1.0, 2.0]]}\n')
    with pytest.raises(ParseError, match="duplicate"):
        load_precomputed(path)


def test_precomputed_file_rejects_bad_json(tmp_path):
    path = tmp_path / "pc.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ParseError):
        load_precomputed(path)


def test_tokenizer_lowercases_and_detaches_punctuation():
    assert tokenize("Some dogs barked.") == ["some", "dogs", "barked", "."]
    assert tokenize('"Hello," she said!') == \
        ['"', "hello", ",", '"', "she", "said", "!"]
    assert tokenize("") == []
    assert tokenize("some of the farmers...") == \
        ["some", "of", "the", "farmers", ".", ".", "."]


def test_tokenizer_keeps_internal_punctuation():
    assert tokenize("it's a mid-range value") == \
        ["it's", "a", "mid-range", "value"]


# ---------------------------------------------------------------------------
# load_glove against the per-line loader it replaced
# ---------------------------------------------------------------------------

def reference_finite(values, vec, line_num):
    """Raise the ParseError of the first value of a row that is not finite."""
    for text, value in zip(values, vec):
        if not np.isfinite(value):
            raise ParseError(f"vector value {text!r} is not a finite number",
                             line=line_num)


def reference_load_glove(path, unk_policy: str = "zero_vector"):
    """The per-value `float` loader that `load_glove` replaced, verbatim,
    and the finite check that kept values have had since."""
    path = Path(path)
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ParseError("line has no vector values", line=line_num)
            elif len(values) != dim:
                raise ParseError(
                    f"expected {dim} values, got {len(values)}", line=line_num)
            if token in vocab:
                continue
            try:
                vec = np.array([float(v) for v in values])
            except ValueError:
                raise ParseError("non-numeric vector value", line=line_num) from None
            reference_finite(values, vec, line_num)
            vocab[token] = len(rows)
            rows.append(vec)
    if dim is None:
        raise ParseError("empty embedding file", line=1)
    return EmbeddingTable(dim=dim, vocab=vocab,
                          matrix=np.vstack(rows), unk_policy=unk_policy)


def assert_same_as_reference(path):
    """Same table bit for bit, or the same error type, line and message."""
    try:
        expected = reference_load_glove(path)
    except ParseError as exc:
        with pytest.raises(type(exc)) as got:
            load_glove(path)
        assert got.value.line == exc.line
        assert str(got.value) == f"{path}: {exc}"
        return
    table = load_glove(path)
    assert table.dim == expected.dim
    assert table.vocab == expected.vocab
    assert table.matrix.dtype == expected.matrix.dtype
    assert table.matrix.tobytes() == expected.matrix.tobytes()


def test_round_trip_of_extreme_values_matches_reference(tmp_path):
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(
        -300, 300, size=(40, 7))
    # inf and nan are rejected (test_non_finite_kept_value_names_its_line)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1.7976931348623157e308, -1.7976931348623157e308]
    matrix.flat[:len(special)] = special
    table = EmbeddingTable(dim=7, vocab={f"w{i}": i for i in range(40)},
                           matrix=matrix)
    path = tmp_path / "v.txt"
    save_glove(table, path)
    assert_same_as_reference(path)
    again = load_glove(path)
    assert again.matrix.tobytes() == matrix.tobytes()


VALID_LAYOUTS = {
    "tabs_and_runs_of_spaces": "a\t1.5   -2\n  b 3e2\t\t.5  \nc 0 -0.0\n",
    "crlf_and_blank_lines": "\r\n a 1 2\r\n\r\n   \r\nb 3 4\r\nc 5 6",
    "duplicates_keep_first": "a 1 2\nb 3 4\na 9 9\nb x y\na 7 8\n",
    "unicode_whitespace": "a 1　2\nb\xa03 4\nc 5\x0b6\n",
    "single_row_single_value": "only 42\n",
}

BAD_LAYOUTS = {
    "ragged_row": "a 1 2\nb 3\nc 5 6\n",
    "ragged_duplicate_row": "a 1 2\nb 3 4\na 1 2 3\n",
    "valueless_duplicate_row": "a 1 2\nb 3 4\na\n",
    "valueless_first_row": "\n\na\nb 1 2\n",
    "valueless_later_row": "a 1 2\nb\n",
    "non_numeric_value": "a 1 2\nb 3 oops\n",
    "non_numeric_before_ragged_duplicate": "a 1 2\nb 3 x\na 1\n",
    "ragged_duplicate_before_non_numeric": "a 1 2\na 1\nb 3 x\n",
    "comment_and_quote_chars": "a 1 2\nb #3 4\n",
    "hex_float": "a 0x1p3 2\n",
    # each spelling parses, and each row but the last is not finite
    "inf_nan_spellings": "a inf -Infinity\nb NaN +nan\nc 1E400 -1e-400\n"
                         "d 1e-400 -1e-400\n",
    "empty_file": "",
    "blank_lines_only": "\n  \n\t\n",
}


@pytest.mark.parametrize("name", sorted(VALID_LAYOUTS))
def test_valid_layouts_match_reference(tmp_path, name):
    path = tmp_path / "v.txt"
    path.write_bytes(VALID_LAYOUTS[name].encode("utf-8"))
    assert_same_as_reference(path)


@pytest.mark.parametrize("name", sorted(BAD_LAYOUTS))
def test_bad_layouts_fail_like_reference(tmp_path, name):
    path = tmp_path / "v.txt"
    path.write_bytes(BAD_LAYOUTS[name].encode("utf-8"))
    with pytest.raises(ParseError):
        reference_load_glove(path)
    assert_same_as_reference(path)


@pytest.mark.parametrize("bad_row, bad", [
    (0, "x 1 2"), (1023, "x 1 2"), (1024, "x 1"), (1025, "x 1 y 2"),
    (2500, "x 1 2 3 y"), (2500, "w0 1"), (2999, "x")])
def test_bad_row_past_first_rescan_block_matches_reference(
        tmp_path, bad_row, bad):
    lines = [f"w{i} {i}.5 -{i}e-3 {i % 7}" for i in range(3000)]
    lines[bad_row] = bad
    path = tmp_path / "v.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError):
        reference_load_glove(path)
    assert_same_as_reference(path)

@pytest.mark.parametrize("value", ["1_0", "١", "１"])
def test_grouped_and_non_ascii_digits_now_rejected(tmp_path, value):
    # `float` reads these; the C parser does not, and neither does load_glove
    path = tmp_path / "v.txt"
    path.write_text(f"a 1 2\nb 3 {value}\n", encoding="utf-8")
    assert reference_load_glove(path).vocab == {"a": 0, "b": 1}
    with pytest.raises(ParseError, match="non-numeric") as exc:
        load_glove(path)
    assert exc.value.line == 2


def test_glove_error_names_file_and_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("cat 0.1 0.2\ndog 0.3\n")
    with pytest.raises(ParseError) as exc:
        load_glove(path)
    assert exc.value.line == 2 and exc.value.path == path
    assert str(exc.value) == f"{path}: line 2: expected 2 values, got 1"


@pytest.mark.parametrize("body, message", [
    ('{"id": "a", "layer": 1, "vectors": [[1.0], [NaN]]}', "not a finite"),
    ('{"id": "a", "layer": 1, "vectors": [[-Infinity]]}', "not a finite"),
    ('{"id": "a", "layer": 1, "vectors": [[1e400]]}', "not a finite"),
    ('{"id": "a", "layer": "x", "vectors": [[1.0]]}', "layer"),
    ('{"id": "a", "layer": 1, "vectors": [[1.0, 2.0], [3.0]]}',
     "equal-length rows"),
    ('{"id": "a", "layer": 1, "vectors": [["q"]]}', "numbers"),
    ('{"id": ["a"], "layer": 1, "vectors": [[1.0]]}', "string"),
])
def test_precomputed_errors_name_file_and_line(tmp_path, body, message):
    path = tmp_path / "pc.jsonl"
    path.write_text('{"id": "z", "layer": 1, "vectors": [[0.5]]}\n'
                    + body + "\n")
    with pytest.raises(ParseError, match=message) as exc:
        load_precomputed(path)
    assert exc.value.line == 2
    assert str(exc.value).startswith(f"{path}: line 2: ")


def test_precomputed_missing_id_is_integrity_error():
    record = make_records(1, seed=1)[0]
    source = PrecomputedEmbeddings(dim=2, layer_id=0,
                                   table={"other": np.ones((1, 2))})
    with pytest.raises(IntegrityError, match=repr(record.id)):
        embed_utterance(record, source)


# ---------------------------------------------------------------------------
# load_glove(keep=...): only the kept tokens' rows are converted
# ---------------------------------------------------------------------------

def reference_load_kept(path, keep):
    """`reference_load_glove`, converting only the rows of tokens in `keep`.

    Every row's value count is still checked; a non-numeric or non-finite
    value on a row that is not converted is not an error.
    """
    path = Path(path)
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ParseError("line has no vector values", line=line_num)
            elif len(values) != dim:
                raise ParseError(
                    f"expected {dim} values, got {len(values)}", line=line_num)
            if token in vocab or token not in keep:
                continue
            try:
                vec = np.array([float(v) for v in values])
            except ValueError:
                raise ParseError("non-numeric vector value", line=line_num) from None
            reference_finite(values, vec, line_num)
            vocab[token] = len(rows)
            rows.append(vec)
    if dim is None:
        raise ParseError("empty embedding file", line=1)
    matrix = np.vstack(rows) if rows else np.empty((0, dim))
    return EmbeddingTable(dim=dim, vocab=vocab, matrix=matrix)


def assert_same_as_kept_reference(path, keep):
    """Same kept rows bit for bit, or the same error line and message."""
    try:
        expected = reference_load_kept(path, keep)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_glove(path, keep=keep)
        assert (got.value.line, got.value.message) == (exc.line, exc.message)
        return
    table = load_glove(path, keep=keep)
    assert table.dim == expected.dim
    assert set(table.vocab) == set(expected.vocab)
    for token in expected.vocab:
        assert table.lookup(token).tobytes() == \
            expected.lookup(token).tobytes()
    assert table.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def file_tokens(text: str) -> list[str]:
    """The first field of each non-blank line, as text-mode reading sees it."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return sorted({line.split()[0] for line in lines if line.split()})


@pytest.mark.parametrize("name", sorted(VALID_LAYOUTS) + sorted(BAD_LAYOUTS))
def test_layouts_under_every_keep_subset(tmp_path, name):
    text = {**VALID_LAYOUTS, **BAD_LAYOUTS}[name]
    path = tmp_path / "v.txt"
    path.write_bytes(text.encode("utf-8"))
    tokens = file_tokens(text)
    for keep in itertools.chain.from_iterable(
            itertools.combinations(tokens, k) for k in range(len(tokens) + 1)):
        assert_same_as_kept_reference(path, set(keep) | {"absent"})
        if name in VALID_LAYOUTS:
            full, kept = load_glove(path), load_glove(path, keep=keep)
            assert set(kept.vocab) == set(keep)
            for token in keep:
                assert kept.lookup(token).tobytes() == \
                    full.lookup(token).tobytes()


@pytest.mark.parametrize("name", sorted(BAD_LAYOUTS))
def test_count_errors_do_not_depend_on_keep(tmp_path, name):
    path = tmp_path / "v.txt"
    path.write_bytes(BAD_LAYOUTS[name].encode("utf-8"))
    with pytest.raises(ParseError) as full:
        load_glove(path)
    if full.value.message.startswith(("non-numeric", "vector value")):
        return  # a value error, found only on a kept row
    for keep in (set(), set(file_tokens(BAD_LAYOUTS[name]))):
        with pytest.raises(ParseError) as kept:
            load_glove(path, keep=keep)
        assert str(kept.value) == str(full.value)


@pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e400"])
def test_non_finite_kept_value_names_its_line(tmp_path, value):
    path = tmp_path / "v.txt"
    path.write_text(f"a 1 2\nb 3 {value}\nc 4 5\n", encoding="utf-8")
    for keep in (None, {"b"}, {"a", "b", "c"}):
        with pytest.raises(ParseError) as exc:
            load_glove(path, keep=keep)
        assert str(exc.value) == \
            f"{path}: line 2: vector value {value!r} is not a finite number"
    # a row that is not kept is not parsed
    table = load_glove(path, keep={"a", "c"})
    assert table.vocab == {"a": 0, "c": 1}
    # mean_vector's mean is over every row, so it keeps them all
    with pytest.raises(ParseError, match="line 2: vector value"):
        load_glove(path, unk_policy="mean_vector", keep={"a"})


def test_non_finite_value_before_a_bad_row_is_named_first(tmp_path):
    lines = [f"w{i} {i}.5 1" for i in range(3000)]
    lines[1500] = "w1500 nan 1"
    lines[2500] = "w2500 x 1"
    path = tmp_path / "v.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_glove(path)
    assert (exc.value.line, exc.value.message) == \
        (1501, "vector value 'nan' is not a finite number")
    lines[1500] = "w1500 x 1 nan"  # a bad count comes first in its line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_same_as_reference(path)


def test_non_numeric_value_on_unread_row_loads(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("a 1 2\nb 3 oops\nc 0x1p3 #4\n", encoding="utf-8")
    table = load_glove(path, keep={"a"})
    assert table.vocab == {"a": 0}
    np.testing.assert_array_equal(table.lookup("a"), [1.0, 2.0])
    np.testing.assert_array_equal(table.lookup("b"), [0.0, 0.0])
    with pytest.raises(ParseError, match="non-numeric") as exc:
        load_glove(path, keep={"a", "b"})
    assert exc.value.line == 2


@pytest.mark.parametrize("row, got", [
    ("b  1 2", 2), ("b 1 2 ", 2), (" b 1 2", 2), ("b 1 2 3\t4", 4),
    ("b 1 2 3\xa04", 4), ("b 1 2 3\x0b4", 4), ("b 1 2 3\x1c4", 4),
    ("b 1 2 3\u30004", 4)])
def test_row_with_dim_spaces_but_wrong_count_rejected(tmp_path, row, got):
    # each row holds as many spaces as the file has values, but not as
    # many values; a count of spaces alone would pass it
    path = tmp_path / "v.txt"
    path.write_text(f"a 1 2 3\n{row}\nc 4 5 6\n", encoding="utf-8")
    for keep in (None, {"a"}, {"c"}):
        with pytest.raises(ParseError) as exc:
            load_glove(path, keep=keep)
        assert exc.value.line == 2
        assert exc.value.message == f"expected 3 values, got {got}"


@pytest.mark.parametrize("policy, same", [
    ("unk_token", ("a", "zzz", UNK_TOKEN)),
    ("mean_vector", ("a", "b", "c", "zzz", UNK_TOKEN))])
def test_unk_policies_look_up_as_without_keep(tmp_path, policy, same):
    # unk_token keeps the <unk> row; mean_vector's mean needs every row
    path = tmp_path / "v.txt"
    path.write_text(f"a 0 2\nb 2 0\n{UNK_TOKEN} 5 6\nc 4 4\n",
                    encoding="utf-8")
    full = load_glove(path, unk_policy=policy)
    kept = load_glove(path, unk_policy=policy, keep={"a", "zzz"})
    for token in same:
        assert kept.lookup(token).tobytes() == full.lookup(token).tobytes()


def test_table_carries_sha256_of_file_bytes(tmp_path):
    path = tmp_path / "v.txt"
    path.write_bytes(b"a 1 2\r\nb 3 4\r\n\r\n")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_glove(path).sha256 == digest
    assert load_glove(path, keep={"b"}).sha256 == digest


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 64])
def test_blocks_cut_only_at_newlines(tmp_path, monkeypatch, chunk):
    # tiny reads put block edges everywhere: inside tokens, values, CRLF
    # pairs and multi-byte characters
    monkeypatch.setattr(embeddings, "_READ_CHUNK", chunk)
    text = ("\n é 1 2\r\nb\t3 4\rcafé 5 6\n\n  \nd 7 8\n"
            "e 9　0\nb 1 x\nf 1 2")
    path = tmp_path / "v.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_same_as_reference(path)
    for keep in ({"é"}, {"café", "f"}, {"e", "b"}):
        assert_same_as_kept_reference(path, keep)
    path.write_bytes(text.encode("utf-8") + b"\ng 1 2 3\n")
    for keep in (None, {"f"}):
        with pytest.raises(ParseError) as exc:
            load_glove(path, keep=keep)
        assert exc.value.line == 11


@pytest.mark.parametrize("keep", [None, {"a"}, {"b"}])
def test_not_utf8_names_file_and_line(tmp_path, keep):
    path = tmp_path / "v.txt"
    path.write_bytes("a 1 2\r\né 3 4\n\n".encode("utf-8") + b"b 5 \xff6\n")
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_glove(path, keep=keep)
    assert exc.value.line == 4 and exc.value.path == path


def test_precomputed_not_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "pc.jsonl"
    path.write_bytes(b'{"id": "a", "layer": 1, "vectors": [[1.0]]}\n\n'
                     b'{"id": "b\xff", "layer": 1, "vectors": [[1.0]]}\n')
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_precomputed(path)
    assert exc.value.line == 3 and exc.value.path == path


def test_kept_files_match_reference_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    tokens = st.sampled_from(["a", "b", "é", "<unk>", "x#"])
    values = st.sampled_from(["1", "-2.5", ".5", "3e2", "inf", "NaN",
                              "1e400", "x", "#1", "0x1p3"])
    gaps = st.sampled_from([" ", " ", " ", "  ", "\t", "\xa0", "\x0b",
                            "\x1c", "\x85", "\u2028"])
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r", " \n", "\n\n"])
    row = st.builds(
        lambda lead, token, vals, seps, end: lead + token + "".join(
            s + v for s, v in zip(seps, vals)) + end,
        st.sampled_from(["", "", " "]), tokens,
        st.lists(values, min_size=0, max_size=3),
        st.lists(gaps, min_size=3, max_size=3), ends)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(rows=st.lists(row, max_size=6),
                      keep=st.sets(tokens, max_size=5),
                      chunk=st.sampled_from([1, 4, 16, 1 << 20]))
    def check(rows, keep, chunk):
        path = tmp_path / "v.txt"
        path.write_bytes("".join(rows).encode("utf-8"))
        with mock.patch.object(embeddings, "_READ_CHUNK", chunk):
            assert_same_as_kept_reference(path, keep)
            assert_same_as_reference(path)

    check()
