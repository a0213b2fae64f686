"""Shared synthetic fixtures: records, embedding tables, tiny GloVe files."""

import os

import numpy as np
import pytest

from sil.corpus import FeatureVector, UtteranceRecord
from sil.embeddings import EmbeddingTable, PrecomputedEmbeddings
from sil.seeding import derive_seed

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without it
    pass
else:
    # HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a
    # failure in CI reproduces locally with the same setting
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# one line per acceptance criterion, echoed after the run so they stay
# visible even though pytest captures per-test stdout
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

NOUNS = ["dogs", "cats", "birds", "farmers", "students", "horses"]
VERBS = ["liked", "saw", "fed", "chased", "found"]
FILLER = ["the", "green", "old", "small", "houses", "park", "town",
          "quickly", "yesterday", "there", "again", "outside"]


def token_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic per-token vector, independent of vocabulary order."""
    rng = np.random.default_rng(derive_seed(0, f"tok:{token}"))
    return rng.standard_normal(dim)


def make_table(tokens, dim: int = 8) -> EmbeddingTable:
    """A zero_vector table of `tokens`; its last row is the unknown row."""
    vocab = {}
    rows = []
    for t in tokens:
        if t not in vocab:
            vocab[t] = len(rows)
            rows.append(token_vector(t, dim))
    return EmbeddingTable(dim=dim, vocab=vocab,
                          matrix=np.vstack([*rows, np.zeros(dim)]))


def make_precomputed(table: dict,
                     layer_id: int = 0) -> PrecomputedEmbeddings:
    """A precomputed source holding `table`'s {utterance id: (T, d) rows}."""
    matrix = np.vstack(list(table.values()))
    ends = np.cumsum([len(x) for x in table.values()]).tolist()
    return PrecomputedEmbeddings(
        dim=matrix.shape[1], layer_id=layer_id, matrix=matrix,
        rows={rid: range(end - len(x), end)
              for (rid, x), end in zip(table.items(), ends)})


def vectors_of(source: PrecomputedEmbeddings, rid: str) -> np.ndarray:
    """The rows that precomputed `source` holds for utterance `rid`."""
    span = source.rows[rid]
    return source.matrix[span.start:span.stop]


def stacked(inputs) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ragged (T_i x d) inputs as one matrix, and each input's row ids."""
    ends = np.cumsum([len(x) for x in inputs]).tolist()
    return (np.vstack(inputs),
            [np.arange(end - len(x), end) for x, end in zip(inputs, ends)])


def make_records(n: int = 24, seed: int = 0, with_context: bool = False,
                 no_context_col: bool = False) -> list[UtteranceRecord]:
    """Valid synthetic records whose rating tracks the partitive feature."""
    rng = np.random.default_rng(derive_seed(seed, "records"))
    records = []
    for i in range(n):
        partitive = int(rng.integers(0, 2))
        noun = NOUNS[int(rng.integers(0, len(NOUNS)))]
        verb = VERBS[int(rng.integers(0, len(VERBS)))]
        tail = [FILLER[int(rng.integers(0, len(FILLER)))]
                for _ in range(int(rng.integers(2, 6)))]
        tokens = ["some"] + (["of", "the"] if partitive else []) \
            + [noun, verb] + tail
        participant = np.clip(
            np.round(3.0 + 1.5 * partitive + rng.normal(0.0, 1.0, size=9)),
            1.0, 7.0)
        mean_rating = float(participant.mean())
        context = []
        if with_context:
            context = [FILLER[int(rng.integers(0, len(FILLER)))]
                       for _ in range(int(rng.integers(3, 8)))]
        no_context = None
        if no_context_col:
            no_context = float(np.clip(
                mean_rating + rng.normal(0.0, 0.4), 1.0, 7.0))
        records.append(UtteranceRecord(
            id=f"u{i:03d}",
            tokens=tokens,
            context_tokens=context,
            mean_rating=mean_rating,
            participant_ratings=[float(x) for x in participant],
            features=FeatureVector(
                partitive=partitive,
                determiner_strength=float(rng.uniform(1.0, 7.0)),
                linguistic_mention=int(rng.integers(0, 2)),
                subjecthood=int(rng.integers(0, 2)),
                modification=int(rng.integers(0, 2)),
                utterance_length=len(tokens)),
            some_index=0,
            of_partitive_indices=[1] if partitive else [],
            of_other_indices=[],
            no_context_mean_rating=no_context))
    return records


def corpus_records(st):
    """A Hypothesis strategy of valid record lists; `st` is
    `hypothesis.strategies`, which the tests that use this import or skip.

    Tokens and ids are any text without whitespace or control characters;
    ratings are any floats in [1, 7], and a mean is its participant
    ratings' mean whenever it has any.
    """
    word = st.text(st.characters(blacklist_categories=(
        "Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=6)
    rating = st.floats(1.0, 7.0)
    binary = st.integers(0, 1)

    @st.composite
    def record(draw, rid):
        tokens = draw(st.lists(word, min_size=1, max_size=8))
        participant = draw(st.lists(rating, max_size=4))
        marked = draw(st.lists(st.integers(0, len(tokens) - 1), unique=True))
        n_partitive = draw(st.integers(0, len(marked)))
        return UtteranceRecord(
            id=rid, tokens=tokens,
            context_tokens=draw(st.lists(word, max_size=4)),
            mean_rating=(sum(participant) / len(participant) if participant
                         else draw(rating)),
            participant_ratings=participant,
            features=FeatureVector(
                partitive=draw(binary), determiner_strength=draw(rating),
                linguistic_mention=draw(binary), subjecthood=draw(binary),
                modification=draw(binary), utterance_length=len(tokens)),
            some_index=draw(st.integers(0, len(tokens) - 1)),
            of_partitive_indices=marked[:n_partitive],
            of_other_indices=marked[n_partitive:],
            no_context_mean_rating=draw(st.none() | rating))

    return st.lists(word, unique=True, max_size=5).flatmap(
        lambda ids: st.tuples(*map(record, ids))).map(list)


def vocab_of(records) -> set[str]:
    tokens = set()
    for r in records:
        tokens.update(r.tokens)
        tokens.update(r.context_tokens)
    return tokens


def write_glove(path, tokens, dim: int = 8) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in sorted(set(tokens)):
            values = " ".join(repr(float(v)) for v in token_vector(t, dim))
            fh.write(f"{t} {values}\n")


@pytest.fixture
def tiny_records():
    return make_records(24, seed=5)


@pytest.fixture
def tiny_table(tiny_records):
    return make_table(sorted(vocab_of(tiny_records)), dim=8)
