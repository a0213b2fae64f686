"""Output checks that judge the program from outside.

Nothing here imports the package under test. The reference forward pass
reads the checkpoint file and the vector file itself and implements the
documented architecture: embedded tokens, a 2-layer bidirectional LSTM
with gate order (i, f, g, o), additive self-attention
softmax(v . tanh(W h_t)) over the top layer's states, and an affine
head with a logistic sigmoid.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

TARGET_CAP = 30
CONTEXT_CAP = 150
TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_csv(path: Path) -> list[dict[str, str]]:
    require(path.is_file(), f"missing output {path.name}")
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def metric_rows(path: Path) -> dict[str, str]:
    return {row["metric"]: row["value"] for row in read_csv(path)}


def finite_unit_interval(values, what: str) -> None:
    for v in values:
        require(math.isfinite(v) and 0.0 < v < 1.0,
                f"{what}: score {v!r} not finite in (0, 1)")


# ---------------------------------------------------------------------------
# Reference forward pass
# ---------------------------------------------------------------------------

def read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Magic "SIL1", u32 header length, JSON header, float64 tensors."""
    blob = path.read_bytes()
    require(blob[:4] == b"SIL1", f"{path.name}: bad checkpoint magic")
    (n,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + n].decode("utf-8"))
    offset = 8 + n
    tensors = {}
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        tensors[entry["name"]] = np.frombuffer(
            blob, "<f8", count, offset).reshape(shape)
        offset += 8 * count
    require(offset == len(blob), f"{path.name}: size does not match header")
    return header["config"], tensors


def read_vectors(path: Path, wanted: set[str]) -> dict[str, np.ndarray]:
    """Rows of a GloVe text file for `wanted` tokens; first occurrence wins."""
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            token, _, rest = line.partition(" ")
            if token in wanted and token not in out:
                out[token] = np.array(rest.split(), dtype=np.float64)
    return out


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _lstm(x: np.ndarray, W, U, b, reverse: bool) -> np.ndarray:
    H = U.shape[1]
    h = np.zeros(H)
    c = np.zeros(H)
    out = np.empty((x.shape[0], H))
    steps = range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0])
    for t in steps:
        z = W @ x[t] + U @ h + b
        i, f = _sigmoid(z[:H]), _sigmoid(z[H:2 * H])
        g, o = np.tanh(z[2 * H:3 * H]), _sigmoid(z[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def reference_forward(x: np.ndarray, config: dict,
                      p: dict[str, np.ndarray]) -> tuple[float, np.ndarray]:
    """Eval-mode score and attention weights for one T x D input."""
    require(config["use_attention"], "reference covers attention pooling")
    for layer in range(config["num_layers"]):
        x = np.hstack([
            _lstm(x, p[f"lstm.{layer}.{d}.W"], p[f"lstm.{layer}.{d}.U"],
                  p[f"lstm.{layer}.{d}.b"], reverse=d == "bw")
            for d in ("fw", "bw")])
    e = np.tanh(x @ p["attn.W"]) @ p["attn.v"]
    weights = np.exp(e - e.max())
    weights /= weights.sum()
    score = _sigmoid(p["head.w"] @ (weights @ x) + p["head.b"])
    return float(score), weights


def model_input(item, with_context: bool) -> list[str]:
    """The token sequence the model reads for one generated item."""
    if with_context:
        return item.context[-CONTEXT_CAP:] + item.tokens
    return item.tokens[:TARGET_CAP]


def check_against_reference(pred_rows: list[dict], items_by_id: dict,
                            with_context: bool, checkpoint: Path,
                            vectors: Path) -> int:
    """Recompute a fixed handful of eval predictions; returns how many.

    Picks the first, middle and last rows and the longest input, so the
    ragged extremes are always among the checked items.
    """
    n = len(pred_rows)
    lengths = [len(model_input(items_by_id[r["id"]], with_context))
               for r in pred_rows]
    chosen = sorted({0, n // 2, n - 1, int(np.argmax(lengths))})
    seqs = {i: model_input(items_by_id[pred_rows[i]["id"]], with_context)
            for i in chosen}
    table = read_vectors(vectors, {t for s in seqs.values() for t in s})
    config, params = read_checkpoint(checkpoint)
    dim = config["input_dim"]
    for i, seq in seqs.items():
        x = np.vstack([table.get(t, np.zeros(dim)) for t in seq])
        score, weights = reference_forward(x, config, params)
        row = pred_rows[i]
        got = float(row["score"])
        require(abs(got - score) <= TOL,
                f"eval score of {row['id']} is {got!r}, reference {score!r}")
        got_w = np.array([float(w) for w in row["attention"].split(";")])
        require(got_w.shape == weights.shape
                and float(np.max(np.abs(got_w - weights))) <= TOL,
                f"eval attention of {row['id']} differs from reference")
    return len(seqs)


# ---------------------------------------------------------------------------
# Regression oracle
# ---------------------------------------------------------------------------

REGRESSION_PREDICTORS = ("intercept", "partitive", "strength", "mention",
                         "subjecthood", "modification", "utterance_length")


def original_model_fit(items) -> dict[str, float]:
    """OLS of mean rating on the standardized hand-coded features.

    Binary predictors are centered, continuous ones (strength, untruncated
    utterance length) z-scored, as the regression probe documents.
    """
    def centered(values, scale):
        col = np.asarray(values, dtype=np.float64)
        col = col - col.mean()
        std = col.std()
        return col / std if scale and std > 0 else col

    X = np.column_stack([
        np.ones(len(items)),
        centered([it.partitive for it in items], False),
        centered([it.strength for it in items], True),
        centered([it.mention for it in items], False),
        centered([it.subjecthood for it in items], False),
        centered([it.modification for it in items], False),
        centered([len(it.tokens) for it in items], True),
    ])
    y = np.array([it.mean_rating for it in items])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return dict(zip(REGRESSION_PREDICTORS, map(float, beta)))
