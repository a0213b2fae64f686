"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions listed in `TRACED` and
patches every loaded `sil` module that imported them, so
`sil.cli.train` and `sil.trainer.train` both reach the wrapper. Each
call appends one span (function, start, end, parent, stage, work count)
to an in-memory list; nothing is written until `write_spans` runs at the
end. A function that no longer exists is reported as absent.

A layer is a module of the package. Metric names are
`<module>.<function>.<measure>`: `s` is inclusive seconds, `self_s`
inclusive seconds minus the wrapped calls made inside, `calls` the call
count, and the other measures work counts.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, function, layer, work count taken from (args, kwargs, result))
TRACED = [
    ("sil.cli", "main", "cli", None),
    ("sil.corpus", "parse_corpus", "corpus", None),
    ("sil.corpus", "truncate", "corpus", None),
    ("sil.embeddings", "load_glove", "embeddings",
     lambda a, k, r: len(r.vocab)),
    ("sil.embeddings", "embed_utterance", "embeddings",
     lambda a, k, r: r.shape[0]),
    ("sil.model", "forward", "model", lambda a, k, r: len(a[0])),
    ("sil.model", "lstm_cell", "model", None),
    ("sil.model", "save_checkpoint", "model", None),
    ("sil.model", "load_checkpoint", "model", None),
    ("sil.autodiff", "backward", "autodiff", None),
    ("sil.optim", "adam_step", "optim",
     lambda a, k, r: sum(p.size for p in a[0].values())),
    ("sil.trainer", "train", "trainer", None),
    ("sil.trainer", "evaluate", "trainer", None),
    ("sil.trainer", "examples_from_records", "trainer", None),
    ("sil.metrics", "bootstrap_ceiling", "metrics", None),
    ("sil.metrics", "bootstrap_ci", "metrics", None),
    ("sil.metrics", "pearson", "metrics", None),
    ("sil.probes.minimal_pairs", "score_variants", "probes.minimal_pairs",
     None),
    ("sil.probes.minimal_pairs", "minimal_pair_report",
     "probes.minimal_pairs", None),
    ("sil.probes.attention", "attention_for_records", "probes.attention",
     None),
    ("sil.probes.attention", "attention_by_position", "probes.attention",
     None),
    ("sil.probes.attention", "partitive_of_analysis", "probes.attention",
     None),
    ("sil.probes.regression", "regression_compare", "probes.regression",
     None),
    ("sil.probes.regression", "build_design", "probes.regression", None),
]
LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in TRACED))


# metric name -> (unit, function key, measure). The function key of a
# forward call carries its mode, so train and eval self time separate.
# The comment after each group names the end-to-end metric it should move.
LAYER_METRICS = {
    # setup_s on all workloads
    "corpus.parse_corpus.s": ("s", "corpus.parse_corpus", "s"),
    "corpus.truncate.calls": ("count", "corpus.truncate", "calls"),
    # setup_s and every stage time on probes
    "embeddings.load_glove.s": ("s", "embeddings.load_glove", "s"),
    "embeddings.load_glove.rows": ("count", "embeddings.load_glove", "work"),
    "embeddings.embed_utterance.self_s":
        ("s", "embeddings.embed_utterance", "self_s"),
    "embeddings.embed_utterance.tokens":
        ("count", "embeddings.embed_utterance", "work"),
    # train_items_per_s (train mode); eval_items_per_s, minimal_pairs_s,
    # attention_s (eval mode)
    "model.forward.train.self_s": ("s", "model.forward.train", "self_s"),
    "model.forward.eval.self_s": ("s", "model.forward.eval", "self_s"),
    "model.forward.calls": ("count", "model.forward", "calls"),
    "model.forward.timesteps": ("count", "model.forward", "work"),
    "model.lstm_cell.self_s": ("s", "model.lstm_cell", "self_s"),
    "model.lstm_cell.calls": ("count", "model.lstm_cell", "calls"),
    "model.save_checkpoint.s": ("s", "model.save_checkpoint", "s"),
    "model.load_checkpoint.s": ("s", "model.load_checkpoint", "s"),
    # train_items_per_s, mostly on train-narrow-context
    "autodiff.backward.self_s": ("s", "autodiff.backward", "self_s"),
    "autodiff.backward.calls": ("count", "autodiff.backward", "calls"),
    # train_items_per_s and peak_rss_mb on train-wide-target
    "optim.adam_step.self_s": ("s", "optim.adam_step", "self_s"),
    "optim.adam_step.calls": ("count", "optim.adam_step", "calls"),
    "optim.adam_step.params": ("count", "optim.adam_step", "work"),
    "trainer.train.self_s": ("s", "trainer.train", "self_s"),
    "trainer.evaluate.self_s": ("s", "trainer.evaluate", "self_s"),
    "trainer.examples_from_records.s":
        ("s", "trainer.examples_from_records", "s"),
    # ceiling_s, minimal_pairs_s and attention_s on probes
    "metrics.bootstrap_ceiling.self_s":
        ("s", "metrics.bootstrap_ceiling", "self_s"),
    "metrics.bootstrap_ci.self_s": ("s", "metrics.bootstrap_ci", "self_s"),
    "metrics.pearson.calls": ("count", "metrics.pearson", "calls"),
    # minimal_pairs_s
    "probes.minimal_pairs.score_variants.self_s":
        ("s", "probes.minimal_pairs.score_variants", "self_s"),
    "probes.minimal_pairs.minimal_pair_report.self_s":
        ("s", "probes.minimal_pairs.minimal_pair_report", "self_s"),
    # attention_s
    "probes.attention.attention_for_records.self_s":
        ("s", "probes.attention.attention_for_records", "self_s"),
    "probes.attention.attention_by_position.self_s":
        ("s", "probes.attention.attention_by_position", "self_s"),
    "probes.attention.partitive_of_analysis.self_s":
        ("s", "probes.attention.partitive_of_analysis", "self_s"),
    # regress_s
    "probes.regression.regression_compare.self_s":
        ("s", "probes.regression.regression_compare", "self_s"),
    "probes.regression.build_design.s":
        ("s", "probes.regression.build_design", "s"),
    # every stage time on probes (flag parsing, CSV writing, input hashing)
    "cli.main.self_s": ("s", "cli.main", "self_s"),
    # the failed-operation share
    **{f"{layer}.errors": ("count", layer, "errors") for layer in LAYERS},
}


@dataclass
class Tracer:
    # one (key, t0, t1, parent, stage, work) tuple per call
    spans: list = field(default_factory=list)
    errors: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    absent: list = field(default_factory=list)
    stage: int = -1
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def install(self) -> None:
        """Wrap every traced function; `sil.cli` imports all the others."""
        self.absent.clear()
        for module_name, name, layer, work in TRACED:
            key = f"{module_name.removeprefix('sil.')}.{name}"
            try:
                original = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                self.absent.append(key)
                continue
            wrapper = self._wrap(original, key, layer, work)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if ((mod_name == "sil" or mod_name.startswith("sil."))
                        and getattr(mod, name, None) is original):
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()

    def _wrap(self, fn, key: str, layer: str, work):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_key = key
            if key == "model.forward":  # (embedded, params, config, train)
                train = kwargs.get("train", len(args) > 3 and args[3])
                span_key += ".train" if train else ".eval"
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            count = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    count = work(args, kwargs, result)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (span_key, t0, t1, parent, self.stage, count)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, *_), c in zip(self.spans, child)]

    def per_function(self) -> dict[str, dict[str, float]]:
        """Inclusive seconds, self seconds, calls and work per span key.

        Forward spans count under their mode key and under `model.forward`.
        """
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self._self_times()):
            key, t0, t1, _, _, work = span
            keys = [key]
            if key.startswith("model.forward."):
                keys.append("model.forward")
            for k in keys:
                agg = out.setdefault(k, {"s": 0.0, "self_s": 0.0,
                                         "calls": 0, "work": 0})
                agg["s"] += t1 - t0
                agg["self_s"] += self_s
                agg["calls"] += 1
                agg["work"] += work
        return out

    def self_by_stage(self) -> dict[int, dict[str, float]]:
        """Self seconds per stage and span key; their sum is the traced
        share of the stage's wall time."""
        out: dict[int, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self._self_times()):
            per_key = out.setdefault(span[4], {})
            per_key[span[0]] = per_key.get(span[0], 0.0) + self_s
        return out

    def metrics(self) -> dict[str, dict]:
        funcs = self.per_function()
        out = {}
        for name, (unit, key, measure) in LAYER_METRICS.items():
            if measure == "errors":
                value = self.errors[key]
            elif key.removesuffix(".train").removesuffix(".eval") \
                    in self.absent:
                continue
            else:
                value = funcs.get(key, {}).get(measure, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: Path, stage_names: list[str]) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tstage\tfunction\tstart\tend\tparent\twork\n")
            for i, (key, t0, t1, parent, stage, work) in enumerate(
                    self.spans):
                fh.write(f"{i}\t{stage_names[stage]}\t{key}\t{t0!r}\t{t1!r}"
                         f"\t{parent}\t{work}\n")
