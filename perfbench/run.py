"""End-to-end benchmark of the `sil` command line.

Run from the repository root:

    python3 perfbench/run.py --workload probes --seed 1 --seconds 10 --trace 0

The run generates seeded, paper-shaped inputs, then runs the workload's
`sil` stages exactly as a user would: one `python -m sil.cli <stage>`
process per stage, one at a time, against the sources under `./src`.
The stages run in rounds, in order, in one fresh directory holding a
fresh copy of the inputs: SAMPLES rounds, then more rounds of the
stages sampled SAMPLES times until the run has measured `--seconds`. A
long stage that a workload samples fewer times runs in the first and
last rounds and evenly between, and half the set-up samples come before
the rounds and half after, so that the samples of each metric span the
run. The run pins itself, and so every process it starts, to one core,
where a probe times a small fixed slice of work every 20 ms (see
SpeedProbe). Each sample's wall time is scaled to the host speed the
probe saw during it, and a metric is the median of its scaled samples.
On a shared host the speed of one process drifts by up to 2x over tens
of seconds as other tenants come and go; the scaling takes that drift
out, and the median the rest.

Every output is checked. A stage run that exits non-zero, prints a
traceback, fails a check, or writes bytes that differ from an earlier
run of the same code on the same inputs counts as a failed operation.
Outputs byte-identical to ones that passed the checks in this run are
not checked again.

`--trace 0` reports the end-to-end metrics. `--trace 1` reports the
per-layer metrics instead: it runs the stages three times in this
process through `sil.cli.main(argv)`, each time in a fresh directory: a
plain pass that warms the process (imports, allocator, file cache), then
a pass with the public functions wrapped (see layers.py) and a second
plain pass, stage by stage in turn. The tracing overhead is the traced
total minus the total of the second plain pass.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A fuller record (sizes,
environment, every stage sample, output hashes, failures, the trace's
per-stage balance) goes to .perfbench/results/.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every stage process.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402

SAMPLES = 4
INPUTS = "inputs"  # the generated inputs, under the run's work directory
END_TO_END_UNITS = {
    "setup_s": "s", "train_items_per_s": "items/s",
    "eval_items_per_s": "items/s", "minimal_pairs_s": "s",
    "attention_s": "s", "regress_s": "s", "ceiling_s": "s", "total_s": "s",
    "peak_rss_mb": "MB",
}
STAGE_METRICS = {"minimal-pairs": "minimal_pairs_s",
                 "attention": "attention_s", "regress": "regress_s",
                 "ceiling": "ceiling_s"}
# The host-speed probe: a fixed slice of interpreted work, timed every
# PROBE_SLEEP_S on the core that runs the stages (see SpeedProbe).
PROBE_CODE = """\
import os, sys, time
parent = os.getppid()
with open(sys.argv[1], "w", buffering=1) as log:
    while os.getppid() == parent:  # ends with the benchmark, however
        t0 = time.perf_counter()
        x = 0
        for i in range(4000):
            x += i * i
        t1 = time.perf_counter()
        log.write(f"{t1!r} {t1 - t0!r}\\n")
        time.sleep(float(sys.argv[2]))
"""
PROBE_SLEEP_S = 0.02
PROBE_MIN_SLICES = 5  # a sample shorter than this many slices uses the
                      # slices nearest to it
# Seconds one probe slice takes on a quiet 2-core Xeon host. Every sample
# is reported as if it had run at that host speed.
PROBE_SLICE_S = 0.0006
SETUP_CODE = """\
import sys
import sil.cli
from sil.corpus import parse_corpus
from sil.embeddings import load_glove
parse_corpus(sys.argv[1])
load_glove(sys.argv[2])
"""


@dataclass
class Sample:
    """One run of one stage."""

    stage: str
    wall_s: float
    rss_mb: float | None    # peak resident set of the stage process
    hashes: dict[str, str]
    error: str | None = None
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter start, end
    scaled_s: float | None = None  # wall_s at the probe's nominal speed


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest(src: Path) -> str:
    """sha256 over the package sources, so results name the code they ran."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path, seed: int, sizes, inputs) -> dict:
    rev = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_rev": rev, "source_sha256": source_digest(src),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "seed": seed, "sizes": workloads.describe(sizes),
        "max_train_sequence": inputs.max_sequence,
    }


# ---------------------------------------------------------------------------
# Running stages
# ---------------------------------------------------------------------------

def spawn(argv: list[str], cwd: Path, env: dict, log: Path):
    """Run one process to completion: ((start, end), rusage, exit code)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (t0, t1), usage, proc.returncode


def fresh_dir(work: Path, files: list[str], label: str) -> Path:
    """A new directory holding a copy of every input file."""
    d = work / label
    d.mkdir()
    for name in files:
        shutil.copyfile(work / INPUTS / name, d / name)
    return d


def finish(stage, d: Path, wall: float, rss_mb, problem: str | None,
           ctx) -> Sample:
    """Hash a stage's outputs and check them; any problem fails the run."""
    sizes, inputs, checked = ctx
    hashes = {name: sha256_file(d / name) for name in stage.outputs
              if (d / name).is_file()}
    if problem is None and checked.get(stage.name) != hashes:
        try:
            workloads.CHECKS[stage.name](d, sizes, inputs)
            checked[stage.name] = hashes
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            problem = f"check failed: {type(exc).__name__}: {exc}"
    return Sample(stage.name, wall, rss_mb, hashes, problem)


def run_stage(stage, d: Path, env: dict, ctx) -> Sample:
    log = d / f"{stage.name}.log"
    span, usage, rc = spawn([sys.executable, "-m", "sil.cli", *stage.argv],
                            d, env, log)
    # write the outputs back now, so that it does not happen during a
    # later sample
    for name in stage.outputs:
        with contextlib.suppress(OSError), open(d / name, "rb") as fh:
            os.fsync(fh.fileno())
    text = log.read_text(encoding="utf-8", errors="replace")
    problem = None
    if rc != 0:
        problem = f"exit code {rc}: {text.strip()[-400:]}"
    elif "Traceback (most recent call last)" in text:
        problem = f"printed a traceback: {text.strip()[-400:]}"
    sample = finish(stage, d, span[1] - span[0], usage.ru_maxrss / 1024.0,
                    problem, ctx)
    sample.span = span
    return sample


class SpeedProbe:
    """Host speed on the stages' core, sampled all through the run.

    The host is shared. Other tenants slow one process by up to 2x over
    tens of seconds and by 10-20% from one second to the next; the two
    cores are not slowed together, and CPU time tracks wall time. So the
    benchmark pins itself, and with it every process it starts, to one
    core, and runs this probe there: every PROBE_SLEEP_S it wakes and
    times a fixed slice of interpreted work, about 3% of the core. A
    sample's host speed is the mean probe slice over the sample's span,
    and `scale` turns its wall time into seconds at the speed at which a
    slice takes PROBE_SLICE_S.
    """

    def __init__(self, work: Path, env: dict) -> None:
        self.log = work / "probe.log"
        self.proc = subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE, str(self.log),
             str(PROBE_SLEEP_S)], cwd=work, env=env)
        self.slices: list[tuple[float, float]] = []

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        if self.log.is_file():
            for line in self.log.read_text().splitlines():
                end, took = line.split()
                self.slices.append((float(end), float(took)))

    def scale(self, span: tuple[float, float]) -> float:
        took = [t for end, t in self.slices if span[0] <= end <= span[1]]
        if len(took) < PROBE_MIN_SLICES:
            mid = (span[0] + span[1]) / 2
            took = [t for _, t in sorted(
                self.slices, key=lambda s: abs(s[0] - mid))[:PROBE_MIN_SLICES]]
        return PROBE_SLICE_S / statistics.fmean(took)


def timed_stages(stages, d: Path, env: dict, ctx, seconds: float
                 ) -> list[Sample]:
    """Rounds of the stages still owed samples (see module doc)."""
    fewer = ctx[0].samples
    rounds = {name: {round(i * (SAMPLES - 1) / max(n - 1, 1))
                     for i in range(n)} for name, n in fewer.items()}
    t0 = time.perf_counter()
    samples: list[Sample] = []
    for r in range(SAMPLES):
        samples += [run_stage(s, d, env, ctx) for s in stages
                    if r in rounds.get(s.name, (r,))]
    while time.perf_counter() - t0 < seconds:
        samples += [run_stage(s, d, env, ctx) for s in stages
                    if s.name not in fewer]
    return samples


def in_process_stage(stage, d: Path, ctx) -> Sample:
    """One stage, in this process, through `sil.cli.main`."""
    import sil.cli

    cwd = Path.cwd()
    problem = None
    try:
        os.chdir(d)
        with open(d / f"{stage.name}.log", "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), \
                        contextlib.redirect_stderr(log):
                    rc = sil.cli.main(list(stage.argv))
            except Exception:  # a crash is this stage's failure
                rc = 0
                problem = "raised: " + traceback.format_exc()[-400:]
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    if rc != 0:
        problem = f"exit code {rc}"
    return finish(stage, d, wall, None, problem, ctx)


def traced_stages(stages, work: Path, files: list[str], tracer: Tracer,
                  ctx) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """(warm, traced, plain) samples: see the module doc.

    The traced and plain runs of a stage follow each other, each in its
    own directory, so that a slow spell of the host hits both alike.
    """
    d = fresh_dir(work, files, "warm")
    warm = [in_process_stage(s, d, ctx) for s in stages]
    traced_dir = fresh_dir(work, files, "traced")
    plain_dir = fresh_dir(work, files, "plain")
    traced, plain = [], []
    for index, stage in enumerate(stages):
        tracer.stage = index
        tracer.install()
        try:
            traced.append(in_process_stage(stage, traced_dir, ctx))
        finally:
            tracer.uninstall()
        plain.append(in_process_stage(stage, plain_dir, ctx))
    return warm, traced, plain


def compare_hashes(samples: list[Sample], reference: dict) -> None:
    """Fail every sample whose outputs differ from the reference bytes."""
    for s in samples:
        want = reference.get(s.stage, {})
        diff = sorted(n for n in set(want) | set(s.hashes)
                      if want.get(n) != s.hashes.get(n))
        if diff and s.error is None:
            s.error = f"outputs differ from an earlier run: {diff}"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def medians(samples: list[Sample]) -> dict[str, float]:
    """Each stage's median time at the probe's nominal host speed."""
    times: dict[str, list[float]] = {}
    for s in samples:
        times.setdefault(s.stage, []).append(s.scaled_s)
    return {stage: statistics.median(t) for stage, t in times.items()}


def end_to_end(samples: list[Sample], setup_s: list[float], sizes) -> dict:
    wall = medians(samples)
    values = {
        "setup_s": statistics.median(setup_s),
        "train_items_per_s":
            workloads.EPOCHS * sizes.fit_items / wall["train"],
        "eval_items_per_s": sizes.eval_items / wall["eval"],
        **{metric: wall[stage] for stage, metric in STAGE_METRICS.items()},
        "total_s": sum(wall.values()),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the schema self-check only")
    args = parser.parse_args(argv)
    # so that a terminated run still stops its probe and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "sil" / "cli.py").is_file():
        print(f"perfbench: no sil sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sizes = workloads.WORKLOADS[args.workload]
    if args.quick:
        sizes = workloads.quick(sizes)
    state_dir = root / ".perfbench" / "state"
    results_dir = root / ".perfbench" / "results"
    for d in (state_dir, results_dir):
        d.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}{'-quick' if args.quick else ''}"
    stamp = f"{tag}-trace{args.trace}-{os.getpid()}"
    work = root / ".perfbench" / "work" / stamp
    env = {**os.environ, "PYTHONPATH": str(src)}

    samples: list[Sample] = []
    setup_s: list[float] = []   # at the probe's nominal speed
    setup_wall_s: list[float] = []
    probe = None
    record: dict = {"workload": args.workload, "trace_mode": args.trace}
    try:
        inputs_dir = work / INPUTS
        inputs = workloads.make_inputs(sizes, args.seed, src, inputs_dir)
        record["environment"] = environment(root, src, args.seed, sizes,
                                            inputs)
        stages = workloads.stages(sizes)
        ctx = (sizes, inputs, {})

        # earlier runs count only if they ran this code on these inputs
        key = hashlib.sha256(record["environment"]["source_sha256"].encode())
        for name in sorted(inputs.files):
            key.update(f"{name}:{sha256_file(inputs_dir / name)}".encode())
        key.update(json.dumps([s.argv for s in stages]).encode())
        state_path = state_dir / f"{tag}-{key.hexdigest()[:16]}.json"
        reference = json.loads(state_path.read_text()) \
            if state_path.is_file() else {}

        if args.trace == 0:
            cpu = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            record["environment"]["pinned_cpu"] = cpu
            probe = SpeedProbe(work, env)
            setup_spans = []

            def set_up() -> None:
                span, _, rc = spawn(
                    [sys.executable, "-c", SETUP_CODE, "corpus.tsv",
                     "vectors.txt"], inputs_dir, env, work / "setup.log")
                if rc != 0:
                    raise SystemExit("perfbench: set-up process failed:\n"
                                     + (work / "setup.log").read_text())
                setup_spans.append(span)

            try:
                before = sizes.setup_repeats // 2
                for _ in range(before):
                    set_up()
                d = fresh_dir(work, inputs.files, "run")
                samples = timed_stages(stages, d, env, ctx, args.seconds)
                for _ in range(sizes.setup_repeats - before):
                    set_up()
            finally:
                probe.stop()
            for s in samples:
                s.scaled_s = s.wall_s * probe.scale(s.span)
            for span in setup_spans:
                setup_wall_s.append(span[1] - span[0])
                setup_s.append(setup_wall_s[-1] * probe.scale(span))
        else:
            sys.path.insert(0, str(src))
            tracer = Tracer()
            warm, traced, plain = traced_stages(stages, work, inputs.files,
                                                tracer, ctx)
            samples = warm + traced + plain
            untraced_total = sum(s.wall_s for s in plain)
            spans_path = results_dir / f"{stamp}-spans.tsv.gz"
            tracer.write_spans(spans_path, [s.name for s in stages])
            self_s = tracer.self_by_stage()
            traced_total = sum(s.wall_s for s in traced)
            record["trace"] = {
                "spans": str(spans_path.relative_to(root)),
                "absent": tracer.absent,
                "untraced_total_s": untraced_total,
                "traced_total_s": traced_total,
                "overhead_s": traced_total - untraced_total,
                "stages": [{
                    "stage": s.stage, "wall_s": s.wall_s,
                    "self_s": sum(self_s.get(i, {}).values()),
                    "unattributed_s":
                        s.wall_s - sum(self_s.get(i, {}).values()),
                    "self_s_by_function": dict(sorted(
                        self_s.get(i, {}).items(), key=lambda kv: -kv[1])),
                } for i, s in enumerate(traced)],
            }

        # the first run of this code on these inputs fixes the bytes
        if not reference:
            for s in samples:
                reference.setdefault(s.stage, s.hashes)
        compare_hashes(samples, reference)
        if not any(s.error for s in samples):
            state_path.write_text(json.dumps(reference, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(s.error is not None for s in samples)
    metrics = end_to_end(samples, setup_s, sizes) if args.trace == 0 \
        else tracer.metrics()
    record.update({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                   "probe_slices": probe.slices if probe else [],
                   "samples": [vars(s) for s in samples],
                   "metrics": metrics})
    result_path = results_dir / f"{stamp}.json"
    result_path.write_text(json.dumps(record, indent=1))
    for s in samples:
        if s.error:
            print(f"perfbench: {s.stage} failed: {s.error}", file=sys.stderr)
    print(f"perfbench: record -> {result_path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
