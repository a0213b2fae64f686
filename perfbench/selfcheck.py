"""Schema-only self-check of the benchmark; asserts no timing.

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload at tiny sizes (`run.py --quick`) with and without
tracing and asserts that the last output line has exactly the result
keys, every metric named in BENCHMARK.json with its unit, and no failed
operation. It also asserts that the benchmark refuses to run, with a
non-zero exit and no result line, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
STAGES = 6


def require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def run(cwd: Path, workload: str, trace: int, quick: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--quick"] if quick else []), cwd=cwd,
                          capture_output=True, text=True, timeout=600,
                          check=False)


def check_result(proc, spec: dict, workload: str, trace: int) -> None:
    where = f"{workload} --trace {trace}"
    require(proc.returncode == 0,
            f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == RESULT_KEYS, f"{where}: keys {sorted(result)}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == expected, f"{where}: metrics differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        require(set(m) == {"value", "unit"}, f"{where}: {name} keys")
        require(isinstance(m["value"], (int, float)), f"{where}: {name}")
    require(result["correct"] is True, f"{where}: not correct\n{proc.stderr}")
    require(result["failed"] == 0, f"{where}: failed operations")
    # trace 0: every stage two or more times; trace 1: a warm-up pass, a
    # traced pass and a plain pass
    attempted = result["attempted"]
    ok = attempted == 3 * STAGES if trace else attempted >= 2 * STAGES
    require(ok, f"{where}: {attempted} operations attempted")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(run(root, w["name"], trace), spec, w["name"], trace)
            print(f"ok  {w['name']} --trace {trace}")

    bare = root / ".perfbench" / f"selfcheck-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0, quick=False)
        require(proc.returncode != 0, "ran without the program's sources")
        require(not proc.stdout.strip(), "printed a result without sources")
        print("ok  refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
