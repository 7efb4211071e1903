"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the checkout root.

Runs every workload at its smallest inputs for a fixed number of
requests, untraced and traced, and checks that

* the result line has exactly the keys the runner promises, and every
  metric listed in BENCHMARK.json is emitted with its unit;
* no request failed (fail_ratio is 0);
* traced and untraced runs produced identical outputs;
* in a directory holding only BENCHMARK.json and ``bench/``, the runner
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUESTS = 26  # the whole small cli pool, so every failing input runs
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--requests", str(REQUESTS), "--small"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check_metrics(label: str, result: dict, expected: list[dict]) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(wanted):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        value = metrics.get(name, {})
        if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
            problems.append(f"{label}: {name} is {value}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the package sources the runner must fail and print no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        outputs = {}
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace {trace}"
            meta, result = run(workload, trace)
            problems += check_metrics(label, result, expected)
            if meta["fail_ratio"] != 0 or result["failed"] or not result["correct"]:
                problems.append(f"{label}: failures {meta['failures']}")
            outputs[trace] = meta["outputs_sha256"]
            print(f"{label}: {result['attempted']} requests, outputs {outputs[trace]}")
        if outputs[0] != outputs[1]:
            problems.append(f"{workload}: traced and untraced outputs differ")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
