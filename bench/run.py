"""Layered benchmark for jurybayes.

    python3 bench/run.py --workload certify|refine|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs to be installed.  One client sends one request
at a time (a closed loop) for ``--seconds`` seconds, over a request pool
generated from ``--seed``.  Every request is checked exactly after it
returns; checks are not timed.

``--trace 0`` prints the end-to-end metrics: set-up time (the median of
several fresh processes, each timed from spawn to the end of import,
input generation and one warm-up request per distinct size or command),
median and tail request latency, requests per second of request time,
and peak resident memory of the process doing the work.  Times are
scaled to the machine's reference speed by the calibration in
``calibrate.py``; the raw wall times are in the metadata line.

``--trace 1`` spends half the time untraced and half with the tracer in
``tracer.py`` patched into the package, replaying the same requests,
and prints per-layer call counts and raw self times per request.  The
outputs of the two halves must agree, and the difference of their
median latencies is reported as the tracing overhead.  The cli workload
runs in-process here, through ``jurybayes.cli.main``.

The last line of stdout is the result object; the line before it holds
run metadata: commit, Python, CPUs, load average at start and end,
request counts, ``fail_ratio`` (failed / attempted, which is zero on a
correct run and so is carried by ``attempted`` and ``failed`` rather
than listed as a metric), and the largest world, atom and denominator
sizes seen.  Both, and the spans of a traced run, are also written
under ``.bench_out/``.
``--requests N`` runs exactly N requests per phase instead of a time
budget, and ``--small`` uses each workload's smallest inputs; the
self-test uses both.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import calibrate
from exact import Outcome
from tracer import NullProbe, Tracer, per_layer_names

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "refine", "cli")
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
END_TO_END = (
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Phase:
    """Latencies and check results of one pass over the request pool."""

    latencies: list[float] = field(default_factory=list)  # scaled to reference speed
    raw: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    worlds: int = 0
    atoms: int = 0
    den_bits: int = 0
    rss_kib: int = 0

    def record(self, elapsed: float | None, scale: float, outcome: Any, label: str) -> None:
        self.attempted += 1
        if elapsed is not None:
            self.latencies.append(elapsed * scale)
            self.raw.append(elapsed)
            self.digests.append(hashlib.sha256(outcome.output.encode()).hexdigest()[:16])
        if not outcome.ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(outcome.problems)[:300]}")
        self.worlds = max(self.worlds, outcome.worlds)
        self.atoms = max(self.atoms, outcome.atoms)
        self.den_bits = max(self.den_bits, outcome.den_bits)
        self.rss_kib = max(self.rss_kib, outcome.rss_kib)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0,
                        help="run exactly this many requests per phase instead of --seconds")
    parser.add_argument("--small", action="store_true", help="smallest input sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def make_workload(args: argparse.Namespace, workdir: Path) -> Any:
    """Import the package and generate the request pool."""
    if args.workload == "certify":
        from certify import CertifyWorkload
        return CertifyWorkload(args.seed, args.small)
    if args.workload == "refine":
        from refine import RefineWorkload
        return RefineWorkload(args.seed, args.small)
    from cli_mix import CliWorkload
    return CliWorkload(args.seed, args.small, ROOT, workdir, child_env())


@contextlib.contextmanager
def scratch_dir(workload: str) -> Iterator[Path]:
    path = OUT / "tmp" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_one(workload: Any, index: int, probe: Any) -> tuple[float, Any]:
    """Time one request, then check it.  A raise is a failed request."""
    request = workload.pool[index % len(workload.pool)]
    start = time.perf_counter()
    try:
        output = workload.run(request, probe)
    except Exception as exc:  # a failing request must not stop the run
        elapsed = time.perf_counter() - start
        return elapsed, Outcome([f"raised {type(exc).__name__}: {exc}"], f"raised {type(exc).__name__}")
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(request, output)
    except Exception as exc:  # so is an output the checks cannot read
        return elapsed, Outcome([f"check raised {type(exc).__name__}: {exc}"], "unreadable")


def warm_up(workload: Any, phase: Phase | None) -> None:
    for index in workload.warmup:
        _, outcome = run_one(workload, index, NullProbe())
        if phase is not None:
            phase.record(None, 1.0, outcome, f"warm-up {index}")


def timed_loop(workload: Any, seconds: float, count: int,
               request_context: Callable[[int], Any], speed: Speed) -> Phase:
    """Closed loop; each request is bracketed by reference-task timings."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    index = 0
    before = speed.sample()
    while index < count if count else time.perf_counter() < deadline:
        with request_context(index) as probe:
            elapsed, outcome = run_one(workload, index, probe)
        after = speed.sample()
        phase.record(elapsed, speed.scale(before, after), outcome, f"request {index}")
        before = after
        index += 1
    return phase


class Speed:
    """Reference-task timer of one kind, and the scale it implies."""

    def __init__(self, kind: str, workdir: Path) -> None:
        self.reference = calibrate.REFERENCE_S[kind]
        self.sample = calibrate.timer(kind, child_env(), workdir)
        self.scales: list[float] = []

    def scale(self, before: float, after: float) -> float:
        self.scales.append(self.reference * 2 / (before + after))
        return self.scales[-1]


def child_env() -> dict[str, str]:
    """Environment for interpreter processes: the package comes from src/."""
    env = {k: v for k, v in os.environ.items() if k != "JURYBAYES_WORLD_CAP"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest percentile (at most 90) with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    percentile = 90
    while percentile > 50 and n - math.ceil(percentile * n / 100) < 10:
        percentile -= 1
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, ordered[rank - 1]


def measure_setup(args: argparse.Namespace, speed: Speed) -> Phase:
    """Seconds from spawn to 'ready' of fresh set-up-only processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    samples = Phase()
    for _ in range(SETUP_SAMPLES):
        before = speed.sample()
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.stdout.close()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
        samples.latencies.append(elapsed * speed.scale(before, speed.sample()))
        samples.raw.append(elapsed)
    return samples


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jurybayes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def untraced(index: int) -> Any:
    return contextlib.nullcontext(NullProbe())


def combine(*phases: Phase) -> Phase:
    """All requests of a run: warm-ups count as attempted, their latencies do not."""
    total = Phase()
    for part in phases:
        total.latencies += part.latencies
        total.digests += part.digests
        total.attempted += part.attempted
        total.failed += part.failed
        total.problems += part.problems
        total.worlds = max(total.worlds, part.worlds)
        total.atoms = max(total.atoms, part.atoms)
        total.den_bits = max(total.den_bits, part.den_bits)
    return total


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    return {
        "req_p50_ms": statistics.median(latencies) * 1000,
        "req_p90_ms": tail(latencies)[1] * 1000,
        "req_per_s": len(latencies) / sum(latencies),
    }


def end_to_end(args: argparse.Namespace, meta: dict[str, Any]) -> tuple[dict[str, float], list[Phase]]:
    kind = "spawn" if args.workload == "cli" else "kernel"
    with scratch_dir(args.workload) as workdir:
        # set-up is a fresh process, so a bare interpreter start is its reference
        setup = measure_setup(args, Speed("spawn", workdir))
        speed = Speed(kind, workdir)
        workload = make_workload(args, workdir)
        warmups = Phase()
        warm_up(workload, warmups)
        phase = timed_loop(workload, args.seconds, args.requests, untraced, speed)
    n = len(phase.latencies)
    percentile, _ = tail(phase.latencies)
    if args.workload == "cli":
        peak_kib = phase.rss_kib  # the largest request process
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": statistics.median(setup.latencies), **latency_metrics(phase.latencies),
               "peak_rss_mb": peak_kib / 1024}
    raw = {"setup_s": statistics.median(setup.raw), **latency_metrics(phase.raw)}
    meta.update(
        calibration=kind,
        speed_scale_median=statistics.median(speed.scales),
        raw_wall=raw,
        setup_samples_s=setup.latencies,
        tail_percentile=percentile,
        tail_samples_beyond=n - math.ceil(percentile * n / 100),
    )
    return metrics, [warmups, phase]


def per_layer(args: argparse.Namespace, meta: dict[str, Any]) -> tuple[dict[str, float], list[Phase]]:
    with scratch_dir(args.workload) as workdir:
        workload = make_workload(args, workdir)
        if args.workload == "cli":
            workload.in_process = True
        warmups = Phase()
        warm_up(workload, warmups)
        speed = Speed("kernel", workdir)
        half = args.seconds / 2
        plain = timed_loop(workload, half, args.requests, untraced, speed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_loop(workload, half, args.requests, tracer.request_span, speed)
        finally:
            tracer.uninstall()
        env = child_env()
        starts, imports = [], []
        for _ in range(PROBE_SAMPLES):
            starts.append(calibrate.time_interpreter(env, "pass", workdir))
            imports.append(calibrate.time_interpreter(env, "import jurybayes.cli", workdir))

    common = min(len(plain.digests), len(traced.digests))
    if plain.digests[:common] != traced.digests[:common]:
        traced.failed += 1
        traced.problems.append("traced and untraced outputs differ")
    metrics = tracer.layer_metrics(len(traced.latencies))
    start_ms = statistics.median(starts) * 1000
    metrics["cli.interpreter_start_ms"] = start_ms
    metrics["cli.import_ms"] = statistics.median(imports) * 1000 - start_ms
    untraced_p50 = statistics.median(plain.latencies) * 1000
    traced_p50 = statistics.median(traced.latencies) * 1000
    metrics["trace.overhead_ms"] = traced_p50 - untraced_p50
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_spans(spans_file)
    meta.update(
        untraced_p50_ms=untraced_p50,
        traced_p50_ms=traced_p50,
        untraced_requests=len(plain.latencies),
        traced_requests=len(traced.latencies),
        outputs_compared=common,
        spans=len(tracer.spans),
        spans_file=str(spans_file.relative_to(ROOT)),
    )
    return metrics, [warmups, plain, traced]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/jurybayes/__init__.py", "tests/golden", "tests/data")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a jurybayes checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        with scratch_dir(args.workload) as workdir:
            warm_up(make_workload(args, workdir), None)
            print("ready", flush=True)
        return 0

    meta: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    if args.trace:
        metrics, phases = per_layer(args, meta)
        units = dict(per_layer_names())
    else:
        metrics, phases = end_to_end(args, meta)
        units = dict(END_TO_END)
    total = combine(*phases)
    meta.update(
        loadavg_end=os.getloadavg(),
        attempted=total.attempted,
        warmup_requests=phases[0].attempted,
        failed=total.failed,
        fail_ratio=total.failed / total.attempted,
        failures=total.problems[:10],
        latency_samples=len(total.latencies),
        worlds_max=total.worlds,
        atoms_max=total.atoms,
        den_bits_max=total.den_bits,
        # of the last phase only, so untraced and traced runs of the same requests compare
        outputs_sha256=hashlib.sha256("".join(phases[-1].digests).encode()).hexdigest()[:16],
    )
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"meta": meta, "result": result}, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
