"""Machine-speed calibration for request timings.

The benchmark runs on a shared virtual machine whose speed changes by up
to about 1.6x within seconds, as other tenants come and go.  Raw wall
times of identical requests therefore spread more across runs than any
useful regression bound.  Each timed request is instead bracketed by two
runs of a fixed reference task, and its wall time is scaled by

    REFERENCE_S / mean(reference time before, reference time after)

so it reads as milliseconds on the machine at its reference speed.  The
reference tasks are the benchmark's own code or the bare interpreter, so
no change to the package can move them:

* ``kernel``: pure-Python work of the kind the package does (hashing
  frozen dataclasses into frozensets, Fraction arithmetic, JSON), for
  requests served in-process;
* ``spawn``: one ``python -c pass`` process, for requests that are
  processes themselves and for set-up, which starts a fresh process.

The reference seconds are about the tasks' times on a 2-vCPU Intel Xeon
VM with Python 3.11.7 at its faster speed, where the bounds in
BENCHMARK.json were set.  Raw wall times are kept in the run metadata.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_S = {"kernel": 0.003, "spawn": 0.050}


@dataclass(frozen=True)
class _Leaf:
    members: frozenset


@dataclass(frozen=True)
class _Node:
    leaf: _Leaf
    flag: int


def kernel() -> None:
    leaves = [_Leaf(frozenset(range(i % 7))) for i in range(64)]
    for _ in range(10):
        frozenset(_Node(leaf, flag) for leaf in leaves for flag in (0, 1))
    total = Fraction(1, 2)
    for i in range(1, 200):
        total = total * Fraction(21, 20) - Fraction(1, 3 + i % 11)
    json.dumps([str(i) for i in range(1000)])


def time_interpreter(env: dict[str, str], code: str, cwd: Path) -> float:
    """Wall seconds of one ``python -c code`` process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True)
    return time.perf_counter() - start


def timer(kind: str, env: dict[str, str], cwd: Path) -> Callable[[], float]:
    """A function returning the current wall seconds of the reference task."""
    if kind == "spawn":
        return lambda: time_interpreter(env, "pass", cwd)

    def run_kernel() -> float:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    return run_kernel
