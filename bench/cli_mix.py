"""The ``cli`` workload: one ``python -m jurybayes.cli`` process per request.

Each block covers every subcommand on catalogs of at most four
testimonies: the eleven commands with golden reports under
``tests/golden`` (checked byte for byte), seeded ``rationalize``,
``verify``, ``extend``, ``odds`` and ``threshold`` requests checked by
exact arithmetic done here, and four inputs that must fail with the exit
code and ``error[Class]:`` line the README documents.  Interpreter start
and the package import dominate every request, so this workload moves
with start-up and import work and not with world-space algorithms.

With ``in_process`` set, the same requests go through
``jurybayes.cli.main(argv)`` with stdout and stderr captured; the traced
run uses that mode, since spans cannot cross a process boundary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from exact import HALF, Outcome, fmt, labels_for, mass_of, rational, refinement_problems
from jurybayes import cli

#: argv, golden report, and the tests/data inputs the command reads.
GOLDEN = (
    (("threshold", "--weights", "1", "3"), "threshold_weights_1_3.json"),
    (("threshold", "--quadruple", "1", "-9", "0", "0"), "threshold_quadruple.json"),
    (("odds", "--prior", "1:2", "--lr", "8"), "odds_shooting.json"),
    (("odds", "--prior", "1:10", "--lr", "8"), "odds_preponderance.json"),
    (("rate", "--gamma", "1/2", "--theta", "3/4"), "rate_half_threequarters.json"),
    (("rate", "--gamma", "1/10", "--theta", "3/4", "--build"), "rate_build_tenth.json"),
    (("scenario", "spann"), "scenario_spann.json"),
    (("scenario", "two-witness"), "scenario_two_witness.json"),
    (("scenario", "posner"), "scenario_posner.json"),
    (("rationalize", "two_witness_n2.json", "--theta", "3/4"), "rationalize_two_witness_n2.json"),
    (("extend", "guilt_coarse_n1.json", "--event", "guilt", "--given", "heard:t1",
      "--target", "9/10"), "extend_guilt_heard.json"),
)
DATA_FILES = ("two_witness_n2.json", "guilt_coarse_n1.json")
SEEDED = ("rationalize", "verify", "extend", "odds", "threshold")
FAILURES = (
    "axiom", "malformed", "mismatch", "dependent", "theta",
    "utilities", "ratio", "cap", "range", "zero_mass",
)
FAILURES_PER_BLOCK = 4
BLOCKS = 6


@dataclass
class CliRequest:
    argv: tuple[str, ...]
    code: int = 0
    error: str | None = None
    stdout: str | None = None
    check: Callable[[dict[str, Any]], list[str]] | None = None
    out_file: str | None = None


def world_key(labels: tuple[str, ...], mask: int, guilty: bool) -> str:
    inner = ",".join(labels[i] for i in range(len(labels)) if mask >> i & 1)
    return "{" + inner + "}|" + ("G" if guilty else "I")


def atom_key(labels: tuple[str, ...], worlds: list[tuple[int, bool]]) -> str:
    return ";".join(world_key(labels, m, g) for m, g in sorted(worlds, key=lambda w: (w[0], not w[1])))


def parse_charge(doc: dict[str, Any]) -> tuple[list[frozenset[str]], list[Fraction]]:
    """Atoms (as sets of world keys) and masses of a charge document."""
    if "atoms" in doc:
        atoms = [frozenset(a) for a in doc["atoms"]]
        keys = [";".join(a) for a in doc["atoms"]]
    else:
        keys = list(doc["masses"])
        atoms = [frozenset([k]) for k in keys]
    return atoms, [Fraction(doc["masses"].get(k, "0")) for k in keys]


def rendered(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


class CliWorkload:
    name = "cli"

    def __init__(self, seed: int, small: bool, root: Path, workdir: Path,
                 env: dict[str, str]) -> None:
        self.in_process = False
        self.workdir = workdir
        self.env = env
        golden_dir, data_dir = root / "tests" / "golden", root / "tests" / "data"
        for name in DATA_FILES:
            shutil.copyfile(data_dir / name, workdir / name)
        golden = [CliRequest(argv, stdout=(golden_dir / name).read_text()) for argv, name in GOLDEN]
        rng = random.Random(f"cli-{seed}")
        self.files = 0
        self.pool: list[CliRequest] = []
        failure_cycle = list(FAILURES)
        rng.shuffle(failure_cycle)
        for block_index in range(1 if small else BLOCKS):
            block = list(golden) + [getattr(self, f"_{k}")(rng) for k in SEEDED]
            for j in range(len(FAILURES) if small else FAILURES_PER_BLOCK):
                kind = failure_cycle[(block_index * FAILURES_PER_BLOCK + j) % len(FAILURES)]
                block.append(getattr(self, f"_fail_{kind}")(rng))
            rng.shuffle(block)
            self.pool += block
        first_by_command: dict[str, int] = {}
        for i, request in enumerate(self.pool):
            first_by_command.setdefault(request.argv[0], i)
        self.warmup = sorted(first_by_command.values())

    # -- input files -----------------------------------------------------

    def _write(self, doc: Any, text: str | None = None) -> str:
        self.files += 1
        name = f"in-{self.files}.json"
        (self.workdir / name).write_text(text if text is not None else json.dumps(doc))
        return name

    @staticmethod
    def _disposition(rng: random.Random, n: int) -> tuple[tuple[str, ...], set[int], dict]:
        labels = labels_for(n)
        masks = {m for m in range(1, 1 << n) if rng.random() < 0.5} or {rng.randrange(1, 1 << n)}
        doc = {"catalog": list(labels),
               "convicting": [[labels[i] for i in range(n) if m >> i & 1] for m in sorted(masks)]}
        return labels, masks, doc

    def _coarse_charge(self, rng: random.Random, n: int, split: int) -> tuple[dict, list, list]:
        """A guilt-by-heard(split) charge document, its atoms and masses."""
        labels = labels_for(n)
        groups: dict[tuple[bool, bool], list[tuple[int, bool]]] = {}
        for mask in range(1 << n):
            for guilty in (True, False):
                groups.setdefault((guilty, bool(mask >> split & 1)), []).append((mask, guilty))
        weights = [rng.randrange(1, 10) for _ in groups]
        masses = [Fraction(w, sum(weights)) for w in weights]
        atoms = [frozenset(world_key(labels, m, g) for m, g in ws) for ws in groups.values()]
        doc = {
            "catalog": list(labels),
            "atoms": [atom_key(labels, ws).split(";") for ws in groups.values()],
            "masses": {atom_key(labels, ws): fmt(m) for ws, m in zip(groups.values(), masses)},
        }
        return doc, atoms, masses

    # -- seeded requests that succeed ------------------------------------

    def _rationalize(self, rng: random.Random) -> CliRequest:
        n = rng.randrange(2, 5)
        labels, masks, doc = self._disposition(rng, n)
        theta = rational(rng, HALF, Fraction(1))
        self.files += 1
        out_file = f"cert-{self.files}.json"

        def check(report: dict[str, Any]) -> list[str]:
            problems = []
            if (report["catalog"], report["theta"], report["guilt_prior"]) != (list(labels), fmt(theta), "1/2"):
                problems.append("certificate header is wrong")
            masses = {k: Fraction(v) for k, v in report["prior"]["masses"].items()}
            if sum(masses.values()) != 1 or any(m < 0 for m in masses.values()):
                problems.append("prior is not a probability")
            if sum(m for k, m in masses.items() if k.endswith("|G")) != HALF:
                problems.append("prior guilt is not 1/2")
            for mask, row in enumerate(report["posteriors"]):
                guilty = masses.get(world_key(labels, mask, True), Fraction(0))
                innocent = masses.get(world_key(labels, mask, False), Fraction(0))
                convicts = mask in masks
                expected = theta if convicts else 1 - theta
                if guilty / (guilty + innocent) != expected or row["posterior"] != fmt(expected) \
                        or row["verdict"] != ("convict" if convicts else "acquit"):
                    problems.append(f"transcript {mask}: posterior is not {fmt(expected)}")
                    break
            return problems

        return CliRequest(("rationalize", self._write(doc), "--theta", fmt(theta),
                                          "--out", out_file), check=check, out_file=out_file)

    def _verify(self, rng: random.Random) -> CliRequest:
        n = rng.randrange(2, 5)
        labels, masks, doc = self._disposition(rng, n)
        theta = rational(rng, HALF, Fraction(1))
        n_convict = len(masks)
        n_acquit = (1 << n) - n_convict
        masses: dict[tuple[int, bool], Fraction] = {}
        if rng.random() < 0.5:
            # the closed-form rationalizing prior; checked at theta or above it
            for mask in range(1 << n):
                share, count = (theta, n_convict) if mask in masks else (1 - theta, n_acquit)
                masses[mask, True] = share / count / 2
                masses[mask, False] = (1 - share) / count / 2
            asked = theta if rng.random() < 0.5 else rational(rng, theta, Fraction(1))
        else:
            weights = {(m, g): rng.randrange(1, 10) for m in range(1 << n) for g in (True, False)}
            masses = {w: Fraction(x, sum(weights.values())) for w, x in weights.items()}
            asked = theta
        charge = {"catalog": list(labels),
                  "masses": {world_key(labels, m, g): fmt(v) for (m, g), v in masses.items()}}
        expected: dict[str, Any] = {"theta": fmt(asked), "holds": True, "witness": None}
        for mask in range(1 << n):
            posterior = masses[mask, True] / (masses[mask, True] + masses[mask, False])
            if (posterior >= asked) != (mask in masks):
                expected.update(holds=False, witness=[labels[i] for i in range(n) if mask >> i & 1],
                                witness_posterior=fmt(posterior))
                break
        return CliRequest(("verify", self._write(doc), self._write(charge),
                                     "--theta", fmt(asked)), stdout=rendered(expected))

    def _extend(self, rng: random.Random) -> CliRequest:
        n = rng.randrange(2, 5)
        labels = labels_for(n)
        split, given_at = rng.sample(range(n), 2)
        doc, atoms, masses = self._coarse_charge(rng, n, split)
        target = rational(rng, Fraction(0), Fraction(1), open_low=False, open_high=False, max_den=20)
        given = frozenset(world_key(labels, m, g) for m in range(1 << n) if m >> given_at & 1
                          for g in (True, False))
        guilt = frozenset(world_key(labels, m, True) for m in range(1 << n))

        def check(report: dict[str, Any]) -> list[str]:
            new_atoms, new_masses = parse_charge(report["charge"])
            problems = refinement_problems(atoms, masses, new_atoms, new_masses)
            p_given = mass_of(new_atoms, new_masses, given)
            if mass_of(new_atoms, new_masses, guilt & given) / p_given != target:
                problems.append("extended conditional misses its target")
            if (report["target"], report["achieved"], report["given_mass"]) != (
                    fmt(target), fmt(target), fmt(p_given)):
                problems.append("extend report fields are wrong")
            return problems

        return CliRequest(("extend", self._write(doc), "--event", "guilt",
                                     "--given", f"heard:{labels[given_at]}", "--target", fmt(target)),
                          check=check)

    def _odds(self, rng: random.Random) -> CliRequest:
        a, b, lr = rng.randrange(1, 21), rng.randrange(1, 21), rng.randrange(1, 51)

        def check(report: dict[str, Any]) -> list[str]:
            left, right = (Fraction(x) for x in report["posterior"].split(":"))
            probability = Fraction(a * lr, a * lr + b)
            if (report["prior"], report["likelihood_ratio"], report["posterior_probability"]) != (
                    f"{a}:{b}", str(lr), fmt(probability)) or left / right != Fraction(a * lr, b) \
                    or min(left, right) != 1:
                return [f"odds report {report} is wrong"]
            return []

        return CliRequest(("odds", "--prior", f"{a}:{b}", "--lr", str(lr)), check=check)

    def _threshold(self, rng: random.Random) -> CliRequest:
        reward, penalty = rng.randrange(1, 10), rng.randrange(1, 10)
        expected = {"kind": "belief-weights", "reward": str(reward), "penalty": str(penalty),
                    "threshold": fmt(Fraction(penalty, reward + penalty))}
        return CliRequest(("threshold", "--weights", str(reward), str(penalty)),
                          stdout=rendered(expected))

    # -- inputs that must fail with a documented exit code -----------------

    def _failing(self, argv: tuple[str, ...], code: int, error: str) -> CliRequest:
        return CliRequest(argv, code=code, error=error)

    def _fail_axiom(self, rng: random.Random) -> CliRequest:
        labels, _, doc = self._disposition(rng, rng.randrange(1, 5))
        doc["convicting"].append([])
        return self._failing(("rationalize", self._write(doc), "--theta", "3/4"), 2, "AxiomViolation")

    def _fail_malformed(self, rng: random.Random) -> CliRequest:
        name = self._write(None, text='{"catalog": ["t1"], "convicting": [[')
        return self._failing(("rationalize", name, "--theta", "3/4"), 3, "ParseError")

    def _fail_mismatch(self, rng: random.Random) -> CliRequest:
        _, _, doc = self._disposition(rng, 2)
        other = {"catalog": ["zz"], "masses": {"{}|G": "1/2", "{}|I": "1/2"}}
        return self._failing(("verify", self._write(doc), self._write(other), "--theta", "3/4"),
                             4, "CatalogMismatch")

    def _fail_dependent(self, rng: random.Random) -> CliRequest:
        n = rng.randrange(1, 4)
        labels = labels_for(n)
        keys = [world_key(labels, m, g) for m in range(1 << n) for g in (True, False)]
        doc = {"catalog": list(labels), "masses": {k: fmt(Fraction(1, len(keys))) for k in keys}}
        return self._failing(("extend", self._write(doc), "--event", "guilt", "--given",
                              f"heard:{labels[0]}", "--target", "3/4"), 5, "NotIndependent")

    def _fail_theta(self, rng: random.Random) -> CliRequest:
        _, _, doc = self._disposition(rng, rng.randrange(1, 5))
        theta = rational(rng, Fraction(0), HALF, open_high=False)
        return self._failing(("rationalize", self._write(doc), "--theta", fmt(theta)),
                             17, "ThetaOutOfRange")

    def _fail_utilities(self, rng: random.Random) -> CliRequest:
        x, y = rng.randrange(-9, 10), rng.randrange(-9, 10)
        return self._failing(("threshold", "--quadruple", str(x), str(y), str(x), str(y)),
                             19, "DegenerateUtilities")

    def _fail_ratio(self, rng: random.Random) -> CliRequest:
        return self._failing(("odds", "--prior", "1:2", "--lr", str(-rng.randrange(0, 9))),
                             20, "NonpositiveRatio")

    def _fail_cap(self, rng: random.Random) -> CliRequest:
        n = rng.randrange(2, 5)
        _, _, doc = self._disposition(rng, n)
        return self._failing(("rationalize", self._write(doc), "--theta", "3/4",
                              "--world-cap", str(rng.randrange(0, n))), 10, "CapExceeded")

    def _fail_range(self, rng: random.Random) -> CliRequest:
        n = rng.randrange(2, 5)
        doc, _, _ = self._coarse_charge(rng, n, 0)
        return self._failing(("extend", self._write(doc), "--event", "guilt", "--given",
                              f"heard:{labels_for(n)[1]}", "--target", str(rng.randrange(2, 9))),
                             15, "OutOfRange")

    def _fail_zero_mass(self, rng: random.Random) -> CliRequest:
        n = rng.randrange(1, 4)
        labels, _, doc = self._disposition(rng, n)
        empty = rng.randrange(1 << n)
        keys = [world_key(labels, m, g) for m in range(1 << n) if m != empty for g in (True, False)]
        charge = {"catalog": list(labels), "masses": {k: fmt(Fraction(1, len(keys))) for k in keys}}
        return self._failing(("verify", self._write(doc), self._write(charge), "--theta", "3/4"),
                             18, "ZeroTranscriptMass")

    # -- requests ------------------------------------------------------

    def run(self, request: CliRequest, probe: Any) -> tuple[int, str, str, int]:
        """Exit code, stdout, stderr, and the child's peak RSS in KiB."""
        if request.out_file:
            (self.workdir / request.out_file).unlink(missing_ok=True)
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            home = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(request.argv))
            finally:
                os.chdir(home)
            return code, out.getvalue(), err.getvalue(), 0
        child = subprocess.Popen(
            [sys.executable, "-m", "jurybayes.cli", *request.argv], cwd=self.workdir,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # stderr holds at most a line, so reading stdout first cannot block the child
        stdout = child.stdout.read().decode()
        stderr = child.stderr.read().decode()
        child.stdout.close()
        child.stderr.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        return child.returncode, stdout, stderr, usage.ru_maxrss

    def check(self, request: CliRequest, out: tuple[int, str, str, int]) -> Outcome:
        code, stdout, stderr, rss_kib = out
        problems: list[str] = []
        if code != request.code:
            problems.append(f"exit {code}, expected {request.code}: {stderr.strip()[:200]}")
        elif request.error is not None:
            lines = stderr.splitlines()
            if stdout or len(lines) != 1 or not lines[0].startswith(f"error[{request.error}]: "):
                problems.append(f"expected one error[{request.error}] line, got {stderr[:200]!r}")
        elif request.stdout is not None:
            if stdout != request.stdout:
                problems.append(f"{request.argv[0]} output differs from the expected bytes")
        else:
            try:
                problems += request.check(json.loads(stdout))
            except (ValueError, KeyError, ZeroDivisionError) as exc:
                problems.append(f"unreadable {request.argv[0]} report: {exc!r}")
            if request.out_file and (self.workdir / request.out_file).read_text() != stdout:
                problems.append("--out file differs from stdout")
        return Outcome(problems, f"{code}\n{stdout}\n{stderr}", rss_kib=rss_kib)

