"""The ``refine`` workload: construction on coarse algebras, with little
world-space building and no serialization.

Four request kinds, in a fixed share per block of sixteen:

* ``build``: the ratio-bounded convicting prior for gamma in {1/10,
  1/20, 1/25} at theta 3/4 (5, 9 and 11 adjoined heard-events, with
  denominators growing to about 60 bits);
* ``chain``: two to four strict ``extend_conditional`` and ``extend``
  calls on a seeded coarse charge over n=6, each adjoined set taking
  half of every atom;
* ``score``: ``brute_force_optimal`` against ``optimal_doxastic_state``
  on 4 or 5 proposition pairs over a coarse charge;
* ``spann``: the tuple-ground Spann space, extended by a seeded evidence
  event, with its likelihood ratios.

The block puts scoring at k=4 in the middle of the latency order (the
median) and the gamma=1/25 build at the top (the 90th percentile).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from exact import (
    HALF,
    Outcome,
    balanced_split,
    cells,
    den_bits,
    fmt,
    guilt_indices,
    heard_indices,
    inner_outer,
    labels_for,
    mass_of,
    positive_weights,
    proper_union,
    rational,
    refinement_problems,
    split_cells,
)
from jurybayes import analyses, charges, scoring, worlds

THETA = Fraction(3, 4)
BLOCK = (
    ("spann", 0), ("spann", 0),
    ("chain", 0), ("chain", 0), ("chain", 0),
    ("build", Fraction(1, 10)),
    ("score", 4), ("score", 4), ("score", 4), ("score", 4), ("score", 4),
    ("build", Fraction(1, 20)),
    ("score", 5),
    ("build", Fraction(1, 25)), ("build", Fraction(1, 25)), ("build", Fraction(1, 25)),
)
SMALL_BLOCK = (("spann", 0), ("chain", 0), ("build", Fraction(1, 10)), ("score", 3))
BLOCKS = 6


@dataclass(frozen=True)
class RefineRequest:
    kind: str
    size: Any
    catalog: Any = None
    generators: tuple = ()
    masses: tuple = ()
    steps: tuple = ()
    pairs: tuple = ()
    weights: Any = None
    evidence: tuple = ()
    value: Fraction = Fraction(0)
    expected_steps: int = 0


def steps_needed(gamma: Fraction) -> int:
    level, steps = HALF, 0
    while level < THETA:
        level *= 1 + gamma
        steps += 1
    return steps


class RefineWorkload:
    name = "refine"

    def __init__(self, seed: int, small: bool) -> None:
        self.n = 4 if small else 6
        rng = random.Random(f"refine-{seed}")
        self.pool: list[RefineRequest] = []
        for _ in range(BLOCKS):
            block = list(SMALL_BLOCK if small else BLOCK)
            rng.shuffle(block)
            self.pool += [self._generate(rng, kind, size) for kind, size in block]
        keys = sorted({(r.kind, str(r.size)) for r in self.pool})
        self.warmup = [
            next(i for i, r in enumerate(self.pool) if (r.kind, str(r.size)) == key)
            for key in keys
        ]

    def _coarse(self, rng: random.Random) -> tuple[Any, list, list[frozenset[int]], tuple]:
        """Catalog, world tuple, and the guilt-plus-two-heard-events cells."""
        n = self.n
        catalog = worlds.TestimonyCatalog(labels_for(n))
        world_tuple = worlds.full_world_space(catalog)
        a, b = rng.sample(range(n), 2)
        generators = [guilt_indices(n), heard_indices(n, a), heard_indices(n, b)]
        partition = cells(range(len(world_tuple)), generators)
        return catalog, world_tuple, partition, tuple(generators)

    def _generate(self, rng: random.Random, kind: str, size: Any) -> RefineRequest:
        if kind == "build":
            steps = steps_needed(size)
            return RefineRequest(kind, size, catalog=worlds.TestimonyCatalog(labels_for(steps)),
                                 expected_steps=steps)
        if kind == "spann":
            # ground index 2*(8*father + child) + (0 paternity, 1 not)
            while True:
                picked = tuple(i for i in range(128) if rng.random() < 0.5)
                sides = [{i for i in picked if i % 2 == side} for side in (0, 1)]
                if all(0 < len(s) < 64 for s in sides):
                    break
            return RefineRequest(kind, size, evidence=picked, value=rational(rng, HALF, Fraction(1)))

        catalog, world_tuple, partition, generators = self._coarse(rng)

        def to_worlds(indices: frozenset[int]) -> frozenset:
            return frozenset(world_tuple[i] for i in indices)

        gens = tuple(to_worlds(g) for g in generators)
        masses = positive_weights(rng, len(partition))
        if kind == "score":
            ground = frozenset(world_tuple)
            pairs = tuple(
                scoring.PropositionPair(f"p{i}", to_worlds(proper_union(rng, partition)), ground)
                for i in range(size)
            )
            weights = scoring.ScoreWeights(rng.randrange(1, 5), rng.randrange(1, 5))
            return RefineRequest(kind, size, catalog, gens, masses, pairs=pairs, weights=weights)

        # chain: alternate conditional and plain extensions, halving atoms each time
        depth = rng.randrange(2, 5) if self.n == 6 else 2
        initial, steps = partition, []
        for step in range(depth):
            given = balanced_split(rng, partition)
            if step % 2 == 0:
                event = proper_union(rng, initial)
                theta = rational(rng, Fraction(0), Fraction(1))
                steps.append(("conditional", to_worlds(event), to_worlds(given), theta))
            else:
                lam = rational(rng, Fraction(0), Fraction(1), open_low=False, open_high=False)
                steps.append(("extend", None, to_worlds(given), lam))
            partition = split_cells(partition, given)
        return RefineRequest(kind, depth, catalog, gens, masses, steps=tuple(steps))

    # -- requests ------------------------------------------------------

    def run(self, request: RefineRequest, probe: Any) -> Any:
        if request.kind == "build":
            config = analyses.RateBoundConfig(request.size, THETA)
            return analyses.build_ratio_bounded_convicting_prior(request.catalog, config)
        if request.kind == "spann":
            space = analyses.build_spann_space()
            evidence = frozenset(space.ground[i] for i in request.evidence)
            extended = space.charge.extend(evidence, request.value)
            return {
                "space": space,
                "evidence": evidence,
                "extended": extended,
                "ratios": analyses.likelihood_ratio(extended, evidence, space.paternity),
                "alibi_expressible": worlds.is_expressible(space.alibi_example, space.algebra),
                "evidence_expressible": worlds.is_expressible(evidence, extended.algebra),
            }
        world_tuple = worlds.full_world_space(request.catalog)
        algebra = worlds.atoms_of_generated_algebra(world_tuple, request.generators)
        charge = charges.Charge(algebra, request.masses)
        if request.kind == "score":
            choice = scoring.optimal_doxastic_state(charge, request.pairs, request.weights)
            maximizers = scoring.brute_force_optimal(charge, request.pairs, request.weights)
            return {"charge": charge, "choice": choice, "maximizers": maximizers}
        trail, values = [charge], []
        for kind, event, given, number in request.steps:
            if kind == "conditional":
                charge = charge.extend_conditional(event, given, number)
                values.append(number)
            else:
                inner, outer = charge.inner_outer(given)
                value = inner + number * (outer - inner)
                charge = charge.extend(given, value)
                values.append(value)
            trail.append(charge)
        return {"trail": trail, "values": values}

    def check(self, request: RefineRequest, out: Any) -> Outcome:
        return getattr(self, f"_check_{request.kind}")(request, out)

    def _check_build(self, request: RefineRequest, built: Any) -> Outcome:
        problems: list[str] = []
        growth = 1 + request.size
        targets = [HALF]
        for _ in range(request.expected_steps):
            targets.append(min(targets[-1] * growth, THETA))
        if len(built.chain) != request.expected_steps:
            problems.append(f"{len(built.chain)} steps, expected {request.expected_steps}")
        if list(built.posteriors) != targets:
            problems.append("posterior trail differs from its targets")
        if not built.within_bound():
            problems.append("trail leaves the ratio window")
        if not built.convicts():
            problems.append("trail does not reach theta")
        charge = built.charge
        return Outcome(problems, "|".join(fmt(p) for p in built.posteriors)
                       + "|" + ",".join(fmt(m) for m in charge.masses),
                       worlds=len(charge.algebra.ground), atoms=len(charge.algebra.atoms),
                       den_bits=den_bits(charge.masses))

    def _check_spann(self, request: RefineRequest, out: dict[str, Any]) -> Outcome:
        problems: list[str] = []
        space, extended, ratios = out["space"], out["extended"], out["ratios"]
        atoms, masses = extended.algebra.atoms, extended.masses
        evidence, paternity = out["evidence"], space.paternity
        if len(space.ground) != 128 or len(paternity) != 64:
            problems.append("Spann space has the wrong size")
        if out["alibi_expressible"] or not out["evidence_expressible"]:
            problems.append("expressibility is wrong")
        if mass_of(atoms, masses, evidence) != request.value:
            problems.append("extended evidence mass differs from its target")
        if mass_of(atoms, masses, paternity) != HALF:
            problems.append("extension moved the paternity prior")
        p_h = mass_of(atoms, masses, paternity)
        given_h = mass_of(atoms, masses, evidence & paternity) / p_h
        given_not = mass_of(atoms, masses, evidence - paternity) / (1 - p_h)
        expected = (given_h / given_not, given_h / request.value, given_h != given_not, 1 / p_h)
        got = (ratios.standard, ratios.impact, ratios.relevant, ratios.impact_ceiling)
        if got != expected:
            problems.append(f"likelihood ratios {got} != {expected}")
        return Outcome(problems, "|".join(str(x) for x in got), worlds=128,
                       atoms=len(atoms), den_bits=den_bits(masses))

    def _check_score(self, request: RefineRequest, out: dict[str, Any]) -> Outcome:
        problems: list[str] = []
        choice, maximizers = out["choice"], out["maximizers"]
        if choice.state not in maximizers:
            problems.append("closed-form optimum is not a brute-force maximizer")
        charge = out["charge"]
        attitudes = ",".join(a.value for a in choice.state.attitudes)
        return Outcome(problems, f"{attitudes}|{len(maximizers)}|{','.join(choice.tied_pairs)}",
                       worlds=len(charge.algebra.ground), atoms=len(charge.algebra.atoms),
                       den_bits=den_bits(charge.masses))

    def _check_chain(self, request: RefineRequest, out: dict[str, Any]) -> Outcome:
        problems: list[str] = []
        trail, values = out["trail"], out["values"]
        for (kind, event, given, number), old, new, value in zip(
                request.steps, trail, trail[1:], values):
            old_atoms, new_atoms = old.algebra.atoms, new.algebra.atoms
            problems += refinement_problems(old_atoms, old.masses, new_atoms, new.masses)
            if kind == "conditional":
                achieved = (mass_of(new_atoms, new.masses, event & given)
                            / mass_of(new_atoms, new.masses, given))
                if achieved != number:
                    problems.append(f"conditional {fmt(achieved)} != target {fmt(number)}")
            else:
                inner, outer = inner_outer(old_atoms, old.masses, given)
                if value != inner + number * (outer - inner):
                    problems.append("extend target outside the oracle's interval")
                if mass_of(new_atoms, new.masses, given) != value:
                    problems.append("extended value differs from its target")
        final = trail[-1]
        return Outcome(problems, ",".join(fmt(m) for m in final.masses),
                       worlds=len(final.algebra.ground), atoms=len(final.algebra.atoms),
                       den_bits=den_bits(final.masses))
