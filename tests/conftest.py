"""Shared oracles and generators for the test suite.

The oracles here are deliberately naive: literal quantifier checks and
exhaustive enumerations that the library's cleverer implementations are
measured against.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import Iterator, Sequence

import pytest

from jurybayes.analyses import (
    HALF,
    RATE_STEP_CAP,
    RateBoundConfig,
    RatioBoundedPrior,
)
from jurybayes.charges import ZERO, Charge, mix
from jurybayes.dispositions import Disposition, RationalizationCertificate
from jurybayes.errors import (
    CapExceeded,
    CatalogMismatch,
    CatalogTooSmall,
    DegeneratePrior,
    ForeignTestimony,
    InvariantViolation,
    NotExpressible,
    NotIndependent,
    OutOfRange,
    ParseError,
    ZeroConditioningEvent,
)
from jurybayes.rationals import RationalLike, as_rational, format_rational
from jurybayes.scoring import (
    ATTITUDE_ORDER,
    BRUTE_FORCE_PAIR_CAP,
    DoxasticState,
    PropositionPair,
    ScoreWeights,
    _require_same_ground,
    expected_score,
)
from jurybayes.serialize import _check_labels, catalog_from_jsonable
from jurybayes.worlds import (
    BooleanSubalgebra,
    Guilt,
    TestimonyCatalog,
    Transcript,
    World,
    atoms_of_generated_algebra,
    event_of_transcript,
    full_world_space,
    guilt_event,
    heard_event,
    powerset_algebra,
)


def all_partitions(elements: Sequence) -> Iterator[tuple[frozenset, ...]]:
    """Every partition of a small sequence (Bell-number many)."""
    elements = list(elements)
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for sub in all_partitions(rest):
        # first joins an existing block, or starts its own
        for i in range(len(sub)):
            yield sub[:i] + (sub[i] | {first},) + sub[i + 1 :]
        yield sub + (frozenset({first}),)


def literal_logical_independence(event: frozenset, algebra: BooleanSubalgebra) -> bool:
    """The quantified definition, checked member by member."""
    ground = algebra.ground_set
    for member in algebra.members():
        if member in (frozenset(), ground):
            continue
        if not (member & event) or not ((ground - member) & event):
            return False
    return True


NaiveWorld = tuple[frozenset[int], Guilt]


def naive_transcripts(n: int) -> list[frozenset[int]]:
    """Every subset of range(n), in binary counting order of its bit-vector."""
    subsets = [
        frozenset(i for i, bit in enumerate(bits) if bit)
        for bits in itertools.product((0, 1), repeat=n)
    ]
    return sorted(subsets, key=lambda s: sum(2**i for i in s))


def naive_world_space(n: int) -> list[NaiveWorld]:
    """(members, guilt) pairs in canonical order: transcripts, guilty first."""
    return [(s, g) for s in naive_transcripts(n) for g in (Guilt.GUILTY, Guilt.INNOCENT)]


def as_naive(world: World) -> NaiveWorld:
    return (world.transcript.members, world.guilt)


def oracle_cover(algebra: BooleanSubalgebra, event: frozenset) -> tuple[list[int], list[int]]:
    """The indices of the atoms inside the event and of those it cuts, each
    atom tested element by element."""
    inside = [i for i, atom in enumerate(algebra.atoms) if all(e in event for e in atom)]
    met = [i for i, atom in enumerate(algebra.atoms) if any(e in event for e in atom)]
    return inside, [i for i in met if i not in inside]


def oracle_measure(charge: Charge, event: frozenset) -> Fraction:
    """The masses of the atoms within the event added one by one;
    NotExpressible if the event leaves the ground set or cuts an atom."""
    event = frozenset(event)
    if not event <= charge.algebra.ground_set:
        raise NotExpressible("event contains elements outside the ground set")
    total = Fraction(0)
    for atom, mass in zip(charge.algebra.atoms, charge.masses):
        met = atom & event
        if met and met != atom:
            raise NotExpressible("event is not a union of atoms (it cuts through an atom)")
        if met:
            total += mass
    return total


def oracle_condition(charge: Charge, event: frozenset) -> Charge:
    """Each atom's mass within the event over the event's mass."""
    denom = oracle_measure(charge, event)
    if denom == 0:
        raise ZeroConditioningEvent("conditioning event has measure zero")
    return Charge(
        charge.algebra,
        tuple(oracle_measure(charge, atom & event) / denom for atom in charge.algebra.atoms),
    )


def oracle_is_expressible(event: frozenset, algebra: BooleanSubalgebra) -> bool:
    """The event lies in the ground set and equals the union of the atoms it meets."""
    met = [atom for atom in algebra.atoms if atom & event]
    return event <= algebra.ground_set and frozenset().union(*met) == event


def oracle_inner_outer(charge: Charge, subset: frozenset) -> tuple[Fraction, Fraction]:
    """sup of member measures below, inf of member measures above."""
    below = [oracle_measure(charge, m) for m in charge.algebra.members() if m <= subset]
    above = [oracle_measure(charge, m) for m in charge.algebra.members() if subset <= m]
    return max(below), min(above)


def oracle_transcript_posteriors(
    prior: Charge, catalog: TestimonyCatalog | None = None
) -> Iterator[tuple[Transcript, Fraction, Fraction]]:
    """(T, P(E_T), P(E_T ∩ G)) from two ``measure`` calls per transcript.

    Canonical order with a catalog, ground order without; a zero-mass
    transcript never has its guilty part measured.
    """
    if catalog is not None:
        if prior.algebra.ground_set != frozenset(full_world_space(catalog)):
            raise CatalogMismatch("not the world space of this catalog")
        groups = {t: event_of_transcript(catalog, t) for t in catalog.all_transcripts()}
    else:
        groups: dict[Transcript, set] = {}
        for world in prior.algebra.ground:
            if not isinstance(world, World):
                raise TypeError("not a trial world")
            groups.setdefault(world.transcript, set()).add(world)
    for transcript, worlds in groups.items():
        mass = prior.measure(worlds)
        guilty = Fraction(0)
        if mass:
            guilty = prior.measure({w for w in worlds if w.guilt is Guilt.GUILTY})
        yield transcript, mass, guilty


def oracle_adjoin(algebra: BooleanSubalgebra, new_event: frozenset) -> BooleanSubalgebra:
    """The algebra adjoining a set within the ground: every atom split by
    it, the parts sorted by their first ground position, and the partition
    checked by the public constructor."""
    position = {e: i for i, e in enumerate(algebra.ground)}
    new_atoms = [
        part
        for atom in algebra.atoms
        for part in (atom & new_event, atom - new_event)
        if part
    ]
    new_atoms.sort(key=lambda atom: min(position[e] for e in atom))
    return BooleanSubalgebra(algebra.ground, tuple(new_atoms))


def oracle_greedy_split(
    atom_masses, subset: frozenset, target: Fraction
) -> dict[frozenset, Fraction]:
    """Split every atom that ``subset`` cuts so its inside parts total
    ``target``, filling the cut atoms in the given order; atoms it does not
    cut keep their mass.  Returns the mass of every resulting part."""
    residual = target
    part_mass: dict[frozenset, Fraction] = {}
    for atom, m in atom_masses:
        inside = atom & subset
        if not inside or inside == atom:
            part_mass[atom] = m
            continue
        take = min(residual, m)
        residual -= take
        part_mass[inside] = take
        part_mass[atom - subset] = m - take
    if residual != 0:
        raise InvariantViolation(
            f"greedy split left {format_rational(residual)} of its target unplaced"
        )
    return part_mass


def oracle_check_strictly_independent(charge: Charge, given: frozenset) -> None:
    """NotIndependent unless ``given`` cuts every positive-mass atom."""
    for atom, m in zip(charge.algebra.atoms, charge.masses):
        if m == 0:
            continue
        if atom.isdisjoint(given) or atom <= given:
            detail = ""
            if not given:
                detail = " (the adjoined event is empty)"
            elif given == charge.algebra.ground_set:
                detail = " (the adjoined event is the whole ground set)"
            raise NotIndependent(
                "adjoined event must split every positive-mass atom"
                f"{detail}; use strict=False for refinement-only extensions"
            )


def oracle_extend(charge: Charge, subset: frozenset, value: RationalLike) -> Charge:
    """``Charge.extend`` from the inner and outer measure, one greedy split
    over all atoms and one adjoin."""
    subset = frozenset(subset)
    value = as_rational(value, name="target value")
    inner, outer = charge.inner_outer(subset)
    if not inner <= value <= outer:
        raise OutOfRange(
            f"target {format_rational(value)} outside the admissible interval "
            f"[{format_rational(inner)}, {format_rational(outer)}]"
        )
    part_mass = oracle_greedy_split(
        zip(charge.algebra.atoms, charge.masses), subset, value - inner
    )
    new_algebra = oracle_adjoin(charge.algebra, subset)
    return Charge(new_algebra, tuple(part_mass[a] for a in new_algebra.atoms))


def oracle_conditional_scale(
    theta: Fraction, in_e: Fraction, out_e: Fraction, in_c: Fraction, out_c: Fraction
) -> Fraction:
    """The mass the adjoined event receives, case by case: at theta = 0 only
    the complement side bounds it and the event side may carry no forced
    mass, at theta = 1 the reverse, and inside (0, 1) both sides bound it.
    It is the midpoint of the feasible interval."""
    if theta == 0:
        if in_e > 0:
            raise OutOfRange(
                "conditional target 0 unattainable: the adjoined event "
                "already carries forced mass inside the target event"
            )
        lo, hi = in_c, out_c
    elif theta == 1:
        if in_c > 0:
            raise OutOfRange(
                "conditional target 1 unattainable: the adjoined event "
                "already carries forced mass outside the target event"
            )
        lo, hi = in_e, out_e
    else:
        lo = max(in_e / theta, in_c / (1 - theta))
        hi = min(out_e / theta, out_c / (1 - theta))
    if lo > hi:
        lo_bound = in_e / (in_e + out_c) if in_e + out_c > 0 else Fraction(1)
        hi_bound = out_e / (out_e + in_c) if out_e + in_c > 0 else ZERO
        raise OutOfRange(
            f"conditional target {format_rational(theta)} outside the feasible "
            f"interval [{format_rational(lo_bound)}, {format_rational(hi_bound)}]"
        )
    scale = (lo + hi) / 2
    if scale == 0:
        raise OutOfRange(
            "the adjoined event cannot receive positive mass, so no "
            "conditional value is defined on it"
        )
    return scale


def oracle_extend_conditional_by_sides(
    charge: Charge,
    event: frozenset,
    given: frozenset,
    theta: RationalLike,
    *,
    strict: bool = True,
) -> Charge:
    """``Charge.extend_conditional`` as one plain extension on each side of
    the target event: inner and outer measure of ``given & event`` and of
    ``given - event``, one greedy split of each, then one adjoin."""
    event = frozenset(event)
    given = frozenset(given)
    theta = as_rational(theta, name="theta")
    if not 0 <= theta <= 1:
        raise OutOfRange(f"conditional target {format_rational(theta)} not in [0, 1]")
    if not given <= charge.algebra.ground_set:
        raise ValueError("adjoined event contains elements outside the ground set")
    p_event = charge.measure(event)
    if strict:
        if p_event in (0, 1):
            raise DegeneratePrior(
                f"prior value of the event is {format_rational(p_event)}; "
                "a conditional target needs it strictly between 0 and 1"
            )
        oracle_check_strictly_independent(charge, given)

    inside, outside = given & event, given - event
    in_e, out_e = charge.inner_outer(inside)
    in_c, out_c = charge.inner_outer(outside)
    scale = oracle_conditional_scale(theta, in_e, out_e, in_c, out_c)
    atom_masses = tuple(zip(charge.algebra.atoms, charge.masses))
    part_mass = {
        **oracle_greedy_split(atom_masses, inside, theta * scale - in_e),
        **oracle_greedy_split(atom_masses, outside, (1 - theta) * scale - in_c),
    }
    new_algebra = oracle_adjoin(charge.algebra, given)
    return Charge(new_algebra, tuple(part_mass[a] for a in new_algebra.atoms))


def oracle_extend_conditional(
    charge: Charge,
    event: frozenset,
    given: frozenset,
    theta: RationalLike,
    *,
    strict: bool = True,
) -> Charge:
    """``Charge.extend_conditional`` built side by side: one pass finds the
    feasible masses, then each side of the target event is filtered again
    and its forced mass summed again before its greedy split."""
    event = frozenset(event)
    given = frozenset(given)
    theta = as_rational(theta, name="theta")
    if not 0 <= theta <= 1:
        raise OutOfRange(f"conditional target {format_rational(theta)} not in [0, 1]")
    if not given <= charge.algebra.ground_set:
        raise ValueError("adjoined event contains elements outside the ground set")
    p_event = charge.measure(event)
    if strict:
        if p_event in (0, 1):
            raise DegeneratePrior(
                f"prior value of the event is {format_rational(p_event)}; "
                "a conditional target needs it strictly between 0 and 1"
            )
        oracle_check_strictly_independent(charge, given)

    in_e = out_e = in_c = out_c = ZERO
    for atom, m in zip(charge.algebra.atoms, charge.masses):
        on_event_side = atom <= event
        if atom <= given:
            if on_event_side:
                in_e += m
            else:
                in_c += m
        if not atom.isdisjoint(given):
            if on_event_side:
                out_e += m
            else:
                out_c += m
    scale = oracle_conditional_scale(theta, in_e, out_e, in_c, out_c)

    def allocate_side(budget: Fraction, event_side: bool) -> dict[frozenset, Fraction]:
        side = [
            (atom, m)
            for atom, m in zip(charge.algebra.atoms, charge.masses)
            if (atom <= event) == event_side
        ]
        forced = sum((m for atom, m in side if atom <= given), start=ZERO)
        return oracle_greedy_split(side, given, budget - forced)

    part_mass = {
        **allocate_side(theta * scale, True),
        **allocate_side((1 - theta) * scale, False),
    }
    new_algebra = oracle_adjoin(charge.algebra, given)
    return Charge(new_algebra, tuple(part_mass[a] for a in new_algebra.atoms))


def oracle_rationalize_prior(disposition: Disposition, theta: Fraction) -> Charge:
    """The even-odds prior built literally: the equal mixture of a
    convicting-side and an acquitting-side point charge."""
    catalog = disposition.catalog
    worlds = full_world_space(catalog)
    algebra = powerset_algebra(worlds)
    n_convict = len(disposition.convicting)
    n_acquit = (1 << len(catalog)) - n_convict
    convict_masses: dict[frozenset, Fraction] = {}
    acquit_masses: dict[frozenset, Fraction] = {}
    for world in worlds:
        atom = frozenset({world})
        if world.transcript in disposition.convicting:
            guilty_share = theta if world.guilt is Guilt.GUILTY else 1 - theta
            convict_masses[atom] = guilty_share / n_convict
        else:
            guilty_share = 1 - theta if world.guilt is Guilt.GUILTY else theta
            acquit_masses[atom] = guilty_share / n_acquit
    return mix(
        Fraction(1, 2),
        Charge.from_atom_masses(algebra, convict_masses),
        Charge.from_atom_masses(algebra, acquit_masses),
    )


def oracle_ratio_bounded_prior(
    catalog: TestimonyCatalog, config: RateBoundConfig
) -> tuple[RatioBoundedPrior, tuple[frozenset, ...]]:
    """The ratio-bounded convicting prior built step by step: one
    ``extend_conditional`` per nested heard-event.  Returned with the
    chain of those heard-events, each found by ``heard_event``."""
    steps = oracle_min_convicting_steps(config)
    if len(catalog) < steps:
        raise CatalogTooSmall(
            f"need at least {steps} testimonies to reach "
            f"{format_rational(config.theta)} under the ratio bound; "
            f"catalog has {len(catalog)}"
        )
    worlds = full_world_space(catalog)
    guilt = guilt_event(catalog)
    algebra = atoms_of_generated_algebra(worlds, [guilt])
    charge = Charge.from_atom_masses(
        algebra, {atom: HALF for atom in algebra.atoms}
    )

    growth = 1 + config.gamma
    chain: list[frozenset] = []
    target = HALF
    for step in range(1, steps + 1):
        target = min(target * growth, config.theta)
        heard = heard_event(catalog, Transcript(range(step)))
        chain.append(heard)
        charge = charge.extend_conditional(guilt, heard, target, strict=False)

    prior = RatioBoundedPrior(
        catalog=catalog,
        config=config,
        charge=charge,
        posteriors=oracle_ratio_bounded_trail(charge, chain, guilt),
    )
    return prior, tuple(chain)


def oracle_ratio_bounded_trail(
    charge: Charge, chain: Sequence[frozenset], guilt: frozenset
) -> tuple[Fraction, ...]:
    """The guilt posterior trail measured from ``charge``: the prior,
    then one ``conditional`` on each heard-event of ``chain``."""
    return (charge.measure(guilt),) + tuple(
        charge.conditional(guilt, heard).value for heard in chain
    )


def oracle_min_convicting_steps(config: RateBoundConfig) -> int:
    """The least m with (1/2)(1+gamma)^m >= theta, found by one exact
    ``Fraction`` multiplication per step; CapExceeded past RATE_STEP_CAP."""
    level = HALF
    steps = 0
    while level < config.theta:
        if steps >= RATE_STEP_CAP:
            raise CapExceeded(
                f"more than {RATE_STEP_CAP} ratio-bounded steps needed to reach "
                f"{format_rational(config.theta)} at gamma = "
                f"{format_rational(config.gamma)}"
            )
        level *= 1 + config.gamma
        steps += 1
    return steps


def oracle_brute_force_optimal(
    charge: Charge, pairs: Sequence[PropositionPair], weights: ScoreWeights
) -> tuple[DoxasticState, ...]:
    """Every expected-score maximizer, each of the 3^k states valued by
    ``expected_score``, which measures every believed side again."""
    pairs = tuple(pairs)
    if len(pairs) > BRUTE_FORCE_PAIR_CAP:
        raise CapExceeded(
            f"brute force over {len(pairs)} pairs exceeds the cap of "
            f"{BRUTE_FORCE_PAIR_CAP}"
        )
    _require_same_ground(pairs, charge)
    best_value: Fraction | None = None
    best_states: list[DoxasticState] = []
    for combo in itertools.product(ATTITUDE_ORDER, repeat=len(pairs)):
        state = DoxasticState(pairs, combo)
        value = expected_score(state, charge, weights)
        if best_value is None or value > best_value:
            best_value = value
            best_states = [state]
        elif value == best_value:
            best_states.append(state)
    return tuple(best_states)


def oracle_mass_check(masses) -> tuple[type, str] | None:
    """The error class and message a naive Fraction sum gives ``Charge``'s masses."""
    total = Fraction(0)
    for m in masses:
        if not isinstance(m, Fraction):
            return TypeError, f"atom mass must be Fraction, got {type(m).__name__}"
        if m < 0:
            return ValueError, f"atom mass must be nonnegative, got {m}"
        total += m
    if total != 1:
        return ValueError, f"atom masses must sum to 1, got {format_rational(total)}"
    return None


def oracle_charge_to_jsonable(catalog: TestimonyCatalog, charge: Charge) -> dict:
    """A charge document built key by key: ``format_rational`` once per
    mass, an "atoms" list unless every atom is a single world."""
    algebra = charge.algebra
    atom_keys = [[oracle_world_key(catalog, w) for w in sorted(atom)] for atom in algebra.atoms]
    doc: dict = {"catalog": list(catalog.labels)}
    if any(len(atom) != 1 for atom in algebra.atoms):
        doc["atoms"] = atom_keys
    doc["masses"] = {
        ";".join(keys): format_rational(m) for keys, m in zip(atom_keys, charge.masses)
    }
    return doc


def oracle_disposition_to_jsonable(disposition: Disposition) -> dict:
    """A disposition document with the labels of each convicting
    transcript found through ``catalog.transcript_labels``."""
    catalog = disposition.catalog
    _check_labels(catalog.labels)
    convicting = sorted(disposition.convicting, key=lambda t: t.mask)
    return {
        "catalog": list(catalog.labels),
        "convicting": [list(catalog.transcript_labels(t)) for t in convicting],
        "default": "acquit",
    }


def oracle_certificate_to_jsonable(certificate: RationalizationCertificate) -> dict:
    """A certificate document with one ``verdict()`` call and one
    ``format_rational`` call per row."""
    disposition = certificate.disposition
    catalog = disposition.catalog
    posteriors = certificate.posteriors
    rows = [
        {
            "transcript": list(catalog.transcript_labels(t)),
            "verdict": disposition.verdict(t).value,
            "posterior": format_rational(posteriors[t]),
        }
        for t in catalog.all_transcripts()
    ]
    return {
        "catalog": list(catalog.labels),
        "theta": format_rational(certificate.theta),
        "guilt_prior": format_rational(certificate.guilt_prior),
        "posteriors": rows,
        "prior": oracle_charge_to_jsonable(catalog, certificate.prior),
    }


def oracle_transcript(catalog: TestimonyCatalog, labels) -> Transcript:
    """A transcript built label by label: each label's position found by
    ``tuple.index``, the indices collected by the checked constructor."""

    def index(label) -> int:
        try:
            return catalog.labels.index(label)
        except ValueError:
            raise ForeignTestimony(f"label {label!r} is not in the catalog") from None

    return Transcript(index(label) for label in labels)


def oracle_world_key(catalog: TestimonyCatalog, world: World) -> str:
    """A world key built from the catalog's labels."""
    labels = catalog.transcript_labels(world.transcript)
    return "{" + ",".join(labels) + "}|" + world.guilt.value


def oracle_parse_world_key(catalog: TestimonyCatalog, key: str) -> World:
    """A world key parsed by pattern and label lookup alone."""
    match = re.fullmatch(r"\{([^{}|]*)\}\|([GI])", key)
    if not match:
        raise ParseError(f"bad world key {key!r}; expected e.g. '{{t1,t2}}|G'")
    inner, guilt_letter = match.groups()
    labels = [part for part in inner.split(",") if part] if inner else []
    try:
        transcript = catalog.transcript(labels)
    except Exception as exc:
        raise ParseError(f"world key {key!r}: {exc}") from exc
    return World(transcript, Guilt(guilt_letter))


def oracle_charge_from_jsonable(obj: dict) -> tuple[TestimonyCatalog, Charge]:
    """A charge document read world by world: each key parsed by
    ``oracle_parse_world_key``, and each atom named again for its masses
    through ``oracle_world_key``, one world at a time.  Without "atoms"
    every world is an atom.  Masses are read key by key in document
    order, each literal parsed where it stands."""
    catalog = catalog_from_jsonable(obj["catalog"])
    worlds = full_world_space(catalog)
    raw_atoms = obj.get("atoms", [[oracle_world_key(catalog, w)] for w in worlds])
    atoms = [frozenset(oracle_parse_world_key(catalog, key) for key in raw) for raw in raw_atoms]
    try:
        ordered = sorted(atoms, key=lambda atom: min(atom, default=-1))
        algebra = BooleanSubalgebra(worlds, tuple(ordered))
    except ValueError as exc:
        raise ParseError(f"bad atom partition: {exc}") from exc
    names = [";".join(oracle_world_key(catalog, w) for w in sorted(atom)) for atom in algebra.atoms]
    masses = [Fraction(0)] * len(names)
    for key, value in obj["masses"].items():
        if key not in names:
            raise ParseError(f"mass key {key!r} is not an atom of the charge's algebra")
        if not isinstance(value, str):
            raise ParseError(f"mass for {key!r} must be an exact rational string, got {value!r}")
        try:
            masses[names.index(key)] = as_rational(value, name=f"mass[{key}]")
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    try:
        return catalog, Charge(algebra, tuple(masses))
    except ValueError as exc:
        raise ParseError(f"invalid charge: {exc}") from exc


def recoded(rng: random.Random, charge: Charge) -> Charge:
    """The same charge built by ``Charge._from_codes``, from a shuffled
    palette that holds each mass value once or twice (as equal but
    distinct objects) and one negative value that no atom names."""
    palette: list = []
    for value in set(charge.masses):
        twins = rng.randrange(1, 3)
        palette += [Fraction(value.numerator, value.denominator) for _ in range(twins)]
    palette.append(Fraction(-1))
    rng.shuffle(palette)
    by_value: dict[Fraction, list[int]] = {}
    for code, value in enumerate(palette):
        by_value.setdefault(value, []).append(code)
    codes = [rng.choice(by_value[m]) for m in charge.masses]
    as_bytes = len(palette) <= 256 and rng.random() < 0.5
    built = Charge._from_codes(charge.algebra, palette, bytes(codes) if as_bytes else tuple(codes))
    assert built == charge
    return built


def assert_coded_view(charge: Charge) -> None:
    """Each atom's mass is the very value its code names."""
    assert len(charge.codes) == len(charge.masses)
    assert all(m is charge.values[c] for m, c in zip(charge.masses, charge.codes))


def eager_world_algebra(catalog: TestimonyCatalog) -> BooleanSubalgebra:
    """The world powerset with every singleton atom built up front, through
    the checked constructor, so it takes the atom paths."""
    worlds = full_world_space(catalog)
    return BooleanSubalgebra(worlds, tuple(map(frozenset, zip(worlds))))


def eager_heard_prefix_algebra(catalog: TestimonyCatalog, steps: int) -> BooleanSubalgebra:
    """The heard-prefix algebra with its 2·steps + 2 stride slices built up
    front, as frozensets made the same way, through the checked constructor."""
    worlds = full_world_space(catalog)
    parts = [((1 << j) - 2, 2 << j) for j in range(1, steps + 1)]
    parts.append(((2 << steps) - 2, 2 << steps))
    atoms = tuple(frozenset(worlds[first + g :: stride]) for first, stride in parts for g in (0, 1))
    return BooleanSubalgebra(worlds, atoms)


def random_masses(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """Random exact masses, nonnegative and summing to one."""
    weights = [rng.randrange(0, 9) for _ in range(count)]
    if sum(weights) == 0:
        weights[rng.randrange(count)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_charge(rng: random.Random, algebra: BooleanSubalgebra) -> Charge:
    return Charge(algebra, random_masses(rng, len(algebra.atoms)))


def random_partition(
    rng: random.Random, ground: Sequence, min_block: int = 1
) -> tuple[frozenset, ...]:
    """A random partition with every block at least ``min_block`` big."""
    items = list(ground)
    rng.shuffle(items)
    blocks: list[frozenset] = []
    i = 0
    while i < len(items):
        size = rng.randrange(min_block, min_block + 2)
        if len(items) - i - size < min_block:
            size = len(items) - i
        blocks.append(frozenset(items[i : i + size]))
        i += size
    return tuple(blocks)


def splitting_event(rng: random.Random, charge: Charge) -> frozenset:
    """A set taking a proper nonempty bite of every positive-mass atom."""
    picked: set = set()
    for atom, mass in zip(charge.algebra.atoms, charge.masses):
        members = sorted(atom, key=repr)
        if mass > 0:
            assert len(members) >= 2, "positive-mass atoms must be splittable"
            k = rng.randrange(1, len(members))
            picked.update(rng.sample(members, k))
        else:
            picked.update(m for m in members if rng.random() < 0.5)
    return frozenset(picked)


def random_rational(
    rng: random.Random,
    low: Fraction = Fraction(0),
    high: Fraction = Fraction(1),
    *,
    inclusive: bool = True,
    max_denominator: int = 40,
) -> Fraction:
    """A random exact rational in the given interval."""
    while True:
        den = rng.randrange(2, max_denominator + 1)
        num = rng.randrange(0, den + 1)
        value = Fraction(num, den)
        if inclusive and low <= value <= high:
            return value
        if not inclusive and low < value < high:
            return value


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
