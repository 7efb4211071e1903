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
    RateBoundConfig,
    RatioBoundedPrior,
    min_convicting_testimony_count,
)
from jurybayes.charges import ZERO, Charge, greedy_split, mix
from jurybayes.dispositions import Disposition
from jurybayes.errors import (
    CapExceeded,
    CatalogMismatch,
    CatalogTooSmall,
    DegeneratePrior,
    OutOfRange,
    ParseError,
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


def oracle_inner_outer(charge: Charge, subset: frozenset) -> tuple[Fraction, Fraction]:
    """sup of member measures below, inf of member measures above."""
    below = [charge.measure(m) for m in charge.algebra.members() if m <= subset]
    above = [charge.measure(m) for m in charge.algebra.members() if subset <= m]
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
        charge._check_strictly_independent(given)

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
    scale = Charge._conditional_scale(theta, in_e, out_e, in_c, out_c)

    def allocate_side(budget: Fraction, event_side: bool) -> dict[frozenset, Fraction]:
        side = [
            (atom, m)
            for atom, m in zip(charge.algebra.atoms, charge.masses)
            if (atom <= event) == event_side
        ]
        forced = sum((m for atom, m in side if atom <= given), start=ZERO)
        return greedy_split(side, given, budget - forced)

    part_mass = {
        **allocate_side(theta * scale, True),
        **allocate_side((1 - theta) * scale, False),
    }
    new_algebra = charge.algebra.adjoin(given)
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
) -> RatioBoundedPrior:
    """The ratio-bounded convicting prior built step by step: one
    ``extend_conditional`` per nested heard-event."""
    count = min_convicting_testimony_count(config)
    if len(catalog) < count.steps:
        raise CatalogTooSmall(
            f"need at least {count.steps} testimonies to reach "
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
    for step in range(1, count.steps + 1):
        target = min(target * growth, config.theta)
        heard = heard_event(catalog, Transcript(range(step)))
        chain.append(heard)
        charge = charge.extend_conditional(guilt, heard, target, strict=False)

    posteriors = [charge.measure(guilt)]
    for heard in chain:
        posteriors.append(charge.conditional(guilt, heard).value)
    return RatioBoundedPrior(
        catalog=catalog,
        config=config,
        charge=charge,
        chain=tuple(chain),
        posteriors=tuple(posteriors),
    )


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
