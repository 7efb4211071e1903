"""Binary-belief scoring and verdict utility thresholds.

A doxastic state assigns, to each proposition/negation pair, one of
believe-positive, believe-negative, or suspend.  True beliefs earn a
reward R, false beliefs pay a penalty W, suspensions score zero.  The
expected-score optimum per pair is a closed-form threshold at W/(R+W);
a brute-force enumerator over all states serves as its oracle.

The four-outcome verdict utilities generalize the same idea: convicting
maximizes expected utility exactly when the guilt probability reaches an
explicit rational threshold.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import TYPE_CHECKING, AbstractSet, Hashable, Iterable, Sequence

from .errors import CapExceeded, DegenerateUtilities, OutOfRange
from .rationals import RationalLike, _unit_in, as_rational_fields, format_rational

if TYPE_CHECKING:
    from .charges import Charge

#: Enumeration ceiling for the brute-force oracle (3^k states).
BRUTE_FORCE_PAIR_CAP = 16


class Attitude(enum.Enum):
    BELIEVE_POSITIVE = "believe-positive"
    BELIEVE_NEGATIVE = "believe-negative"
    SUSPEND = "suspend"


#: Deterministic tie-break and enumeration order: belief before suspension.
ATTITUDE_ORDER = (Attitude.BELIEVE_POSITIVE, Attitude.BELIEVE_NEGATIVE, Attitude.SUSPEND)


@dataclass(frozen=True)
class PropositionPair:
    """A proposition and its negation over a finite world set.

    Tautology/contradiction pairs (positive = ground or empty) are
    rejected unless explicitly allowed.
    """

    name: str
    positive: frozenset
    ground: frozenset

    def __init__(
        self,
        name: str,
        positive: AbstractSet,
        ground: AbstractSet,
        *,
        allow_trivial: bool = False,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "positive", frozenset(positive))
        object.__setattr__(self, "ground", frozenset(ground))
        if not self.positive <= self.ground:
            raise ValueError(f"pair {name!r}: proposition exceeds its world set")
        if not allow_trivial and self.positive in (frozenset(), self.ground):
            raise ValueError(
                f"pair {name!r} is a tautology/contradiction; "
                "pass allow_trivial=True to score it anyway"
            )

    @property
    def negative(self) -> frozenset:
        return self.ground - self.positive

    def holds_at(self, world: Hashable) -> bool:
        if world not in self.ground:
            raise ValueError(f"world {world!r} is outside pair {self.name!r}'s world set")
        return world in self.positive


@dataclass(frozen=True)
class ScoreWeights:
    """Strictly positive reward R for true beliefs, penalty W for false ones."""

    reward: Fraction
    penalty: Fraction

    def __post_init__(self) -> None:
        as_rational_fields(self)
        if self.reward <= 0 or self.penalty <= 0:
            raise OutOfRange(
                "reward and penalty must both be strictly positive, got "
                f"{format_rational(self.reward)} and {format_rational(self.penalty)}"
            )

    @property
    def belief_threshold(self) -> Fraction:
        """Believing pays in expectation iff the probability exceeds W/(R+W)."""
        return self.penalty / (self.reward + self.penalty)


@dataclass(frozen=True)
class DoxasticState:
    """A consistent attitude assignment over proposition pairs.

    Never believes both sides of a pair; a state with no suspensions is
    complete (the juror reading: exactly one side believed per pair).
    """

    pairs: tuple[PropositionPair, ...]
    attitudes: tuple[Attitude, ...]

    def __post_init__(self) -> None:
        vars(self).update(pairs=tuple(self.pairs), attitudes=tuple(self.attitudes))
        if len(self.pairs) != len(self.attitudes):
            raise ValueError("one attitude per pair required")
        names = [p.name for p in self.pairs]
        if len(set(names)) != len(names):
            raise ValueError("pair names must be distinct")
        grounds = {p.ground for p in self.pairs}
        if len(grounds) > 1:
            raise ValueError("all pairs must share one world set")

    @property
    def is_complete(self) -> bool:
        return all(a is not Attitude.SUSPEND for a in self.attitudes)


def score(state: DoxasticState, world: Hashable, weights: ScoreWeights) -> Fraction:
    """Realized score at a world: +R per true belief, -W per false one."""
    if state.pairs and world not in state.pairs[0].ground:
        raise ValueError(f"world {world!r} is outside the pairs' world set")
    total = Fraction(0)
    for pair, attitude in zip(state.pairs, state.attitudes):
        if attitude is Attitude.SUSPEND:
            continue
        believes_positive = attitude is Attitude.BELIEVE_POSITIVE
        correct = pair.holds_at(world) == believes_positive
        total += weights.reward if correct else -weights.penalty
    return total


def expected_score(
    state: DoxasticState, charge: Charge, weights: ScoreWeights
) -> Fraction:
    """Expected score under a charge on the pairs' world set.

    Computed by linearity over pairs; each believed side must be
    expressible in the charge's algebra.
    """
    _require_same_ground(state.pairs, charge)
    total = Fraction(0)
    for pair, attitude in zip(state.pairs, state.attitudes):
        if attitude is Attitude.SUSPEND:
            continue
        side = pair.positive if attitude is Attitude.BELIEVE_POSITIVE else pair.negative
        p = charge.measure(side)
        total += p * weights.reward - (1 - p) * weights.penalty
    return total


@dataclass(frozen=True)
class OptimalStateChoice:
    """The chosen expected-score maximizer, with per-pair tie flags.

    ``tied_pairs`` lists pairs where at least two attitudes achieve the
    same maximal contribution; ties are resolved toward belief
    (positive side first).
    """

    state: DoxasticState
    tied_pairs: tuple[str, ...]


def optimal_doxastic_state(
    charge: Charge, pairs: Sequence[PropositionPair], weights: ScoreWeights
) -> OptimalStateChoice:
    """Closed-form expected-score maximizer.

    Per pair, believing a side beats suspending iff that side's
    probability strictly exceeds W/(R+W); at exact equality both choices
    tie and the tie is resolved toward belief and flagged.  When both
    sides clear the threshold (possible only if it is below 1/2) the
    likelier side wins.
    """
    pairs = tuple(pairs)
    _require_same_ground(pairs, charge)
    attitudes: list[Attitude] = []
    tied: list[str] = []
    for pair in pairs:
        p = charge.measure(pair.positive)
        gains = {
            Attitude.BELIEVE_POSITIVE: p * (weights.reward + weights.penalty)
            - weights.penalty,
            Attitude.BELIEVE_NEGATIVE: (1 - p) * (weights.reward + weights.penalty)
            - weights.penalty,
            Attitude.SUSPEND: Fraction(0),
        }
        best = max(gains.values())
        winners = [a for a in ATTITUDE_ORDER if gains[a] == best]
        attitudes.append(winners[0])
        if len(winners) > 1:
            tied.append(pair.name)
    return OptimalStateChoice(DoxasticState(pairs, tuple(attitudes)), tuple(tied))


def brute_force_optimal(
    charge: Charge, pairs: Sequence[PropositionPair], weights: ScoreWeights
) -> tuple[DoxasticState, ...]:
    """All expected-score maximizers, by enumeration of every state.

    Each side of each pair is measured once, and its expected score
    p*R - (1-p)*W (suspension scores 0) is scaled to an integer over one
    common denominator.  All 3^k consistent attitude assignments are then
    enumerated in deterministic order and each is valued by adding its
    pairs' integers.  It never uses the W/(R+W) threshold: it is the
    oracle against which the closed form is checked.
    """
    pairs = tuple(pairs)
    if len(pairs) > BRUTE_FORCE_PAIR_CAP:
        raise CapExceeded(
            f"brute force over {len(pairs)} pairs exceeds the cap of "
            f"{BRUTE_FORCE_PAIR_CAP}"
        )
    _require_same_ground(pairs, charge)
    # duplicate names fail here, before any side is measured
    DoxasticState(pairs, ATTITUDE_ORDER[:1] * len(pairs))
    values = []
    for pair in pairs:
        for side in (pair.positive, pair.negative):
            p = charge.measure(side)
            values.append(p * weights.reward - (1 - p) * weights.penalty)
    common = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (common // v.denominator) for v in values]
    # one row per pair, one column per attitude in ATTITUDE_ORDER
    table = tuple(zip(scaled[0::2], scaled[1::2], itertools.repeat(0)))
    best_value: int | None = None
    best: list[tuple[int, ...]] = []
    for combo in itertools.product(range(len(ATTITUDE_ORDER)), repeat=len(pairs)):
        value = sum(map(getitem, table, combo))
        if best_value is None or value > best_value:
            best_value = value
            best = [combo]
        elif value == best_value:
            best.append(combo)
    return tuple(
        DoxasticState(pairs, tuple(ATTITUDE_ORDER[i] for i in combo)) for combo in best
    )


def _require_same_ground(pairs: Iterable[PropositionPair], charge: Charge) -> None:
    for pair in pairs:
        if pair.ground != charge.algebra.ground_set:
            raise ValueError(
                f"pair {pair.name!r} lives on a different world set than the charge"
            )


# ---------------------------------------------------------------------------
# Four-outcome verdict utilities.


@dataclass(frozen=True)
class UtilityQuadruple:
    """Utilities of the four verdict outcomes.

    Signs are unconstrained; a threshold strictly inside (0, 1) with the
    standard convict-iff-above reading requires convicting the guilty to
    beat acquitting them and acquitting the innocent to beat convicting
    them.
    """

    convict_guilty: Fraction
    convict_innocent: Fraction
    acquit_guilty: Fraction
    acquit_innocent: Fraction

    def __post_init__(self) -> None:
        as_rational_fields(self)

    @classmethod
    def from_belief_weights(cls, weights: ScoreWeights) -> "UtilityQuadruple":
        """The (R, -W, 0, 0) embedding of belief scoring into verdict utilities."""
        return cls(weights.reward, -weights.penalty, 0, 0)

    @property
    def threshold_denominator(self) -> Fraction:
        return (
            self.convict_guilty
            - self.convict_innocent
            - self.acquit_guilty
            + self.acquit_innocent
        )


def verdict_threshold(utilities: UtilityQuadruple) -> Fraction:
    """The guilt probability at which the two verdicts' expected utilities cross.

    With a positive denominator, convicting maximizes expected utility
    iff the guilt probability is at least this value; a negative
    denominator reverses the comparison.  Values outside (0, 1) are
    returned as computed, not rejected.
    """
    denominator = utilities.threshold_denominator
    if denominator == 0:
        raise DegenerateUtilities(
            "verdict threshold undefined: utility differences cancel exactly"
        )
    return (utilities.acquit_innocent - utilities.convict_innocent) / denominator


def expected_verdict_utilities(
    utilities: UtilityQuadruple, p_guilt: RationalLike
) -> tuple[Fraction, Fraction]:
    """(expected utility of convicting, of acquitting) at the given guilt probability."""
    p = _unit_in(p_guilt, "p_guilt", "guilt probability")
    convict = p * utilities.convict_guilty + (1 - p) * utilities.convict_innocent
    acquit = p * utilities.acquit_guilty + (1 - p) * utilities.acquit_innocent
    return convict, acquit
