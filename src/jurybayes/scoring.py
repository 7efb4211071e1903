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
from fractions import Fraction
from operator import getitem
from typing import TYPE_CHECKING, AbstractSet, Hashable, Iterable, Sequence

from .errors import CapExceeded, DegenerateUtilities, OutOfRange
from .rationals import Frozen, RationalLike, _unit_in, as_rational_fields, format_rational

if TYPE_CHECKING:
    from .charges import Charge

#: Enumeration ceiling for the brute-force oracle (3^k states).
BRUTE_FORCE_PAIR_CAP = 16
#: Most maximizers the brute-force oracle holds and returns: all 3^10
#: states of 10 tied pairs took 0.26 s and 45 MB on a 2-vCPU VM.
BRUTE_FORCE_MAXIMIZER_CAP = 3**10


class Attitude(enum.Enum):
    BELIEVE_POSITIVE = "believe-positive"
    BELIEVE_NEGATIVE = "believe-negative"
    SUSPEND = "suspend"


#: Deterministic tie-break and enumeration order: belief before suspension.
ATTITUDE_ORDER = (Attitude.BELIEVE_POSITIVE, Attitude.BELIEVE_NEGATIVE, Attitude.SUSPEND)


class PropositionPair(Frozen):
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
        vars(self).update(name=name, positive=frozenset(positive), ground=frozenset(ground))
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


class ScoreWeights(Frozen):
    """Strictly positive reward R for true beliefs, penalty W for false ones."""

    reward: Fraction
    penalty: Fraction

    def __init__(self, reward: Fraction, penalty: Fraction) -> None:
        as_rational_fields(self, reward, penalty)
        if self.reward <= 0 or self.penalty <= 0:
            raise OutOfRange(
                "reward and penalty must both be strictly positive, got "
                f"{format_rational(self.reward)} and {format_rational(self.penalty)}"
            )

    @property
    def belief_threshold(self) -> Fraction:
        """Believing pays in expectation iff the probability exceeds W/(R+W)."""
        return self.penalty / (self.reward + self.penalty)


class DoxasticState(Frozen):
    """A consistent attitude assignment over proposition pairs.

    Never believes both sides of a pair; a state with no suspensions is
    complete (the juror reading: exactly one side believed per pair).
    """

    pairs: tuple[PropositionPair, ...]
    attitudes: tuple[Attitude, ...]

    def __init__(
        self, pairs: tuple[PropositionPair, ...], attitudes: tuple[Attitude, ...]
    ) -> None:
        vars(self).update(pairs=tuple(pairs), attitudes=tuple(attitudes))
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


class OptimalStateChoice(Frozen):
    """The chosen expected-score maximizer, with per-pair tie flags.

    ``tied_pairs`` lists pairs where at least two attitudes achieve the
    same maximal contribution; ties are resolved toward belief
    (positive side first).
    """

    state: DoxasticState
    tied_pairs: tuple[str, ...]

    def __init__(self, state: DoxasticState, tied_pairs: tuple[str, ...]) -> None:
        vars(self).update(state=state, tied_pairs=tied_pairs)


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
    for pair, row in zip(pairs, _valuations(charge, pairs, weights)):
        best = max(row)
        attitudes.append(ATTITUDE_ORDER[row.index(best)])
        if row.count(best) > 1:
            tied.append(pair.name)
    return OptimalStateChoice(DoxasticState(pairs, tuple(attitudes)), tuple(tied))


def brute_force_optimal(
    charge: Charge, pairs: Sequence[PropositionPair], weights: ScoreWeights
) -> tuple[DoxasticState, ...]:
    """All expected-score maximizers, by enumeration of every state.

    Each pair's positive side is measured once, and the pair's row of
    expected scores (see ``_valuations``) is read as integers over one
    common denominator.  All 3^k consistent attitude assignments are then
    enumerated in deterministic order and each is valued by adding its
    pairs' integers.  It never uses the W/(R+W) threshold: it is the
    oracle against which the closed form is checked.  At most
    BRUTE_FORCE_MAXIMIZER_CAP + 1 tied states are held, and CapExceeded
    is raised when the final maximizers pass the cap.
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
    table = _valuations(charge, pairs, weights)
    best_value: int | None = None
    best: list[tuple[int, ...]] = []
    for combo in itertools.product(range(len(ATTITUDE_ORDER)), repeat=len(pairs)):
        value = sum(map(getitem, table, combo))
        if best_value is None or value > best_value:
            best_value = value
            best = [combo]
        elif value == best_value and len(best) <= BRUTE_FORCE_MAXIMIZER_CAP:
            best.append(combo)
    # checked after the loop: a value tied early may be beaten later
    if len(best) > BRUTE_FORCE_MAXIMIZER_CAP:
        raise CapExceeded(
            f"brute force over {len(pairs)} pairs has more than "
            f"{BRUTE_FORCE_MAXIMIZER_CAP} maximizers, the cap on what it returns"
        )
    return tuple(
        DoxasticState(pairs, tuple(ATTITUDE_ORDER[i] for i in combo)) for combo in best
    )


def _valuations(
    charge: Charge, pairs: tuple[PropositionPair, ...], weights: ScoreWeights
) -> list[tuple[int, int, int]]:
    """Each pair's expected score under each attitude, in ``ATTITUDE_ORDER``,
    as integers over one common positive denominator.

    A side of probability p is worth p*R - (1-p)*W, suspension 0.  The
    positive side is measured once, a/b; the negative side is then exactly
    (b-a)/b, as the caller has checked that every pair lives on the
    charge's ground, whose masses sum to 1.  With R = r/rd and W = w/wd,
    each row holds the exact scores times lcm(b...)*rd*wd, one positive
    factor for all rows, so every order and every tie is kept.
    """
    r, rd = weights.reward.as_integer_ratio()
    w, wd = weights.penalty.as_integer_ratio()
    gain, loss = r * wd, w * rd  # R and W over the denominator rd*wd
    sides = [charge.measure(pair.positive).as_integer_ratio() for pair in pairs]
    common = math.lcm(*(b for _, b in sides))
    rows = []
    for a, b in sides:
        scale = common // b
        rows.append(((a * gain - (b - a) * loss) * scale, ((b - a) * gain - a * loss) * scale, 0))
    return rows


def _require_same_ground(pairs: Iterable[PropositionPair], charge: Charge) -> None:
    for pair in pairs:
        if pair.ground != charge.algebra.ground_set:
            raise ValueError(
                f"pair {pair.name!r} lives on a different world set than the charge"
            )


# ---------------------------------------------------------------------------
# Four-outcome verdict utilities.


class UtilityQuadruple(Frozen):
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

    def __init__(
        self, convict_guilty: Fraction, convict_innocent: Fraction, acquit_guilty: Fraction,
        acquit_innocent: Fraction,
    ) -> None:
        as_rational_fields(self, convict_guilty, convict_innocent, acquit_guilty, acquit_innocent)

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
