"""Constraint analyses: uniform suspect pools, the blood-type sample
space, odds-form updating and relevance, and ratio-bounded convergence
to conviction.

Each analysis is an executable construction with exact rational output;
nothing here estimates real-world likelihoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, AbstractSet

from .errors import (
    CapExceeded,
    CatalogTooSmall,
    DegeneratePrior,
    EmptyMatchWithMatchingDefendant,
    NonpositiveRatio,
    UndefinedRatio,
)
from .rationals import RationalLike, as_rational, exact_decimal, format_rational

# The odds and rate-bound analyses need no world machinery, so the two
# builders that do import charges and worlds where they run.
if TYPE_CHECKING:
    from .charges import Charge
    from .worlds import BooleanSubalgebra, TestimonyCatalog

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Odds-form updating.


@dataclass(frozen=True)
class Odds:
    """Odds "a to b" with strictly positive exact components."""

    in_favor: Fraction
    against: Fraction

    def __init__(self, in_favor: RationalLike, against: RationalLike) -> None:
        object.__setattr__(self, "in_favor", as_rational(in_favor, name="in_favor"))
        object.__setattr__(self, "against", as_rational(against, name="against"))
        if self.in_favor <= 0 or self.against <= 0:
            raise ValueError("odds components must be strictly positive")

    @classmethod
    def parse(cls, text: str) -> "Odds":
        left, sep, right = text.partition(":")
        if not sep:
            raise ValueError(f"odds literal must look like 'a:b', got {text!r}")
        return cls(as_rational(left, name="odds"), as_rational(right, name="odds"))

    @property
    def probability(self) -> Fraction:
        return self.in_favor / (self.in_favor + self.against)

    def canonical(self) -> "Odds":
        """Scale so the smaller component is exactly 1."""
        smallest = min(self.in_favor, self.against)
        return Odds(self.in_favor / smallest, self.against / smallest)

    def display(self) -> str:
        return f"{_odds_component(self.in_favor)}:{_odds_component(self.against)}"


def _odds_component(value: Fraction) -> str:
    decimal = exact_decimal(value)
    return decimal if decimal is not None else format_rational(value)


def posterior_odds(prior: Odds, likelihood_ratio: RationalLike) -> Odds:
    """Bayes in odds form: multiply the favoring component by the ratio."""
    ratio = as_rational(likelihood_ratio, name="likelihood ratio")
    if ratio <= 0:
        raise NonpositiveRatio(
            f"likelihood ratio must be positive, got {format_rational(ratio)}"
        )
    return Odds(prior.in_favor * ratio, prior.against).canonical()


# ---------------------------------------------------------------------------
# Uniform suspect-pool priors.


@dataclass(frozen=True)
class SuspectPool:
    """A uniform prior of guilt over a pool, with a matching subgroup.

    ``matching_count`` is the number of pool members fitting the
    witnessed description; ``defendant_matches`` says whether the
    defendant is among them.
    """

    size: int
    matching_count: int
    defendant_matches: bool

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("pool must have at least one member")
        if not 0 <= self.matching_count <= self.size:
            raise ValueError("matching count must lie between 0 and the pool size")


def uniform_guilt_prior(pool: SuspectPool) -> Fraction:
    """1/|pool|: exactly one member is guilty, all equally likely."""
    return Fraction(1, pool.size)


def certain_witness_posterior(pool: SuspectPool) -> Fraction:
    """Posterior guilt after an infallible description of the culprit.

    Zero when the defendant does not match; otherwise uniform over the
    matching subgroup.
    """
    if not pool.defendant_matches:
        return Fraction(0)
    if pool.matching_count == 0:
        raise EmptyMatchWithMatchingDefendant(
            "defendant matches a description that nobody in the pool matches"
        )
    return Fraction(1, pool.matching_count)


@dataclass(frozen=True)
class FallibleWitnessReport:
    """A fallible description rules nobody out: the update is vacuous."""

    prior: Fraction
    posterior: Fraction
    event_size: int
    degenerate_update: bool


def fallible_witness_event(pool: SuspectPool) -> FallibleWitnessReport:
    """Once the witness may err, the testimonial event is the whole pool."""
    prior = uniform_guilt_prior(pool)
    return FallibleWitnessReport(
        prior=prior, posterior=prior, event_size=pool.size, degenerate_update=True
    )


# ---------------------------------------------------------------------------
# The blood-type paternity sample space.

#: The eight blood phenotypes, in fixed report order.
BLOOD_TYPES = ("A+", "A-", "AB+", "AB-", "B+", "B-", "O+", "O-")


@dataclass(frozen=True)
class SpannSpace:
    """The 128-point (blood type, blood type, paternity) sample space.

    ``algebra`` is the coarse two-atom algebra generated by the paternity
    event, on which the advertised fifty-fifty prior lives.  The sample
    alibi event is a strict subset of the paternity cell, standing in for
    case facts the space cannot express.
    """

    ground: tuple[tuple[str, str, bool], ...]
    algebra: BooleanSubalgebra
    charge: Charge
    paternity: frozenset
    alibi_example: frozenset


def build_spann_space() -> SpannSpace:
    from .charges import Charge
    from .worlds import atoms_of_generated_algebra

    ground = tuple(
        (father, child, paternity)
        for father in BLOOD_TYPES
        for child in BLOOD_TYPES
        for paternity in (True, False)
    )
    paternity = frozenset(point for point in ground if point[2])
    algebra = atoms_of_generated_algebra(ground, [paternity])
    charge = Charge.uniform_on_points(algebra)
    # any strict nonempty subset of the paternity cell works; fix one
    alibi = frozenset(p for p in paternity if BLOOD_TYPES.index(p[0]) < 4)
    return SpannSpace(
        ground=ground,
        algebra=algebra,
        charge=charge,
        paternity=paternity,
        alibi_example=alibi,
    )


# ---------------------------------------------------------------------------
# Likelihood ratios and relevance.


@dataclass(frozen=True)
class LikelihoodRatios:
    """Both likelihood-ratio readings of a piece of evidence.

    ``standard`` is P(E|H)/P(E|not H); evidence is relevant iff it
    differs from one.  ``impact`` is P(E|H)/P(E), which never exceeds
    ``impact_ceiling`` = 1/P(H); no such prior-only ceiling holds for
    the standard ratio.
    """

    standard: Fraction
    impact: Fraction
    relevant: bool
    impact_ceiling: Fraction


def likelihood_ratio(
    charge: Charge, evidence: AbstractSet, hypothesis: AbstractSet
) -> LikelihoodRatios:
    """Likelihood ratios of expressible evidence against a hypothesis."""
    evidence = frozenset(evidence)
    hypothesis = frozenset(hypothesis)
    p_hyp = charge.measure(hypothesis)
    if p_hyp == 0 or p_hyp == 1:
        raise DegeneratePrior(
            f"hypothesis has prior {format_rational(p_hyp)}; "
            "likelihood ratios need it strictly between 0 and 1"
        )
    complement = charge.algebra.ground_set - hypothesis
    given_hyp = charge.measure(evidence & hypothesis) / p_hyp
    given_not = charge.measure(evidence & complement) / (1 - p_hyp)
    if given_not == 0:
        raise UndefinedRatio(
            "P(E | not H) = 0: the standard likelihood ratio is undefined"
        )
    p_evidence = charge.measure(evidence)
    return LikelihoodRatios(
        standard=given_hyp / given_not,
        impact=given_hyp / p_evidence,
        relevant=given_hyp != given_not,
        impact_ceiling=1 / p_hyp,
    )


# ---------------------------------------------------------------------------
# Ratio-bounded convergence to conviction.


@dataclass(frozen=True)
class RateBoundConfig:
    """A per-testimony posterior-ratio bound 1+gamma and a verdict threshold."""

    gamma: Fraction
    theta: Fraction

    def __init__(self, gamma: RationalLike, theta: RationalLike) -> None:
        object.__setattr__(self, "gamma", as_rational(gamma, name="gamma"))
        object.__setattr__(self, "theta", as_rational(theta, name="theta"))
        if self.gamma <= 0:
            raise ValueError("gamma must be strictly positive")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie strictly between 0 and 1")


@dataclass(frozen=True)
class TestimonyCountBound:
    """How many ratio-bounded testimonies reach the threshold.

    ``steps`` is the exact-powering count: the least m with
    (1/2)(1+gamma)^m >= theta, ties convicting.  ``log_bound`` is the
    strict-inequality logarithmic form, reported for comparison only
    (float, display precision; past the float range of gamma or theta it
    is computed from the rationals).  ``poi_violated`` flags theta <= 1/2,
    where the prior alone already meets the threshold.
    """

    steps: int
    log_bound: float
    poi_violated: bool


#: Exact powering grows denominators linearly with the step count; a
#: near-zero gamma would demand astronomically long rationals, so counts
#: beyond this ceiling are refused rather than computed.
RATE_STEP_CAP = 4096


def min_convicting_testimony_count(config: RateBoundConfig) -> TestimonyCountBound:
    """Least m such that (1/2)(1+gamma)^m reaches theta, by exact powering."""
    growth = 1 + config.gamma
    steps = _least_reaching_power(growth, 2 * config.theta)
    if steps is None:
        raise CapExceeded(
            f"more than {RATE_STEP_CAP} ratio-bounded steps needed to reach "
            f"{format_rational(config.theta)} at gamma = "
            f"{format_rational(config.gamma)}"
        )
    try:
        log_bound = math.log(2 * float(config.theta)) / math.log(float(growth))
    except (ArithmeticError, ValueError):  # a float overflowed, or rounded to 0 or 1
        try:
            log_bound = float(_ln(2 * config.theta) / _ln(growth))
        except OverflowError:
            raise CapExceeded(
                "the logarithmic bound ln(2*theta)/ln(1+gamma) is beyond the float range"
            ) from None
    return TestimonyCountBound(
        steps=steps,
        log_bound=log_bound,
        poi_violated=config.theta <= HALF,
    )


def _least_reaching_power(growth: Fraction, target: Fraction) -> int | None:
    """Least m with growth^m >= target, for growth > 1; None past RATE_STEP_CAP.

    m is estimated from logarithms and then confirmed exactly on the
    integers of growth^m: one power near the estimate, then a
    multiplication (or exact division) per step to the least m.  A long
    gamma thus costs one power instead of m Fraction multiplications,
    each with a gcd on ever longer numbers.
    """
    if target <= 1:
        return 0
    # (1+gamma)^m <= e^(m*gamma) and ln(2*theta) >= (2*theta-1)/(2*theta), so
    # when the cap times gamma falls short of the latter, no m within the cap
    # reaches theta: refuse at once
    if RATE_STEP_CAP * (growth - 1) < (target - 1) / target:
        return None
    # ln(2*theta)/ln(1+gamma) to float precision, so within a step of m
    estimate = float(_ln(target) / _ln(growth))
    if estimate > RATE_STEP_CAP + 1:
        return None
    g_num, g_den = growth.numerator, growth.denominator
    t_num, t_den = target.numerator, target.denominator
    steps = min(max(math.ceil(estimate) - 1, 0), RATE_STEP_CAP)
    num, den = g_num**steps, g_den**steps  # growth^steps
    while steps > 0 and num * t_den >= den * t_num:
        steps -= 1
        num //= g_num
        den //= g_den
    while num * t_den < den * t_num:
        if steps == RATE_STEP_CAP:
            return None
        steps += 1
        num *= g_num
        den *= g_den
    return steps


def _ln(q: Fraction) -> Fraction:
    """ln q for a positive rational q, to float precision, even where float(q) is 0, 1 or inf."""
    x = q - 1
    if abs(x) < Fraction(1, 2**60):
        return x  # ln(1+x) = x(1 - x/2 + ...), which is x to float precision
    if abs(x) < HALF:
        return Fraction(math.log1p(x))
    return Fraction(math.log(q.numerator) - math.log(q.denominator))


@dataclass(frozen=True)
class RatioBoundedPrior:
    """A convicting prior whose posterior chain respects the ratio bound.

    ``posteriors[k]`` is the guilt posterior after the first k
    testimonies, read from ``charge``'s masses by suffix sums (index 0
    is the prior);
    ``chain[k-1]`` is the k-th cumulative heard-event.
    """

    catalog: TestimonyCatalog
    config: RateBoundConfig
    charge: Charge
    chain: tuple[frozenset, ...]
    posteriors: tuple[Fraction, ...]

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(
            after / before
            for before, after in zip(self.posteriors, self.posteriors[1:])
        )

    def within_bound(self) -> bool:
        """Every successive posterior ratio within [1/(1+gamma), 1+gamma]."""
        growth = 1 + self.config.gamma
        return all(1 / growth <= r <= growth for r in self.ratios)

    def convicts(self) -> bool:
        return self.posteriors[-1] >= self.config.theta


def build_ratio_bounded_convicting_prior(
    catalog: TestimonyCatalog, config: RateBoundConfig
) -> RatioBoundedPrior:
    """Drive the guilt posterior from 1/2 to theta under the ratio bound.

    Starting from the two-atom guilt algebra with even odds, adjoin the
    nested heard-events one testimony at a time, each time prescribing
    the guilt posterior at the largest bound-respecting value.  Every
    prescription and every preserved earlier value is exact.
    """
    from .charges import Charge
    from .worlds import heard_prefix_chain

    count = min_convicting_testimony_count(config)
    if len(catalog) < count.steps:
        raise CatalogTooSmall(
            f"need at least {count.steps} testimonies to reach "
            f"{format_rational(config.theta)} under the ratio bound; "
            f"catalog has {len(catalog)}"
        )
    # The prior is what the chain of
    #     charge.extend_conditional(guilt, H_k, theta_k, strict=False)
    # for k = 1..m builds from the even-odds guilt algebra, written in
    # closed form.  H_k = heard_event(catalog, Transcript(range(k))) nests
    # inside H_{k-1} (H_0 is the world space), so before step k the atoms
    # are G and I intersected with each layer H_{j-1} - H_j (j < k), which
    # H_k misses, and the two tails G & H_{k-1} and I & H_{k-1}, with
    # masses t_G and t_I, which H_k cuts.  No atom lies inside H_k, so the
    # forced masses in_e and in_c are 0 and _conditional_scale gives
    #     s = min(t_G / theta_k, t_I / (1 - theta_k)) / 2.
    # greedy_fill then fills the cut tails with theta_k * s and
    # (1 - theta_k) * s, each at most half the tail, and layer H_{k-1} - H_k
    # keeps the rest.  The atoms in canonical order are the layers in
    # turn, guilty part first, then the tails of H_m (``heard_prefix_chain``
    # reads each as a stride slice of the world space); the posterior trail
    # is read back from these masses by suffix sums, not measured.
    growth = 1 + config.gamma
    masses: list[Fraction] = []
    tail_g = tail_i = target = HALF
    for _ in range(count.steps):
        target = min(target * growth, config.theta)
        scale = min(tail_g / target, tail_i / (1 - target)) / 2
        inside_g, inside_i = target * scale, (1 - target) * scale
        masses += (tail_g - inside_g, tail_i - inside_i)
        tail_g, tail_i = inside_g, inside_i
    masses += (tail_g, tail_i)

    chain, algebra = heard_prefix_chain(catalog, count.steps)
    charge = Charge(algebra, tuple(masses))

    # H_k is the union of atoms 2k onward, so P(G & H_k) and P(H_k) are
    # the suffix sums of masses[2k::2] and masses[2k:].  H_k holds the
    # tails of H_m, theta_m * s and (1 - theta_m) * s with s > 0, so
    # P(H_k) > 0: no conditioning event is null, and ZeroConditioningEvent
    # cannot arise here.
    trail: list[Fraction] = []
    guilty = heard_mass = Fraction(0)
    for k in range(2 * count.steps, -1, -2):
        guilty += masses[k]
        heard_mass += masses[k] + masses[k + 1]
        trail.append(guilty / heard_mass)
    return RatioBoundedPrior(
        catalog=catalog,
        config=config,
        charge=charge,
        chain=chain,
        posteriors=tuple(reversed(trail)),
    )
