"""Constraint analyses: uniform suspect pools, the blood-type sample
space, odds-form updating and relevance, and ratio-bounded convergence
to conviction.

Each analysis is an executable construction with exact rational output;
nothing here estimates real-world likelihoods.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, AbstractSet

import jurybayes as jb

from .errors import (
    CapExceeded,
    CatalogTooSmall,
    DegeneratePrior,
    EmptyMatchWithMatchingDefendant,
    NonpositiveRatio,
    OutOfRange,
    UndefinedRatio,
)
from .rationals import (
    HALF, Frozen, RationalLike, _require_int, _theta_in, as_rational, as_rational_fields,
    exact_decimal, format_rational,
)

# The odds and rate-bound analyses need no world machinery, so the two
# builders that do reach charges and worlds through the package, which
# loads them on first use; these imports serve annotations only.
if TYPE_CHECKING:
    from .charges import Charge
    from .worlds import BooleanSubalgebra, TestimonyCatalog


# ---------------------------------------------------------------------------
# Odds-form updating.


class Odds(Frozen):
    """Odds "a to b" with strictly positive exact components."""

    in_favor: Fraction
    against: Fraction

    def __init__(self, in_favor: Fraction, against: Fraction) -> None:
        as_rational_fields(self, in_favor, against)
        if self.in_favor <= 0 or self.against <= 0:
            raise NonpositiveRatio(
                "odds components must be strictly positive, got "
                f"{format_rational(self.in_favor)}:{format_rational(self.against)}"
            )

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


class SuspectPool(Frozen):
    """A uniform prior of guilt over a pool, with a matching subgroup.

    ``matching_count`` is the number of pool members fitting the
    witnessed description; ``defendant_matches`` says whether the
    defendant is among them.
    """

    size: int
    matching_count: int
    defendant_matches: bool

    def __init__(self, size: int, matching_count: int, defendant_matches: bool) -> None:
        vars(self).update(
            size=size, matching_count=matching_count, defendant_matches=defendant_matches
        )
        _require_int(size, "size")
        _require_int(matching_count, "matching_count")
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


class FallibleWitnessReport(Frozen):
    """A fallible description rules nobody out: the update is vacuous."""

    prior: Fraction
    posterior: Fraction
    event_size: int
    degenerate_update: bool

    def __init__(
        self, prior: Fraction, posterior: Fraction, event_size: int, degenerate_update: bool
    ) -> None:
        vars(self).update(prior=prior, posterior=posterior, event_size=event_size,
                          degenerate_update=degenerate_update)


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


class SpannSpace(Frozen):
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

    def __init__(
        self, ground: tuple[tuple[str, str, bool], ...], algebra: BooleanSubalgebra,
        charge: Charge, paternity: frozenset, alibi_example: frozenset,
    ) -> None:
        vars(self).update(ground=ground, algebra=algebra, charge=charge, paternity=paternity,
                          alibi_example=alibi_example)


def build_spann_space() -> SpannSpace:
    ground = tuple(
        (father, child, paternity)
        for father in BLOOD_TYPES
        for child in BLOOD_TYPES
        for paternity in (True, False)
    )
    paternity = frozenset(point for point in ground if point[2])
    algebra = jb.worlds.atoms_of_generated_algebra(ground, [paternity])
    # each atom's mass is its share of the ground's points
    charge = jb.charges.Charge(algebra, tuple(Fraction(len(a), len(ground)) for a in algebra.atoms))
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


class LikelihoodRatios(Frozen):
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

    def __init__(
        self, standard: Fraction, impact: Fraction, relevant: bool, impact_ceiling: Fraction
    ) -> None:
        vars(self).update(standard=standard, impact=impact, relevant=relevant,
                          impact_ceiling=impact_ceiling)


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


class RateBoundConfig(Frozen):
    """A per-testimony posterior-ratio bound 1+gamma and a verdict threshold."""

    gamma: Fraction
    theta: Fraction

    def __init__(self, gamma: Fraction, theta: Fraction) -> None:
        as_rational_fields(self, gamma, theta)
        if self.gamma <= 0:
            raise OutOfRange(f"gamma must be strictly positive, got {format_rational(self.gamma)}")
        _theta_in(self.theta, "theta must lie strictly between 0 and 1", 0)


class TestimonyCountBound(Frozen):
    """How many ratio-bounded testimonies reach the threshold.

    ``steps`` is the least m with (1/2)(1+gamma)^m >= theta, ties
    convicting, confirmed by exact powering; the ratio-bounded build takes
    its m from the same search.  ``log_bound`` is the strict-inequality
    logarithmic form, reported for comparison only (float, display
    precision; past the float range of gamma or theta it is computed from
    the rationals, and one beyond every float raises CapExceeded, so
    ``rate`` exits 10; the build never computes it).  ``poi_violated``
    flags theta <= 1/2, where the prior alone already meets the threshold.
    """

    steps: int
    log_bound: float
    poi_violated: bool

    def __init__(self, steps: int, log_bound: float, poi_violated: bool) -> None:
        vars(self).update(steps=steps, log_bound=log_bound, poi_violated=poi_violated)


#: Exact powering grows denominators linearly with the step count; a
#: near-zero gamma would demand astronomically long rationals, so counts
#: beyond this ceiling are refused rather than computed.
RATE_STEP_CAP = 4096


def min_convicting_testimony_count(config: RateBoundConfig) -> TestimonyCountBound:
    """Least m such that (1/2)(1+gamma)^m reaches theta, by the exact
    search the build shares, with the display-only ``log_bound``."""
    steps = _least_steps(config)
    try:
        log_bound = math.log(2 * float(config.theta)) / math.log(float(1 + config.gamma))
    except (ArithmeticError, ValueError):  # a float overflowed, or rounded to 0 or 1
        gamma, theta = config.gamma, config.theta
        try:
            log_bound = float(
                Fraction(_ln(2 * theta.numerator, theta.denominator))
                / Fraction(_ln(gamma.numerator + gamma.denominator, gamma.denominator))
            )
        except OverflowError:
            raise CapExceeded(
                "the logarithmic bound ln(2*theta)/ln(1+gamma) is beyond the float range"
            ) from None
    return TestimonyCountBound(
        steps=steps,
        log_bound=log_bound,
        poi_violated=config.theta <= HALF,
    )


def _least_steps(config: RateBoundConfig) -> int:
    """The least m with (1/2)(1+gamma)^m >= theta, ties convicting; CapExceeded
    past RATE_STEP_CAP.  The one search behind both ``rate`` and the build.

    It works on the integers of 1+gamma = g_num/g_den and 2*theta =
    t_num/t_den.  m is estimated from logarithms and then confirmed
    exactly on the integers of (1+gamma)^m: one power near the estimate,
    then a multiplication (or exact division) per step to the least m.
    A long gamma thus costs one power instead of m Fraction
    multiplications, each with a gcd on ever longer numbers.
    """
    gamma, theta = config.gamma, config.theta
    g_num, g_den = gamma.numerator + gamma.denominator, gamma.denominator
    t_num, t_den = 2 * theta.numerator, theta.denominator
    if t_num <= t_den:
        return 0
    # (1+gamma)^m <= e^(m*gamma) and ln(2*theta) >= (2*theta-1)/(2*theta), so
    # when the cap times gamma falls short of the latter, no m within the cap
    # reaches theta: refuse at once.  Past that refusal gamma >= 2^-73 whenever
    # 2*theta - 1 >= 2^-60, so the estimate divides by no float zero; it is
    # ln(2*theta)/ln(1+gamma) to float precision, so within a step of m
    if (
        RATE_STEP_CAP * gamma.numerator * t_num >= g_den * (t_num - t_den)
        and (estimate := _ln(t_num, t_den) / _ln(g_num, g_den)) <= RATE_STEP_CAP + 1
    ):
        steps = max(math.ceil(estimate) - 1, 0)
        num, den = g_num**steps, g_den**steps  # (1+gamma)^steps
        while steps > 0 and num * t_den >= den * t_num:
            steps -= 1
            num //= g_num
            den //= g_den
        while num * t_den < den * t_num and steps < RATE_STEP_CAP:
            steps += 1
            num *= g_num
            den *= g_den
        if num * t_den >= den * t_num:
            return steps
    raise CapExceeded(
        f"more than {RATE_STEP_CAP} ratio-bounded steps needed to reach "
        f"{format_rational(theta)} at gamma = {format_rational(gamma)}"
    )


def _ln(num: int, den: int) -> float | Fraction:
    """ln(num/den) for positive integers, to float precision, even where
    num/den is no float; within 2^-60 of 1 it is the exact x of
    num/den = 1 + x, a Fraction, since ln(1+x) = x(1 - x/2 + ...)."""
    diff = num - den
    if abs(diff) << 60 < den:
        return Fraction(diff, den)
    if 2 * abs(diff) < den:
        return math.log1p(diff / den)
    return math.log(num) - math.log(den)


class RatioBoundedPrior(Frozen):
    """A convicting prior whose posterior chain respects the ratio bound.

    ``posteriors[k]`` is the guilt posterior after the first k
    testimonies (index 0 is the prior).  The charge is built so that the
    guilt posterior on the k-th heard-event is the k-th target
    min((1/2)(1+gamma)^k, theta), so the trail is the targets themselves,
    not read back from the masses.
    """

    catalog: TestimonyCatalog
    config: RateBoundConfig
    charge: Charge
    posteriors: tuple[Fraction, ...]

    def __init__(
        self, catalog: TestimonyCatalog, config: RateBoundConfig, charge: Charge,
        posteriors: tuple[Fraction, ...],
    ) -> None:
        vars(self).update(catalog=catalog, config=config, charge=charge, posteriors=posteriors)

    @property
    def chain(self) -> tuple[frozenset, ...]:
        """(H_1, ..., H_m): ``chain[k-1]`` is the k-th cumulative heard-event,
        ``heard_event(catalog, Transcript(range(k)))``, for m = len(posteriors) - 1.

        H_k holds the masks whose k low bits are set, i.e. the world codes
        s - 2 and s - 1 modulo s = 2^(k+1): two stride slices of the
        catalog's world tuple, so no atom and no union is built."""
        ws = jb.worlds.full_world_space(self.catalog)
        strides = (2 << k for k in range(1, len(self.posteriors)))
        return tuple(frozenset(ws[s - 2 :: s] + ws[s - 1 :: s]) for s in strides)

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
    steps = _least_steps(config)  # past RATE_STEP_CAP this raises before the catalog is read
    if steps > len(catalog):
        raise CatalogTooSmall(
            f"need at least {steps} testimonies to reach "
            f"{format_rational(config.theta)} under the ratio bound; "
            f"catalog has {len(catalog)}"
        )
    # the targets t_0..t_m as (numerator, denominator) pairs: t_k = (1/2)(1+gamma)^k
    # below theta for k < m, one product of integers from the last, and t_m = theta
    g_den = config.gamma.denominator
    g_num = config.gamma.numerator + g_den
    targets = [(1, 2)]
    for _ in range(1, steps):
        num, den = targets[-1]
        targets.append((num * g_num, den * g_den))
    if steps:
        targets.append(config.theta.as_integer_ratio())
    # The prior is what the chain of
    #     charge.extend_conditional(guilt, H_k, t_k, strict=False)
    # for k = 1..m builds from the even-odds guilt algebra, written in
    # closed form.  H_k = heard_event(catalog, Transcript(range(k))) nests
    # inside H_{k-1} (H_0 is the world space), so before step k the atoms
    # are G and I intersected with each layer H_{j-1} - H_j (j < k), which
    # H_k misses, and the two tails G & H_{k-1} and I & H_{k-1}, with
    # masses g_{k-1} and i_{k-1}, which H_k cuts.  No atom lies inside H_k,
    # so the forced masses in_e and in_c are 0 and the per-side rule of
    # extend_conditional gives s the midpoint of [0, min(g_{k-1} / t_k,
    # i_{k-1} / (1 - t_k))], that is
    #     s = min(g_{k-1} / t_k, i_{k-1} / (1 - t_k)) / 2,
    # and greedy_fill gives H_k the tails g_k = t_k * s and
    # i_k = (1 - t_k) * s.  By induction P(G | H_{k-1}) = t_{k-1} <= t_k,
    # so g_{k-1} / t_k <= i_{k-1} / (1 - t_k): the guilty side sets s, and
    #     g_k = g_{k-1} / 2 = 2^-(k+1),
    #     i_k = 2^-(k+1) (1 - t_k) / t_k,
    #     P(G | H_k) = t_k.
    # Layer H_{k-1} - H_k keeps the rest: 2^-(k+1) guilty and
    # i_{k-1} - i_k innocent, which i_k <= i_{k-1} / 2 keeps positive.  The
    # atoms in canonical order are the layers in turn, guilty part first,
    # then the tails of H_m (``heard_prefix_algebra`` reads each as a stride
    # slice of the world space), so H_k is the union of atoms 2k onward;
    # ``chain`` slices each H_k from the world tuple.  Every mass is written
    # on integers and made a Fraction once; the trail is the targets.
    masses: list[Fraction] = []
    tail_num, tail_den = 1, 2  # i_0 = 1/2
    for k, (t_num, t_den) in enumerate(targets[1:], 1):
        num, den = t_den - t_num, t_num << (k + 1)  # i_k
        masses += (Fraction(1, 2 << k), Fraction(tail_num * den - num * tail_den, tail_den * den))
        tail_num, tail_den = num, den
    masses += (Fraction(1, 2 << steps), Fraction(tail_num, tail_den))
    return RatioBoundedPrior(
        catalog=catalog,
        config=config,
        charge=jb.charges.Charge(jb.worlds.heard_prefix_algebra(catalog, steps), tuple(masses)),
        posteriors=tuple(Fraction(n, d) for n, d in targets),
    )

