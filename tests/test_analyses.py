"""Suspect pools, the blood-type space, odds updating, and rate bounds."""

import math
from fractions import Fraction as F

import pytest

import conftest
from jurybayes import analyses, worlds
from jurybayes.analyses import (
    BLOOD_TYPES,
    HALF,
    RATE_STEP_CAP,
    Odds,
    RateBoundConfig,
    SuspectPool,
    build_ratio_bounded_convicting_prior,
    build_spann_space,
    certain_witness_posterior,
    fallible_witness_event,
    likelihood_ratio,
    min_convicting_testimony_count,
    posterior_odds,
    uniform_guilt_prior,
)
from jurybayes.charges import Charge
from jurybayes.dispositions import guilt_prior, posner_even_odds_prior
from jurybayes.errors import (
    CapExceeded,
    CatalogTooSmall,
    DegeneratePrior,
    EmptyMatchWithMatchingDefendant,
    NonpositiveRatio,
    UndefinedRatio,
)
from jurybayes.rationals import format_rational
from jurybayes.worlds import (
    TestimonyCatalog,
    Transcript,
    atoms_of_generated_algebra,
    guilt_event,
    heard_event,
    is_expressible,
    powerset_algebra,
)

from conftest import (
    oracle_min_convicting_steps,
    oracle_ratio_bounded_prior,
    oracle_ratio_bounded_trail,
    charge_by_atom,
    random_charge,
    random_partition,
    uniform_charge,
)


class TestOdds:
    def test_probability(self):
        odds = Odds(1, 2)
        assert (odds.in_favor, odds.against) == (F(1), F(2))
        assert odds.probability == F(1, 3)

    def test_posner_shooting_example(self):
        assert posterior_odds(Odds(1, 2), 8).display() == "4:1"

    def test_preponderance_counterexample(self):
        updated = posterior_odds(Odds(1, 10), 8)
        assert (updated.in_favor, updated.against) == (F(1), F(5, 4))
        assert updated.display() == "1:1.25"

    def test_unit_ratio_changes_nothing(self):
        updated = posterior_odds(Odds(3, 7), 1)
        assert updated.probability == Odds(3, 7).probability

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(NonpositiveRatio):
            posterior_odds(Odds(1, 2), 0)
        with pytest.raises(NonpositiveRatio):
            posterior_odds(Odds(1, 2), F(-1, 2))

    def test_components_must_be_positive(self):
        with pytest.raises(ValueError):
            Odds(0, 1)

    def test_agrees_with_charge_level_bayes(self):
        # realize P(H) = 1/3, P(E|H) = 4/5, P(E|not H) = 1/10 on four atoms
        ground = ("he", "hn", "ce", "cn")
        algebra = powerset_algebra(ground)
        hypothesis = frozenset({"he", "hn"})
        evidence = frozenset({"he", "ce"})
        charge = charge_by_atom(
            algebra,
            {
                frozenset({"he"}): F(1, 3) * F(4, 5),
                frozenset({"hn"}): F(1, 3) * F(1, 5),
                frozenset({"ce"}): F(2, 3) * F(1, 10),
                frozenset({"cn"}): F(2, 3) * F(9, 10),
            },
        )
        ratios = likelihood_ratio(charge, evidence, hypothesis)
        assert ratios.standard == 8
        posterior = charge.conditional(hypothesis, evidence).value
        via_odds = posterior_odds(Odds(1, 2), ratios.standard)
        assert via_odds.probability == posterior == F(4, 5)
        # and the quoted 1:2 prior gives exactly 4:1
        assert via_odds.display() == "4:1"


class TestSuspectPool:
    def test_uniform_prior(self):
        assert uniform_guilt_prior(SuspectPool(1, 1, True)) == 1
        assert uniform_guilt_prior(SuspectPool(2, 1, True)) == F(1, 2)
        assert uniform_guilt_prior(SuspectPool(1_600_000, 5, True)) == F(1, 1_600_000)

    def test_certain_witness(self):
        assert certain_witness_posterior(SuspectPool(100, 10, False)) == 0
        assert certain_witness_posterior(SuspectPool(100, 10, True)) == F(1, 10)
        pool = SuspectPool(50, 50, True)
        assert certain_witness_posterior(pool) == uniform_guilt_prior(pool)

    def test_inconsistent_pool_rejected(self):
        with pytest.raises(EmptyMatchWithMatchingDefendant):
            certain_witness_posterior(SuspectPool(10, 0, True))
        with pytest.raises(ValueError):
            SuspectPool(0, 0, False)
        with pytest.raises(ValueError):
            SuspectPool(3, 4, False)

    def test_sizes_must_be_ints(self):
        # a float or bool would otherwise fail later inside Fraction, or count as 1
        for bad in (10.0, True, 2.5, "10"):
            with pytest.raises(TypeError, match=rf"^size must be an int, got {bad!r}$"):
                SuspectPool(bad, 2, True)
            with pytest.raises(TypeError, match=rf"^matching_count must be an int, got {bad!r}$"):
                SuspectPool(10, bad, True)
        with pytest.raises(ValueError, match="^pool must have at least one member$"):
            SuspectPool(0, 0, False)
        with pytest.raises(ValueError, match="^matching count must lie between 0 and the pool size$"):
            SuspectPool(3, 4, False)

    def test_fallible_witness_degenerates(self):
        report = fallible_witness_event(SuspectPool(2, 1, True))
        assert report.prior == report.posterior == F(1, 2)
        assert report.degenerate_update
        assert report.event_size == 2

    def test_fallible_witness_matches_conditioning_on_everything(self):
        algebra = powerset_algebra(tuple(range(5)))
        uniform = uniform_charge(algebra)
        assert uniform.condition(algebra.ground_set) == uniform


class TestSpannSpace:
    def test_size_and_prior(self):
        space = build_spann_space()
        assert len(space.ground) == 8 * 8 * 2 == 128
        assert len(space.paternity) == 64
        assert space.charge.measure(space.paternity) == F(1, 2)
        assert len(BLOOD_TYPES) == 8

    def test_alibi_event_not_expressible(self):
        space = build_spann_space()
        assert space.alibi_example < space.paternity
        assert space.alibi_example
        assert not is_expressible(space.alibi_example, space.algebra)
        # while the algebra's own cells of course are
        assert is_expressible(space.paternity, space.algebra)

    def test_any_strict_nonempty_paternity_subset_is_inexpressible(self):
        space = build_spann_space()
        some = frozenset(list(space.paternity)[:7])
        assert not is_expressible(some, space.algebra)


class TestLikelihoodRatio:
    def test_independent_evidence_is_irrelevant(self):
        ground = tuple(range(4))
        algebra = powerset_algebra(ground)
        charge = charge_by_atom(
            algebra,
            {
                frozenset({0}): F(1, 3) * F(1, 4),
                frozenset({1}): F(1, 3) * F(3, 4),
                frozenset({2}): F(2, 3) * F(1, 4),
                frozenset({3}): F(2, 3) * F(3, 4),
            },
        )
        ratios = likelihood_ratio(charge, frozenset({0, 2}), frozenset({0, 1}))
        assert ratios.standard == 1
        assert not ratios.relevant

    def test_relevance_iff_probabilistic_dependence(self, rng):
        ground = tuple(range(6))
        for _ in range(40):
            algebra = atoms_of_generated_algebra(
                ground, random_partition(rng, ground)
            )
            charge = random_charge(rng, algebra)
            atoms = list(algebra.atoms)
            hyp = frozenset().union(*(a for a in atoms if rng.random() < 0.5))
            evt = frozenset().union(*(a for a in atoms if rng.random() < 0.5))
            if not 0 < charge.measure(hyp) < 1:
                continue
            complement = algebra.ground_set - hyp
            if charge.measure(evt & complement) == 0:
                continue
            ratios = likelihood_ratio(charge, evt, hyp)
            independent = charge.measure(evt & hyp) == charge.measure(
                evt
            ) * charge.measure(hyp)
            assert ratios.relevant == (not independent)

    def test_impact_variant_bounded_by_inverse_prior(self, rng):
        ground = tuple(range(6))
        checked = 0
        for _ in range(60):
            algebra = atoms_of_generated_algebra(
                ground, random_partition(rng, ground)
            )
            charge = random_charge(rng, algebra)
            atoms = list(algebra.atoms)
            hyp = frozenset().union(*(a for a in atoms if rng.random() < 0.5))
            evt = frozenset().union(*(a for a in atoms if rng.random() < 0.5))
            if not 0 < charge.measure(hyp) < 1:
                continue
            if charge.measure(evt & (algebra.ground_set - hyp)) == 0:
                continue
            ratios = likelihood_ratio(charge, evt, hyp)
            assert ratios.impact <= ratios.impact_ceiling == 1 / charge.measure(hyp)
            checked += 1
        assert checked >= 10

    def test_degenerate_hypothesis_rejected(self):
        algebra = powerset_algebra((0, 1))
        charge = Charge(algebra, (F(1), F(0)))
        with pytest.raises(DegeneratePrior):
            likelihood_ratio(charge, frozenset({0}), frozenset({0}))

    def test_zero_denominator_rejected(self):
        algebra = powerset_algebra((0, 1, 2, 3))
        charge = Charge(algebra, (F(1, 2), F(1, 4), F(0), F(1, 4)))
        with pytest.raises(UndefinedRatio):
            likelihood_ratio(charge, frozenset({0, 2}), frozenset({0, 1}))

    def test_logically_independent_evidence_can_go_either_way(self):
        # adjoin a splitter with target equal to the prior: irrelevant;
        # with any other target: relevant
        algebra = atoms_of_generated_algebra(tuple(range(6)), [{0, 1, 2}])
        charge = charge_by_atom(
            algebra,
            {frozenset({0, 1, 2}): F(1, 3), frozenset({3, 4, 5}): F(2, 3)},
        )
        hyp = frozenset({0, 1, 2})
        splitter = frozenset({1, 4})
        neutral = charge.extend_conditional(hyp, splitter, charge.measure(hyp))
        assert not likelihood_ratio(neutral, splitter, hyp).relevant
        tilted = charge.extend_conditional(hyp, splitter, F(2, 3))
        assert likelihood_ratio(tilted, splitter, hyp).relevant


def step_loop_configs(rng) -> list[RateBoundConfig]:
    """Rates and thresholds on which the count is checked against the step
    loop: the goldens' and the cap's, exact hits and random ones."""
    configs = [
        ("1/12288", "3/4"),  # the step loop runs the whole cap and refuses
        ("1/2", "3/4"),  # rate_half_threequarters.json
        ("1/10", "3/4"),  # rate_build_tenth.json
        ("1/4096", "3/4"),
        ("1/5000", "3/4"),
        ("1/2", "99/100"),
    ]
    # thresholds hit exactly by (1/2)(1+gamma)^m, and just either side
    for gamma, m in ((F(1, 2), 1), (F(1, 4), 2), (F(1, 10), 3), (F(1, 100), 50)):
        level = HALF * (1 + gamma) ** m
        for theta in (level, level - F(1, 10**60), level + F(1, 10**60)):
            configs.append((gamma, theta))
    # at the cap's edge: (1/2)(1+1/10000)^m is 0.753017 at m = 4095,
    # 0.753092 at m = 4096 = RATE_STEP_CAP, and 0.753167 at m = 4097
    configs += [("1/10000", "0.75305"), ("1/10000", "0.75313")]
    for _ in range(200):
        gamma = F(rng.randrange(1, 200), rng.randrange(1, 3000))
        theta = F(rng.randrange(1, 1000), 1000)
        configs.append((gamma, theta))
    return [RateBoundConfig(gamma, theta) for gamma, theta in configs]


def count_outcome(count, config):
    """What ``count(config)`` returns, or the class and message of the
    CapExceeded it raises."""
    try:
        return count(config)
    except CapExceeded as exc:
        return CapExceeded, str(exc)


def build_outcome(catalog, config):
    """The masses and trail of the built prior, or the class and message of
    the error the build raises."""
    try:
        built = build_ratio_bounded_convicting_prior(catalog, config)
    except (CapExceeded, CatalogTooSmall) as exc:
        return type(exc), str(exc)
    return built.charge.masses, built.posteriors


class TestTestimonyCountBound:
    def test_quoted_configurations(self):
        assert min_convicting_testimony_count(RateBoundConfig(F(1, 2), F(3, 4))).steps == 1
        assert min_convicting_testimony_count(RateBoundConfig(F(1), F(3, 4))).steps == 1
        assert min_convicting_testimony_count(RateBoundConfig(F(1, 10), F(3, 4))).steps == 5

    def test_threshold_already_met_without_testimony(self):
        bound = min_convicting_testimony_count(RateBoundConfig(F(1, 2), F(1, 2)))
        assert bound.steps == 0
        assert bound.poi_violated

    def test_defining_property_exactly(self, rng):
        for _ in range(40):
            gamma = F(rng.randrange(1, 30), rng.randrange(1, 30))
            theta = F(rng.randrange(1, 20), 20)
            if not 0 < theta < 1:
                continue
            config = RateBoundConfig(gamma, theta)
            m = min_convicting_testimony_count(config).steps
            assert F(1, 2) * (1 + gamma) ** m >= theta
            if m > 0:
                assert F(1, 2) * (1 + gamma) ** (m - 1) < theta

    def test_monotone_in_both_parameters(self):
        thetas = [F(k, 16) for k in range(9, 16)]
        gammas = [F(1, k) for k in range(1, 9)]
        for theta in thetas:
            steps = [
                min_convicting_testimony_count(RateBoundConfig(g, theta)).steps
                for g in sorted(gammas)
            ]
            assert steps == sorted(steps, reverse=True)  # nonincreasing in gamma
        for gamma in gammas:
            steps = [
                min_convicting_testimony_count(RateBoundConfig(gamma, t)).steps
                for t in sorted(thetas)
            ]
            assert steps == sorted(steps)  # nondecreasing in theta

    def test_log_bound_reported_for_comparison(self):
        bound = min_convicting_testimony_count(RateBoundConfig(F(1, 10), F(3, 4)))
        assert bound.log_bound == pytest.approx(math.log(1.5) / math.log(1.1))
        assert bound.steps == math.ceil(bound.log_bound)

    def test_log_bound_keeps_the_float_formula_where_it_is_finite(self, rng):
        for _ in range(40):
            gamma = F(rng.randrange(1, 30), rng.randrange(1, 30))
            theta = F(rng.randrange(1, 20), 20)
            bound = min_convicting_testimony_count(RateBoundConfig(gamma, theta))
            formula = math.log(2 * float(theta)) / math.log(float(1 + gamma))
            assert bound.log_bound.hex() == formula.hex()

    @pytest.mark.parametrize(
        "gamma,theta,expected",
        [
            # float(1 + gamma) and float(2 * theta) both round to 1.0
            (F(1, 10**300), HALF + F(1, 10**401), 2e-101),
            (F(10**400), F(3, 4), math.log(1.5) / (400 * math.log(10))),  # 1 + gamma overflows
            (F(1, 2), F(1, 10**400), (math.log(2) - 400 * math.log(10)) / math.log(1.5)),
            (F(1, 10**40), HALF, 0.0),
        ],
    )
    def test_log_bound_past_the_float_range(self, gamma, theta, expected):
        bound = min_convicting_testimony_count(RateBoundConfig(gamma, theta))
        assert bound.log_bound == pytest.approx(expected, rel=1e-12)

    def test_log_bound_beyond_every_float_is_refused(self):
        with pytest.raises(CapExceeded, match="beyond the float range"):
            min_convicting_testimony_count(RateBoundConfig(F(1, 10**400), F(1, 10**400)))

    def test_hopeless_inputs_are_refused_like_the_capped_loop(self):
        # refused at once when RATE_STEP_CAP * gamma < (2 theta - 1) / (2 theta);
        # exact powering confirms that no count within the cap reaches theta there
        for theta in (HALF + F(1, 10**6), F(3, 4), F(999, 1000)):
            edge = (2 * theta - 1) / (2 * theta) / RATE_STEP_CAP
            for gamma in (edge * F(999, 1000), edge / 10**6):
                assert HALF * (1 + gamma) ** RATE_STEP_CAP < theta
                with pytest.raises(CapExceeded, match=f"more than {RATE_STEP_CAP} ratio"):
                    min_convicting_testimony_count(RateBoundConfig(gamma, theta))
            # above the edge the test admits the input, and the loop decides it
            assert min_convicting_testimony_count(RateBoundConfig(edge * 2, theta)).steps

    def test_matches_the_step_loop_oracle(self, rng):
        outcomes = set()
        for config in step_loop_configs(rng):
            got = count_outcome(lambda c: min_convicting_testimony_count(c).steps, config)
            assert got == count_outcome(oracle_min_convicting_steps, config), config
            outcomes.add(got[0] if isinstance(got, tuple) else min(got, 2))
        assert outcomes == {CapExceeded, 0, 1, 2}
        at_cap = RateBoundConfig("1/10000", "0.75305")
        assert min_convicting_testimony_count(at_cap).steps == RATE_STEP_CAP

    @pytest.mark.parametrize("skew", [F(1, 2), F(9, 10), F(11, 10), F(3, 2)])
    def test_the_estimate_only_sets_where_the_exact_search_starts(self, monkeypatch, skew):
        # a skewed ln(2*theta) moves the estimate by up to half of m; the count
        # and the build share the search, and both still land on the least m
        exact_ln = analyses._ln
        for gamma, theta in ((F(1, 100), F(3, 4)), (F(1, 10), F(9, 10)), (F(1, 2), F(3, 4))):
            config = RateBoundConfig(gamma, theta)
            steps = oracle_min_convicting_steps(config)  # 41, 7 and 1
            catalog = TestimonyCatalog(tuple(f"t{i}" for i in range(min(steps, 12))))
            unskewed = build_outcome(catalog, config)
            target = (2 * theta.numerator, theta.denominator)  # 3/4 reads as 6/4, not 1 + gamma
            skewed: list = []

            def skewed_ln(num, den, target=target, skewed=skewed):
                if (num, den) != target:
                    return exact_ln(num, den)
                skewed.append(target)
                return exact_ln(num, den) * skew

            with monkeypatch.context() as patch:
                patch.setattr(analyses, "_ln", skewed_ln)
                assert min_convicting_testimony_count(config).steps == steps
                assert skewed == [target]
                assert build_outcome(catalog, config) == unskewed
                assert skewed == [target] * 2
            if steps > 12:
                assert unskewed[0] is CatalogTooSmall
                assert unskewed[1].startswith(f"need at least {steps} testimonies")

    def test_ln_at_the_edges_of_its_three_forms(self):
        def ln(num, den):
            value = analyses._ln(num, den)
            return type(value), value

        # |x| = 1/2 takes the two logarithms; just inside it takes log1p
        assert ln(3, 2) == (float, math.log(3) - math.log(2))
        assert ln(1, 2) == (float, -math.log(2))
        assert ln(3 * 2**60 - 1, 2**61) == (float, math.log1p((2**60 - 1) / 2**61))
        assert ln(2**60 + 1, 2**61) == (float, math.log1p(-(2**60 - 1) / 2**61))
        # |x| = 2^-60 takes log1p; just below it, x itself, exactly
        for sign in (1, -1):
            assert ln(2**60 + sign, 2**60) == (float, math.log1p(sign * 2.0**-60))
            assert ln(2**61 + sign, 2**61) == (F, F(sign, 2**61))
            assert ln(2**90 + sign * (2**30 - 1), 2**90) == (F, F(sign * (2**30 - 1), 2**90))
        assert ln(10**400 + 1, 10**400) == (F, F(1, 10**400))

    def test_matches_the_step_loop_oracle_at_the_edges_of_the_integer_ln(self, monkeypatch):
        edge = F(1, 2**60)
        configs = [(HALF, F(3, 4)), (HALF, F(1, 4))]  # 1 + gamma = 3/2, 2*theta = 6/4 and 1/2
        for x in (edge - F(1, 2**90), edge, edge + F(1, 2**90)):
            # 1 + gamma at the edge, and 2*theta too at one step
            for m in (1, 3):
                level = HALF * (1 + x) ** m
                configs += [(x, level), (x, level - F(1, 10**60)), (x, level + F(1, 10**60))]
            # 2*theta = 1 + x, reached in about 1, 2 and 5 steps
            configs += [(gamma, (1 + x) / 2) for gamma in (x, x / 2 + F(1, 2**125), x / 5)]
        # an unreduced 2*theta: 3/4 is read as 6/4
        configs += [(gamma, F(3, 4)) for gamma in (F(1, 3), F(1, 10), F(1, 1000), F(5, 7))]
        # gamma just below 2^-60 with theta within 2^-49 of 1/2: ln(1+gamma) is
        # exact and ln(2*theta) a float; 1/2 + 2^-49 is refused at once
        gamma = edge - F(1, 2**100)
        for offset in (F(1, 2**49), F(1, 2**50), F(1, 2**55), F(1, 2**61), -F(1, 2**49)):
            configs.append((gamma, HALF + offset))
        configs.append((F(1, 10**400), HALF + F(1, 10**401)))
        calls: list = []
        ln = analyses._ln
        monkeypatch.setattr(analyses, "_ln", lambda num, den: calls.append((num, den)) or ln(num, den))
        outcomes = set()
        for gamma, theta in configs:
            config = RateBoundConfig(gamma, theta)
            got = count_outcome(lambda c: min_convicting_testimony_count(c).steps, config)
            assert got == count_outcome(oracle_min_convicting_steps, config), (gamma, theta)
            outcomes.add(got[0] if isinstance(got, tuple) else min(got, 2))
        assert outcomes == {CapExceeded, 0, 1, 2}
        assert calls[:2] == [(6, 4), (3, 2)]  # 2*theta and 1 + gamma of the first config

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RateBoundConfig(F(0), F(3, 4))
        with pytest.raises(ValueError):
            RateBoundConfig(F(1, 2), F(1))


def count_heard_events(patch: pytest.MonkeyPatch) -> list:
    """Record every ``heard_event`` call made through the worlds module or
    the test oracles."""
    calls: list = []
    heard_event = worlds.heard_event

    def counting(*args):
        calls.append(args)
        return heard_event(*args)

    patch.setattr(worlds, "heard_event", counting)
    patch.setattr(conftest, "heard_event", counting)
    return calls


class TestRatioBoundedPrior:
    @pytest.fixture(autouse=True)
    def build_reads_no_count(self, monkeypatch):
        """The build takes m from the search it shares with the count,
        never from ``min_convicting_testimony_count`` itself."""

        def refuse(config):
            raise AssertionError("the build called min_convicting_testimony_count")

        monkeypatch.setattr(analyses, "min_convicting_testimony_count", refuse)

    def catalog(self, n: int) -> TestimonyCatalog:
        return TestimonyCatalog(tuple(f"t{i}" for i in range(n)))

    def test_build_and_count_agree_on_the_step_count(self, rng):
        # m testimonies build, m - 1 are too few, and the error names m
        built = 0
        for config in step_loop_configs(rng):
            steps = count_outcome(lambda c: min_convicting_testimony_count(c).steps, config)
            if isinstance(steps, tuple) or steps > 12:
                continue
            prior = build_ratio_bounded_convicting_prior(self.catalog(steps), config)
            assert len(prior.posteriors) == steps + 1 and prior.convicts()
            if steps:
                with pytest.raises(CatalogTooSmall) as info:
                    build_ratio_bounded_convicting_prior(self.catalog(steps - 1), config)
                assert str(info.value) == (
                    f"need at least {steps} testimonies to reach {format_rational(config.theta)} "
                    f"under the ratio bound; catalog has {steps - 1}"
                )
            built += 1
        assert built > 100

    def test_one_step_chain(self):
        built = build_ratio_bounded_convicting_prior(
            self.catalog(2), RateBoundConfig(F(1, 2), F(3, 4))
        )
        assert built.posteriors == (F(1, 2), F(3, 4))
        assert built.within_bound()
        assert built.convicts()

    def test_small_slack_needs_five_steps(self):
        catalog = self.catalog(5)
        built = build_ratio_bounded_convicting_prior(
            catalog, RateBoundConfig(F(1, 10), F(3, 4))
        )
        assert len(built.chain) == 5
        growth = F(11, 10)
        # every step multiplies by exactly 1+gamma until capped at theta
        expected = [F(1, 2)]
        for _ in range(5):
            expected.append(min(expected[-1] * growth, F(3, 4)))
        assert list(built.posteriors) == expected
        assert built.within_bound()
        assert built.convicts()
        assert built.charge.measure(guilt_event(catalog)) == F(1, 2)

    def test_catalog_too_small(self):
        with pytest.raises(CatalogTooSmall):
            build_ratio_bounded_convicting_prior(
                self.catalog(2), RateBoundConfig(F(1, 10), F(3, 4))
            )

    def assert_matches_oracle(self, catalog: TestimonyCatalog, config: RateBoundConfig):
        with pytest.MonkeyPatch.context() as patch:
            heard = count_heard_events(patch)
            built = build_ratio_bounded_convicting_prior(catalog, config)
            chain = built.chain
        assert heard == []  # the atoms are sliced from the world space, the chain read from them
        oracle, oracle_chain = oracle_ratio_bounded_prior(catalog, config)
        assert built.charge.algebra.ground == oracle.charge.algebra.ground
        assert built.charge.algebra.atoms == oracle.charge.algebra.atoms
        assert built.charge.masses == oracle.charge.masses
        assert chain == oracle_chain
        assert built.posteriors == oracle.posteriors
        # the suffix-sum trail equals the trail measured from the built charge
        assert built.posteriors == oracle_ratio_bounded_trail(
            built.charge, chain, guilt_event(catalog)
        )
        # every output is a Fraction in lowest terms
        for value in built.charge.masses + built.posteriors:
            assert type(value) is F and value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1
        return built

    @pytest.mark.parametrize("gamma", [F(1, 10), F(1, 5), F(1, 2), F(1), F(3)])
    def test_closed_form_matches_extension_chain(self, gamma):
        for theta in (F(1, 10), F(1, 2), F(11, 20), F(2, 3), F(3, 4), F(9, 10), F(19, 20)):
            config = RateBoundConfig(gamma, theta)
            steps = min_convicting_testimony_count(config).steps
            for n in (steps, steps + 1, steps + 2):
                built = self.assert_matches_oracle(self.catalog(n), config)
                assert len(built.charge.algebra.atoms) == 2 * (steps + 1)
            if theta <= F(1, 2):
                assert steps == 0 and built.posteriors == (F(1, 2),)
            if gamma >= 1 and theta > F(1, 2):
                assert steps == 1

    def test_closed_form_with_last_target_capped_at_theta(self):
        for gamma, theta in ((F(1, 2), F(2, 3)), (F(1, 3), F(7, 10)), (F(1, 10), F(3, 5))):
            config = RateBoundConfig(gamma, theta)
            steps = min_convicting_testimony_count(config).steps
            assert F(1, 2) * (1 + gamma) ** steps > theta
            for n in (steps, steps + 2):
                built = self.assert_matches_oracle(self.catalog(n), config)
                assert built.posteriors[-1] == theta

    def test_closed_form_on_random_configurations(self, rng):
        checked = 0
        while checked < 40:
            gamma = F(rng.randrange(1, 40), rng.randrange(1, 40))
            theta = F(rng.randrange(1, 50), 50)
            config = RateBoundConfig(gamma, theta)
            steps = min_convicting_testimony_count(config).steps
            if steps > 8:
                continue
            self.assert_matches_oracle(self.catalog(rng.randrange(steps, 9)), config)
            checked += 1

    @pytest.mark.parametrize("gamma, steps", [(F(1, 10), 5), (F(1, 20), 9), (F(1, 25), 11)])
    def test_trail_on_refine_configurations(self, gamma, steps):
        # the rates and threshold the refine benchmark builds, beyond the
        # random test's eight steps
        config = RateBoundConfig(gamma, F(3, 4))
        assert min_convicting_testimony_count(config).steps == steps
        for n in (steps, steps + 1):
            built = self.assert_matches_oracle(self.catalog(n), config)
            assert built.within_bound() and built.convicts()

    def test_trail_when_theta_is_reached_exactly(self):
        # (1/2)(1+gamma)^m == theta: the tie convicts, no target is capped
        for gamma, theta, steps in (
            (F(1, 2), F(3, 4), 1),
            (F(1, 4), F(25, 32), 2),
            (F(1, 10), F(1331, 2000), 3),
        ):
            config = RateBoundConfig(gamma, theta)
            assert min_convicting_testimony_count(config).steps == steps
            for n in (steps, steps + 1):
                built = self.assert_matches_oracle(self.catalog(n), config)
                assert built.posteriors[-1] == theta
                assert built.ratios == (1 + gamma,) * steps

    def test_trail_is_read_without_measuring(self, monkeypatch):
        calls = []
        for name in ("measure", "conditional"):
            method = getattr(Charge, name)
            monkeypatch.setattr(
                Charge,
                name,
                lambda self, *args, _name=name, _method=method: (
                    calls.append(_name) or _method(self, *args)
                ),
            )
        catalog = self.catalog(11)
        built = build_ratio_bounded_convicting_prior(
            catalog, RateBoundConfig(F(1, 25), F(3, 4))
        )
        assert calls == []
        # the counters do see the measured trail: one measure, then one
        # conditional (two measures) per heard-event
        oracle_ratio_bounded_trail(built.charge, built.chain, guilt_event(catalog))
        assert calls.count("conditional") == 11
        assert calls.count("measure") == 1 + 2 * 11

    def test_chain_is_built_without_heard_events(self, monkeypatch):
        heard = count_heard_events(monkeypatch)
        config = RateBoundConfig(F(1, 25), F(3, 4))
        built = build_ratio_bounded_convicting_prior(self.catalog(11), config)
        chain = built.chain
        assert heard == []
        # the counter does see the step-by-step oracle: one heard-event per step
        oracle, oracle_chain = oracle_ratio_bounded_prior(self.catalog(11), config)
        assert len(heard) == 11
        assert chain == oracle_chain
        assert built.charge.algebra.atoms == oracle.charge.algebra.atoms

    @pytest.mark.parametrize(
        "n, gamma, steps", [(5, F(1, 10), 5), (9, F(1, 20), 9), (11, F(1, 25), 11), (12, F(1, 25), 11)]
    )
    def test_chain_is_the_heard_events(self, n, gamma, steps):
        # theta <= 1/2 needs no step; at n=12 there are fewer steps than testimonies
        cat = self.catalog(n)
        for theta in (F(3, 4), F(1, 2), F(2, 5)):
            built = build_ratio_bounded_convicting_prior(cat, RateBoundConfig(gamma, theta))
            m = steps if theta > F(1, 2) else 0
            assert len(built.posteriors) == m + 1
            heard = tuple(heard_event(cat, Transcript(range(k))) for k in range(1, m + 1))
            assert built.chain == heard
            # H_k is the union of the charge's atoms 2k onward
            atoms = built.charge.algebra.atoms
            assert heard == tuple(frozenset().union(*atoms[2 * k :]) for k in range(1, m + 1))

    def test_build_does_no_fraction_arithmetic(self, monkeypatch):
        """Masses and trail are worked out on integers: each output is one
        ``Fraction(n, d)``, and no Fraction is added, subtracted,
        multiplied or divided."""
        calls: list[str] = []
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
            "__pow__", "__rpow__", "__neg__",
        ):
            method = getattr(F, name)
            monkeypatch.setattr(
                F,
                name,
                lambda *args, _name=name, _method=method: calls.append(_name) or _method(*args),
            )
        configs = [RateBoundConfig(gamma, F(3, 4)) for gamma in (F(1, 10), F(1, 20), F(1, 25))]
        configs += [RateBoundConfig(F(1, 2), F(2, 3)), RateBoundConfig(F(1, 4), F(25, 32))]
        for config in configs:
            steps = oracle_min_convicting_steps(config)
            assert calls
            calls.clear()
            built = build_ratio_bounded_convicting_prior(self.catalog(steps), config)
            assert calls == []
            # the counters do see Fraction arithmetic
            assert built.within_bound() and built.convicts() and calls

    def test_closed_form_fails_like_the_extension_chain(self):
        # each message pinned; past the step cap, CapExceeded comes before
        # CatalogTooSmall
        too_small = "need at least {} testimonies to reach 3/4 under the ratio bound; catalog has {}"
        past_cap = "more than 4096 ratio-bounded steps needed to reach 3/4 at gamma = {}"
        for n, gamma, theta, error, message in (
            (2, F(1, 10), F(3, 4), CatalogTooSmall, too_small.format(5, 2)),
            (0, F(1), F(3, 4), CatalogTooSmall, too_small.format(1, 0)),
            # one testimony short on each configuration of the refine benchmark
            (4, F(1, 10), F(3, 4), CatalogTooSmall, too_small.format(5, 4)),
            (8, F(1, 20), F(3, 4), CatalogTooSmall, too_small.format(9, 8)),
            (10, F(1, 25), F(3, 4), CatalogTooSmall, too_small.format(11, 10)),
            (12, F(1, 10**6), F(3, 4), CapExceeded, past_cap.format("1/1000000")),
            (0, F(1, 12288), F(3, 4), CapExceeded, past_cap.format("1/12288")),
        ):
            config = RateBoundConfig(gamma, theta)
            for build in (build_ratio_bounded_convicting_prior, oracle_ratio_bounded_prior):
                with pytest.raises((CatalogTooSmall, CapExceeded)) as info:
                    build(self.catalog(n), config)
                assert (info.type, str(info.value)) == (error, message)

    def test_zero_step_prior_needs_no_float_log_bound(self):
        # ln(2*theta)/ln(1+gamma) is below every float here, so the count refuses;
        # the build needs no step and no logarithm
        config = RateBoundConfig(F(1, 10**400), F(1, 10**400))
        with pytest.raises(CapExceeded, match="beyond the float range"):
            min_convicting_testimony_count(config)
        built = build_ratio_bounded_convicting_prior(self.catalog(3), config)
        oracle, oracle_chain = oracle_ratio_bounded_prior(self.catalog(3), config)
        for prior in (built, oracle):
            assert (prior.charge.masses, prior.posteriors) == ((HALF, HALF), (HALF,))
        assert built.chain == oracle_chain == ()
        assert built.within_bound() and built.convicts()

    def test_confession_needs_no_ratio_bound(self):
        # without the bound a single testimony can carry the verdict
        catalog = self.catalog(1)
        prior = posner_even_odds_prior(catalog, F(3, 4))
        assert guilt_prior(prior, catalog) == F(1, 2)
