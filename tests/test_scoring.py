"""Belief scoring, the threshold optimizer and its oracle, verdict utilities."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from jurybayes import scoring
from jurybayes.charges import Charge
from jurybayes.errors import CapExceeded, DegenerateUtilities, NotExpressible, OutOfRange
from jurybayes.scoring import (
    ATTITUDE_ORDER,
    Attitude,
    DoxasticState,
    PropositionPair,
    ScoreWeights,
    UtilityQuadruple,
    _valuations,
    brute_force_optimal,
    expected_score,
    expected_verdict_utilities,
    optimal_doxastic_state,
    score,
    verdict_threshold,
)
from jurybayes.worlds import (
    TestimonyCatalog,
    Transcript,
    atoms_of_generated_algebra,
    full_world_space,
    guilt_event,
    heard_event,
    powerset_algebra,
)

from conftest import (
    charge_by_atom,
    oracle_brute_force_optimal,
    oracle_optimal_doxastic_state,
    random_masses,
    random_rational,
)


def one_pair_setup(p: F):
    """A single pair over two worlds with P(positive) = p."""
    ground = (0, 1)
    algebra = powerset_algebra(ground)
    charge = Charge(algebra, (p, 1 - p))
    pair = PropositionPair("s", {0}, ground)
    return charge, pair


def state(pair_list, *attitudes):
    return DoxasticState(tuple(pair_list), tuple(attitudes))


class TestScore:
    def test_no_beliefs_score_zero(self):
        _, pair = one_pair_setup(F(1, 2))
        weights = ScoreWeights(2, 5)
        assert score(state([pair], Attitude.SUSPEND), 0, weights) == 0

    def test_true_belief_earns_the_reward(self):
        _, pair = one_pair_setup(F(1, 2))
        weights = ScoreWeights(2, 5)
        assert score(state([pair], Attitude.BELIEVE_POSITIVE), 0, weights) == 2
        assert score(state([pair], Attitude.BELIEVE_NEGATIVE), 1, weights) == 2

    def test_false_belief_pays_the_penalty(self):
        _, pair = one_pair_setup(F(1, 2))
        weights = ScoreWeights(2, 5)
        assert score(state([pair], Attitude.BELIEVE_POSITIVE), 1, weights) == -5

    def test_world_must_belong_to_the_pair_ground(self):
        _, pair = one_pair_setup(F(1, 2))
        with pytest.raises(ValueError):
            score(state([pair], Attitude.SUSPEND), 7, ScoreWeights(1, 1))


class TestExpectedScore:
    def test_single_belief_closed_form(self):
        p = F(4, 7)
        charge, pair = one_pair_setup(p)
        weights = ScoreWeights(F(2), F(3))
        value = expected_score(state([pair], Attitude.BELIEVE_POSITIVE), charge, weights)
        assert value == p * 2 - (1 - p) * 3

    def test_at_the_threshold_belief_matches_suspension(self):
        weights = ScoreWeights(1, 3)
        charge, pair = one_pair_setup(weights.belief_threshold)
        believe = expected_score(state([pair], Attitude.BELIEVE_POSITIVE), charge, weights)
        suspend = expected_score(state([pair], Attitude.SUSPEND), charge, weights)
        assert believe == suspend == 0

    def test_matches_worldwise_summation_oracle(self, rng):
        ground = tuple(range(4))
        algebra = powerset_algebra(ground)
        pairs = (
            PropositionPair("a", {0, 1}, ground),
            PropositionPair("b", {0, 2}, ground),
        )
        weights = ScoreWeights(F(5, 2), F(7, 3))
        for _ in range(20):
            charge = Charge(algebra, random_masses(rng, 4))
            attitudes = tuple(
                rng.choice(list(Attitude)) for _ in pairs
            )
            d = DoxasticState(pairs, attitudes)
            oracle = sum(
                (charge.measure({w}) * score(d, w, weights) for w in ground),
                start=F(0),
            )
            assert expected_score(d, charge, weights) == oracle


class TestOptimalState:
    def test_weights_one_three_threshold(self):
        assert ScoreWeights(1, 3).belief_threshold == F(3, 4)

    def test_clear_belief_case(self):
        charge, pair = one_pair_setup(F(4, 5))
        choice = optimal_doxastic_state(charge, [pair], ScoreWeights(1, 3))
        assert choice.state.attitudes == (Attitude.BELIEVE_POSITIVE,)
        assert choice.tied_pairs == ()
        assert choice.state in brute_force_optimal(charge, [pair], ScoreWeights(1, 3))

    def test_exact_threshold_ties_and_both_maximize(self):
        weights = ScoreWeights(1, 3)
        charge, pair = one_pair_setup(F(3, 4))
        choice = optimal_doxastic_state(charge, [pair], weights)
        assert choice.tied_pairs == (pair.name,)
        assert choice.state.attitudes == (Attitude.BELIEVE_POSITIVE,)  # tie -> believe
        maximizers = brute_force_optimal(charge, [pair], weights)
        attitudes = {s.attitudes[0] for s in maximizers}
        assert attitudes == {Attitude.BELIEVE_POSITIVE, Attitude.SUSPEND}

    def test_suspension_wins_between_the_thresholds(self):
        weights = ScoreWeights(1, 3)  # believe above 3/4, disbelieve below 1/4
        charge, pair = one_pair_setup(F(1, 2))
        choice = optimal_doxastic_state(charge, [pair], weights)
        assert choice.state.attitudes == (Attitude.SUSPEND,)
        assert brute_force_optimal(charge, [pair], weights) == (choice.state,)

    def test_generous_reward_believes_the_likelier_side(self):
        # threshold 1/4 < 1/2: both sides clear it, likelier side wins
        weights = ScoreWeights(3, 1)
        charge, pair = one_pair_setup(F(2, 5))
        choice = optimal_doxastic_state(charge, [pair], weights)
        assert choice.state.attitudes == (Attitude.BELIEVE_NEGATIVE,)
        assert brute_force_optimal(charge, [pair], weights) == (choice.state,)

    def test_independent_pairs_multiply_maximizer_counts(self, rng):
        ground = tuple(itertools.product((0, 1), repeat=2))
        algebra = powerset_algebra(ground)
        p, q = F(4, 5), F(3, 4)  # second pair sits exactly at the threshold
        masses = {
            frozenset({(a, b)}): (p if a == 0 else 1 - p) * (q if b == 0 else 1 - q)
            for a, b in ground
        }
        charge = charge_by_atom(algebra, masses)
        pairs = (
            PropositionPair("first", {w for w in ground if w[0] == 0}, ground),
            PropositionPair("second", {w for w in ground if w[1] == 0}, ground),
        )
        weights = ScoreWeights(1, 3)
        maximizers = brute_force_optimal(charge, pairs, weights)
        per_pair_counts = []
        for pair in pairs:
            marginal = charge.measure(pair.positive)
            sub_charge, sub_pair = one_pair_setup(marginal)
            per_pair_counts.append(len(brute_force_optimal(sub_charge, [sub_pair], weights)))
        assert len(maximizers) == per_pair_counts[0] * per_pair_counts[1] == 2
        choice = optimal_doxastic_state(charge, pairs, weights)
        assert choice.state in maximizers
        assert choice.tied_pairs == ("second",)

    def test_closed_form_matches_oracle_randomized(self, rng):
        ground = tuple(range(4))
        algebra = powerset_algebra(ground)
        pairs = (
            PropositionPair("a", {0, 1}, ground),
            PropositionPair("b", {0, 2}, ground),
        )
        for _ in range(25):
            charge = Charge(algebra, random_masses(rng, 4))
            weights = ScoreWeights(
                random_rational(rng, F(1, 10), F(5), max_denominator=12),
                random_rational(rng, F(1, 10), F(5), max_denominator=12),
            )
            maximizers = brute_force_optimal(charge, pairs, weights)
            choice = optimal_doxastic_state(charge, pairs, weights)
            assert choice.state in maximizers
            if not choice.tied_pairs:
                assert maximizers == (choice.state,)

    def test_pair_cap(self):
        ground = (0, 1)
        algebra = powerset_algebra(ground)
        charge = Charge(algebra, (F(1, 2), F(1, 2)))
        pairs = [
            PropositionPair(f"p{i}", {0}, ground) for i in range(17)
        ]
        with pytest.raises(CapExceeded):
            brute_force_optimal(charge, pairs, ScoreWeights(1, 1))

    def test_maximizer_cap_counts_the_final_ties(self, monkeypatch):
        # the first pair strictly prefers suspension (p=1/2); each of three
        # more ties believing its positive side with suspending (p=3/4,
        # R=1, W=3).  The answer has 2^3 = 8 maximizers, but while the first
        # pair is believed either way, the running list reaches 16
        ground = tuple(itertools.product((0, 1), repeat=4))
        chances = (F(1, 2), F(3, 4), F(3, 4), F(3, 4))
        masses = {
            frozenset({w}): math.prod(p if bit == 0 else 1 - p for p, bit in zip(chances, w))
            for w in ground
        }
        charge = charge_by_atom(powerset_algebra(ground), masses)
        pairs = [
            PropositionPair(f"p{i}", {w for w in ground if w[i] == 0}, ground) for i in range(4)
        ]
        weights = ScoreWeights(1, 3)
        monkeypatch.setattr(scoring, "BRUTE_FORCE_MAXIMIZER_CAP", 8)
        maximizers = brute_force_optimal(charge, pairs, weights)
        assert len(maximizers) == 8
        assert all(s.attitudes[0] is Attitude.SUSPEND for s in maximizers)
        assert maximizers == oracle_brute_force_optimal(charge, pairs, weights)
        monkeypatch.setattr(scoring, "BRUTE_FORCE_MAXIMIZER_CAP", 7)
        with pytest.raises(CapExceeded) as got:
            brute_force_optimal(charge, pairs, weights)
        assert str(got.value) == (
            "brute force over 4 pairs has more than 7 maximizers, the cap on what it returns"
        )


def outcome(fn, *args):
    """A call's result, or its error class and message."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def coarse_algebra(rng: random.Random):
    """A catalog of 1-6 testimonies, coarsened by guilt and 0-2 heard events."""
    catalog = TestimonyCatalog(tuple(f"t{i}" for i in range(rng.randrange(1, 7))))
    generators = [guilt_event(catalog)] + [
        heard_event(catalog, Transcript({rng.randrange(len(catalog))}))
        for _ in range(rng.randrange(3))
    ]
    return atoms_of_generated_algebra(full_world_space(catalog), generators)


def powerset_case_algebra(rng: random.Random):
    """The powerset of 2-5 plain points or of a 1-2 testimony world space."""
    if rng.random() < 0.5:
        return powerset_algebra(tuple(range(rng.randrange(2, 6))))
    return powerset_algebra(full_world_space(TestimonyCatalog(("a", "b")[: rng.randrange(1, 3)])))


def scoring_case(rng: random.Random, algebra):
    """Charge, k in 0..5 pairs of atom unions, and weights; in half the
    cases one side of the first pair measures exactly W/(R+W)."""
    atoms = algebra.atoms
    ground = algebra.ground_set
    weights = ScoreWeights(
        random_rational(rng, F(1, 10), F(5), max_denominator=9),
        random_rational(rng, F(1, 10), F(5), max_denominator=9),
    )
    k = rng.randrange(6)
    pairs = []
    for i in range(k):
        trivial = rng.random() < 0.05
        while True:
            chosen = [a for a in atoms if rng.random() < 0.5]
            positive = frozenset().union(*chosen)
            if trivial or positive not in (frozenset(), ground):
                break
        pairs.append(PropositionPair(f"p{i}", positive, ground, allow_trivial=trivial))
    masses = dict(zip(atoms, random_masses(rng, len(atoms))))
    if pairs and rng.random() < 0.5:
        side = pairs[0].positive if rng.random() < 0.5 else pairs[0].negative
        inside = [a for a in atoms if a <= side]
        outside = [a for a in atoms if not a <= side]
        if inside and outside:
            t = weights.belief_threshold
            for part, total in ((inside, t), (outside, 1 - t)):
                for atom, m in zip(part, random_masses(rng, len(part))):
                    masses[atom] = m * total
    charge = Charge(algebra, tuple(masses[a] for a in atoms))
    return charge, tuple(pairs), weights


class TestBruteForceAgainstOracle:
    """Per-pair values against the per-state enumeration kept in conftest."""

    def test_same_maximizers_in_the_same_order(self):
        rng = random.Random(9)
        cases = [coarse_algebra] * 240 + [powerset_case_algebra] * 120
        ties = 0
        for make_algebra in cases:
            charge, pairs, weights = scoring_case(rng, make_algebra(rng))
            maximizers = brute_force_optimal(charge, pairs, weights)
            assert maximizers == oracle_brute_force_optimal(charge, pairs, weights)
            ties += len(maximizers) > 1
        assert ties >= 60

    def test_same_errors(self):
        rng = random.Random(10)
        algebra = coarse_algebra(rng)
        while len(algebra.atoms) < 2:
            algebra = coarse_algebra(rng)
        ground = algebra.ground_set
        charge = Charge(algebra, random_masses(rng, len(algebra.atoms)))
        fine = PropositionPair("fine", algebra.atoms[0], ground)
        cut = PropositionPair("cut", {min(algebra.atoms[1])}, ground)
        elsewhere = PropositionPair("elsewhere", {0}, (0, 1))
        weights = ScoreWeights(2, 3)
        # brute force checks the cap and then the names before it measures;
        # the closed form measures first and checks the names last
        for pairs, error, closed_form_error in (
            ((fine, cut), NotExpressible, NotExpressible),
            ((fine, cut, fine), ValueError, NotExpressible),
            ((fine, elsewhere), ValueError, ValueError),
            ((fine,) * 17, CapExceeded, ValueError),
        ):
            got = outcome(brute_force_optimal, charge, pairs, weights)
            assert got == outcome(oracle_brute_force_optimal, charge, pairs, weights)
            assert got[0] is error
            got = outcome(optimal_doxastic_state, charge, pairs, weights)
            assert got == outcome(oracle_optimal_doxastic_state, charge, pairs, weights)
            assert got[0] is closed_form_error

    def test_rows_are_the_exact_scores_times_one_positive_factor(self):
        rng = random.Random(14)
        denominators = set()
        for make_algebra in [coarse_algebra] * 60 + [powerset_case_algebra] * 30:
            charge, pairs, weights = scoring_case(rng, make_algebra(rng))
            factors = set()
            for pair, row in zip(pairs, _valuations(charge, pairs, weights)):
                for attitude, value in zip(ATTITUDE_ORDER, row):
                    exact = expected_score(DoxasticState((pair,), (attitude,)), charge, weights)
                    assert (value == 0) == (exact == 0)
                    if exact:
                        factors.add(value / exact)
            assert len(factors) <= 1 and all(f > 0 for f in factors)
            denominators.add(len({charge.measure(p.positive).denominator for p in pairs}))
        assert max(denominators) > 1  # rows over different denominators were scaled

    def test_each_pair_is_measured_once(self, monkeypatch):
        rng = random.Random(11)
        algebra = coarse_algebra(rng)
        while len(algebra.atoms) < 4:
            algebra = coarse_algebra(rng)
        ground = algebra.ground_set
        charge = Charge(algebra, random_masses(rng, len(algebra.atoms)))
        pairs = [
            PropositionPair(f"p{i}", algebra.atoms[i % 4], ground) for i in range(5)
        ]
        calls = []
        measure = Charge.measure
        monkeypatch.setattr(
            Charge, "measure", lambda self, event: calls.append(event) or measure(self, event)
        )
        for fn in (brute_force_optimal, optimal_doxastic_state):
            fn(charge, pairs, ScoreWeights(1, 3))
            assert calls == [pair.positive for pair in pairs]
            calls.clear()
        oracle_brute_force_optimal(charge, pairs, ScoreWeights(1, 3))
        assert len(calls) == 2 * 5 * 3**4  # each believed side of each state


class TestClosedFormAgainstOracle:
    """The closed form on integer rows against its Fraction body kept in conftest."""

    def test_same_choice_and_ties(self):
        rng = random.Random(12)
        cases = [coarse_algebra] * 240 + [powerset_case_algebra] * 120
        ties = 0
        for make_algebra in cases:
            charge, pairs, weights = scoring_case(rng, make_algebra(rng))
            choice = optimal_doxastic_state(charge, pairs, weights)
            assert choice == oracle_optimal_doxastic_state(charge, pairs, weights)
            ties += bool(choice.tied_pairs)
        assert ties >= 60

    def test_coprime_weights_wide_masses_trivial_pairs_and_no_pairs(self):
        rng = random.Random(13)
        algebra = powerset_algebra(tuple(range(4)))
        ground = algebra.ground_set
        pairs = (
            PropositionPair("a", {0, 1}, ground),
            PropositionPair("b", {0, 2}, ground),
            PropositionPair("ground", ground, ground, allow_trivial=True),
            PropositionPair("empty", (), ground, allow_trivial=True),
        )
        weights = (
            ScoreWeights(F(7, 9), F(5, 8)),  # threshold 45/101
            ScoreWeights(F(5, 8), F(7, 9)),  # threshold 56/101
            ScoreWeights(F(2**61 - 1, 3**37), F(5**25, 2**59 + 1)),
        )
        ties = 0
        for i in range(120):
            weight = weights[i % 3]
            den = rng.getrandbits(60) | 1 << 59  # masses over ~60-bit denominators
            if i % 2:
                # the first pair's positive side {0, 1} where it ties: at the
                # threshold, or at 1/2 when the threshold is below 1/2
                t = max(weight.belief_threshold, F(1, 2))
                u, v = F(rng.randrange(den + 1), den), F(rng.randrange(den + 1), den)
                masses = [t * u, t * (1 - u), (1 - t) * v, (1 - t) * (1 - v)]
            else:
                cuts = sorted(rng.randrange(den + 1) for _ in range(3))
                masses = [F(hi - lo, den) for lo, hi in zip([0] + cuts, cuts + [den])]
            charge = Charge(algebra, tuple(masses))
            chosen = rng.sample(pairs, rng.randrange(len(pairs) + 1))
            choice = optimal_doxastic_state(charge, chosen, weight)
            assert choice == oracle_optimal_doxastic_state(charge, chosen, weight)
            assert choice.state in brute_force_optimal(charge, chosen, weight)
            assert brute_force_optimal(charge, chosen, weight) == oracle_brute_force_optimal(
                charge, chosen, weight
            )
            ties += bool(choice.tied_pairs)
        assert ties >= 20
        empty = optimal_doxastic_state(charge, (), weights[0])
        assert empty == oracle_optimal_doxastic_state(charge, (), weights[0])
        assert empty.state.attitudes == () and empty.tied_pairs == ()
        assert brute_force_optimal(charge, (), weights[0]) == (empty.state,)


def test_a_state_built_from_lists_keeps_its_own_tuples():
    _, pair = one_pair_setup(F(1, 2))
    pairs, attitudes = [pair], [Attitude.SUSPEND]
    built = DoxasticState(pairs, attitudes)
    attitudes[0] = Attitude.BELIEVE_POSITIVE
    twin = DoxasticState((pair,), (Attitude.SUSPEND,))
    assert (built.pairs, built.attitudes) == (twin.pairs, twin.attitudes)
    assert built == twin and hash(built) == hash(twin)


class TestDoxasticState:
    def test_completeness(self):
        _, pair = one_pair_setup(F(1, 2))
        assert state([pair], Attitude.BELIEVE_NEGATIVE).is_complete
        assert not state([pair], Attitude.SUSPEND).is_complete

    def test_trivial_pairs_need_opt_in(self):
        with pytest.raises(ValueError):
            PropositionPair("taut", {0, 1}, {0, 1})
        taut = PropositionPair("taut", {0, 1}, {0, 1}, allow_trivial=True)
        assert score(
            DoxasticState((taut,), (Attitude.BELIEVE_POSITIVE,)), 0, ScoreWeights(2, 1)
        ) == 2

    def test_pairs_stay_on_their_world_set(self):
        with pytest.raises(ValueError, match="exceeds its world set"):
            PropositionPair("p", {0, 5}, {0, 1})
        _, pair = one_pair_setup(F(1, 2))
        assert pair.holds_at(0) and not pair.holds_at(1)
        with pytest.raises(ValueError, match="outside pair 's'"):
            pair.holds_at(7)

    def test_state_shape_validated(self):
        _, pair = one_pair_setup(F(1, 2))
        other = PropositionPair("t", {1}, (0, 1))
        elsewhere = PropositionPair("t", {1}, (1, 2))
        with pytest.raises(ValueError, match="one attitude per pair"):
            state([pair, other], Attitude.SUSPEND)
        with pytest.raises(ValueError, match="names must be distinct"):
            state([pair, pair], Attitude.SUSPEND, Attitude.SUSPEND)
        with pytest.raises(ValueError, match="share one world set"):
            state([pair, elsewhere], Attitude.SUSPEND, Attitude.SUSPEND)

    def test_pairs_must_live_on_the_charges_world_set(self):
        charge, _ = one_pair_setup(F(1, 2))
        elsewhere = PropositionPair("t", {1}, (1, 2))
        weights = ScoreWeights(1, 1)
        for scorer in (
            lambda: expected_score(state([elsewhere], Attitude.SUSPEND), charge, weights),
            lambda: optimal_doxastic_state(charge, [elsewhere], weights),
            lambda: brute_force_optimal(charge, [elsewhere], weights),
        ):
            with pytest.raises(ValueError, match="different world set"):
                scorer()

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            ScoreWeights(0, 1)
        with pytest.raises(ValueError):
            ScoreWeights(1, F(-1, 2))


class TestVerdictThreshold:
    def test_posner_style_quadruple(self):
        quadruple = UtilityQuadruple(1, -9, 0, 0)
        assert verdict_threshold(quadruple) == F(9, 10)

    def test_belief_weight_embedding(self, rng):
        for _ in range(20):
            weights = ScoreWeights(
                random_rational(rng, F(1, 10), F(6), max_denominator=15),
                random_rational(rng, F(1, 10), F(6), max_denominator=15),
            )
            quadruple = UtilityQuadruple.from_belief_weights(weights)
            assert verdict_threshold(quadruple) == weights.belief_threshold

    def test_symmetric_utilities_give_even_odds(self):
        assert verdict_threshold(UtilityQuadruple(2, -1, -1, 2)) == F(1, 2)

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(DegenerateUtilities):
            verdict_threshold(UtilityQuadruple(1, 0, 1, 0))

    def test_affine_invariance(self, rng):
        base = UtilityQuadruple(5, -3, F(1, 2), 2)
        reference = verdict_threshold(base)
        for _ in range(10):
            shift = random_rational(rng, F(-3), F(3), max_denominator=9)
            scale = random_rational(rng, F(1, 5), F(4), max_denominator=9)
            transformed = UtilityQuadruple(
                scale * base.convict_guilty + shift,
                scale * base.convict_innocent + shift,
                scale * base.acquit_guilty + shift,
                scale * base.acquit_innocent + shift,
            )
            assert verdict_threshold(transformed) == reference

    def test_threshold_is_the_crossover(self):
        quadruple = UtilityQuadruple(3, -5, -1, 2)
        t = verdict_threshold(quadruple)
        convict_at_t, acquit_at_t = expected_verdict_utilities(quadruple, t)
        assert convict_at_t == acquit_at_t
        for k in range(0, 21):
            p = F(k, 20)
            convict, acquit = expected_verdict_utilities(quadruple, p)
            assert (convict >= acquit) == (p >= t)


class TestExpectedVerdictUtilities:
    def test_certain_guilt(self):
        quadruple = UtilityQuadruple(3, -5, -1, 2)
        assert expected_verdict_utilities(quadruple, 1) == (F(3), F(-1))

    def test_certain_innocence(self):
        quadruple = UtilityQuadruple(3, -5, -1, 2)
        assert expected_verdict_utilities(quadruple, 0) == (F(-5), F(2))

    def test_probability_domain(self):
        with pytest.raises(OutOfRange):
            expected_verdict_utilities(UtilityQuadruple(1, 0, 0, 1), F(3, 2))
