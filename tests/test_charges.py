"""Charges: measurement, conditioning, mixtures, and the extension constructions."""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurybayes.charges import Charge, ConditionalResult, fraction_sum, greedy_fill, mix
from jurybayes.errors import (
    AlgebraMismatch,
    DegeneratePrior,
    InvariantViolation,
    JuryBayesError,
    NotExpressible,
    NotIndependent,
    OutOfRange,
    ZeroConditioningEvent,
)
from jurybayes.analyses import build_spann_space
from jurybayes.rationals import as_rational
from jurybayes.worlds import (
    BooleanSubalgebra,
    Guilt,
    TestimonyCatalog,
    Transcript,
    World,
    atoms_of_generated_algebra,
    full_world_space,
    guilt_event,
    heard_event,
    powerset_algebra,
    world_algebra,
)

from conftest import (
    assert_coded_view,
    charge_by_atom,
    oracle_extend,
    oracle_extend_conditional,
    oracle_extend_conditional_by_sides,
    oracle_condition,
    oracle_inner_outer,
    oracle_mass_check,
    oracle_measure,
    random_charge,
    random_masses,
    random_partition,
    random_rational,
    recoded,
    splitting_event,
    uniform_charge,
)


def outcome(operation, *args, **kwargs):
    """The result of an operation, or the class and message of its domain error."""
    try:
        return operation(*args, **kwargs)
    except (JuryBayesError, ValueError) as exc:
        return type(exc), str(exc)


def four_block_algebra():
    return atoms_of_generated_algebra(
        tuple(range(8)), [{0, 1, 2, 3}, {0, 1, 4, 5}]
    )  # atoms {0,1} {2,3} {4,5} {6,7}


def uniform4():
    return uniform_charge(four_block_algebra())


class TestMeasure:
    def test_uniform_on_two_of_four_atoms(self):
        charge = uniform4()
        assert charge.measure({0, 1, 2, 3}) == F(1, 2)

    def test_whole_space_has_measure_one_and_empty_zero(self):
        charge = uniform4()
        assert charge.measure(charge.algebra.ground_set) == 1
        assert charge.measure(set()) == 0

    def test_additive_on_disjoint_events(self, rng):
        for _ in range(25):
            atoms = random_partition(rng, range(6))
            algebra = atoms_of_generated_algebra(tuple(range(6)), atoms)
            charge = random_charge(rng, algebra)
            picks = [a for a in algebra.atoms if rng.random() < 0.5]
            left = frozenset().union(*picks[::2]) if picks[::2] else frozenset()
            right = frozenset().union(*picks[1::2]) if picks[1::2] else frozenset()
            assert charge.measure(left | right) == charge.measure(left) + charge.measure(right)

    def test_unexpressible_event_rejected(self):
        charge = uniform4()
        with pytest.raises(NotExpressible):
            charge.measure({0})
        with pytest.raises(NotExpressible):
            charge.measure({99})

    def test_masses_validated(self):
        algebra = four_block_algebra()
        with pytest.raises(ValueError):
            Charge(algebra, (F(1, 2), F(1, 2), F(1, 2), F(-1, 2)))
        with pytest.raises(ValueError):
            Charge(algebra, (F(1, 2), F(1, 2), F(0), F(1, 2)))
        with pytest.raises(ValueError, match="3 masses for 4 atoms"):
            Charge(algebra, (F(1, 2), F(1, 4), F(1, 4)))

    def test_int_ground_powerset_matches_singleton_generated_algebra(self, rng):
        ground = tuple(range(7))
        fine = powerset_algebra(ground)
        # both sides take the atom loop; an int-ground fast path would fail here untested
        assert not fine.is_world_powerset
        masses = random_masses(rng, 7)
        powerset = Charge(fine, masses)
        generated = charge_by_atom(
            atoms_of_generated_algebra(ground, [{x} for x in ground]),
            {frozenset({i}): m for i, m in enumerate(masses)},
        )
        for _ in range(20):
            event = frozenset(x for x in ground if rng.random() < 0.5)
            assert powerset.measure(event) == generated.measure(event)

    def test_world_powerset_path_matches_shuffled_singletons(self, rng):
        """The same masses on ``world_algebra``'s canonical singletons and on
        shuffled ones measure alike: the first are read by world code through
        ``cover``, the second by its atom loop."""
        for n in range(6):
            cat = TestimonyCatalog(f"t{i}" for i in range(n))
            worlds = full_world_space(cat)
            canonical = world_algebra(cat)
            atoms = list(canonical.atoms)
            while tuple(atoms) == canonical.atoms:
                rng.shuffle(atoms)
            shuffled = BooleanSubalgebra(worlds, tuple(atoms))
            assert canonical.is_world_powerset and not shuffled.is_world_powerset
            masses = random_masses(rng, len(worlds))
            ordered = Charge(canonical, masses)
            reordered = Charge(shuffled, tuple(masses[w] for (w,) in shuffled.atoms))
            # a world of the next catalog size, and an element of no world space
            foreign = (World(Transcript({n}), Guilt.GUILTY), "x")

            def posterior(charge, event):
                return dict(zip(charge.algebra.atoms, charge.condition(event).masses))

            for _ in range(20):
                event = frozenset(w for w in worlds if rng.random() < 0.5)
                given = frozenset(w for w in worlds if rng.random() < 0.5)
                assert ordered.measure(event) == reordered.measure(event)
                assert ordered.inner_outer(event) == reordered.inner_outer(event)
                assert outcome(ordered.conditional, event, given) == outcome(
                    reordered.conditional, event, given
                )
                assert outcome(posterior, ordered, given) == outcome(
                    posterior, reordered, given
                )
                for element in foreign:
                    spoiled = event | {element}
                    expected = outcome(reordered.measure, spoiled)
                    assert expected[0] is NotExpressible
                    assert outcome(ordered.measure, spoiled) == expected
                    assert outcome(ordered.conditional, event, spoiled) == expected
                    assert outcome(ordered.condition, spoiled) == expected


    @pytest.mark.parametrize("n", range(9))
    def test_world_powerset_matches_the_oracles(self, n, rng):
        cat = TestimonyCatalog(f"t{i}" for i in range(n))
        worlds = full_world_space(cat)
        charge = Charge(world_algebra(cat), random_masses(rng, len(worlds)))
        events = [frozenset(), frozenset(worlds), guilt_event(cat)]
        events += [frozenset(w for w in worlds if rng.random() < 0.5) for _ in range(8)]
        for event in events:
            assert charge.measure(event) == oracle_measure(charge, event)
            assert outcome(charge.condition, event) == outcome(oracle_condition, charge, event)
            spoiled = event | {World(Transcript({n}), Guilt.GUILTY)}
            assert outcome(charge.measure, spoiled) == outcome(oracle_measure, charge, spoiled)
            assert outcome(charge.condition, spoiled) == outcome(oracle_condition, charge, spoiled)
            if n <= 2:  # the oracle walks all 2^(2^(n+1)) members
                assert charge.inner_outer(event) == oracle_inner_outer(charge, event)
            else:
                assert charge.inner_outer(event) == (oracle_measure(charge, event),) * 2


class TestCondition:
    def test_condition_on_whole_space_is_identity(self):
        charge = uniform4()
        assert charge.condition(charge.algebra.ground_set) == charge

    def test_uniform_conditioned_on_half(self):
        algebra = atoms_of_generated_algebra(
            (1, 2, 3, 4), [{1}, {2}, {3}]
        )  # singleton atoms 1,2,3,4
        charge = uniform_charge(algebra)
        conditioned = charge.condition({1, 2})
        by_atom = dict(zip(conditioned.algebra.atoms, conditioned.masses))
        assert by_atom[frozenset({1})] == F(1, 2)
        assert by_atom[frozenset({2})] == F(1, 2)
        assert by_atom[frozenset({3})] == 0
        assert by_atom[frozenset({4})] == 0

    def test_null_events_stay_null_after_conditioning(self, rng):
        # a zero-mass event keeps probability zero under any conditioning
        for _ in range(30):
            atoms = random_partition(rng, range(6))
            algebra = atoms_of_generated_algebra(tuple(range(6)), atoms)
            masses = list(random_masses(rng, len(algebra.atoms)))
            dead = rng.randrange(len(masses))
            keep = rng.randrange(len(masses))
            if dead == keep:
                continue
            masses[keep] += masses[dead]
            masses[dead] = F(0)
            charge = Charge(algebra, tuple(masses))
            null_event = algebra.atoms[dead]
            positive = [a for a, m in zip(algebra.atoms, charge.masses) if m > 0]
            conditioning = frozenset().union(*positive) | null_event
            assert charge.measure(null_event) == 0
            assert charge.condition(conditioning).measure(null_event) == 0

    def test_conditioning_yields_probability_one_on_the_event(self, rng):
        charge = random_charge(rng, four_block_algebra())
        event = frozenset(range(4))
        if charge.measure(event) == 0:
            pytest.skip("random charge gave the event zero mass")
        posterior = charge.condition(event)
        assert posterior.measure(event) == 1
        assert sum(posterior.masses) == 1

    def test_zero_conditioning_event_rejected(self):
        algebra = four_block_algebra()
        charge = charge_by_atom(algebra, {algebra.atoms[0]: F(1)})
        with pytest.raises(ZeroConditioningEvent):
            charge.condition(frozenset({4, 5}))

    def test_condition_covers_its_event_once(self, monkeypatch, rng):
        """One ``cover`` call per ``condition``, on a coarse charge and on
        ``world_algebra``, and the same posterior as the oracle."""
        cat = TestimonyCatalog(f"t{i}" for i in range(3))
        worlds = full_world_space(cat)
        coarse = atoms_of_generated_algebra(
            worlds, [guilt_event(cat), heard_event(cat, Transcript({0}))]
        )
        charges = [random_charge(rng, coarse), Charge(world_algebra(cat), random_masses(rng, 16))]
        calls = []
        cover = BooleanSubalgebra.cover
        monkeypatch.setattr(
            BooleanSubalgebra, "cover", lambda self, event: calls.append(event) or cover(self, event)
        )
        for charge in charges:
            for event in (guilt_event(cat), heard_event(cat, Transcript({0})), frozenset(worlds)):
                if not charge.measure(event):
                    continue
                calls.clear()
                posterior = charge.condition(event)
                assert len(calls) == 1
                assert posterior == oracle_condition(charge, event)

    def test_conditional_result_carries_mass(self):
        charge = uniform4()
        result = charge.conditional({0, 1}, {0, 1, 2, 3})
        assert result == ConditionalResult(F(1, 2), F(1, 2))
        with pytest.raises(ZeroConditioningEvent):
            ConditionalResult(F(1, 2), F(0))


def charge_check(algebra, masses):
    try:
        Charge(algebra, masses)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def coded_check(algebra, masses, rng):
    """``charge_check`` through ``Charge._from_codes``: a shuffled palette
    holds each (type, value) of the masses once, beside bad entries no
    atom names, and the codes pick each atom's entry."""
    palette = list({(type(m), m): m for m in masses}.values()) + [None, F(-1), 0.5, "1/2"]
    rng.shuffle(palette)
    code_of = {(type(m), m): code for code, m in enumerate(palette)}
    codes = tuple(code_of[type(m), m] for m in masses)
    try:
        Charge._from_codes(algebra, palette, codes)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


class TestMassValidation:
    """Per-denominator integer sums against a naive Fraction sum."""

    def test_same_error_class_and_message_as_fraction_sum(self, rng):
        algebra = powerset_algebra(tuple(range(6)))
        outcomes = set()
        for _ in range(400):
            masses = list(random_masses(rng, 6))
            kind = rng.randrange(5)
            i = rng.randrange(6)
            if kind == 1:  # negative mass, possibly balanced to keep the sum at one
                masses[i] -= random_rational(rng, F(1, 40), F(1))
                if rng.random() < 0.5:
                    masses[(i + 1) % 6] += 1 - sum(masses)
            elif kind == 2:  # not a Fraction, possibly after a bad mass
                masses[i] = rng.choice((1, 0.5, "1/2", None, True, F(1, 2) + 0j))
                if rng.random() < 0.5:
                    masses[rng.randrange(i + 1)] = F(-1, 3)
            elif kind == 3:  # sum off by a small amount
                masses[i] += F(rng.choice((-1, 1)), rng.randrange(2, 10**6))
                masses[i] = abs(masses[i])
            elif kind == 4:  # many distinct denominators
                weights = [rng.randrange(1, 10**4) for _ in range(6)]
                masses = [F(w, sum(weights) + rng.randrange(0, 2)) for w in weights]
            expected = oracle_mass_check(masses)
            assert charge_check(algebra, tuple(masses)) == expected
            assert coded_check(algebra, masses, rng) == expected
            outcomes.add(None if expected is None else expected[1].split(",")[0])
        assert outcomes == {
            None,
            "atom mass must be Fraction",
            "atom mass must be nonnegative",
            "atom masses must sum to 1",
        }

    def test_bad_masses_anywhere_among_many(self, rng):
        # the first bad mass in order names the error, whichever pass finds it
        algebra = powerset_algebra(tuple(range(128)))
        for _ in range(100):
            masses = list(random_masses(rng, 128))
            for _ in range(rng.randrange(1, 4)):
                bad = rng.choice((F(-1, 7), F(-1, 128), 0.5, "1/128", None, 1))
                masses[rng.randrange(128)] = bad
            assert charge_check(algebra, tuple(masses)) == oracle_mass_check(masses)
            assert coded_check(algebra, masses, rng) == oracle_mass_check(masses)

    def test_coded_masses_are_checked_once_per_code_with_their_counts(self, rng):
        algebra = powerset_algebra(tuple(range(8)))
        # one value named eight times sums to one; an entry no atom names is not checked
        for unused in (None, F(-1), 0.5, "1/8", F(7, 8)):
            charge = Charge._from_codes(algebra, [unused, F(1, 8)], bytes([1] * 8))
            assert charge.masses == (F(1, 8),) * 8
            assert charge == Charge(algebra, (F(1, 8),) * 8)
        # the count weighs the value: seven eighths fall short of one
        with pytest.raises(ValueError, match=r"^atom masses must sum to 1, got 7/8$"):
            Charge._from_codes(algebra, [F(1, 8), F(0)], bytes([0] * 7 + [1]))
        with pytest.raises(ValueError, match=r"^7 masses for 8 atoms$"):
            Charge._from_codes(algebra, [F(1, 7)], bytes(7))
        # the first bad mass in atom order names the error, not the first bad code
        with pytest.raises(TypeError, match=r"got float$"):
            Charge._from_codes(algebra, [F(-1, 8), 0.5, F(1, 8)], (2, 1, 0, 2, 2, 2, 2, 2))


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=50), max_size=12))
    def test_fraction_sum_is_exact(self, values):
        assert fraction_sum(values) == sum(values, F(0))

    def test_fraction_sum_matches_a_naive_sum(self, rng):
        cases = [
            [],
            [F(0)],
            [F(0)] * 5,
            [F(1, 3), F(0), F(-1, 3)],
            [F(k, 12) for k in range(-6, 13)],  # shared denominators, some reduced
            [F(rng.randrange(1, 10**6), 10**6) for _ in range(50)],
            [F(1, 2**k) for k in range(1, 200)],  # distinct powers of two
            [F(1, 2**k) for k in range(1, 200)] * 3,
        ]
        for _ in range(20):
            dens: list[int] = []  # pairwise coprime, 64 bits each
            while len(dens) < 8:
                d = rng.getrandbits(64) | 1 << 63
                if all(math.gcd(d, e) == 1 for e in dens):
                    dens.append(d)
            values = [F(rng.randrange(-(2**64), 2**64), d) for d in dens]
            cases.append(values + values[:3])  # and some denominators repeated
        for values in cases:
            total = fraction_sum(values)
            assert type(total) is F
            assert total == sum(values, F(0))

    def test_distinct_powers_of_two_sum_quickly(self):
        """8,192 masses 1/2, 1/4, ... (a charge file can carry such masses)."""
        values = [F(1, 2**k) for k in range(1, 8193)]
        start = time.perf_counter()
        total = fraction_sum(values)
        elapsed = time.perf_counter() - start
        assert total == 1 - F(1, 2**8192)
        assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_a_charge_built_from_a_list_keeps_its_own_tuple():
    algebra = powerset_algebra(("a", "b"))
    masses = [F(1, 2), F(1, 2)]
    charge = Charge(algebra, masses)
    masses[0] = F(5)
    assert charge.masses == (F(1, 2), F(1, 2))
    assert charge.measure(algebra.ground_set) == 1
    twin = Charge(algebra, (F(1, 2), F(1, 2)))
    assert charge == twin and hash(charge) == hash(twin)
    # a tuple is kept as it is
    assert Charge(algebra, twin.masses).masses is twin.masses


class TestCodedView:
    """``values`` and ``codes`` view the masses coded: a tuple-built
    charge's are its own masses and each atom's own index, and a charge
    built from codes keeps the builder's."""

    def test_tuple_charges_are_their_own_codes(self, rng):
        for n in range(0, 7):
            cat = TestimonyCatalog(tuple(f"t{i}" for i in range(n)))
            worlds = full_world_space(cat)
            coarse = BooleanSubalgebra(worlds, random_partition(rng, worlds))
            for algebra in (world_algebra(cat), coarse):
                weights = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 6))]
                picks = [rng.randrange(len(weights)) for _ in algebra.atoms]
                total = sum(weights[k] for k in picks)
                if total == 0:
                    weights[picks[0]], total = 1, picks.count(picks[0])
                # repeated objects, and each weight as two equal but distinct objects
                twins = [(F(w, total), F(w, total)) for w in weights]
                masses = tuple(rng.choice(twins[k]) for k in picks)
                charge = Charge(algebra, masses)
                assert vars(charge).keys() == {"algebra", "masses", "values", "codes"}
                assert type(charge.codes) is range
                assert_coded_view(charge)
                assert charge.values is masses
                assert list(charge.codes) == list(range(len(masses)))
                assert charge.codes is charge.codes  # stored with the masses

    def test_both_builders_write_the_same_four_names(self):
        algebra = powerset_algebra(tuple(range(4)))
        quarter = F(1, 4)
        built = Charge(algebra, (quarter,) * 4)
        coded = Charge._from_codes(algebra, [quarter], bytes(4))
        for charge in (built, coded):
            assert vars(charge).keys() == {"algebra", "masses", "values", "codes"}
        assert built == coded and repr(built) == repr(coded)

    def test_coded_charges_equal_their_tuple_twins(self, rng):
        for n in range(0, 7):
            cat = TestimonyCatalog(tuple(f"t{i}" for i in range(n)))
            worlds = full_world_space(cat)
            coarse = BooleanSubalgebra(worlds, random_partition(rng, worlds))
            for algebra in (world_algebra(cat), coarse):
                charge = random_charge(rng, algebra)
                coded = recoded(rng, charge)
                assert coded == charge and hash(coded) == hash(charge)
                assert repr(coded) == repr(charge)
                assert_coded_view(coded)
                assert type(coded.codes) in (bytes, tuple)
                # an operation on a coded charge gives the same charge as on the tuple-built one
                event = frozenset(w for w in worlds if rng.random() < 0.5)
                assert outcome(coded.extend, event, coded.inner_outer(event)[0]) == outcome(
                    charge.extend, event, charge.inner_outer(event)[0]
                )

    def test_coded_measure_equals_the_tuple_twin(self, rng):
        for n in range(0, 7):
            cat = TestimonyCatalog(tuple(f"t{i}" for i in range(n)))
            worlds = full_world_space(cat)
            coarse = BooleanSubalgebra(worlds, random_partition(rng, worlds))
            for algebra in (world_algebra(cat), coarse):
                charge = random_charge(rng, algebra)
                coded = recoded(rng, charge)
                for _ in range(6):
                    picks = [atom for atom in algebra.atoms if rng.random() < 0.5]
                    event = frozenset().union(*picks)
                    assert coded.measure(event) == charge.measure(event) == oracle_measure(charge, event)
                    # an event that cuts an atom, or leaves the ground, raises alike
                    for bad in (event ^ {worlds[0]}, event | {"foreign"}):
                        assert outcome(coded.measure, bad) == outcome(charge.measure, bad)

    @pytest.mark.parametrize("literals", [("1/8", "2/16", "0.125", "3/24"), ("1/8",) * 4])
    def test_coded_measure_counts_equal_values_under_every_code(self, rng, literals):
        # equal values parsed from different literals are distinct codes,
        # each counted with its own atoms
        cat = TestimonyCatalog(("t0", "t1"))
        algebra = world_algebra(cat)
        values = [as_rational(text) for text in literals]
        codes = bytes(rng.randrange(4) for _ in algebra.atoms)
        coded = Charge._from_codes(algebra, values, codes)
        twin = Charge(algebra, tuple(F(1, 8) for _ in algebra.atoms))
        worlds = full_world_space(cat)
        for mask in range(1 << len(worlds)):
            event = frozenset(w for w in worlds if mask >> w & 1)
            assert coded.measure(event) == twin.measure(event) == F(len(event), 8)

    def test_coded_measure_reads_each_value_once(self, monkeypatch):
        cat = TestimonyCatalog(tuple(f"t{i}" for i in range(6)))
        algebra = world_algebra(cat)
        # guilty worlds (even codes) take 1/64 and 1/128 in turn, innocent ones 1/256
        values = [F(1, 64), F(1, 128), F(1, 256)]
        codes = bytes([0, 2, 1, 2] * 32)
        coded = Charge._from_codes(algebra, values, codes)
        twin = Charge(algebra, coded.masses)
        read: list = []
        as_integer_ratio = F.as_integer_ratio
        monkeypatch.setattr(F, "as_integer_ratio", lambda self: read.append(self) or as_integer_ratio(self))
        guilt = guilt_event(cat)
        assert coded.measure(guilt) == twin.measure(guilt) == F(3, 4)
        # the coded charge reads its two values, the tuple-built one each of its 64 masses
        assert len(read) == 2 + 64


class TestMix:
    def test_extreme_weights_return_the_parts(self):
        algebra = four_block_algebra()
        rng = random.Random(7)
        first, second = random_charge(rng, algebra), random_charge(rng, algebra)
        assert mix(1, first, second) == first
        assert mix(0, first, second) == second

    def test_even_mixture_of_complementary_values(self):
        algebra = atoms_of_generated_algebra((1, 2), [{1}])
        theta = F(7, 9)
        first = charge_by_atom(
            algebra, {frozenset({1}): theta, frozenset({2}): 1 - theta}
        )
        second = charge_by_atom(
            algebra, {frozenset({1}): 1 - theta, frozenset({2}): theta}
        )
        assert mix(F(1, 2), first, second).measure({1}) == F(1, 2)

    def test_weight_range_and_algebra_checked(self):
        algebra = four_block_algebra()
        rng = random.Random(8)
        charge = random_charge(rng, algebra)
        other = random_charge(rng, powerset_algebra(tuple(range(8))))
        with pytest.raises(OutOfRange):
            mix(F(3, 2), charge, charge)
        with pytest.raises(AlgebraMismatch):
            mix(F(1, 2), charge, other)


class TestInnerOuter:
    def test_expressible_set_collapses_to_its_measure(self):
        charge = uniform4()
        event = frozenset({0, 1, 4, 5})
        assert charge.inner_outer(event) == (F(1, 2), F(1, 2))

    def test_strict_subset_of_one_atom(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        charge = charge_by_atom(
            algebra, {frozenset({1, 2}): F(1, 3), frozenset({3, 4}): F(2, 3)}
        )
        assert charge.inner_outer({1}) == (F(0), F(1, 3))
        assert charge.inner_outer(set()) == (F(0), F(0))

    def test_matches_sup_inf_oracle(self, rng):
        for _ in range(25):
            atoms = random_partition(rng, range(6))
            algebra = atoms_of_generated_algebra(tuple(range(6)), atoms)
            charge = random_charge(rng, algebra)
            subset = frozenset(x for x in range(6) if rng.random() < 0.5)
            assert charge.inner_outer(subset) == oracle_inner_outer(charge, subset)

    def test_subset_outside_the_ground_rejected(self):
        with pytest.raises(ValueError, match="outside the ground set"):
            uniform4().inner_outer({0, 99})


class TestExtend:
    def test_expressible_set_keeps_its_value(self):
        charge = uniform4()
        event = frozenset({0, 1, 2, 3})
        extended = charge.extend(event, charge.measure(event))
        assert extended.measure(event) == F(1, 2)
        for atom in charge.algebra.atoms:
            assert extended.measure(atom) == charge.measure(atom)

    def test_single_atom_split_to_one_third(self):
        algebra = atoms_of_generated_algebra((1, 2), [])
        charge = charge_by_atom(algebra, {frozenset({1, 2}): F(1)})
        extended = charge.extend({1}, F(1, 3))
        assert extended.measure({1}) == F(1, 3)
        assert extended.measure({2}) == F(2, 3)

    def test_outer_boundary_fills_every_met_atom(self, rng):
        for _ in range(15):
            atoms = random_partition(rng, range(6))
            algebra = atoms_of_generated_algebra(tuple(range(6)), atoms)
            charge = random_charge(rng, algebra)
            subset = frozenset(x for x in range(6) if rng.random() < 0.5)
            _, outer = charge.inner_outer(subset)
            extended = charge.extend(subset, outer)
            for atom, mass in zip(charge.algebra.atoms, charge.masses):
                if atom & subset:
                    assert extended.measure(atom & subset) == mass

    def test_succeeds_exactly_on_the_admissible_interval(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4, 5, 6), [{1, 2}, {3, 4}])
        charge = charge_by_atom(
            algebra,
            {
                frozenset({1, 2}): F(1, 4),
                frozenset({3, 4}): F(1, 4),
                frozenset({5, 6}): F(1, 2),
            },
        )
        subset = frozenset({1, 2, 3})  # one full atom plus half of another
        inner, outer = charge.inner_outer(subset)
        assert (inner, outer) == (F(1, 4), F(1, 2))
        hits = misses = 0
        for k in range(0, 13):
            value = F(k, 12)
            if inner <= value <= outer:
                assert charge.extend(subset, value).measure(subset) == value
                hits += 1
            else:
                with pytest.raises(OutOfRange):
                    charge.extend(subset, value)
                misses += 1
        assert hits and misses

    def test_restriction_preserved_on_every_member(self, rng):
        for _ in range(15):
            atoms = random_partition(rng, range(6))
            algebra = atoms_of_generated_algebra(tuple(range(6)), atoms)
            charge = random_charge(rng, algebra)
            subset = frozenset(x for x in range(6) if rng.random() < 0.5)
            inner, outer = charge.inner_outer(subset)
            value = inner + (outer - inner) * random_rational(rng)
            extended = charge.extend(subset, value)
            assert extended.measure(subset) == value
            for member in charge.algebra.members():
                assert extended.measure(member) == charge.measure(member)


class TestGreedySplit:
    def test_unplaceable_target_raises(self):
        # only the cut atom {1,2} can absorb mass, and it holds 1/2 < 3/4
        with pytest.raises(InvariantViolation):
            greedy_fill([F(1, 2)], F(3, 4))

    def test_check_survives_optimized_mode(self):
        code = (
            "from fractions import Fraction as F\n"
            "from jurybayes.charges import greedy_fill\n"
            "from jurybayes.errors import InvariantViolation\n"
            "try:\n"
            "    greedy_fill([F(1)], F(2))\n"
            "except InvariantViolation:\n"
            "    print('raised')\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert result.stdout == "raised\n", result.stderr


def strict_instance(rng, size=8):
    """Random charge with splittable positive-mass atoms, target event, and
    a strictly independent adjoinable event."""
    ground = tuple(range(size))
    atoms = random_partition(rng, ground, min_block=2)
    algebra = atoms_of_generated_algebra(ground, atoms)
    while True:
        charge = random_charge(rng, algebra)
        positive = [a for a, m in zip(algebra.atoms, charge.masses) if m > 0]
        if len(positive) >= 2:
            break
    for _ in range(50):
        picks = [a for a in algebra.atoms if rng.random() < 0.5]
        event = frozenset().union(*picks) if picks else frozenset()
        if 0 < charge.measure(event) < 1:
            break
    else:
        event = positive[0]
    splitter = splitting_event(rng, charge)
    return charge, event, splitter


class TestExtendConditional:
    def test_hits_the_target_exactly_and_preserves_restriction(self, rng):
        for _ in range(30):
            charge, event, splitter = strict_instance(rng)
            theta = random_rational(rng)
            extended = charge.extend_conditional(event, splitter, theta)
            assert extended.conditional(event, splitter).value == theta
            for member in charge.algebra.members():
                assert extended.measure(member) == charge.measure(member)

    def test_boundary_targets(self, rng):
        charge, event, splitter = strict_instance(rng)
        at_zero = charge.extend_conditional(event, splitter, 0)
        assert at_zero.measure(event & splitter) == 0
        assert at_zero.conditional(event, splitter).value == 0
        at_one = charge.extend_conditional(event, splitter, 1)
        complement = charge.algebra.ground_set - event
        assert at_one.measure(complement & splitter) == 0
        assert at_one.conditional(event, splitter).value == 1

    def test_target_equal_to_prior_gives_independence(self, rng):
        charge, event, splitter = strict_instance(rng)
        prior = charge.measure(event)
        extended = charge.extend_conditional(event, splitter, prior)
        assert extended.conditional(event, splitter).value == prior
        assert extended.measure(event & splitter) == prior * extended.measure(splitter)

    def test_non_splitting_event_rejected_in_strict_mode(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        charge = uniform_charge(algebra)
        with pytest.raises(NotIndependent):
            charge.extend_conditional({1, 2}, {1, 2}, F(1, 2))
        with pytest.raises(NotIndependent):
            charge.extend_conditional({1, 2}, set(), F(1, 2))

    def test_degenerate_prior_rejected_in_strict_mode(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        charge = charge_by_atom(algebra, {frozenset({1, 2}): F(1)})
        with pytest.raises(DegeneratePrior):
            charge.extend_conditional({1, 2}, {1, 3}, F(1, 2))

    def test_target_outside_unit_interval_rejected(self):
        charge = uniform4()
        with pytest.raises(OutOfRange):
            charge.extend_conditional({0, 1, 2, 3}, {0, 2, 4, 6}, F(3, 2))

    def test_adjoined_event_outside_the_ground_rejected(self):
        with pytest.raises(ValueError, match="outside the ground set"):
            uniform4().extend_conditional({0, 1, 2, 3}, {0, 2, 99}, F(1, 2))

    def test_nested_refinement_needs_relaxed_mode(self):
        algebra = atoms_of_generated_algebra(tuple(range(8)), [set(range(4))])
        charge = uniform_charge(algebra)
        event = frozenset(range(4))
        outer_evt = frozenset({0, 1, 4, 5})
        inner_evt = frozenset({0, 4})
        once = charge.extend_conditional(event, outer_evt, F(2, 3))
        with pytest.raises(NotIndependent):
            once.extend_conditional(event, inner_evt, F(3, 4))
        twice = once.extend_conditional(event, inner_evt, F(3, 4), strict=False)
        assert twice.conditional(event, inner_evt).value == F(3, 4)
        assert twice.conditional(event, outer_evt).value == F(2, 3)
        assert twice.measure(event) == F(1, 2)

    def test_relaxed_mode_reports_feasible_interval(self):
        algebra = atoms_of_generated_algebra(tuple(range(8)), [set(range(4))])
        charge = uniform_charge(algebra)
        event = frozenset(range(4))
        already = charge.extend_conditional(event, frozenset({0, 1, 4, 5}), F(2, 3))
        # the adjoined event is itself a member now: only its current
        # conditional is feasible
        member = frozenset({0, 1, 4, 5})
        with pytest.raises(OutOfRange):
            already.extend_conditional(event, member, F(1, 5), strict=False)
        same = already.extend_conditional(event, member, F(2, 3), strict=False)
        assert same.conditional(event, member).value == F(2, 3)

    def test_single_pass_matches_the_side_by_side_oracle(self, rng):
        # non-strict inputs at the edges of each side's rule, on the atoms
        # {1, 2} and {3, 4} at 1/2 each; the comment names what each reaches
        halves = uniform_charge(atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}]))
        boundary = [
            ({1, 2, 3}, F(0), "forced mass inside the target event"),
            ({1, 3, 4}, F(1), "forced mass outside the target event"),
            ({1, 2, 3}, F(1, 3), "outside the feasible interval [1/2, 1]"),
            (set(), F(1, 2), "cannot receive positive mass"),
            ({1, 3}, F(1, 4), None),  # the event side's outer/share is 2: a charge
        ]
        for given, theta, reaches in boundary:
            got, expected = (
                outcome(extend, halves, {1, 2}, given, theta, strict=False)
                for extend in (Charge.extend_conditional, oracle_extend_conditional)
            )
            assert got == expected
            if reaches is None:
                assert isinstance(got, Charge)
                assert got.conditional({1, 2}, given).value == theta
            else:
                assert got[0] is OutOfRange and reaches in got[1]
        seen = set()
        for _ in range(400):
            ground = tuple(range(rng.randrange(1, 8)))
            partition = random_partition(rng, ground, min_block=rng.choice((1, 2)))
            charge = random_charge(rng, atoms_of_generated_algebra(ground, partition))
            if rng.random() < 0.9:
                picks = [a for a in charge.algebra.atoms if rng.random() < 0.5]
                event = frozenset().union(*picks)
            else:  # usually cuts through an atom
                event = frozenset(x for x in ground if rng.random() < 0.5)
            given = frozenset(x for x in ground if rng.random() < 0.5)
            theta = rng.choice(
                (F(0), F(1), F(-1, 3), F(4, 3), random_rational(rng), random_rational(rng))
            )
            strict = rng.random() < 0.5
            got, expected = (
                outcome(extend, charge, event, given, theta, strict=strict)
                for extend in (Charge.extend_conditional, oracle_extend_conditional)
            )
            if isinstance(expected, Charge):
                assert isinstance(got, Charge)
                assert got.algebra == expected.algebra
                assert got.masses == expected.masses
                seen.add((strict, Charge))
                # one of the two greedy splits then has no atom to cut
                if not strict and not given & event:
                    seen.add("relaxed, given & event empty")
                if not strict and not given - event:
                    seen.add("relaxed, given - event empty")
            else:
                assert got == expected
                seen.add((strict, expected[0]))
        assert {(True, Charge), (False, Charge), (True, NotIndependent),
                (True, DegeneratePrior), (False, OutOfRange), (True, OutOfRange),
                (False, NotExpressible), "relaxed, given & event empty",
                "relaxed, given - event empty"} <= seen


def random_ground_charge(rng, kind):
    """A random charge on a coarse algebra, with one element foreign to its
    ground: small integers, the Spann space's tuples, or a world space
    coarsened by guilt and heard-events."""
    if kind == "worlds":
        catalog = TestimonyCatalog(tuple(f"t{i}" for i in range(rng.randrange(0, 4))))
        generators = [guilt_event(catalog)] + [
            heard_event(catalog, Transcript({rng.randrange(len(catalog))}))
            for _ in range(rng.randrange(0, 3) if len(catalog) else 0)
        ]
        algebra = atoms_of_generated_algebra(full_world_space(catalog), generators)
        foreign = World(Transcript({len(catalog)}), Guilt.GUILTY)
    else:
        if kind == "ints":
            ground, foreign = tuple(range(rng.randrange(1, 8))), 99
        else:
            ground, foreign = build_spann_space().ground, ("O", "O", None)
        partition = random_partition(rng, ground, min_block=rng.choice((1, 2)))
        algebra = atoms_of_generated_algebra(ground, partition)
    return random_charge(rng, algebra), foreign


class TestSplitExtensionsMatchTheParentOracles:
    """``extend`` and ``extend_conditional`` on one split pass against the
    constructions they replaced: inner and outer measures, ``greedy_split``
    by subset over all atoms, and a checked ``adjoin``."""

    KINDS = ("ints", "spann", "worlds")

    def test_extend(self, rng):
        seen = set()
        for _ in range(300):
            kind = rng.choice(self.KINDS)
            charge, foreign = random_ground_charge(rng, kind)
            ground = charge.algebra.ground
            subset = frozenset(x for x in ground if rng.random() < rng.random())
            if rng.random() < 0.1:
                subset |= {foreign}
            inner, outer = charge.inner_outer(subset & charge.algebra.ground_set)
            value = rng.choice((inner, outer, inner + (outer - inner) * random_rational(rng),
                                outer + F(1, 7), inner - F(1, 7), "x"))
            got, expected = (
                outcome(extend, charge, subset, value)
                for extend in (Charge.extend, oracle_extend)
            )
            if isinstance(expected, Charge):
                assert got.algebra == expected.algebra
                assert got.masses == expected.masses
                seen.add((kind, Charge))
                cut_zero = any(
                    m == 0 and atom & subset and atom - subset
                    for atom, m in zip(charge.algebra.atoms, charge.masses)
                )
                if cut_zero:
                    seen.add("zero-mass atom cut")
            else:
                assert got == expected
                seen.add(expected[0])
        assert {*((kind, Charge) for kind in self.KINDS), OutOfRange, ValueError,
                "zero-mass atom cut"} <= seen

    def test_extend_conditional(self, rng):
        seen = set()
        for _ in range(600):
            kind = rng.choice(self.KINDS)
            charge, foreign = random_ground_charge(rng, kind)
            ground = charge.algebra.ground
            if rng.random() < 0.9:
                picks = [a for a in charge.algebra.atoms if rng.random() < 0.5]
                event = frozenset().union(*picks)
            else:  # usually cuts through an atom
                event = frozenset(x for x in ground if rng.random() < 0.5)
            pick = rng.random()
            if pick < 0.1:
                given = frozenset()
            elif pick < 0.2:
                given = frozenset(ground)
            elif pick < 0.5 and all(
                len(a) > 1 for a, m in zip(charge.algebra.atoms, charge.masses) if m
            ):
                given = splitting_event(rng, charge)  # strictly independent
            else:
                given = frozenset(x for x in ground if rng.random() < rng.random())
            if rng.random() < 0.05:
                given |= {foreign}
            theta = rng.choice(
                (F(0), F(1), F(-1, 3), F(4, 3), random_rational(rng), random_rational(rng))
            )
            strict = rng.random() < 0.5
            got, expected = (
                outcome(extend, charge, event, given, theta, strict=strict)
                for extend in (Charge.extend_conditional, oracle_extend_conditional_by_sides)
            )
            if isinstance(expected, Charge):
                assert got.algebra == expected.algebra
                assert got.masses == expected.masses
                seen.add((kind, strict, Charge))
                if theta in (0, 1):
                    seen.add(("theta", theta))
                if not strict and not given & event:
                    seen.add("relaxed, given & event empty")
                if not strict and not given - event:
                    seen.add("relaxed, given - event empty")
                if any(m == 0 and atom & given and atom - given
                       for atom, m in zip(charge.algebra.atoms, charge.masses)):
                    seen.add("zero-mass atom cut")
            else:
                assert got == expected
                seen.add((strict, expected[0]))
        assert {*((kind, strict, Charge) for kind in self.KINDS for strict in (True, False)),
                ("theta", 0), ("theta", 1), "relaxed, given & event empty",
                "relaxed, given - event empty", "zero-mass atom cut",
                (True, NotIndependent), (True, DegeneratePrior), (True, OutOfRange),
                (False, OutOfRange), (False, NotExpressible), (True, ValueError),
                (False, ValueError)} <= seen

    def test_checks_run_in_the_parents_order(self):
        charge = uniform_charge(atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}]))
        calls = [  # each input also breaks every later check
            ({1}, {1, 99}, F(3, 2), True),  # theta, given, event, strictness
            ({1}, {1, 99}, F(1, 2), True),  # given, event, strictness
            ({1}, {1, 2}, F(1, 2), True),  # event, strictness
            (set(), {1, 2}, F(1, 2), True),  # degenerate prior, strictness
            ({1, 2}, {1, 2}, F(1, 3), True),  # strictness
            ({1, 2}, {1, 2}, F(1, 3), False),  # only the member's value is feasible
        ]
        for event, given, theta, strict in calls:
            got, expected = (
                outcome(extend, charge, event, given, theta, strict=strict)
                for extend in (Charge.extend_conditional, oracle_extend_conditional_by_sides)
            )
            assert got == expected and isinstance(got, tuple)
        for subset, value in (({1, 99}, "x"), ({1, 99}, F(2)), ({1}, F(2))):
            got, expected = (
                outcome(extend, charge, subset, value) for extend in (Charge.extend, oracle_extend)
            )
            assert got == expected and isinstance(got, tuple)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_extension_restriction_law_property(data):
    size = data.draw(st.integers(2, 6))
    ground = tuple(range(size))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    algebra = atoms_of_generated_algebra(ground, random_partition(rng, ground))
    charge = random_charge(rng, algebra)
    subset = frozenset(data.draw(st.sets(st.sampled_from(ground))))
    inner, outer = charge.inner_outer(subset)
    value = inner + (outer - inner) * data.draw(
        st.fractions(min_value=0, max_value=1, max_denominator=20)
    )
    extended = charge.extend(subset, value)
    assert extended.measure(subset) == value
    for member in charge.algebra.members():
        assert extended.measure(member) == charge.measure(member)
