"""Algebras whose atoms follow a rule on world codes: the world powerset,
the heard-prefix algebra, and what is built from them.

They are checked against the eager oracles in ``conftest``, which build
every atom up front through the checked constructor: identity (equality,
hash, repr) before and after ``atoms`` is read, every charge operation,
and the serialize round trip.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from jurybayes import worlds
from jurybayes.analyses import (
    RateBoundConfig, RatioBoundedPrior, build_ratio_bounded_convicting_prior
)
from jurybayes.charges import Charge
from jurybayes.serialize import charge_from_jsonable, charge_to_jsonable
from jurybayes.worlds import (
    BooleanSubalgebra,
    TestimonyCatalog,
    atoms_of_generated_algebra,
    full_world_space,
    guilt_event,
    heard_event,
    heard_prefix_algebra,
    world_algebra,
)

from conftest import (
    eager_heard_prefix_algebra,
    eager_world_algebra,
    random_charge,
    random_partition,
    random_rational,
    splitting_event,
)


def catalog(n: int) -> TestimonyCatalog:
    return TestimonyCatalog(tuple(f"t{i}" for i in range(n)))


def cutting_event(cat: TestimonyCatalog) -> frozenset:
    """Testimony 2 heard: it cuts every atom of a heard-prefix algebra of at most 2 steps."""
    return heard_event(cat, cat.transcript(["t2"]))


def fresh_world_algebra(n: int) -> BooleanSubalgebra:
    """A world powerset built as ``world_algebra`` builds it, outside its cache."""
    return worlds._world_algebra.__wrapped__(n)


def ratio_bounded(cat: TestimonyCatalog):
    return build_ratio_bounded_convicting_prior(cat, RateBoundConfig(F(1, 10), F(3, 4)))


def eager_ratio_bounded(cat: TestimonyCatalog):
    prior = ratio_bounded(cat)
    steps = len(prior.posteriors) - 1
    charge = Charge(eager_heard_prefix_algebra(cat, steps), prior.charge.masses)
    return RatioBoundedPrior(prior.catalog, prior.config, charge, prior.posteriors)


# each kind: a fresh object whose atoms no one has read, and its eager oracle
KINDS = {
    "world_algebra": (lambda: fresh_world_algebra(3), lambda: eager_world_algebra(catalog(3))),
    "heard_prefix_algebra": (
        lambda: heard_prefix_algebra(catalog(4), 3),
        lambda: eager_heard_prefix_algebra(catalog(4), 3),
    ),
    "split child": (
        lambda: heard_prefix_algebra(catalog(3), 1).split(cutting_event(catalog(3)))[0],
        lambda: eager_heard_prefix_algebra(catalog(3), 1).split(cutting_event(catalog(3)))[0],
    ),
    "RatioBoundedPrior": (lambda: ratio_bounded(catalog(5)), lambda: eager_ratio_bounded(catalog(5))),
}


def read_atoms(obj) -> tuple:
    algebra = obj.charge.algebra if hasattr(obj, "charge") else obj
    return algebra.atoms


ROUND_TRIPS = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)), "deepcopy": copy.deepcopy}


class TestIdentity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("trip", ROUND_TRIPS)
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_equality_and_hash_survive_round_trips(self, kind, trip, read_first):
        build, oracle = KINDS[kind]
        obj = build()
        if read_first:
            read_atoms(obj)
        twin = ROUND_TRIPS[trip](obj)
        assert hash(twin) == hash(obj)
        assert twin == obj
        assert obj == oracle() and hash(obj) == hash(oracle())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_repr_matches_the_eager_oracle(self, kind, read_first):
        build, oracle = KINDS[kind]
        obj = build()
        if read_first:
            read_atoms(obj)
        assert repr(obj) == repr(oracle())


def outcome(op):
    """What an operation gives: its value, or its error's class and message."""
    try:
        return "value", op()
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return "raised", type(exc), str(exc)


def algebra_pairs(n: int):
    """Each algebra built by rule on n testimonies, beside its eager oracle."""
    cat = catalog(n)
    yield fresh_world_algebra(n), eager_world_algebra(cat)
    for steps in range(n + 1):
        yield heard_prefix_algebra(cat, steps), eager_heard_prefix_algebra(cat, steps)


def union_of_atoms(rng, algebra: BooleanSubalgebra) -> frozenset:
    return frozenset().union(*(atom for atom in algebra.atoms if rng.random() < 0.5))


def random_worlds(rng, cat: TestimonyCatalog) -> frozenset:
    return frozenset(w for w in full_world_space(cat) if rng.random() < 0.5)


class TestAgainstTheEagerOracle:
    @pytest.mark.parametrize("n", [0, 1, 3, 5, 8])
    def test_charge_operations_match(self, n, rng):
        cat = catalog(n)
        guilt = guilt_event(cat)
        for lazy, eager in algebra_pairs(n):
            assert lazy == eager and lazy.atom_count == eager.atom_count == len(eager.atoms)
            for _ in range(3):
                masses = random_charge(rng, eager).masses
                by_rule, oracle = Charge(lazy, masses), Charge(eager, masses)
                event, given, cut = (union_of_atoms(rng, eager) for _ in range(3))
                cut = random_worlds(rng, cat)
                inner, outer = oracle.inner_outer(cut)
                value = inner + (outer - inner) * random_rational(rng)
                theta = random_rational(rng)
                # strict when a set can cut every positive-mass atom
                strict = all(len(atom) > 1 for atom, m in zip(eager.atoms, masses) if m)
                split_by = splitting_event(rng, oracle) if strict else cut
                ops = [
                    lambda c: c.measure(event),
                    lambda c: c.measure(cut),
                    lambda c: c.conditional(guilt & event, given),
                    lambda c: c.condition(given),
                    lambda c: c.inner_outer(cut),
                    lambda c: c.extend(cut, value),
                    lambda c: c.extend_conditional(guilt, split_by, theta, strict=strict),
                    lambda c: c.algebra.split(cut),
                ]
                for op in ops:
                    assert outcome(lambda: op(by_rule)) == outcome(lambda: op(oracle))

    @pytest.mark.parametrize("n", [0, 2, 5, 8])
    def test_generated_algebra_on_the_world_tuple(self, n, rng):
        cat = catalog(n)
        worlds_tuple = full_world_space(cat)
        copied = tuple(list(worlds_tuple))
        for count in range(4):
            generators = [random_worlds(rng, cat) for _ in range(count)]
            generators += [frozenset(b) for b in random_partition(rng, worlds_tuple, 2)[:1]]
            on_worlds = atoms_of_generated_algebra(worlds_tuple, generators)
            on_copy = atoms_of_generated_algebra(copied, generators)
            assert on_worlds == on_copy and on_worlds.ground is worlds_tuple
            assert on_worlds._atom_keys == on_copy._atom_keys
            assert on_worlds.atom_count == len(on_copy.atoms)
            # no position dict on the world tuple, whose codes are the positions
            assert on_worlds._position is None and type(on_copy._position) is dict
        whole = atoms_of_generated_algebra(worlds_tuple, [])
        assert whole.atoms == (worlds.world_set(cat),) and whole.ground_set is worlds.world_set(cat)

    @pytest.mark.parametrize("n", [0, 1, 4, 8])
    def test_serialize_round_trip(self, n, rng):
        cat = catalog(n)
        for lazy, eager in algebra_pairs(n):
            masses = random_charge(rng, eager).masses
            doc = charge_to_jsonable(cat, Charge(lazy, masses))
            assert doc == charge_to_jsonable(cat, Charge(eager, masses))
            assert charge_from_jsonable(doc)[1] == Charge(lazy, masses)


@pytest.fixture
def rule_reads(monkeypatch):
    """Each algebra whose atoms were built by rule, with a fresh ``world_algebra`` cache."""
    built = []
    by_rule = worlds._atoms_by_rule
    monkeypatch.setattr(worlds, "_atoms_by_rule", lambda algebra: built.append(algebra) or by_rule(algebra))
    monkeypatch.setattr(worlds, "_world_algebra", worlds.lru_cache(16)(worlds._world_algebra.__wrapped__))
    return built


class TestAtomsOnFirstRead:
    def test_a_ratio_bounded_build_makes_no_atom(self, rule_reads):
        for n, gamma in ((5, F(1, 10)), (11, F(1, 25))):
            prior = build_ratio_bounded_convicting_prior(catalog(n), RateBoundConfig(gamma, F(3, 4)))
            assert prior.within_bound() and prior.convicts() and len(prior.charge.masses) > 2
            assert rule_reads == [] and "atoms" not in vars(prior.charge.algebra)
            chain = prior.chain
            assert rule_reads == [prior.charge.algebra]
            assert prior.chain == chain and rule_reads == [prior.charge.algebra]  # once per object
            rule_reads.clear()

    @pytest.mark.parametrize("n", [2, 6])
    def test_a_rationalize_verify_round_trip_makes_no_atom(self, n, rule_reads):
        from jurybayes.dispositions import always_convict_nonempty, rationalize, verify_rationalization
        from jurybayes.serialize import certificate_to_jsonable, charge_document_from_jsonable

        cat = catalog(n)
        disposition = always_convict_nonempty(cat)
        certificate = rationalize(disposition, F(3, 4))
        document = certificate_to_jsonable(certificate)
        prior = charge_document_from_jsonable(document)[1]
        assert prior.masses == certificate.prior.masses
        assert prior.algebra is certificate.prior.algebra
        assert verify_rationalization(disposition, F(3, 4), prior).ok
        assert rule_reads == [] and prior.algebra is world_algebra(cat)
        assert "atoms" not in vars(prior.algebra)
        assert world_algebra(cat).atoms == eager_world_algebra(cat).atoms
        assert rule_reads == [world_algebra(cat)]

    def test_mixing_charges_on_one_algebra_makes_no_atom(self, rule_reads):
        from jurybayes.charges import mix
        from jurybayes.dispositions import always_convict_nonempty, rationalize

        cat = catalog(5)
        world_prior = rationalize(always_convict_nonempty(cat), F(3, 4)).prior
        assert world_prior.algebra is world_algebra(cat)
        for prior in (world_prior, ratio_bounded(cat).charge):
            algebra = prior.algebra
            point = Charge(algebra, (F(1),) + (F(0),) * (algebra.atom_count - 1))
            for first, second in ((prior, prior), (prior, point)):
                mixed = mix(F(1, 3), first, second)
                assert mixed.algebra is algebra
                assert mixed.masses == tuple(
                    F(1, 3) * a + F(2, 3) * b for a, b in zip(first.masses, second.masses)
                )
            assert rule_reads == [] and "atoms" not in vars(algebra)
