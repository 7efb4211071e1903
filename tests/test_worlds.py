"""World spaces, events, and subalgebra machinery."""

import itertools
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurybayes.errors import CapExceeded, ForeignTestimony
from jurybayes import worlds as worlds_module
from jurybayes.worlds import (
    WORLD_CAP_CEILING,
    BooleanSubalgebra,
    Guilt,
    TestimonyCatalog,
    Transcript,
    World,
    atom_names,
    atoms_of_generated_algebra,
    check_world_cap,
    event_of_transcript,
    full_world_space,
    guilt_event,
    heard_event,
    heard_prefix_algebra,
    is_expressible,
    is_logically_independent,
    powerset_algebra,
    require_world_ground,
    world_algebra,
    world_set,
    _check_partition,
)

from conftest import (
    all_partitions,
    as_naive,
    literal_logical_independence,
    naive_transcripts,
    naive_world_space,
    oracle_adjoin,
    oracle_cover,
    oracle_is_expressible,
    oracle_transcript,
    random_partition,
)


def catalog(n: int) -> TestimonyCatalog:
    return TestimonyCatalog(tuple(f"t{i}" for i in range(n)))


def test_an_algebra_built_from_lists_and_sets_keeps_tuples_and_frozensets():
    ground, atoms = ["a", "b", "c"], [{"a"}, {"b", "c"}]
    algebra = BooleanSubalgebra(ground, atoms)
    ground.append("d")
    atoms[1].add("d")
    twin = BooleanSubalgebra(("a", "b", "c"), (frozenset({"a"}), frozenset({"b", "c"})))
    assert algebra.ground == ("a", "b", "c")
    assert algebra.atoms == twin.atoms
    assert all(type(atom) is frozenset for atom in algebra.atoms)
    assert algebra == twin and hash(algebra) == hash(twin)
    # tuples and frozensets are kept as they are
    again = BooleanSubalgebra(twin.ground, twin.atoms)
    assert again.ground is twin.ground
    assert all(map(operator.is_, again.atoms, twin.atoms))


class TestWorldSpace:
    def test_empty_catalog_has_two_worlds(self):
        worlds = full_world_space(catalog(0))
        assert worlds == (
            World(Transcript(), Guilt.GUILTY),
            World(Transcript(), Guilt.INNOCENT),
        )

    def test_one_testimony_gives_four_worlds(self):
        assert len(full_world_space(catalog(1))) == 4

    def test_three_testimonies_counted_by_enumeration(self):
        # oracle: enumerate transcript bit-vectors and guilt values directly
        expected = len(list(itertools.product((0, 1), repeat=3))) * 2
        assert expected == 16
        assert len(full_world_space(catalog(3))) == expected

    def test_canonical_order_counts_in_binary_with_guilty_first(self):
        worlds = full_world_space(catalog(2))
        masks = [w.transcript.mask for w in worlds]
        assert masks == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [w.guilt for w in worlds[:2]] == [Guilt.GUILTY, Guilt.INNOCENT]

    def test_world_algebra_is_built_once_in_canonical_order(self):
        # built unchecked, so the partition and the shared world caches are checked here
        for n in range(11):
            cat = catalog(n)
            algebra = world_algebra(cat)
            assert algebra is world_algebra(catalog(n))
            assert algebra == powerset_algebra(full_world_space(cat))
            assert algebra.is_world_powerset
            _check_partition(algebra.atoms, world_set(cat))
            assert algebra.ground is full_world_space(cat)
            assert algebra.ground_set is world_set(cat)

    def test_world_sets_are_built_once(self):
        cat = catalog(3)
        algebra = powerset_algebra(full_world_space(cat))
        assert algebra.ground_set is algebra.ground_set
        assert algebra.ground_set == frozenset(algebra.ground)
        assert world_set(cat) is world_set(catalog(3))
        assert world_set(cat) == algebra.ground_set
        assert guilt_event(cat) is guilt_event(catalog(3))

    def test_checked_builds_on_the_world_tuple_share_the_cached_world_set(self):
        for n in range(5):
            cat = catalog(n)
            worlds = full_world_space(cat)
            halves = (frozenset(worlds[::2]), frozenset(worlds[1::2]))
            built = (
                powerset_algebra(worlds),
                BooleanSubalgebra(worlds, halves),
                atoms_of_generated_algebra(worlds, [halves[0]]),
            )
            for algebra in built:
                assert algebra.ground_set is world_set(cat)
                # accepted by identity: the element-wise check would fail on this ground
                vars(algebra)["ground"] = None
                require_world_ground(algebra, cat)
            # a copied tuple gets a set of its own, equal to the cached one
            copied = BooleanSubalgebra(tuple(list(worlds)), halves)
            assert copied.ground_set == world_set(cat)
            assert copied.ground_set is not world_set(cat)
            require_world_ground(copied, cat)
            with pytest.raises(ValueError, match="ground elements must be distinct"):
                BooleanSubalgebra(worlds + worlds[:1], halves)

    def test_a_ground_of_another_size_builds_no_world_space(self, monkeypatch):
        # only 2^(n+1) worlds can be the cached tuple, so no other ground is
        # compared with one
        worlds = full_world_space(catalog(4))

        def refuse(n):
            raise AssertionError(f"built the world space of {n} testimonies")

        monkeypatch.setattr(worlds_module, "_world_space", refuse)
        for size in (5, 2**3 + 1, 2**4 + 1):
            ground = worlds[:size]
            for algebra in (
                powerset_algebra(ground),
                BooleanSubalgebra(ground, (frozenset(ground[::2]), frozenset(ground[1::2]))),
                atoms_of_generated_algebra(ground, [frozenset(ground[::2])]),
            ):
                assert algebra.ground_set == frozenset(ground)
                assert [algebra.atom_sort_key(atom) for atom in algebra.atoms[:2]] == [0, 1]

    def test_world_caches_are_shared_by_same_size_catalogs(self):
        first = TestimonyCatalog(("a", "b", "c"))
        second = TestimonyCatalog(("x", "y", "z"))
        assert full_world_space(first) is full_world_space(second)
        assert world_set(first) is world_set(second)
        assert guilt_event(first) is guilt_event(second)
        assert world_algebra(first) is world_algebra(second)
        assert full_world_space(first) is not full_world_space(catalog(2))

    def test_cap_enforced_and_overridable(self):
        labels = tuple(f"t{i}" for i in range(13))
        with pytest.raises(CapExceeded):
            TestimonyCatalog(labels)
        assert len(TestimonyCatalog(labels, world_cap=13)) == 13

    def test_negative_and_over_ceiling_caps_rejected_before_any_world(self, monkeypatch):
        def no_worlds(labels):
            raise AssertionError("a world space was built")

        monkeypatch.setattr(worlds_module, "_world_space", no_worlds)
        assert WORLD_CAP_CEILING >= 16
        for cap in (-1, -(10**9)):
            with pytest.raises(ValueError, match="nonnegative"):
                TestimonyCatalog((), world_cap=cap)
        for cap in (WORLD_CAP_CEILING + 1, 10**9):
            with pytest.raises(CapExceeded, match="ceiling"):
                TestimonyCatalog(("t0",), world_cap=cap)
        assert TestimonyCatalog(("t0",), world_cap=WORLD_CAP_CEILING).world_cap == WORLD_CAP_CEILING

    def test_caps_that_are_not_ints_are_refused_not_truncated(self):
        # int(12.9) would be 12 and int(True) 1
        for cap in (12.9, 12.0, True, False, "12", Fraction(12)):
            with pytest.raises(TypeError, match="the world cap must be an int"):
                TestimonyCatalog(("t0",), world_cap=cap)
            with pytest.raises(TypeError, match="the world cap must be an int"):
                check_world_cap(cap)
        assert TestimonyCatalog(("t0",), world_cap=12).world_cap == 12

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            TestimonyCatalog(("a", "a"))

    @pytest.mark.parametrize("index", [True, False, 1.0, "1"])
    def test_a_testimony_index_must_be_an_int_not_a_bool(self, index):
        # True was read as index 1 and False as index 0
        with pytest.raises(TypeError, match=f"a testimony index must be an int, got {index!r}"):
            Transcript([index])
        with pytest.raises(TypeError):
            Transcript([0, index])
        assert Transcript([1]) == 2 and Transcript(range(3)) == 7

    def test_one_string_is_not_a_collection_of_labels(self):
        # a string iterates as its letters: "abc" was the catalog ('a', 'b', 'c')
        with pytest.raises(TypeError, match="got the string 'abc'"):
            TestimonyCatalog("abc")
        cat = TestimonyCatalog(("a", "b", "ab"))
        # "ab" was the transcript {a, b}, not the label "ab"
        with pytest.raises(TypeError, match="got the string 'ab'"):
            cat.transcript("ab")
        assert cat.transcript(["ab"]) == Transcript({2})
        assert cat.transcript(("a", "b")) == Transcript({0, 1})

    def test_every_label_must_be_a_string(self):
        # bytes iterate as ints: b"ab" was the catalog (97, 98)
        for labels, bad in ((b"ab", 97), ((1, 2), 1), (("a", None), None), (["a", ["b"]], ["b"])):
            with pytest.raises(TypeError) as got:
                TestimonyCatalog(labels)
            assert str(got.value) == f"catalog labels must be strings, got {bad!r}"


class TestEvents:
    def test_event_of_empty_transcript(self):
        cat = catalog(1)
        assert event_of_transcript(cat, Transcript()) == frozenset(
            {World(Transcript(), Guilt.GUILTY), World(Transcript(), Guilt.INNOCENT)}
        )

    def test_event_pairs_transcript_with_both_guilt_values(self):
        cat = catalog(2)
        t = cat.transcript(["t1"])
        event = event_of_transcript(cat, t)
        assert {w.transcript for w in event} == {t}
        assert {w.guilt for w in event} == {Guilt.GUILTY, Guilt.INNOCENT}

    def test_every_transcript_event_has_two_worlds_and_they_partition(self):
        cat = catalog(3)
        events = [event_of_transcript(cat, t) for t in cat.all_transcripts()]
        assert all(len(e) == 2 for e in events)
        union = frozenset().union(*events)
        assert union == frozenset(full_world_space(cat))
        assert sum(len(e) for e in events) == len(union)

    def test_foreign_transcript_rejected(self):
        cat = catalog(1)
        with pytest.raises(ForeignTestimony):
            event_of_transcript(cat, Transcript({5}))
        with pytest.raises(ForeignTestimony):
            cat.transcript(["nope"])

    def test_label_lookup_matches_the_index_oracle(self, rng):
        """Random label sets, repeats and foreign labels included, give the
        same transcript, or the same error, as a label-by-label lookup."""
        foreign = ("zz", "", "T0", ["t0"], {"t0": 1}, ("t0",), 0, None, 1.5)

        def outcome(build, cat, labels):
            try:
                transcript = build(cat, labels)
            except Exception as exc:
                return type(exc), str(exc)
            return type(transcript), transcript

        for n in range(9):
            cat = catalog(n)
            for _ in range(60):
                labels = [rng.choice(cat.labels) for _ in range(rng.randrange(2 * n + 1))]
                if rng.random() < 0.3:
                    labels.insert(rng.randrange(len(labels) + 1), rng.choice(foreign))
                expected = outcome(oracle_transcript, cat, labels)
                for given in (labels, tuple(labels), iter(labels), (x for x in labels)):
                    assert outcome(TestimonyCatalog.transcript, cat, given) == expected
                for label in labels:
                    assert outcome(TestimonyCatalog.index, cat, label) == outcome(
                        lambda c, lbl: oracle_transcript(c, [lbl]).bit_length() - 1, cat, label
                    )
        # a foreign, an unhashable and a non-string label after valid ones, read once
        cat = catalog(4)
        for labels in (["t0", "t2", "zz", "t1"], ["t3", "t1", ["t0"], "zz"], ["t2", "t2", 0, "zz"]):
            expected = outcome(oracle_transcript, cat, labels)
            assert expected[0] is ForeignTestimony
            assert outcome(TestimonyCatalog.transcript, cat, (x for x in labels)) == expected

    def test_guilt_event_small(self):
        cat = catalog(1)
        assert guilt_event(cat) == frozenset(
            {
                World(Transcript(), Guilt.GUILTY),
                World(Transcript({0}), Guilt.GUILTY),
            }
        )
        assert guilt_event(catalog(0)) == frozenset(
            {World(Transcript(), Guilt.GUILTY)}
        )

    def test_guilt_event_size_by_enumeration(self):
        cat = catalog(4)
        oracle = sum(
            1
            for bits in itertools.product((0, 1), repeat=4)
            for g in ("G", "I")
            if g == "G"
        )
        assert len(guilt_event(cat)) == oracle == 16

    def test_guilt_event_and_complement_split_the_space_evenly(self):
        cat = catalog(3)
        space = frozenset(full_world_space(cat))
        guilty = guilt_event(cat)
        assert guilty | (space - guilty) == space
        assert len(guilty) == len(space - guilty)

    @pytest.mark.parametrize(
        "n, steps", [(n, range(n + 1)) for n in range(11)] + [(11, [11])]
    )
    def test_heard_prefix_chain_matches_heard_events_and_layers(self, n, steps):
        cat = catalog(n)
        guilt = guilt_event(cat)
        for m in steps:
            algebra = heard_prefix_algebra(cat, m)
            atoms = algebra.atoms
            heard = tuple(heard_event(cat, Transcript(range(k))) for k in range(1, m + 1))
            # H_k is the union of atoms 2k onward
            assert tuple(frozenset().union(*atoms[2 * k :]) for k in range(1, m + 1)) == heard
            nested = (world_set(cat), *heard)  # H_0, H_1, ..., H_m
            layers = [outer - inner for outer, inner in zip(nested, heard)] + [nested[-1]]
            assert atoms == tuple(
                part for layer in layers for part in (layer & guilt, layer - guilt)
            )
            assert [min(atom) for atom in atoms] == sorted(min(atom) for atom in atoms)
            assert algebra == BooleanSubalgebra(full_world_space(cat), atoms)

    @pytest.mark.parametrize("n", range(13))
    def test_heard_prefix_chain_algebra_is_a_partition_of_the_world_space(self, n):
        cat = catalog(n)
        for m in range(n + 1):
            algebra = heard_prefix_algebra(cat, m)
            assert algebra.ground is full_world_space(cat)
            assert algebra.ground_set is world_set(cat)
            assert len(algebra.atoms) == 2 * m + 2
            _check_partition(algebra.atoms, world_set(cat))

    def test_heard_prefix_chain_refuses_steps_outside_the_catalog(self):
        with pytest.raises(ForeignTestimony):
            heard_prefix_algebra(catalog(3), 4)
        with pytest.raises(ForeignTestimony):
            heard_prefix_algebra(catalog(3), WORLD_CAP_CEILING + 1)

    @pytest.mark.parametrize(
        "steps, error, message",
        [
            (1.0, TypeError, "steps must be an int, got 1.0"),
            (True, TypeError, "steps must be an int, got True"),
            (False, TypeError, "steps must be an int, got False"),
            ("2", TypeError, "steps must be an int, got '2'"),
            (-1, ValueError, r"steps must lie in 0\.\.3, got -1"),
            (-4, ValueError, r"steps must lie in 0\.\.3, got -4"),
            (4, ForeignTestimony, r"steps must lie in 0\.\.3, got 4"),
        ],
    )
    def test_heard_prefix_chain_refuses_bad_steps_when_built(self, steps, error, message):
        # its atoms are built on first read, so the steps are checked up front
        with pytest.raises(error, match=message):
            heard_prefix_algebra(catalog(3), steps)

    def test_heard_event_is_upward_closure(self):
        cat = catalog(2)
        heard = heard_event(cat, cat.transcript(["t0"]))
        assert {w.transcript.members for w in heard} == {
            frozenset({0}),
            frozenset({0, 1}),
        }


class TestGeneratedAlgebra:
    def test_no_generators_single_atom(self):
        ground = (1, 2, 3, 4)
        algebra = atoms_of_generated_algebra(ground, [])
        assert algebra.atoms == (frozenset({1, 2, 3, 4}),)

    def test_one_generator_two_atoms(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        assert set(algebra.atoms) == {frozenset({1, 2}), frozenset({3, 4})}

    def test_two_overlapping_generators_atomize_fully(self):
        # oracle: distinct membership sign-patterns, computed by hand:
        # 1->(in,out) 2->(in,in) 3->(out,in) 4->(out,out)
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}, {2, 3}])
        assert set(algebra.atoms) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
        }

    def test_generator_outside_ground_rejected(self):
        with pytest.raises(ValueError):
            atoms_of_generated_algebra((1, 2), [{3}])

    def test_atoms_come_in_order_of_their_first_ground_element(self, rng):
        for _ in range(40):
            ground = [f"e{i}" for i in range(rng.randrange(1, 12))]
            rng.shuffle(ground)
            generators = [
                frozenset(x for x in ground if rng.random() < 0.5)
                for _ in range(rng.randrange(0, 4))
            ]
            algebra = atoms_of_generated_algebra(ground, generators)
            firsts = [min(ground.index(e) for e in atom) for atom in algebra.atoms]
            assert firsts == sorted(set(firsts))
            # oracle: the cells of equal membership sign-patterns
            cells: dict[tuple[bool, ...], set] = {}
            for e in ground:
                cells.setdefault(tuple(e in g for g in generators), set()).add(e)
            assert set(algebra.atoms) == set(map(frozenset, cells.values()))

    @pytest.mark.parametrize("size", range(1, 7))
    def test_membership_closed_under_complement_and_union(self, size, rng):
        ground = tuple(range(size))
        for _ in range(5):
            k = rng.randrange(0, 3)
            generators = [
                frozenset(x for x in ground if rng.random() < 0.5) for _ in range(k)
            ]
            algebra = atoms_of_generated_algebra(ground, generators)
            members = set(algebra.members())
            assert frozenset() in members and frozenset(ground) in members
            for m in members:
                assert frozenset(ground) - m in members
            for a, b in itertools.product(members, repeat=2):
                assert a | b in members

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            BooleanSubalgebra((1, 2, 3), (frozenset({1}), frozenset({1, 2, 3})))
        with pytest.raises(ValueError):
            BooleanSubalgebra((1, 2, 3), (frozenset({1}),))
        with pytest.raises(ValueError):
            BooleanSubalgebra((1, 2), (frozenset({1}), frozenset()))

    def test_ground_must_be_distinct_and_hold_every_atom_element(self):
        with pytest.raises(ValueError, match="ground elements must be distinct"):
            BooleanSubalgebra((1, 1, 2), (frozenset({1, 2}),))
        with pytest.raises(ValueError, match="ground elements must be distinct"):
            atoms_of_generated_algebra((1, 1, 2), [{1}])
        with pytest.raises(ValueError, match="outside the ground set"):
            BooleanSubalgebra((1, 2), (frozenset({1}), frozenset({2, 3})))


class TestExpressibility:
    def test_single_atom_is_expressible(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        assert is_expressible({1, 2}, algebra)
        assert is_expressible({1, 2, 3, 4}, algebra)
        assert is_expressible(set(), algebra)

    def test_half_an_atom_is_not(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        assert not is_expressible({1}, algebra)
        assert not is_expressible({1, 2, 3}, algebra)

    def test_foreign_elements_are_not_expressible(self):
        algebra = atoms_of_generated_algebra((1, 2), [])
        assert not is_expressible({9}, algebra)


def cover_cases(rng, n):
    """World powerset, shuffled and plain-int powersets, and coarse algebras
    over the world space of ``n`` testimonies."""
    cat = catalog(n)
    worlds = full_world_space(cat)
    shuffled = list(world_algebra(cat).atoms)
    rng.shuffle(shuffled)
    heard = heard_event(cat, Transcript(i for i in range(n) if rng.random() < 0.5))
    return [
        world_algebra(cat),
        BooleanSubalgebra(worlds, tuple(shuffled)),
        powerset_algebra(range(len(worlds))),  # plain ints equal to the world codes
        atoms_of_generated_algebra(worlds, [guilt_event(cat), heard]),
        heard_prefix_algebra(cat, rng.randrange(n + 1)),
        BooleanSubalgebra(worlds, random_partition(rng, worlds, min_block=2)),
    ]


class TestCover:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_the_atom_by_atom_oracle(self, n, rng):
        for algebra in cover_cases(rng, n):
            ground = algebra.ground
            events = [frozenset(), algebra.ground_set]
            for _ in range(8):
                share = rng.random()
                events.append(frozenset(e for e in ground if rng.random() < share))
                events.append(frozenset().union(*(a for a in algebra.atoms if rng.random() < 0.5)))
            for event in events:
                inside, cut = algebra.cover(event)
                assert (sorted(inside), cut) == oracle_cover(algebra, event)
                assert is_expressible(event, algebra) == oracle_is_expressible(event, algebra)
                spoiled = event | {"x"}
                assert is_expressible(spoiled, algebra) is False
                assert oracle_is_expressible(spoiled, algebra) is False

    def test_only_world_algebra_answers_by_world_code(self, rng):
        cat = catalog(3)
        event = heard_event(cat, Transcript({1}))
        inside, cut = world_algebra(cat).cover(event)
        assert inside is event and cut == []
        for algebra in cover_cases(rng, 3)[1:]:
            assert not algebra.is_world_powerset
            assert algebra.cover(event)[0] == oracle_cover(algebra, event)[0]


class TestAtomNames:
    @pytest.mark.parametrize("n", range(5))
    def test_world_powerset_keys_are_the_world_names(self, n, rng):
        """``world_algebra``'s keys are the names it is given, with no join per
        atom; any other algebra joins each atom's world names in world order."""
        names = tuple(f"w{code}" for code in range(2 << n))
        keys, lists = atom_names(world_algebra(catalog(n)), names)
        assert keys is names
        assert list(lists) == [[name] for name in names]
        for algebra in cover_cases(rng, n)[1:]:
            keys, lists = atom_names(algebra, names)
            expected = [[names[w] for w in sorted(atom)] for atom in algebra.atoms]
            assert lists == expected
            assert list(keys) == [";".join(atom) for atom in expected]


class TestLogicalIndependence:
    def test_crossing_set_is_independent(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        assert is_logically_independent({1, 3}, algebra)
        assert literal_logical_independence(frozenset({1, 3}), algebra)

    def test_empty_set_fails_once_algebra_is_nontrivial(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        assert not is_logically_independent(set(), algebra)

    def test_ground_is_independent_by_the_literal_definition(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        assert literal_logical_independence(frozenset({1, 2, 3, 4}), algebra)
        assert is_logically_independent({1, 2, 3, 4}, algebra)

    def test_trivial_algebra_makes_everything_vacuously_independent(self):
        algebra = atoms_of_generated_algebra((1, 2), [])
        assert is_logically_independent(set(), algebra)
        assert literal_logical_independence(frozenset(), algebra)

    @pytest.mark.parametrize("size", range(1, 5))
    def test_atom_test_matches_literal_definition_exhaustively(self, size):
        ground = tuple(range(size))
        for atoms in all_partitions(ground):
            algebra = BooleanSubalgebra(ground, tuple(atoms))
            for bits in itertools.product((0, 1), repeat=size):
                event = frozenset(x for x, b in zip(ground, bits) if b)
                assert is_logically_independent(event, algebra) == (
                    literal_logical_independence(event, algebra)
                )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_atom_test_matches_literal_definition_sampled_size5(self, data):
        ground = tuple(range(5))
        blocks: list[set] = []
        for x in ground:
            idx = data.draw(st.integers(0, len(blocks)))
            if idx == len(blocks):
                blocks.append({x})
            else:
                blocks[idx].add(x)
        algebra = BooleanSubalgebra(ground, tuple(frozenset(b) for b in blocks))
        event = frozenset(data.draw(st.sets(st.sampled_from(ground))))
        assert is_logically_independent(event, algebra) == (
            literal_logical_independence(event, algebra)
        )


class TestAdjoin:
    def test_adjoin_refines_partition(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        refined = algebra.adjoin({2, 3})
        assert set(refined.atoms) == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
        }

    def test_adjoin_expressible_set_changes_nothing(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        assert algebra.adjoin({3, 4}).atoms == algebra.atoms

    def test_child_shares_the_parents_ground_index(self, rng):
        ground = tuple(range(12))
        algebra = atoms_of_generated_algebra(ground, [set(range(6))])
        for _ in range(5):
            event = frozenset(rng.sample(ground, 5))
            child, _ = algebra.split(event)
            assert child == algebra.adjoin(event)
            assert child.ground is algebra.ground
            assert child.ground_set is algebra.ground_set
            assert child._position is algebra._position
            assert child == BooleanSubalgebra(ground, child.atoms)  # a valid partition
            keys = [child.atom_sort_key(atom) for atom in child.atoms]
            assert keys == sorted(keys)
            algebra = child
        cat = catalog(4)
        built = heard_prefix_algebra(cat, 3)
        assert built.ground is full_world_space(cat)
        assert built.ground_set is world_set(cat)

    def test_adjoin_refuses_elements_outside_the_ground(self):
        algebra = atoms_of_generated_algebra((1, 2, 3, 4), [{1, 2}])
        with pytest.raises(ValueError, match="outside the ground set"):
            algebra.adjoin({2, 99})
        with pytest.raises(ValueError, match="outside the ground set"):
            algebra.split({99})
        with pytest.raises(ValueError, match="outside the ground set"):
            BooleanSubalgebra((), ()).adjoin({1})

    @pytest.mark.parametrize("n", range(12))
    def test_split_children_are_partitions_along_random_chains(self, n, rng):
        cat = catalog(n)
        space = full_world_space(cat)
        algebra = atoms_of_generated_algebra(space, [guilt_event(cat)])
        for _ in range(5):
            pick = rng.random()
            if pick < 0.3:
                event = heard_event(
                    cat, Transcript(i for i in range(n) if rng.random() < 0.3)
                )
            elif pick < 0.8:
                share = rng.random()
                event = frozenset(w for w in space if rng.random() < share)
            else:  # a member of the algebra: nothing is cut
                event = frozenset().union(
                    *(atom for atom in algebra.atoms if rng.random() < 0.5)
                )
            child, parts = algebra.split(event)
            _check_partition(child.atoms, world_set(cat))
            assert child == oracle_adjoin(algebra, event)
            # the keys split hands on are those a fresh pass computes
            assert child._atom_keys == tuple(map(child.atom_sort_key, child.atoms))
            assert len(parts) == len(algebra.atoms)
            for atom, (inside, outside) in zip(algebra.atoms, parts):
                assert (inside, outside) == (atom & event, atom - event)
                if not (inside and outside):
                    assert (inside or outside) is atom  # an uncut atom is reused
            algebra = child

    def test_powerset_algebra_atomizes_by_points(self):
        cat = catalog(2)
        worlds = full_world_space(cat)
        algebra = powerset_algebra(worlds)
        assert algebra.atoms == tuple(frozenset({w}) for w in worlds)
        # generators that separate every world give the same atoms, in order,
        # and so does splitting world_algebra; only world_algebra is flagged
        separating = [guilt_event(cat)] + [heard_event(cat, Transcript({i})) for i in range(2)]
        generated = atoms_of_generated_algebra(worlds, separating)
        child, _ = world_algebra(cat).split(guilt_event(cat))
        assert world_algebra(cat).is_world_powerset
        for same in (algebra, generated, child):
            assert (same.ground, same.atoms) == (worlds, world_algebra(cat).atoms)
            assert not same.is_world_powerset
        assert not atoms_of_generated_algebra(worlds, []).is_world_powerset
        assert not powerset_algebra((1, 2, 3)).is_world_powerset


class TestIntegerEncoding:
    def test_hash_and_equality_are_ints_own(self):
        # a Python-level override would put a frame back on every set operation
        for cls in (World, Transcript):
            assert cls.__hash__ is int.__hash__
            assert cls.__eq__ is int.__eq__

    @pytest.mark.parametrize("n", range(9))
    def test_matches_naive_pair_construction(self, n):
        cat = catalog(n)
        naive = naive_world_space(n)
        space = full_world_space(cat)
        assert [as_naive(w) for w in space] == naive
        assert list(space) == sorted(space)  # canonical order is integer order
        assert [t.members for t in cat.all_transcripts()] == naive_transcripts(n)
        assert {as_naive(w) for w in guilt_event(cat)} == {
            p for p in naive if p[1] is Guilt.GUILTY
        }
        for t in cat.all_transcripts():
            assert {as_naive(w) for w in event_of_transcript(cat, t)} == {
                p for p in naive if p[0] == t.members
            }
            assert {as_naive(w) for w in heard_event(cat, t)} == {
                p for p in naive if t.members <= p[0]
            }
        assert heard_event(cat, Transcript()) == frozenset(space)
        full = Transcript(range(n))
        assert heard_event(cat, full) == event_of_transcript(cat, full)

    @settings(max_examples=200, deadline=None)
    @given(
        members=st.frozensets(st.integers(0, WORLD_CAP_CEILING - 1)),
        guilt=st.sampled_from(Guilt),
    )
    def test_round_trip(self, members, guilt):
        t = Transcript(members)
        assert t.members == members
        assert len(t) == len(members)
        assert all((i in t) == (i in members) for i in range(-1, WORLD_CAP_CEILING + 1))
        world = World(t, guilt)
        assert world.transcript == t and type(world.transcript) is Transcript
        assert world.guilt is guilt
        assert pickle.loads(pickle.dumps(world)) == world
        assert pickle.loads(pickle.dumps(t)) == t

    def test_repr_is_unchanged(self):
        assert repr(Transcript({2, 0})) == "Transcript({0,2})"
        assert repr(World(Transcript(), Guilt.INNOCENT)) == "World(Transcript({}), I)"

    def test_indices_outside_every_catalog_are_foreign(self):
        for index in (-1, WORLD_CAP_CEILING):
            with pytest.raises(ForeignTestimony):
                Transcript({index})
        with pytest.raises(ForeignTestimony, match=r"\[1, 3\]"):
            catalog(1).transcript_labels(Transcript({0, 1, 3}))
        for n in range(4):
            with pytest.raises(ForeignTestimony):
                event_of_transcript(catalog(n), Transcript({n}))

    def test_plain_ints_are_not_transcripts_or_worlds(self):
        cat = catalog(2)
        with pytest.raises(TypeError):
            event_of_transcript(cat, 1)
        with pytest.raises(TypeError):
            World(1, Guilt.GUILTY)
        with pytest.raises(TypeError):
            World(Transcript(), "G")
