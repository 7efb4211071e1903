"""File formats: world keys, disposition and charge documents, event specs."""

import gc
import json
import os
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurybayes import serialize
from jurybayes.charges import Charge
from jurybayes.cli import load_json
from jurybayes.dispositions import Disposition, RationalizationCertificate, rationalize
from jurybayes.errors import CatalogMismatch, ForeignTestimony, JuryBayesError, ParseError
from jurybayes.rationals import as_rational, exact_decimal, format_rational
from jurybayes.serialize import (
    catalog_from_jsonable,
    certificate_to_jsonable,
    charge_document_from_jsonable,
    charge_from_jsonable,
    charge_to_jsonable,
    disposition_from_jsonable,
    disposition_to_jsonable,
    event_from_spec,
    parse_world_key,
    require_same_catalog,
)
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
    world_set,
)

from conftest import (
    assert_coded_view,
    charge_by_atom,
    oracle_certificate_to_jsonable,
    oracle_charge_from_jsonable,
    oracle_charge_to_jsonable,
    oracle_disposition_to_jsonable,
    oracle_parse_world_key,
    oracle_world_key,
    random_masses,
    random_partition,
    recoded,
    uniform_charge,
)


@pytest.fixture
def cat():
    return TestimonyCatalog(("t1", "t2"))


def written_keys(cat: TestimonyCatalog) -> list[str]:
    """The world keys the writers put in a document, in canonical world order."""
    return list(charge_to_jsonable(cat, uniform_charge(world_algebra(cat)))["masses"])


class TestWorldKeys:
    def test_round_trip_every_world(self, cat):
        for world, key in zip(full_world_space(cat), written_keys(cat), strict=True):
            assert parse_world_key(cat, key) == world

    def test_key_format(self, cat):
        keys = written_keys(cat)  # a world's code is its position
        assert keys[World(cat.transcript(["t1", "t2"]), Guilt.GUILTY)] == "{t1,t2}|G"
        assert keys[World(Transcript(), Guilt.INNOCENT)] == "{}|I"

    def test_bad_keys_rejected(self, cat):
        for bad in ("t1|G", "{t1}", "{t1}|X", "{zz}|G"):
            with pytest.raises(ParseError):
                parse_world_key(cat, bad)

    def test_cached_keys_match_the_label_path(self):
        for n in range(5):
            cat = TestimonyCatalog(tuple(f"t{i}" for i in range(n)))
            for world, key in zip(full_world_space(cat), written_keys(cat), strict=True):
                assert key == oracle_world_key(cat, world)
                assert parse_world_key(cat, key) == world

    def test_a_charge_from_another_catalog_is_refused(self):
        small = TestimonyCatalog(("a",))
        # four int elements equal to the catalog's world codes are not its worlds
        charge = uniform_charge(powerset_algebra(range(4)))
        with pytest.raises(CatalogMismatch, match="not defined on the world space"):
            charge_to_jsonable(small, charge)
        large = TestimonyCatalog(("a", "b"))
        point = uniform_charge(world_algebra(small))
        coarse = uniform_charge(
            atoms_of_generated_algebra(full_world_space(small), [guilt_event(small)])
        )
        for charge in (point, coarse):
            for cat in (large, TestimonyCatalog(())):
                with pytest.raises(CatalogMismatch, match="not defined on the world space"):
                    charge_to_jsonable(cat, charge)
            # a same-size catalog shares the world space
            doc = charge_to_jsonable(TestimonyCatalog(("z",)), charge)
            assert charge_from_jsonable(doc)[1] == charge

    def test_keys_outside_canonical_form_parse_as_before(self):
        cat = TestimonyCatalog(("a", "b", "c"))
        keys = [
            "{b,a}|G", "{a,a}|I", "{c,,a}|G", "{,}|I", "{a,b,a,b}|G",
            "{a, b}|G", "{a}|g", "{d}|G", "{a}|I ", "{a}G", "", "{}|GI",
        ]
        for key in keys:
            try:
                expected = oracle_parse_world_key(cat, key)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    parse_world_key(cat, key)
                assert str(got.value) == str(exc)
            else:
                assert parse_world_key(cat, key) == expected
        assert parse_world_key(cat, "{b,a}|G") == World(cat.transcript(["a", "b"]), Guilt.GUILTY)
        assert parse_world_key(cat, "{a,a}|I") == World(cat.transcript(["a"]), Guilt.INNOCENT)

    def test_parsing_a_key_builds_no_key_table(self, monkeypatch):
        # at n=12 the table holds 8,192 keys; one key is read label by label
        cat = TestimonyCatalog(tuple(f"t{i}" for i in range(12)))

        def refuse(catalog):
            raise AssertionError("a key table was built")

        monkeypatch.setattr(serialize, "_key_table", refuse)
        for key in ("{t0,t11}|G", "{}|I", "{t11,t0}|G", "{t3,,t3}|I"):
            assert parse_world_key(cat, key) == oracle_parse_world_key(cat, key)
        with pytest.raises(ParseError, match="label 'zz' is not in the catalog"):
            parse_world_key(cat, "{t1,zz}|G")

    def test_non_string_keys_rejected(self, cat):
        coarse = atoms_of_generated_algebra(full_world_space(cat), [guilt_event(cat)])
        for bad in (1, None, ["{}|G"], {"{}|G": 1}):
            with pytest.raises(ParseError):
                parse_world_key(cat, bad)
            # also inside a coarse charge's atoms, whose keys are looked up in one table
            doc = charge_to_jsonable(cat, uniform_charge(coarse))
            doc["atoms"][1].insert(1, bad)
            with pytest.raises(ParseError) as got:
                charge_from_jsonable(doc)
            assert str(got.value) == f"world key must be a string, got {bad!r}"

    def test_same_size_catalogs_in_turn_get_their_own_keys(self, rng):
        first, flipped, other = ("a", "b", "c"), ("c", "b", "a"), ("x", "y", "z")
        for labels in (first, flipped, first, other, first):
            cat = TestimonyCatalog(labels)
            worlds = full_world_space(cat)
            for world in worlds:
                assert parse_world_key(cat, oracle_world_key(cat, world)) == world
            for key in ("{a,c}|G", "{c,a}|I", "{x}|G", "{}|I"):
                try:
                    expected = oracle_parse_world_key(cat, key)
                except ParseError as exc:
                    with pytest.raises(ParseError) as got:
                        parse_world_key(cat, key)
                    assert str(got.value) == str(exc)
                else:
                    assert parse_world_key(cat, key) == expected
            charge = Charge(world_algebra(cat), random_masses(rng, len(worlds)))
            doc = charge_to_jsonable(cat, charge)
            assert list(doc["masses"]) == [oracle_world_key(cat, w) for w in worlds]
            assert charge_from_jsonable(doc) == (cat, charge)
            certificate = rationalize(Disposition.from_label_sets(cat, [[labels[0]]]), F(3, 4))
            rows = certificate_to_jsonable(certificate)["posteriors"]
            transcripts = map(cat.transcript_labels, cat.all_transcripts())
            assert [row["transcript"] for row in rows] == list(map(list, transcripts))

    def test_threads_with_same_size_catalogs_each_get_their_own_keys(self):
        # the per-size table is replaced, never mutated, so a thread keeps
        # reading the table it looked up while another thread replaces it
        catalogs = [TestimonyCatalog((f"{p}0", f"{p}1", f"{p}2")) for p in "abcdef"]
        worlds = full_world_space(catalogs[0])
        expected = {cat: [oracle_world_key(cat, w) for w in worlds] for cat in catalogs}
        wrong = []

        def work(offset):
            for i in range(60):
                cat = catalogs[(i + offset) % len(catalogs)]
                keys = written_keys(cat)
                if keys != expected[cat] or tuple(parse_world_key(cat, k) for k in keys) != worlds:
                    wrong.append(cat)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_catalogs_seen_before_leave_no_keys_behind(self):
        # each n=8 label set's keys take about 80 kB; six of them retained
        # would leave about 400 kB, one table per size leaves a few kB
        def round_trip(prefix):
            cat = TestimonyCatalog(tuple(f"{prefix}{i}" for i in range(8)))
            disposition = Disposition.from_label_sets(cat, [[f"{prefix}0"]])
            doc = certificate_to_jsonable(rationalize(disposition, F(3, 4)))
            assert charge_document_from_jsonable(doc)[0] == cat

        tracemalloc.start()
        try:
            round_trip("a")
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for prefix in "bcdef":
                round_trip(prefix)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 40_000


class TestDispositionFormat:
    def test_round_trip(self, cat):
        disposition = Disposition.from_label_sets(cat, [["t1"], ["t1", "t2"]])
        doc = disposition_to_jsonable(disposition)
        assert doc["default"] == "acquit"
        assert disposition_from_jsonable(doc) == disposition

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError):
            disposition_from_jsonable(
                {"catalog": ["a"], "convicting": [], "extra": 1}
            )

    def test_only_acquit_default_supported(self):
        with pytest.raises(ParseError):
            disposition_from_jsonable(
                {"catalog": ["a"], "convicting": [], "default": "convict"}
            )

    def test_unsafe_labels_rejected(self):
        for label in ("has space", "pipe|y", "brace}", "comma,"):
            with pytest.raises(ParseError):
                disposition_from_jsonable({"catalog": [label], "convicting": []})

    def test_writers_refuse_the_labels_the_reader_refuses(self):
        # '{a,b}|G' would name both the world that heard a and b and the one that heard 'a,b'
        cat = TestimonyCatalog(("a", "b", "a,b"))
        with pytest.raises(ParseError) as refused:
            catalog_from_jsonable(list(cat.labels))
        disposition = Disposition(cat, [cat.transcript(["a,b"])])
        writers = [
            lambda: disposition_to_jsonable(disposition),
            lambda: charge_to_jsonable(cat, uniform_charge(world_algebra(cat))),
            lambda: certificate_to_jsonable(rationalize(disposition, F(3, 4))),
        ]
        for write in writers:
            with pytest.raises(ParseError) as got:
                write()
            assert str(got.value) == str(refused.value)
        # a refused label set leaves no key table behind for its size
        good = TestimonyCatalog(("a", "b", "c"))
        assert written_keys(good)[-1] == "{a,b,c}|I"

    def test_foreign_labels_rejected(self):
        with pytest.raises(ParseError):
            disposition_from_jsonable({"catalog": ["a"], "convicting": [["b"]]})

    @pytest.mark.parametrize(
        "entry,shown",
        [(["a", "c"], "'c'"), (["a", ["b"]], "['b']"), (["b", {"a": 1}, "a"], "{'a': 1}")],
    )
    def test_a_label_not_in_the_catalog_is_named(self, entry, shown):
        # an unhashable label is not in the catalog either, never a TypeError
        with pytest.raises(ParseError) as got:
            disposition_from_jsonable({"catalog": ["a", "b"], "convicting": [["a"], entry]})
        assert str(got.value) == f"bad convicting transcript: label {shown} is not in the catalog"

    @pytest.mark.parametrize(
        "entry", [[1], [None], [["a"]], [{"a": 1}], [True], [1.5], [10**399], ["c"]]
    )
    def test_non_label_entries_are_parse_errors(self, entry):
        with pytest.raises(ParseError, match="bad convicting transcript"):
            disposition_from_jsonable({"catalog": ["a", "b"], "convicting": [entry]})

    def test_reader_matches_the_label_by_label_reader(self, rng, monkeypatch):
        """Canonical lists are looked up in the key table; any other list is
        read label by label, with the same result or the same ParseError."""
        label_by_label = Disposition.from_label_sets

        def expected(cat, convicting):
            try:
                return label_by_label(cat, convicting)
            except ForeignTestimony as exc:
                return ParseError, f"bad convicting transcript: {exc}"

        def read(cat, convicting, *, looked_up):
            if looked_up:  # the lookup alone must read these lists
                monkeypatch.setattr(Disposition, "from_label_sets", None)
            try:
                doc = {"catalog": list(cat.labels), "convicting": convicting}
                return disposition_from_jsonable(doc)
            except ParseError as exc:
                return ParseError, str(exc)
            finally:
                monkeypatch.undo()

        for n in range(7):
            # same-size catalogs take turns, so each reads its own key table
            for labels in ([f"t{i}" for i in range(n)], [f"u{i}" for i in range(n)]):
                cat = TestimonyCatalog(labels)
                rows = [[labels[i] for i in range(n) if m >> i & 1] for m in range(1 << n)]
                canonical = [row for row in rows if rng.random() < 0.5]
                other = rng.choice(rows) if rows else []
                cases = [
                    canonical,
                    [],
                    [[]],
                    canonical + [other[::-1]],  # permuted
                    canonical + [other + other[:1]] + [other],  # a repeated label and list
                    canonical + [other + ["z"]],  # foreign
                    canonical + [other + ["t0" if n == 0 else labels[0].upper()]],  # case
                    [other + [1]] + canonical,  # not a string
                    canonical + [other + [None]],
                    canonical + [[True]],
                    canonical + [other + [["t0"]]],  # unhashable
                    [[{"t0": 1}]] + canonical,
                ]
                for i, convicting in enumerate(cases):
                    got = read(cat, convicting, looked_up=i < 3)
                    assert got == expected(cat, convicting)

    def test_shape_errors(self):
        with pytest.raises(ParseError):
            disposition_from_jsonable(["not", "an", "object"])
        with pytest.raises(ParseError):
            disposition_from_jsonable({"catalog": "a", "convicting": []})
        with pytest.raises(ParseError):
            disposition_from_jsonable({"catalog": ["a"], "convicting": ["b"]})


class TestChargeFormat:
    def test_powerset_round_trip(self, cat):
        algebra = powerset_algebra(full_world_space(cat))
        charge = uniform_charge(algebra)
        doc = charge_to_jsonable(cat, charge)
        assert "atoms" not in doc
        assert set(doc["masses"].values()) == {"1/8"}
        restored_cat, restored = charge_from_jsonable(doc)
        assert restored_cat == cat
        assert restored == charge

    def test_coarse_round_trip(self, cat):
        worlds = full_world_space(cat)
        algebra = atoms_of_generated_algebra(worlds, [guilt_event(cat)])
        charge = charge_by_atom(
            algebra, {atom: F(1, 2) for atom in algebra.atoms}
        )
        doc = charge_to_jsonable(cat, charge)
        assert len(doc["atoms"]) == 2
        restored_cat, restored = charge_from_jsonable(doc)
        assert restored == charge

    def test_a_coarse_read_looks_up_the_world_tables_once(self, monkeypatch):
        # the key table and the world tuple are looked up once per document,
        # not once per atom
        cat = TestimonyCatalog(("t1", "t2", "t3", "t4"))
        worlds = full_world_space(cat)
        calls = []
        key_table, world_space = serialize._key_table, serialize.full_world_space
        monkeypatch.setattr(serialize, "_key_table", lambda c: calls.append("table") or key_table(c))
        monkeypatch.setattr(
            serialize, "full_world_space", lambda c: calls.append("worlds") or world_space(c)
        )
        for steps in range(5):
            generators = [heard_event(cat, Transcript({i})) for i in range(steps)]
            charge = uniform_charge(atoms_of_generated_algebra(worlds, generators))
            doc = charge_to_jsonable(cat, charge)
            calls.clear()
            assert charge_from_jsonable(doc)[1] == charge
            assert len(doc["atoms"]) == 2**steps
            assert calls.count("table") == 1 and calls.count("worlds") <= 1

    def test_every_atom_appears_in_masses(self, cat):
        # zero masses serialize explicitly so output is byte-stable
        algebra = powerset_algebra(full_world_space(cat))
        charge = charge_by_atom(algebra, {algebra.atoms[0]: F(1)})
        doc = charge_to_jsonable(cat, charge)
        assert len(doc["masses"]) == len(algebra.atoms)

    def test_missing_masses_default_to_zero(self, cat):
        doc = {"catalog": ["t1", "t2"], "masses": {"{}|G": "1/2", "{}|I": "1/2"}}
        _, charge = charge_from_jsonable(doc)
        assert charge.measure(frozenset(full_world_space(cat))) == 1

    def test_validation_failures(self):
        base = {"catalog": ["t1"], "masses": {"{}|G": "1/2", "{}|I": "1/2"}}
        ok_cat, _ = charge_from_jsonable(base)
        assert len(ok_cat) == 1
        bad_total = {"catalog": ["t1"], "masses": {"{}|G": "1/2", "{}|I": "1/3"}}
        with pytest.raises(ParseError):
            charge_from_jsonable(bad_total)
        negative = {"catalog": ["t1"], "masses": {"{}|G": "3/2", "{}|I": "-1/2"}}
        with pytest.raises(ParseError):
            charge_from_jsonable(negative)
        unknown_key = {"catalog": ["t1"], "masses": {"nope": "1"}}
        with pytest.raises(ParseError):
            charge_from_jsonable(unknown_key)
        float_mass = {"catalog": ["t1"], "masses": {"{}|G": 0.5, "{}|I": "1/2"}}
        with pytest.raises(ParseError):
            charge_from_jsonable(float_mass)
        bad_atoms = {
            "catalog": ["t1"],
            "atoms": [["{}|G"], ["{}|I"]],
            "masses": {"{}|G": "1/2", "{}|I": "1/2"},
        }
        with pytest.raises(ParseError):
            charge_from_jsonable(bad_atoms)  # atoms miss half the world space

    def test_bad_atom_partitions_keep_their_messages(self, cat):
        keys = written_keys(cat)
        cases = [
            ([[], keys], "atoms must be nonempty"),
            ([keys[:5], keys[4:]], "atoms must partition the ground set"),  # an overlap
            ([keys[:4], keys[5:]], "atoms must partition the ground set"),  # a gap
        ]
        for atoms, message in cases:
            doc = {"catalog": list(cat.labels), "atoms": atoms, "masses": {}}
            with pytest.raises(ParseError) as got:
                charge_from_jsonable(doc)
            assert str(got.value) == f"bad atom partition: {message}"
        # a valid partition is built on the cached world set, not a copy of it
        atoms = [keys[:5], keys[5:]]
        doc = {"catalog": list(cat.labels), "atoms": atoms, "masses": {";".join(keys[:5]): "1"}}
        _, charge = charge_from_jsonable(doc)
        assert charge.algebra.ground_set is world_set(cat)

    def test_cached_world_algebra_serializes_like_any_point_algebra(self, rng):
        for n in range(4):
            cat = TestimonyCatalog(tuple(f"t{i}" for i in range(n)))
            worlds = full_world_space(cat)
            weights = [rng.randrange(0, 4) for _ in worlds]
            weights[0] += 1
            masses = tuple(F(w, sum(weights)) for w in weights)
            cached = charge_to_jsonable(cat, Charge(world_algebra(cat), masses))
            rebuilt = charge_to_jsonable(cat, Charge(powerset_algebra(worlds), masses))
            assert json.dumps(cached) == json.dumps(rebuilt)
            assert charge_from_jsonable(cached)[1].algebra is world_algebra(cat)

    def test_each_distinct_mass_literal_is_parsed_once(self, cat, monkeypatch):
        certificate = rationalize(Disposition.from_label_sets(cat, [["t1"]]), F(3, 4))
        doc = charge_to_jsonable(cat, certificate.prior)
        literals = []

        def counting(value, *, name="value"):
            literals.append(value)
            return as_rational(value, name=name)

        monkeypatch.setattr(serialize, "as_rational", counting)
        _, restored = charge_from_jsonable(doc)
        assert restored == certificate.prior
        assert sorted(literals) == sorted(set(doc["masses"].values()))
        bad = dict(doc, masses={**doc["masses"], "{t1}|G": "1/0"})
        with pytest.raises(ParseError, match=r"mass\[\{t1\}\|G\]"):
            charge_from_jsonable(bad)

    def test_certificate_document_provides_its_prior(self, cat):
        disposition = Disposition.from_label_sets(cat, [["t1"]])
        certificate = rationalize(disposition, F(3, 4))
        doc = certificate_to_jsonable(certificate)
        _, restored = charge_document_from_jsonable(doc)
        assert restored == certificate.prior
        assert doc["theta"] == "3/4"
        assert doc["guilt_prior"] == "1/2"

    def test_a_certificate_carries_exactly_the_writers_keys(self, cat):
        disposition = Disposition.from_label_sets(cat, [["t1"]])
        doc = certificate_to_jsonable(rationalize(disposition, F(3, 4)))
        with pytest.raises(ParseError, match=r"^certificate has unknown key\(s\): \['x'\]$"):
            charge_document_from_jsonable({**doc, "x": 1})
        for key in ("catalog", "theta", "guilt_prior", "posteriors"):
            short = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(ParseError, match=rf"^certificate is missing key\(s\): \['{key}'\]$"):
                charge_document_from_jsonable(short)
        # a bare charge is read as before
        assert charge_document_from_jsonable(doc["prior"]) == charge_document_from_jsonable(doc)

    def test_serialization_is_deterministic(self, cat):
        disposition = Disposition.from_label_sets(cat, [["t1"]])
        certificate = rationalize(disposition, F(3, 4))
        once = json.dumps(certificate_to_jsonable(certificate))
        again = json.dumps(certificate_to_jsonable(rationalize(disposition, F(3, 4))))
        assert once == again


class TestRenderingMatchesNaiveRenderer:
    """Table lookups and memoized rendering give the bytes of one
    ``format_rational`` call per value and one ``verdict()`` and one
    ``transcript_labels`` call per row."""

    @staticmethod
    def random_disposition(rng, n: int) -> Disposition:
        cat = TestimonyCatalog(tuple(f"w{i}" for i in range(n)))
        nonempty = [t for t in cat.all_transcripts() if len(t) > 0]
        return Disposition(cat, rng.sample(nonempty, rng.randrange(1, len(nonempty) + 1)))

    def test_certificates(self, rng):
        for n in range(1, 7):
            for _ in range(6):
                disposition = self.random_disposition(rng, n)
                theta = F(rng.randrange(2**20 + 1, 2**21), 2**21 - rng.randrange(0, 3))
                certificate = rationalize(disposition, theta)
                assert json.dumps(certificate_to_jsonable(certificate), indent=2) == json.dumps(
                    oracle_certificate_to_jsonable(certificate), indent=2
                )

    def test_certificates_with_many_distinct_values(self, rng):
        """A prior on many values, some integral."""
        for n in range(1, 7):
            disposition = self.random_disposition(rng, n)
            prior = Charge(world_algebra(disposition.catalog), random_masses(rng, 2 << n))
            certificate = RationalizationCertificate(
                disposition, F(rng.randrange(1, 9), 9), prior, F(1, 2)
            )
            assert json.dumps(certificate_to_jsonable(certificate), indent=2) == json.dumps(
                oracle_certificate_to_jsonable(certificate), indent=2
            )

    def test_dispositions(self, rng):
        for n in range(0, 9):
            for _ in range(6):
                # same-size catalogs with other labels replace the key table in turn
                cat = TestimonyCatalog(tuple(f"{rng.choice('wxyz')}{i}" for i in range(n)))
                transcripts = list(cat.all_transcripts())
                convicting = rng.sample(transcripts, rng.randrange(0, len(transcripts) + 1))
                disposition = Disposition(cat, convicting)
                assert json.dumps(disposition_to_jsonable(disposition)) == json.dumps(
                    oracle_disposition_to_jsonable(disposition)
                )

    def test_charges(self, rng):
        for n in range(0, 7):
            cat = TestimonyCatalog(tuple(f"w{i}" for i in range(n)))
            worlds = full_world_space(cat)
            shuffled = list(worlds)
            rng.shuffle(shuffled)
            algebras = [
                world_algebra(cat),
                powerset_algebra(shuffled),
                BooleanSubalgebra(worlds, random_partition(rng, worlds)),
                atoms_of_generated_algebra(worlds, [guilt_event(cat)]),
            ]
            for algebra in algebras:
                raw = [F(rng.randrange(0, 30), rng.randrange(1, 50)) for _ in algebra.atoms]
                raw[0] += 1
                total = sum(raw)
                charge = Charge(algebra, tuple(m / total for m in raw))
                expected = json.dumps(oracle_charge_to_jsonable(cat, charge), indent=2)
                assert json.dumps(charge_to_jsonable(cat, charge), indent=2) == expected
                # built from codes, over a palette with twins and an unused value
                coded = recoded(rng, charge)
                assert json.dumps(charge_to_jsonable(cat, coded), indent=2) == expected


class TestCoarseReaderMatchesNaiveReader:
    """The reader names atoms from the key table; the oracle names them
    world by world.  Both give the same charge or the same error."""

    @staticmethod
    def respelled(rng, key: str) -> str:
        """The same world key with its labels shuffled and maybe one repeated."""
        inner, guilt = key[1:].split("}|")
        labels = [part for part in inner.split(",") if part]
        if labels and rng.random() < 0.5:
            labels.append(rng.choice(labels))
        rng.shuffle(labels)
        return "{" + ",".join(labels) + "}|" + guilt

    def document(self, rng, cat: TestimonyCatalog) -> dict:
        """A coarse charge document with its atoms, and the worlds within each
        atom, in random order, and its world keys out of canonical form."""
        worlds = full_world_space(cat)
        blocks = list(random_partition(rng, worlds, min_block=rng.randrange(1, 4)))
        rng.shuffle(blocks)
        atoms = []
        for block in blocks:
            keys = [oracle_world_key(cat, w) for w in block]
            rng.shuffle(keys)
            atoms.append([self.respelled(rng, key) for key in keys])
        names = [";".join(oracle_world_key(cat, w) for w in sorted(block)) for block in blocks]
        masses = map(format_rational, random_masses(rng, len(blocks)))
        return {"catalog": list(cat.labels), "atoms": atoms, "masses": dict(zip(names, masses))}

    @staticmethod
    def outcome(read, doc: dict):
        try:
            catalog, charge = read(json.loads(json.dumps(doc)))
        except Exception as exc:
            return type(exc), str(exc)
        return catalog, charge.algebra, charge.masses

    def test_documents_out_of_canonical_order(self, rng):
        def respell_a_mass_key(doc):
            name = next(iter(doc["masses"]))
            parts = [self.respelled(rng, key) for key in name.split(";")]
            doc["masses"][";".join(reversed(parts))] = doc["masses"].pop(name)

        defects = [
            lambda doc: doc["atoms"][0].pop(),  # a world in no atom
            lambda doc: doc["atoms"][-1].append(doc["atoms"][0][0]),  # a world in two atoms
            lambda doc: doc["atoms"][0].append("{zz}|G"),
            lambda doc: doc["atoms"][-1].append("{}G"),
            respell_a_mass_key,
        ]
        for n in range(9):
            cat = TestimonyCatalog(tuple(f"t{i}" for i in range(n)))
            for _ in range(4):
                doc = self.document(rng, cat)
                expected = self.outcome(oracle_charge_from_jsonable, doc)
                assert expected[0] == cat
                assert self.outcome(charge_from_jsonable, doc) == expected
                for defect in defects:
                    broken = json.loads(json.dumps(doc))
                    defect(broken)
                    assert self.outcome(charge_from_jsonable, broken) == self.outcome(
                        oracle_charge_from_jsonable, broken
                    )


class TestMassReaderMatchesNaiveReader:
    """What the writer emits, every world's key in canonical order, is read
    by C maps; any other document key by key.  Either way the reader gives
    the oracle's charge, or its error class and message."""

    @staticmethod
    def priors(rng, cat: TestimonyCatalog) -> list[Charge]:
        nonempty = [t for t in cat.all_transcripts() if len(t) > 0]
        disposition = Disposition(cat, rng.sample(nonempty, rng.randrange(1, len(nonempty) + 1)))
        weights = [rng.randrange(0, 4) for _ in full_world_space(cat)]
        weights[0] += 1
        gaps = Charge(world_algebra(cat), tuple(F(w, sum(weights)) for w in weights))
        prior = rationalize(disposition, F(rng.randrange(11, 20), 20)).prior
        return [prior, gaps, recoded(rng, gaps)]

    @staticmethod
    def variants(rng, doc: dict) -> list[dict]:
        """The document as written, and as other writers or hands might write it."""
        masses = doc["masses"]
        keys = list(masses)
        key = rng.choice(keys)

        def with_masses(new):
            return dict(doc, masses=new)

        out = [
            doc,
            with_masses(dict(reversed(masses.items()))),
            with_masses({k: v for k, v in masses.items() if v != "0"}),
            with_masses({k: f" {v} " if k == key else v for k, v in masses.items()}),
            with_masses({k: (exact_decimal(F(v)) or v) for k, v in masses.items()}),
            dict(doc, atoms=[[k] for k in keys]),
        ]
        for bad in ("1/0", "x", "1e5000", "-1/3", "1/3", 0.5, None, 1, True, ["1/2"]):
            out.append(with_masses({k: bad if k == key else v for k, v in masses.items()}))
        out.append(with_masses({**masses, "{zz}|G": "0"}))
        out.append(with_masses({k: v for k, v in masses.items() if k != key}))
        return out

    def test_written_documents_and_their_variants(self, rng, monkeypatch):
        parsed = []

        def counting(value, *, name="value"):
            parsed.append(value)
            return as_rational(value, name=name)

        monkeypatch.setattr(serialize, "as_rational", counting)
        for n in range(1, 7):
            cat = TestimonyCatalog(tuple(f"t{i}" for i in range(n)))
            for prior in self.priors(rng, cat):
                doc = json.loads(json.dumps(charge_to_jsonable(cat, prior)))
                assert doc == oracle_charge_to_jsonable(cat, prior)
                for variant in self.variants(rng, doc):
                    parsed.clear()
                    expected = TestCoarseReaderMatchesNaiveReader.outcome(
                        oracle_charge_from_jsonable, variant
                    )
                    got = TestCoarseReaderMatchesNaiveReader.outcome(charge_from_jsonable, variant)
                    assert got == expected
                    literals = set(doc["masses"].values())
                    reordered = list(variant["masses"].items()) == list(
                        reversed(doc["masses"].items())
                    )
                    if variant is doc or reordered:
                        # read key by key, each distinct literal parsed once and coded
                        parsed.clear()
                        _, read = charge_from_jsonable(variant)
                        assert read == prior and read.algebra is world_algebra(cat)
                        assert_coded_view(read)
                        assert len(read.values) == len(literals) + 1  # and zero, for omitted atoms
                        assert sorted(parsed) == sorted(literals)

    def test_a_bad_literal_in_a_canonical_document_is_named_by_its_first_key(self):
        cat = TestimonyCatalog(("t1", "t2"))
        prior = rationalize(Disposition.from_label_sets(cat, [["t1", "t2"]]), F(3, 4)).prior
        masses = charge_to_jsonable(cat, prior)["masses"]
        keys = list(masses)
        for first, second in ((1, 5), (5, 1)):
            bad = {**masses, keys[first]: "1/0", keys[second]: "x"}
            with pytest.raises(ParseError) as got:
                charge_from_jsonable({"catalog": ["t1", "t2"], "masses": bad})
            assert str(got.value).startswith(f"mass[{keys[min(first, second)]}]: cannot parse")


class TestEventSpecs:
    def test_guilt(self, cat):
        assert event_from_spec(cat, "guilt") == guilt_event(cat)

    def test_transcript_forms(self, cat):
        exact = event_from_spec(cat, "transcript:t1+t2")
        assert {w.transcript for w in exact} == {cat.transcript(["t1", "t2"])}
        empty = event_from_spec(cat, "transcript:")
        assert {w.transcript for w in empty} == {Transcript()}

    def test_heard_form(self, cat):
        heard = event_from_spec(cat, "heard:t1")
        assert all(0 in w.transcript for w in heard)
        assert len(heard) == 4

    def test_json_array_form(self, cat):
        event = event_from_spec(cat, '["{t1}|G", "{t1}|I"]')
        assert len(event) == 2

    def test_bad_specs(self, cat):
        for bad in ("nonsense", "transcript:zz", "[1, 2]", "[bad json"):
            with pytest.raises(ParseError):
                event_from_spec(cat, bad)

    def test_a_canonical_json_spec_parses_no_key(self, cat, monkeypatch):
        keys = written_keys(cat)

        def refuse(catalog, key):
            raise AssertionError(f"parsed {key!r}")

        monkeypatch.setattr(serialize, "parse_world_key", refuse)
        assert event_from_spec(cat, json.dumps(keys)) == frozenset(full_world_space(cat))
        assert event_from_spec(cat, json.dumps(keys[2:4])) == event_from_spec(cat, "transcript:t1")
        assert event_from_spec(cat, "[]") == frozenset()

    def test_keys_outside_canonical_form_give_the_labelled_events(self):
        cat = TestimonyCatalog(("t1", "a", "b"))
        same = [
            ('["{t1,t1}|G", "{,t1}|I"]', "transcript:t1"),
            ('["{b,a}|G", "{a,b}|I"]', "transcript:b+a"),
            ('["{b,a,}|G", "{,a,b,a}|I"]', "transcript:+a++b+"),
            ('["{,}|G", "{}|I"]', "transcript:"),
            ('["{a}|G", "{a,a}|I", "{a,t1}|G", "{t1,a}|I", "{b,a}|G", "{a,b}|I",'
             ' "{a,b,t1}|G", "{b,t1,a}|I"]', "heard:a"),
            ('["{b,a}|G", "{a,b}|I", "{t1,a,b}|G", "{b,a,t1}|I"]', "heard:b+a+b"),
        ]
        for keys, labelled in same:
            assert event_from_spec(cat, keys) == event_from_spec(cat, labelled), keys

    def test_label_lists_name_their_form_in_errors(self, cat):
        for spec, message in [
            ("heard:t1+zz", "event spec 'heard:t1+zz': label 'zz' is not in the catalog"),
            ("transcript:zz+", "event spec 'transcript:zz+': label 'zz' is not in the catalog"),
            ('["{t1}|G", "{zz,t1}|I"]', "world key '{zz,t1}|I': label 'zz' is not in the catalog"),
            ('["{t1}|G", "{t1}I"]', "bad world key '{t1}I'; expected e.g. '{t1,t2}|G'"),
        ]:
            with pytest.raises(ParseError) as got:
                event_from_spec(cat, spec)
            assert str(got.value) == message

    @pytest.mark.parametrize("spec", ["heard:c", '["{c}|G"]', "transcript:\x00"])
    def test_foreign_labels_are_parse_errors(self, cat, spec):
        with pytest.raises(ParseError, match="not in the catalog"):
            event_from_spec(cat, spec)


def test_require_same_catalog(cat):
    require_same_catalog(cat, TestimonyCatalog(("t1", "t2")))
    with pytest.raises(CatalogMismatch):
        require_same_catalog(cat, TestimonyCatalog(("t1",)))


# ---------------------------------------------------------------------------
# Fuzzing: the parsers may only raise this package's own errors.

GOOD_LABELS = ("a", "b", "t1")
LABELS = GOOD_LABELS + ("", "a b", "x|y", "{")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# Mostly well-formed pieces, so that examples reach the deeper checks.
good_catalogs = st.lists(st.sampled_from(GOOD_LABELS), unique=True, max_size=3)
catalogs = st.one_of(
    good_catalogs, good_catalogs, st.lists(st.sampled_from(LABELS), max_size=4), json_values
)


def key_text(labels: list[str], guilt: str) -> str:
    return "{" + ",".join(labels) + "}|" + guilt


world_keys = (
    st.builds(
        key_text, st.lists(st.sampled_from(GOOD_LABELS), max_size=3), st.sampled_from("GI")
    )
    | st.builds(
        key_text,
        st.lists(st.sampled_from(LABELS), max_size=3),
        st.sampled_from(("G", "I", "X", "")),
    )
    | st.text(max_size=8)
)
mass_literals = (
    st.sampled_from(("0", "1", "1/2", "1/4", "-1/2", "1/0", "0.25", " 1/3 ", "1e5", "1e-9999", "x"))
    | st.text(max_size=6)
)
charge_fields = {
    "catalog": catalogs,
    "masses": st.dictionaries(world_keys, mass_literals | json_values, max_size=6)
    | json_values,
}
charge_docs = st.fixed_dictionaries(charge_fields) | st.fixed_dictionaries(
    {
        **charge_fields,
        "atoms": st.lists(
            st.lists(st.one_of(world_keys, st.none(), st.integers(), json_values), max_size=3),
            max_size=4,
        )
        | json_values,
    }
)
disposition_docs = st.fixed_dictionaries(
    {
        "catalog": catalogs,
        "convicting": st.lists(
            st.lists(st.sampled_from(LABELS) | json_values, max_size=3), max_size=4
        )
        | json_values,
    },
    optional={"default": st.sampled_from(("acquit", "convict")) | json_values},
)
event_specs = (
    st.text(max_size=12)
    | st.builds(
        str.__add__,
        st.sampled_from(("guilt", "transcript:", "heard:", "[", " guilt ")),
        st.text(max_size=8),
    )
    | st.builds(
        lambda kind, labels: kind + "+".join(labels),
        st.sampled_from(("transcript:", "heard:")),
        st.lists(st.sampled_from(LABELS), max_size=3),
    )
    | st.lists(world_keys | json_values, max_size=4).map(json.dumps)
    | json_values.map(json.dumps)
)


def only_package_errors(parse, *args):
    try:
        parse(*args)
    except JuryBayesError:
        pass


@settings(max_examples=250, deadline=None)
@given(doc=charge_docs | st.builds(lambda prior: {"prior": prior}, charge_docs) | json_values)
def test_fuzz_charge_documents(doc):
    only_package_errors(charge_document_from_jsonable, doc)
    only_package_errors(charge_from_jsonable, doc)


@settings(max_examples=150, deadline=None)
@given(doc=disposition_docs | json_values)
def test_fuzz_disposition_documents(doc):
    only_package_errors(disposition_from_jsonable, doc)


@settings(max_examples=200, deadline=None)
@given(spec=event_specs, n=st.integers(0, 3))
def test_fuzz_event_specs(spec, n):
    cat = TestimonyCatalog(("a", "b", "t1")[:n])
    only_package_errors(event_from_spec, cat, spec)


def objects_in(value) -> list[dict]:
    """Every JSON object in ``value``, outermost first."""
    if isinstance(value, dict):
        return [value, *(d for v in value.values() for d in objects_in(v))]
    if isinstance(value, list):
        return [d for v in value for d in objects_in(v)]
    return []


def dumps_repeating(value, target) -> str:
    """``json.dumps(value)``, except that the object ``target`` writes its last key twice."""
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {dumps_repeating(v, target)}" for k, v in value.items()]
        if value is target:
            items.append(items[-1])
        return "{" + ", ".join(items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps_repeating(v, target) for v in value) + "]"
    return json.dumps(value)


@settings(max_examples=150, deadline=None)
@given(doc=charge_docs | disposition_docs | json_values, data=st.data())
def test_fuzz_a_repeated_key_is_refused_in_any_object(doc, data):
    """The CLI's reader loads a document as ``json`` does, and refuses it
    with a ParseError naming the key once any one object repeats a key."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        text = dumps_repeating(doc, None)
        assert text == json.dumps(doc)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert json.dumps(load_json(path)) == text
        objects = [obj for obj in objects_in(doc) if obj]
        if objects:
            target = data.draw(st.sampled_from(objects))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(dumps_repeating(doc, target))
            with pytest.raises(ParseError) as refused:
                load_json(path)
            key = list(target)[-1]
            assert str(refused.value) == f"{path}: key {key!r} is repeated in one object"
