"""Dispositions, axioms, and the rationalization round trip."""

import itertools
import json
import operator
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurybayes import dispositions
from jurybayes.charges import Charge
from jurybayes.dispositions import (
    Disposition,
    VerificationResult,
    always_convict_nonempty,
    check_poi,
    check_wtc,
    guilt_prior,
    is_open_door,
    posner_even_odds_prior,
    rationalize,
    verify_rationalization,
)
from jurybayes.errors import (
    AxiomViolation,
    CatalogMismatch,
    ForeignTestimony,
    JuryBayesError,
    NotExpressible,
    ThetaOutOfRange,
    ZeroTranscriptMass,
)
from jurybayes.serialize import charge_from_jsonable, charge_to_jsonable
from jurybayes.worlds import (
    BooleanSubalgebra,
    Guilt,
    TestimonyCatalog,
    Transcript,
    World,
    event_of_transcript,
    full_world_space,
    guilt_event,
    powerset_algebra,
    transcript_masses,
    world_algebra,
)

from conftest import (
    assert_coded_view,
    charge_by_atom,
    oracle_rationalize_prior,
    oracle_transcript_posteriors,
    random_masses,
    random_partition,
    recoded,
    uniform_charge,
)


def catalog(n: int) -> TestimonyCatalog:
    return TestimonyCatalog(tuple(f"t{i}" for i in range(n)))


def measured_posterior(prior: Charge, cat: TestimonyCatalog, t: Transcript) -> F:
    """Independent conditional computation straight from atom masses."""
    event = event_of_transcript(cat, t)
    guilty = frozenset({World(t, Guilt.GUILTY)})
    return prior.measure(guilty) / prior.measure(event)


class TestAxioms:
    def test_poi(self):
        cat = catalog(1)
        assert check_poi(Disposition(cat, [cat.transcript(["t0"])]))
        assert not check_poi(Disposition(cat, [Transcript()]))
        assert check_poi(Disposition(cat, []))

    def test_wtc(self):
        cat = catalog(1)
        assert check_wtc(Disposition(cat, [cat.transcript(["t0"])]))
        assert not check_wtc(Disposition(cat, []))
        assert check_wtc(always_convict_nonempty(cat))

    def test_foreign_transcripts_rejected(self):
        with pytest.raises(ForeignTestimony):
            Disposition(catalog(1), [Transcript({3})])


# A bad member among many good ones, and the exact error it must raise.
# Members are checked in C first and walked only on failure.
BAD_MEMBERS = [
    ("300", TypeError, "expected a Transcript, got int"),
    ("'t0'", TypeError, "expected a Transcript, got str"),
    ("None", TypeError, "expected a Transcript, got NoneType"),
    ("Transcript({8})", ForeignTestimony,
     "transcript indices [8] are outside the catalog of size 8"),
    ("Transcript({2, 9, 11})", ForeignTestimony,
     "transcript indices [9, 11] are outside the catalog of size 8"),
    # no public constructor makes a negative transcript, but the range check holds
    ("int.__new__(Transcript, -1)", ForeignTestimony,
     "transcript indices [] are outside the catalog of size 8"),
]

_MEMBER_CHECK = """
import json, sys
from jurybayes.worlds import TestimonyCatalog, Transcript
from jurybayes.dispositions import Disposition
cat = TestimonyCatalog(tuple(f"t{i}" for i in range(8)))
good = list(cat.all_transcripts())[1:]
try:
    Disposition(cat, good[:100] + [eval(sys.argv[1])] + good[100:])
except Exception as exc:
    print(json.dumps([type(exc).__name__, str(exc), sys.flags.optimize]))
"""


class TestMemberChecks:
    @pytest.mark.parametrize("bad,error,message", BAD_MEMBERS)
    def test_one_bad_member_among_many(self, bad, error, message):
        cat = catalog(8)
        good = list(cat.all_transcripts())[1:]
        with pytest.raises(error) as got:
            Disposition(cat, good[:100] + [eval(bad)] + good[100:])
        assert str(got.value) == message

    @pytest.mark.parametrize("bad,error,message", BAD_MEMBERS[::3])
    def test_the_same_under_python_o(self, bad, error, message):
        result = subprocess.run(
            [sys.executable, "-O", "-c", _MEMBER_CHECK, bad], capture_output=True, text=True
        )
        assert json.loads(result.stdout) == [error.__name__, message, 1], result.stderr

    def test_of_several_bad_members_the_first_in_set_order_names_the_error(self):
        cat = catalog(8)
        members = frozenset([*cat.all_transcripts(), Transcript({9}), "t0", Transcript({12}), 300])
        for member in members:  # the member-by-member walk, in set order
            try:
                cat._check_transcript(member)
            except (TypeError, ForeignTestimony) as exc:
                expected = type(exc), str(exc)
                break
        with pytest.raises(expected[0]) as got:
            Disposition(cat, members)
        assert str(got.value) == expected[1]

    def test_a_label_set_given_as_one_string_is_refused(self):
        # ["ab"] convicted on {a, b}: the string was read as its letters
        cat = TestimonyCatalog(("a", "b"))
        with pytest.raises(TypeError, match="got the string 'ab'"):
            Disposition.from_label_sets(cat, ["ab"])
        with pytest.raises(TypeError, match="got the string 'a'"):
            Disposition.from_label_sets(cat, "ab")
        disposition = Disposition.from_label_sets(cat, [["a", "b"]])
        assert disposition.convicting == {cat.transcript(["a", "b"])}


class TestRationalize:
    def test_single_witness_masses_match_hand_computation(self):
        # n_C = n_A = 1, theta = 3/4, mixture weight 1/2:
        # ({t0},G) = 3/8, ({t0},I) = 1/8, (empty,G) = 1/8, (empty,I) = 3/8
        cat = catalog(1)
        disposition = Disposition(cat, [cat.transcript(["t0"])])
        certificate = rationalize(disposition, F(3, 4))
        prior = certificate.prior
        t0 = cat.transcript(["t0"])
        empty = Transcript()
        assert prior.measure({World(t0, Guilt.GUILTY)}) == F(3, 8)
        assert prior.measure({World(t0, Guilt.INNOCENT)}) == F(1, 8)
        assert prior.measure({World(empty, Guilt.GUILTY)}) == F(1, 8)
        assert prior.measure({World(empty, Guilt.INNOCENT)}) == F(3, 8)
        assert prior.measure(guilt_event(cat)) == F(1, 2)
        assert measured_posterior(prior, cat, t0) == F(3, 4)
        assert measured_posterior(prior, cat, empty) == F(1, 4)

    def test_two_witness_rule_is_rationalizable(self):
        cat = catalog(3)
        disposition = Disposition(
            cat, (t for t in cat.all_transcripts() if len(t) >= 2)
        )
        theta = F(4, 5)
        certificate = rationalize(disposition, theta)
        # oracle: recompute every conditional from the masses alone
        for t in cat.all_transcripts():
            posterior = measured_posterior(certificate.prior, cat, t)
            assert (posterior >= theta) == (len(t) >= 2)
            assert posterior == (theta if len(t) >= 2 else 1 - theta)
        assert verify_rationalization(disposition, theta, certificate.prior).ok

    def test_always_convict_nonempty_meets_any_threshold(self):
        cat = catalog(2)
        for theta in (F(2, 3), F(3, 4), F(9, 10)):
            prior = rationalize(always_convict_nonempty(cat), theta).prior
            for t in cat.all_transcripts():
                if len(t) > 0:
                    assert measured_posterior(prior, cat, t) == theta

    def test_theta_domain(self):
        cat = catalog(1)
        disposition = Disposition(cat, [cat.transcript(["t0"])])
        for bad in (F(1, 2), F(1), F(0), F(5, 4)):
            with pytest.raises(ThetaOutOfRange):
                rationalize(disposition, bad)

    def test_axiom_failures_raise(self):
        cat = catalog(1)
        with pytest.raises(AxiomViolation):
            rationalize(Disposition(cat, [Transcript()]), F(3, 4))
        with pytest.raises(AxiomViolation):
            rationalize(Disposition(cat, []), F(3, 4))

    def test_closed_form_matches_two_charge_mixture(self, rng):
        for n in range(1, 7):
            cat = catalog(n)
            nonempty = [t for t in cat.all_transcripts() if len(t) > 0]
            for trial in range(8):
                # the first trial convicts every nonempty transcript: n_A = 1
                k = len(nonempty) if trial == 0 else rng.randrange(1, len(nonempty) + 1)
                disposition = Disposition(cat, rng.sample(nonempty, k))
                theta = F(rng.randrange(1, 60), 60) / 2 + F(1, 2)
                certificate = rationalize(disposition, theta)
                oracle = oracle_rationalize_prior(disposition, theta)
                assert certificate.prior.algebra.ground == oracle.algebra.ground
                assert certificate.prior.algebra.atoms == oracle.algebra.atoms
                assert certificate.prior.masses == oracle.masses
                assert certificate.prior.algebra is world_algebra(cat)
                # the claim the certificate writer states, made by the prior itself
                result = verify_rationalization(disposition, theta, certificate.prior)
                assert result.posteriors == {
                    t: theta if t in disposition.convicting else 1 - theta
                    for t in cat.all_transcripts()
                }
                assert result.ok

    def test_prior_is_four_values_and_each_worlds_code(self, rng):
        for n in range(1, 7):
            cat = catalog(n)
            nonempty = [t for t in cat.all_transcripts() if len(t) > 0]
            for _ in range(6):
                convicting = rng.sample(nonempty, rng.randrange(1, len(nonempty) + 1))
                disposition = Disposition(cat, convicting)
                theta = F(rng.randrange(31, 60), 60)
                prior = rationalize(disposition, theta).prior
                assert prior == oracle_rationalize_prior(disposition, theta)
                assert_coded_view(prior)
                n_convict = len(disposition.convicting)
                n_acquit = (1 << n) - n_convict
                assert prior.values == (
                    theta / (2 * n_convict),
                    (1 - theta) / (2 * n_convict),
                    (1 - theta) / (2 * n_acquit),
                    theta / (2 * n_acquit),
                )
                assert prior.codes == bytes(
                    code
                    for t in cat.all_transcripts()
                    for code in ((0, 1) if t in disposition.convicting else (2, 3))
                )

    def test_rejection_is_exactly_axiom_failure_exhaustively(self):
        # all 2^(2^n) dispositions for n <= 3
        for n in range(0, 4):
            cat = catalog(n)
            transcripts = list(cat.all_transcripts())
            for r in range(len(transcripts) + 1):
                for convicting in itertools.combinations(transcripts, r):
                    disposition = Disposition(cat, convicting)
                    valid = check_poi(disposition) and check_wtc(disposition)
                    if valid:
                        rationalize(disposition, F(2, 3))
                    else:
                        with pytest.raises(AxiomViolation):
                            rationalize(disposition, F(2, 3))


class TestVerify:
    def test_round_trip(self):
        cat = catalog(2)
        disposition = Disposition(cat, [cat.transcript(["t1"])])
        certificate = rationalize(disposition, F(5, 7))
        result = verify_rationalization(disposition, F(5, 7), certificate.prior)
        assert result.ok and result.witness is None

    def test_swapped_masses_fail_with_the_right_witness(self):
        cat = catalog(2)
        t1 = cat.transcript(["t1"])
        disposition = Disposition(cat, [t1])
        prior = rationalize(disposition, F(3, 4)).prior
        by_atom = dict(zip(prior.algebra.atoms, prior.masses))
        # swap guilt/innocence mass on the convicting transcript: posterior
        # drops from theta to 1 - theta
        g = frozenset({World(t1, Guilt.GUILTY)})
        i = frozenset({World(t1, Guilt.INNOCENT)})
        by_atom[g], by_atom[i] = by_atom[i], by_atom[g]
        perturbed = charge_by_atom(prior.algebra, by_atom)
        result = verify_rationalization(disposition, F(3, 4), perturbed)
        assert not result.ok
        assert result.witness == t1
        assert result.posteriors[t1] == F(1, 4)

    def test_uniform_prior_fails_always_convict(self):
        cat = catalog(2)
        uniform = uniform_charge(powerset_algebra(full_world_space(cat)))
        result = verify_rationalization(
            always_convict_nonempty(cat), F(3, 4), uniform
        )
        assert not result.ok
        assert result.witness == Transcript({0})  # first nonempty in canonical order
        assert all(p == F(1, 2) for p in result.posteriors.values())

    def test_zero_transcript_mass_is_an_error(self):
        cat = catalog(1)
        algebra = powerset_algebra(full_world_space(cat))
        empty = Transcript()
        concentrated = charge_by_atom(
            algebra,
            {
                frozenset({World(empty, Guilt.GUILTY)}): F(1, 2),
                frozenset({World(empty, Guilt.INNOCENT)}): F(1, 2),
            },
        )
        with pytest.raises(ZeroTranscriptMass):
            verify_rationalization(
                Disposition(cat, [cat.transcript(["t0"])]), F(3, 4), concentrated
            )

    @pytest.mark.parametrize(
        "blocks,masses,error",
        [
            # {t0} has mass 0 and comes before {t1}, whose worlds share atoms with {t0,t1}'s
            (
                [[0], [1], [2], [3], [4, 6], [5, 7]],
                [F(1, 2), F(1, 4), F(0), F(0), F(1, 4), F(0)],
                ZeroTranscriptMass,
            ),
            # the atom across {} and {t0} comes first, before the zero-mass {t1}
            (
                [[0, 2], [1], [3], [4], [5], [6], [7]],
                [F(1, 2), F(1, 4), F(0), F(0), F(0), F(1, 4), F(0)],
                NotExpressible,
            ),
        ],
    )
    def test_the_first_transcript_that_cannot_be_decided_names_the_error(
        self, rng, blocks, masses, error
    ):
        cat = catalog(2)
        disposition = Disposition(cat, [cat.transcript(["t0", "t1"])])
        prior = coded_prior(2, blocks, masses)
        for charge in (prior, recoded(rng, prior)):
            assert verify_outcome(disposition, F(3, 4), charge) is error
            assert oracle_verify_outcome(disposition, F(3, 4), charge) is error

    def test_equal_masses_in_distinct_objects_are_decided_once(self):
        """A tuple-built prior's codes are its atoms, so pairs are decided
        once per value: equal but distinct masses share one posterior."""
        cat = catalog(3)
        disposition = Disposition(cat, [t for t in cat.all_transcripts() if len(t) >= 2])
        prior = rationalize(disposition, F(2, 3)).prior
        twins = Charge(prior.algebra, tuple(F(m.numerator, m.denominator) for m in prior.masses))
        assert len(set(map(id, twins.masses))) == len(twins.masses)
        for charge in (prior, twins):
            result = verify_rationalization(disposition, F(2, 3), charge)
            assert result.ok
            assert len(set(map(id, result.posteriors.values()))) == 2  # convict, acquit

    def test_result_is_read_only_and_hashable(self):
        cat = catalog(2)
        disposition = Disposition(cat, [cat.transcript(["t1"])])
        prior = rationalize(disposition, F(3, 4)).prior
        result = verify_rationalization(disposition, F(3, 4), prior)
        again = verify_rationalization(disposition, F(3, 4), prior)
        assert result == again and hash(result) == hash(again)
        with pytest.raises(TypeError):
            result.posteriors[Transcript()] = F(0)
        with pytest.raises(TypeError):
            del result.posteriors[Transcript()]
        assert result.ok and result.posteriors == again.posteriors
        # built from a dict, a result compares as before and keeps a copy
        table = dict(result.posteriors)
        from_dict = VerificationResult(result.ok, result.witness, table)
        assert from_dict == result and hash(from_dict) == hash(result)
        table[Transcript()] = F(0)
        assert from_dict == result and from_dict.posteriors != table
        with pytest.raises(TypeError):
            from_dict.posteriors[Transcript()] = F(0)
        # a result with other posteriors is another result
        assert VerificationResult(result.ok, result.witness, table) != result
        assert len({result, again, from_dict}) == 1
        copied = pickle.loads(pickle.dumps(result))
        assert copied == result and type(copied.posteriors) is type(result.posteriors)

    def test_transcripts_are_built_once_per_catalog_size(self):
        cat, other = catalog(3), TestimonyCatalog(("a", "b", "c"))
        first = list(cat.all_transcripts())
        assert first == [Transcript(t.members) for t in first] == list(range(8))
        assert all(map(type.__instancecheck__, [Transcript] * 8, first))
        for transcripts in (cat.all_transcripts(), other.all_transcripts()):
            assert next(transcripts) is first[0]  # an iterator over the one tuple
            assert all(map(operator.is_, transcripts, first[1:]))
        disposition = Disposition(cat, first[3:])
        result = verify_rationalization(disposition, F(3, 4), rationalize(disposition, F(3, 4)).prior)
        assert all(map(operator.is_, result.posteriors, first))

    @pytest.mark.parametrize("theta", [F(2), F(-1), F(0), F(1)])
    def test_theta_outside_the_open_unit_interval_is_refused_first(self, theta):
        cat = catalog(1)
        disposition = Disposition(cat, [cat.transcript(["t0"])])
        empty = Transcript()
        priors = (
            rationalize(disposition, F(3, 4)).prior,
            # a foreign world space, and a zero-mass transcript: both would
            # raise on the first transcript read
            uniform_charge(powerset_algebra(full_world_space(catalog(2)))),
            charge_by_atom(
                powerset_algebra(full_world_space(cat)),
                {frozenset({World(empty, g)}): F(1, 2) for g in Guilt},
            ),
        )
        for prior in priors:
            with pytest.raises(ThetaOutOfRange, match=r"0 < theta < 1"):
                verify_rationalization(disposition, theta, prior)

    def test_wrong_world_space_is_a_catalog_mismatch(self):
        cat = catalog(1)
        other = uniform_charge(powerset_algebra(full_world_space(catalog(2))))
        with pytest.raises(CatalogMismatch):
            verify_rationalization(
                Disposition(cat, [cat.transcript(["t0"])]), F(3, 4), other
            )

    def test_ints_equal_to_the_worlds_are_a_catalog_mismatch(self):
        # plain ints compare equal to the world codes, but are not worlds
        cat = catalog(1)
        space = full_world_space(cat)
        disposition = Disposition(cat, [cat.transcript(["t0"])])
        for ground in (tuple(range(len(space))), (int(space[0]),) + space[1:]):
            impostor = uniform_charge(powerset_algebra(ground))
            assert impostor.algebra.ground_set == frozenset(space)
            with pytest.raises(CatalogMismatch):
                verify_rationalization(disposition, F(3, 4), impostor)
            with pytest.raises(CatalogMismatch):
                guilt_prior(impostor, cat)


class TestOpenDoor:
    def test_certificate_priors_are_open_door(self):
        cat = catalog(2)
        certificate = rationalize(Disposition(cat, [cat.transcript(["t0"])]), F(2, 3))
        assert is_open_door(certificate.prior)

    def test_concentrated_prior_is_not(self):
        cat = catalog(1)
        algebra = powerset_algebra(full_world_space(cat))
        t0 = cat.transcript(["t0"])
        charge = charge_by_atom(
            algebra,
            {
                frozenset({World(t0, Guilt.GUILTY)}): F(1, 2),
                frozenset({World(Transcript(), Guilt.INNOCENT)}): F(1, 2),
            },
        )
        assert not is_open_door(charge)

    def test_uniform_prior_is_open_door(self):
        cat = catalog(2)
        assert is_open_door(uniform_charge(powerset_algebra(full_world_space(cat))))

    def test_powerset_prior_is_read_without_transcripts(self, monkeypatch, rng):
        cat = catalog(5)
        priors = [one_sided_prior(rng, cat) for _ in range(20)] + [rationalized_prior(rng, cat)]
        expected = [oracle_open_door(prior) for prior in priors]
        assert set(expected) == {True, False}
        calls = []
        transcript = World.transcript
        monkeypatch.setattr(
            World, "transcript", property(lambda w: calls.append(w) or transcript.fget(w))
        )
        assert [is_open_door(prior) for prior in priors] == expected
        assert calls == []
        # the coarse path still reads each world's transcript
        open_door_outcome(coarse_prior(rng, cat), is_open_door)
        assert calls


class TestPosnerPrior:
    def test_all_nonempty_transcripts_hit_three_quarters(self):
        cat = catalog(2)
        prior = posner_even_odds_prior(cat, F(3, 4))
        posteriors = [
            measured_posterior(prior, cat, t)
            for t in cat.all_transcripts()
            if len(t) > 0
        ]
        assert len(posteriors) == 3
        assert all(p == F(3, 4) for p in posteriors)
        assert guilt_prior(prior, cat) == F(1, 2)

    def test_nine_tenths(self):
        cat = catalog(3)
        prior = posner_even_odds_prior(cat, F(9, 10))
        assert guilt_prior(prior, cat) == F(1, 2)
        for t in cat.all_transcripts():
            if len(t) > 0:
                assert measured_posterior(prior, cat, t) >= F(9, 10)

    def test_first_testimony_already_convicts(self):
        # a single act of testifying pushes the posterior to the threshold
        cat = catalog(1)
        prior = posner_even_odds_prior(cat, F(3, 4))
        assert measured_posterior(prior, cat, cat.transcript(["t0"])) >= F(3, 4)

    def test_low_threshold_served_by_interior_construction(self):
        cat = catalog(1)
        for theta in (F(1, 3), F(1, 2)):
            prior = posner_even_odds_prior(cat, theta)
            assert guilt_prior(prior, cat) == F(1, 2)
            assert measured_posterior(prior, cat, cat.transcript(["t0"])) >= theta

    def test_theta_domain(self):
        cat = catalog(1)
        for bad in (F(0), F(1), F(9, 8)):
            with pytest.raises(ThetaOutOfRange):
                posner_even_odds_prior(cat, bad)

    def test_empty_catalog_cannot_satisfy_the_axioms(self):
        with pytest.raises(AxiomViolation):
            posner_even_odds_prior(catalog(0), F(3, 4))


class TestThetaRanges:
    """The three θ checks: each class and exact message at θ = low, at θ = 1, and for a float."""

    RULES = {
        "rationalize": "rationalization threshold must satisfy 1/2 < theta < 1",
        "verify": "verification threshold must satisfy 0 < theta < 1",
        "posner": "even-odds prior needs 0 < theta < 1",
    }

    def check(self, kind, theta):
        cat = catalog(1)
        disposition = Disposition(cat, [cat.transcript(["t0"])])
        if kind == "rationalize":
            return rationalize(disposition, theta)
        if kind == "verify":
            return verify_rationalization(disposition, theta, rationalize(disposition, "3/4").prior)
        return posner_even_odds_prior(cat, theta)

    @pytest.mark.parametrize("kind", RULES)
    def test_exact_messages_at_the_bounds(self, kind):
        low = "1/2" if kind == "rationalize" else "0"
        for theta, shown in ((F(low), low), (1, "1"), ("-3/2", "-3/2"), (F(9, 8), "9/8")):
            with pytest.raises(ThetaOutOfRange) as caught:
                self.check(kind, theta)
            assert str(caught.value) == f"{self.RULES[kind]}, got {shown}"

    @pytest.mark.parametrize("kind", RULES)
    def test_a_float_theta_is_a_type_error(self, kind):
        with pytest.raises(TypeError) as caught:
            self.check(kind, 0.75)
        assert str(caught.value) == (
            "theta must be exact (int, Fraction, or string like '3/4'); got float 0.75"
        )


def rationalized_prior(rng: random.Random, cat: TestimonyCatalog) -> Charge:
    nonempty = [t for t in cat.all_transcripts() if len(t) > 0]
    convicting = rng.sample(nonempty, rng.randrange(1, len(nonempty) + 1))
    theta = F(rng.randrange(11, 20), 20)
    return rationalize(Disposition(cat, convicting), theta).prior


def point_prior_with_gaps(rng: random.Random, cat: TestimonyCatalog) -> Charge:
    """Random world masses; some transcripts, and some single worlds, get 0."""
    worlds = full_world_space(cat)
    masks = range(1 << len(cat))
    empty = set(rng.sample(masks, rng.randrange(0, len(masks))))
    weights = [
        0 if w.transcript.mask in empty else rng.randrange(0, 5) for w in worlds
    ]
    if not any(weights):
        weights[2 * min(set(masks) - empty)] = 1
    total = sum(weights)
    return Charge(powerset_algebra(worlds), tuple(F(x, total) for x in weights))


def coarse_prior(rng: random.Random, cat: TestimonyCatalog) -> Charge:
    """Random atoms over a shuffled world ground.

    Either any partition into blocks of one or two worlds (atoms may
    straddle transcripts), or one that only pairs a transcript's guilty
    world with its innocent one.  Atom masses may be zero.
    """
    worlds = list(full_world_space(cat))
    rng.shuffle(worlds)
    if rng.random() < 0.5:
        atoms = random_partition(rng, worlds)
    else:
        atoms = []
        for t in cat.all_transcripts():
            pair = (World(t, Guilt.GUILTY), World(t, Guilt.INNOCENT))
            if rng.random() < 0.5:
                atoms.append(frozenset(pair))
            else:
                atoms += [frozenset({w}) for w in pair]
    algebra = BooleanSubalgebra(tuple(worlds), tuple(atoms))
    return Charge(algebra, random_masses(rng, len(atoms)))


def one_sided_prior(rng: random.Random, cat: TestimonyCatalog) -> Charge:
    """Canonical world masses where many transcripts have a zero on one
    side (guilt settled there), on both sides, or on neither."""
    weights = []
    for _ in cat.all_transcripts():
        guilty, innocent = rng.randrange(1, 5), rng.randrange(1, 5)
        shape = rng.randrange(4)  # both positive, guilty zero, innocent zero, both zero
        weights += [0 if shape in (1, 3) else guilty, 0 if shape in (2, 3) else innocent]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return Charge(world_algebra(cat), tuple(F(w, total) for w in weights))


def many_denominator_prior(rng: random.Random, cat: TestimonyCatalog) -> Charge:
    """Canonical world masses on many distinct denominators, so that few
    (guilty, innocent) pairs repeat and every pair is decided afresh."""
    raw = [F(rng.randrange(0, 60), rng.randrange(1, 400)) for _ in full_world_space(cat)]
    if not any(raw):
        raw[0] = F(1)
    total = sum(raw)
    return Charge(world_algebra(cat), tuple(m / total for m in raw))


def recoded_one_sided_prior(rng: random.Random, cat: TestimonyCatalog) -> Charge:
    """A one-sided prior built from codes, over a palette with twins and an unused value."""
    return recoded(rng, one_sided_prior(rng, cat))


def recoded_coarse_prior(rng: random.Random, cat: TestimonyCatalog) -> Charge:
    """A coarse prior built from codes, over a palette with twins and an unused value."""
    return recoded(rng, coarse_prior(rng, cat))


def read_back_prior(rng: random.Random, cat: TestimonyCatalog) -> Charge:
    """A prior with gaps written and read back: the reader codes each distinct literal."""
    prior = point_prior_with_gaps(rng, cat)
    doc = json.loads(json.dumps(charge_to_jsonable(cat, prior)))
    read = charge_from_jsonable(doc)[1]
    assert read == prior and len(set(read.codes)) == len(set(doc["masses"].values()))
    return read


def tie_thetas(rng: random.Random, prior: Charge) -> list[F]:
    """A random threshold, and posteriors of the prior itself: there the
    integer test meets its edge, a posterior exactly equal to theta."""
    posteriors = set()
    try:
        for _, mass, guilty in oracle_transcript_posteriors(prior):
            if mass and 0 < guilty < mass:
                posteriors.add(guilty / mass)
    except (JuryBayesError, TypeError):
        pass
    return [F(rng.randrange(1, 20), 20)] + rng.sample(sorted(posteriors), min(2, len(posteriors)))


def kernel_rows(prior: Charge, cat: TestimonyCatalog | None = None):
    """(T, P(E_T), P(E_T ∩ G)) per transcript, read lazily from ``transcript_masses``."""
    order, values, *columns = transcript_masses(prior.algebra, prior.values, prior.codes, cat)
    for transcript, guilty, innocent in zip(order, *columns):
        yield transcript, values[guilty] + values[innocent], values[guilty]


def outcome(rows):
    """Rows produced before the first error, and that error's class."""
    seen = []
    try:
        for row in rows:
            seen.append(row)
    except (JuryBayesError, TypeError) as exc:
        return seen, type(exc)
    return seen, None


def verify_outcome(disposition, theta, prior):
    try:
        result = verify_rationalization(disposition, theta, prior)
    except JuryBayesError as exc:
        return type(exc)
    return result.ok, result.witness, result.posteriors


def oracle_verify_outcome(disposition, theta, prior):
    posteriors = {}
    witness = None
    try:
        for t, mass, guilty in oracle_transcript_posteriors(prior, disposition.catalog):
            if mass == 0:
                raise ZeroTranscriptMass(str(t))
            posteriors[t] = guilty / mass
            if witness is None and (guilty / mass >= theta) != (t in disposition.convicting):
                witness = t
    except JuryBayesError as exc:
        return type(exc)
    return witness is None, witness, posteriors


def open_door_outcome(prior, check):
    try:
        return check(prior)
    except JuryBayesError as exc:
        return type(exc)


def oracle_open_door(prior):
    for _, mass, guilty in oracle_transcript_posteriors(prior):
        if mass and guilty in (0, mass):
            return False
    return True


def coded_prior(n: int, blocks, masses) -> Charge:
    """A prior on the canonical world ground whose atoms are given as world codes."""
    worlds = full_world_space(catalog(n))
    atoms = tuple(frozenset(worlds[code] for code in block) for block in blocks)
    return Charge(BooleanSubalgebra(worlds, atoms), tuple(masses))


T = Transcript
#: (n, atoms as world codes, masses, rows read before the error, the error,
#: the open-door answer).  A world's code is 2*mask + 1 when innocent, so
#: codes 2k and 2k+1 are the k-th transcript's two worlds.
OPEN_DOOR_ORDER = {
    "pinned before a shared pair": (
        1, [[0], [1], [2, 3]], [F(1, 2), F(0), F(1, 2)],
        [(T(), F(1, 2), F(1, 2))], NotExpressible, False,
    ),
    "shared pair before a pinned one": (
        1, [[0, 1], [2], [3]], [F(1, 2), F(1, 2), F(0)],
        [], NotExpressible, NotExpressible,
    ),
    "zero-mass shared pair": (
        1, [[0], [1], [2, 3]], [F(1, 2), F(1, 2), F(0)],
        [(T(), F(1), F(1, 2)), (T({0}), F(0), F(0))], None, True,
    ),
    "pinned before an atom across transcripts": (
        2, [[0], [1], [2], [3], [4, 6], [5, 7]], [F(1, 4)] * 3 + [F(0), F(1, 4), F(0)],
        [(T(), F(1, 2), F(1, 4)), (T({0}), F(1, 4), F(1, 4))], NotExpressible, False,
    ),
    "a zero-mass atom across transcripts before a pinned one": (
        2, [[0], [1], [2], [3], [4, 6], [5, 7]], [F(1, 4)] * 4 + [F(0)] * 2,
        [(T(), F(1, 2), F(1, 4)), (T({0}), F(1, 2), F(1, 4))], NotExpressible, NotExpressible,
    ),
    "an atom across transcripts first": (
        2, [[0, 2], [1], [3], [4], [5], [6], [7]], [F(1, 6)] * 6 + [F(0)],
        [], NotExpressible, NotExpressible,
    ),
    "zero-mass shared pair among singletons": (
        2, [[0], [1], [2, 3], [4], [5], [6], [7]], [F(1, 6)] * 2 + [F(0)] + [F(1, 6)] * 4,
        [
            (T(), F(1, 3), F(1, 6)), (T({0}), F(0), F(0)),
            (T({1}), F(1, 3), F(1, 6)), (T({0, 1}), F(1, 3), F(1, 6)),
        ],
        None, True,
    ),
}


@pytest.mark.parametrize("case", OPEN_DOOR_ORDER)
def test_coarse_priors_are_read_in_transcript_order(case, rng):
    """On a coarse prior the first pinned transcript answers the open-door
    check, and a transcript that cannot be read raises only when it comes
    first; the kernel's rows stop at that transcript, with a catalog or
    without one, and so they do when the prior is built from codes."""
    n, blocks, masses, rows, error, door = OPEN_DOOR_ORDER[case]
    prior = coded_prior(n, blocks, masses)
    assert outcome(oracle_transcript_posteriors(prior)) == (rows, error)
    assert open_door_outcome(prior, oracle_open_door) == door
    for charge in (prior, recoded(rng, prior)):
        assert outcome(kernel_rows(charge, catalog(n))) == (rows, error)
        assert outcome(kernel_rows(charge)) == (rows, error)
        assert open_door_outcome(charge, is_open_door) == door


class TestTranscriptPosteriorsKernel:
    """The one-pass kernel against two ``measure`` calls per transcript."""

    @pytest.mark.parametrize(
        "make",
        [
            rationalized_prior,
            point_prior_with_gaps,
            coarse_prior,
            one_sided_prior,
            many_denominator_prior,
            recoded_one_sided_prior,
            recoded_coarse_prior,
            read_back_prior,
        ],
    )
    def test_matches_measure_oracle(self, rng, make):
        """Witness, posteriors and error class of verify, the open-door
        answer and the kernel's rows, also at thresholds equal to a
        posterior, where the integer test meets its edge."""
        errors = set()  # kernel and verify outcomes seen, to show coverage
        seen = set()
        for n in range(1, 7):
            cat = catalog(n)
            for _ in range(12):
                prior = make(rng, cat)
                expected = outcome(oracle_transcript_posteriors(prior, cat))
                assert outcome(kernel_rows(prior, cat)) == expected
                assert outcome(kernel_rows(prior)) == outcome(
                    oracle_transcript_posteriors(prior)
                )
                errors.add(expected[1])
                for theta in tie_thetas(rng, prior):
                    disposition = Disposition(
                        cat, (t for t in cat.all_transcripts() if rng.random() < 0.5)
                    )
                    verified = verify_outcome(disposition, theta, prior)
                    assert verified == oracle_verify_outcome(disposition, theta, prior)
                    if isinstance(verified, type):
                        errors.add(verified)
                        continue
                    errors.add(None)
                    seen.add(verified[0])
                    seen.add("tie" if theta in verified[2].values() else "no tie")
                door = open_door_outcome(prior, is_open_door)
                assert door == open_door_outcome(prior, oracle_open_door)
                seen.add(("open door", door))
        coarse = make in (coarse_prior, recoded_coarse_prior)
        if not coarse:
            assert {True, False, "tie"} <= seen
        gaps = (point_prior_with_gaps, one_sided_prior, recoded_one_sided_prior, read_back_prior)
        if make in gaps:
            assert ZeroTranscriptMass in errors and None in errors
            assert ("open door", False) in seen
        if coarse:
            assert {NotExpressible, ZeroTranscriptMass, None} <= errors

    def test_point_path_matches_measure_oracle(self, rng):
        """Only world_algebra takes the pairwise path; point priors of the same
        shape built any other way take the atom path and give the same outputs."""
        for n in range(0, 6):
            cat = catalog(n)
            worlds = full_world_space(cat)
            shuffled = list(worlds)
            rng.shuffle(shuffled)
            singletons = [frozenset({w}) for w in worlds]
            algebras = {
                "cached": world_algebra(cat),
                "rebuilt": powerset_algebra(worlds),
                "split child": world_algebra(cat).split(guilt_event(cat))[0],
                "shuffled ground": powerset_algebra(shuffled),
                "shuffled atoms": BooleanSubalgebra(
                    worlds, tuple(rng.sample(singletons, len(singletons)))
                ),
            }
            for name, algebra in algebras.items():
                assert algebra.is_world_powerset == (name == "cached"), name
                for _ in range(6):
                    weights = [rng.choice((0, 0, 1, 2, 5)) for _ in worlds]
                    weights[rng.randrange(len(weights))] += 1
                    prior = Charge(algebra, tuple(F(w, sum(weights)) for w in weights))
                    assert list(kernel_rows(prior, cat)) == list(
                        oracle_transcript_posteriors(prior, cat)
                    ), name
                    assert list(kernel_rows(prior)) == list(
                        oracle_transcript_posteriors(prior)
                    ), name
                    if algebra.atoms == tuple(singletons):
                        # the same prior on world_algebra reads alike on every path
                        cached = Charge(world_algebra(cat), prior.masses)
                        assert is_open_door(prior) == is_open_door(cached), name
                        assert json.dumps(charge_to_jsonable(cat, prior)) == json.dumps(
                            charge_to_jsonable(cat, cached)
                        ), name

    def test_world_powerset_needs_world_elements(self):
        cat = catalog(1)
        assert not powerset_algebra(range(4)).is_world_powerset
        assert not powerset_algebra(full_world_space(cat)[:2] + (2, 3)).is_world_powerset
        assert not powerset_algebra(full_world_space(cat)[:3]).is_world_powerset
        assert not BooleanSubalgebra(
            full_world_space(cat), (frozenset(full_world_space(cat)),)
        ).is_world_powerset

    def test_foreign_catalog_and_foreign_ground(self, rng):
        prior = point_prior_with_gaps(rng, catalog(2))
        for other in (catalog(1), catalog(3)):
            with pytest.raises(CatalogMismatch):
                next(kernel_rows(prior, other))
        numbers = uniform_charge(powerset_algebra((1, 2)))
        with pytest.raises(TypeError):
            next(kernel_rows(numbers))
        with pytest.raises(CatalogMismatch):
            next(kernel_rows(numbers, catalog(0)))

    def test_zero_mass_mixed_atom_is_not_an_error(self):
        cat = catalog(1)
        t0 = cat.transcript(["t0"])
        empty = Transcript()
        algebra = BooleanSubalgebra(
            full_world_space(cat),
            (
                frozenset({World(empty, Guilt.GUILTY), World(empty, Guilt.INNOCENT)}),
                frozenset({World(t0, Guilt.GUILTY)}),
                frozenset({World(t0, Guilt.INNOCENT)}),
            ),
        )
        prior = Charge(algebra, (F(0), F(1, 3), F(2, 3)))
        assert list(kernel_rows(prior, cat)) == [
            (empty, F(0), F(0)),
            (t0, F(1), F(1, 3)),
        ]
        positive = Charge(algebra, (F(1, 3), F(1, 3), F(1, 3)))
        with pytest.raises(NotExpressible):
            list(kernel_rows(positive, cat))

    def test_a_posterior_equal_to_theta_convicts(self):
        cat = catalog(2)
        disposition = Disposition(cat, [cat.transcript(["t0"]), cat.transcript(["t0", "t1"])])
        theta = F(3, 4)
        prior = rationalize(disposition, theta).prior
        assert verify_rationalization(disposition, theta, prior).ok
        # at theta' = 1 - theta the acquitting posteriors meet theta' exactly and convict
        result = verify_rationalization(disposition, 1 - theta, prior)
        assert not result.ok and result.witness == Transcript()
        assert result.posteriors[Transcript()] == 1 - theta
        # just above theta no posterior reaches it, so the first convicting transcript fails
        above = verify_rationalization(disposition, theta + F(1, 10**30), prior)
        assert above.witness == cat.transcript(["t0"])

    def test_each_distinct_pair_is_decided_once(self, monkeypatch):
        cat = catalog(6)
        disposition = Disposition(cat, (t for t in cat.all_transcripts() if len(t) >= 2))
        prior = rationalize(disposition, F(3, 4)).prior
        built = []
        real = dispositions.Fraction

        class Counting(real):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return real(*args, **kwargs)

        monkeypatch.setattr(dispositions, "Fraction", Counting)
        result = verify_rationalization(disposition, F(3, 4), prior)
        assert result.ok and len(result.posteriors) == 64
        assert len(built) == 2  # one posterior per distinct (guilty, innocent) pair


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(1, 4))
    cat = catalog(n)
    transcripts = [t for t in cat.all_transcripts() if len(t) > 0]
    convicting = data.draw(
        st.sets(st.sampled_from(transcripts), min_size=1).map(frozenset)
    )
    theta = data.draw(
        st.fractions(min_value=F(1, 2), max_value=1, max_denominator=30).filter(
            lambda q: F(1, 2) < q < 1
        )
    )
    disposition = Disposition(cat, convicting)
    certificate = rationalize(disposition, theta)
    assert certificate.guilt_prior == F(1, 2)
    assert guilt_prior(certificate.prior, cat) == F(1, 2)
    result = verify_rationalization(disposition, theta, certificate.prior)
    assert result.ok
    assert is_open_door(certificate.prior)
    for t, posterior in result.posteriors.items():
        assert posterior == (theta if t in convicting else 1 - theta)
