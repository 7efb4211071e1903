"""Value semantics of the package's 20 immutable value objects.

They are plain classes on ``rationals.Frozen``.  Each keeps the
constructor signature, equality, hash, ``repr``, immutability and
pickling it had as a frozen dataclass; the literals below were read from
the dataclass version.
"""

import copy
import inspect
import pickle
from fractions import Fraction as F
from functools import cached_property

import pytest

from jurybayes.analyses import (
    FallibleWitnessReport,
    LikelihoodRatios,
    Odds,
    RateBoundConfig,
    RatioBoundedPrior,
    SpannSpace,
    SuspectPool,
    TestimonyCountBound,
    build_ratio_bounded_convicting_prior,
    build_spann_space,
    fallible_witness_event,
    likelihood_ratio,
    min_convicting_testimony_count,
)
from jurybayes.charges import Charge, ConditionalResult
from jurybayes.dispositions import (
    Disposition,
    RationalizationCertificate,
    VerificationResult,
    rationalize,
    verify_rationalization,
)
from jurybayes.rationals import Frozen
from jurybayes.scoring import (
    Attitude,
    DoxasticState,
    OptimalStateChoice,
    PropositionPair,
    ScoreWeights,
    UtilityQuadruple,
    optimal_doxastic_state,
)
from jurybayes.worlds import BooleanSubalgebra, TestimonyCatalog, powerset_algebra


def _pair() -> PropositionPair:
    return PropositionPair("p", {1}, {1, 2})


def _charge() -> Charge:
    return Charge(powerset_algebra((1, 2)), (F(1, 4), F(3, 4)))


def _disposition() -> Disposition:
    return Disposition.from_label_sets(TestimonyCatalog(("a", "b")), [["a"], ["a", "b"]])


#: class -> (a builder of a fresh instance, the constructor's parameters,
#: the fields its repr prints in order)
VALUES = {
    TestimonyCatalog: (
        lambda: TestimonyCatalog(("a", "b")),
        "(labels: 'Iterable[str]', world_cap: 'int | None' = None)",
        ("labels",),
    ),
    BooleanSubalgebra: (
        lambda: powerset_algebra((1, 2, 3)),
        "(ground: 'tuple[Hashable, ...]', atoms: 'tuple[frozenset, ...]')",
        ("ground", "atoms"),
    ),
    ConditionalResult: (
        lambda: ConditionalResult(F(1, 2), F(1, 3)),
        "(value: 'Fraction', conditioning_mass: 'Fraction')",
        ("value", "conditioning_mass"),
    ),
    Charge: (
        _charge,
        "(algebra: 'BooleanSubalgebra', masses: 'tuple[Fraction, ...]')",
        ("algebra", "masses"),
    ),
    Disposition: (
        _disposition,
        "(catalog: 'TestimonyCatalog', convicting: 'Iterable[Transcript]')",
        ("catalog", "convicting"),
    ),
    RationalizationCertificate: (
        lambda: rationalize(_disposition(), "3/4"),
        "(disposition: 'Disposition', theta: 'Fraction', prior: 'Charge', "
        "guilt_prior: 'Fraction')",
        ("disposition", "theta", "prior", "guilt_prior"),
    ),
    VerificationResult: (
        lambda: verify_rationalization(
            _disposition(), "3/4", rationalize(_disposition(), "3/4").prior
        ),
        "(ok: 'bool', witness: 'Transcript | None', posteriors: 'Mapping[Transcript, Fraction]')",
        ("ok", "witness", "posteriors"),
    ),
    PropositionPair: (
        _pair,
        "(name: 'str', positive: 'AbstractSet', ground: 'AbstractSet', *, "
        "allow_trivial: 'bool' = False)",
        ("name", "positive", "ground"),
    ),
    ScoreWeights: (
        lambda: ScoreWeights(1, 3),
        "(reward: 'Fraction', penalty: 'Fraction')",
        ("reward", "penalty"),
    ),
    DoxasticState: (
        lambda: DoxasticState((_pair(),), (Attitude.SUSPEND,)),
        "(pairs: 'tuple[PropositionPair, ...]', attitudes: 'tuple[Attitude, ...]')",
        ("pairs", "attitudes"),
    ),
    OptimalStateChoice: (
        lambda: optimal_doxastic_state(_charge(), [_pair()], ScoreWeights(1, 3)),
        "(state: 'DoxasticState', tied_pairs: 'tuple[str, ...]')",
        ("state", "tied_pairs"),
    ),
    UtilityQuadruple: (
        lambda: UtilityQuadruple(1, -9, 0, 0),
        "(convict_guilty: 'Fraction', convict_innocent: 'Fraction', "
        "acquit_guilty: 'Fraction', acquit_innocent: 'Fraction')",
        ("convict_guilty", "convict_innocent", "acquit_guilty", "acquit_innocent"),
    ),
    Odds: (
        lambda: Odds(1, 2),
        "(in_favor: 'Fraction', against: 'Fraction')",
        ("in_favor", "against"),
    ),
    SuspectPool: (
        lambda: SuspectPool(10, 2, True),
        "(size: 'int', matching_count: 'int', defendant_matches: 'bool')",
        ("size", "matching_count", "defendant_matches"),
    ),
    FallibleWitnessReport: (
        lambda: fallible_witness_event(SuspectPool(10, 2, True)),
        "(prior: 'Fraction', posterior: 'Fraction', event_size: 'int', "
        "degenerate_update: 'bool')",
        ("prior", "posterior", "event_size", "degenerate_update"),
    ),
    SpannSpace: (
        build_spann_space,
        "(ground: 'tuple[tuple[str, str, bool], ...]', algebra: 'BooleanSubalgebra', "
        "charge: 'Charge', paternity: 'frozenset', alibi_example: 'frozenset')",
        ("ground", "algebra", "charge", "paternity", "alibi_example"),
    ),
    LikelihoodRatios: (
        lambda: likelihood_ratio(
            Charge(powerset_algebra((1, 2, 3, 4)), (F(1, 8), F(3, 8), F(1, 4), F(1, 4))),
            {1, 3}, {1, 2},
        ),
        "(standard: 'Fraction', impact: 'Fraction', relevant: 'bool', "
        "impact_ceiling: 'Fraction')",
        ("standard", "impact", "relevant", "impact_ceiling"),
    ),
    RateBoundConfig: (
        lambda: RateBoundConfig("1/10", "3/4"),
        "(gamma: 'Fraction', theta: 'Fraction')",
        ("gamma", "theta"),
    ),
    TestimonyCountBound: (
        lambda: min_convicting_testimony_count(RateBoundConfig("1/10", "3/4")),
        "(steps: 'int', log_bound: 'float', poi_violated: 'bool')",
        ("steps", "log_bound", "poi_violated"),
    ),
    RatioBoundedPrior: (
        lambda: build_ratio_bounded_convicting_prior(
            TestimonyCatalog(("a", "b", "c")), RateBoundConfig("1/2", "3/4")
        ),
        "(catalog: 'TestimonyCatalog', config: 'RateBoundConfig', charge: 'Charge', "
        "posteriors: 'tuple[Fraction, ...]')",
        ("catalog", "config", "charge", "posteriors"),
    ),
}

#: repr text of some builders' instances, as the dataclasses printed it
REPRS = {
    TestimonyCatalog: "TestimonyCatalog(labels=('a', 'b'))",
    BooleanSubalgebra: (
        "BooleanSubalgebra(ground=(1, 2, 3), "
        "atoms=(frozenset({1}), frozenset({2}), frozenset({3})))"
    ),
    ConditionalResult: "ConditionalResult(value=Fraction(1, 2), conditioning_mass=Fraction(1, 3))",
    Charge: (
        "Charge(algebra=BooleanSubalgebra(ground=(1, 2), atoms=(frozenset({1}), frozenset({2}))), "
        "masses=(Fraction(1, 4), Fraction(3, 4)))"
    ),
    Disposition: (
        "Disposition(catalog=TestimonyCatalog(labels=('a', 'b')), "
        "convicting=frozenset({Transcript({0}), Transcript({0,1})}))"
    ),
    ScoreWeights: "ScoreWeights(reward=Fraction(1, 1), penalty=Fraction(3, 1))",
    Odds: "Odds(in_favor=Fraction(1, 1), against=Fraction(2, 1))",
    SuspectPool: "SuspectPool(size=10, matching_count=2, defendant_matches=True)",
    TestimonyCountBound: (
        "TestimonyCountBound(steps=5, log_bound=4.25416370990589, poi_violated=False)"
    ),
}


def _read_cached_properties(value) -> None:
    """Read every ``cached_property`` of the value and of each value it holds."""
    for cls in type(value).__mro__:
        for name, attr in vars(cls).items():
            if isinstance(attr, cached_property):
                getattr(value, name)
    for name in type(value)._fields:
        held = getattr(value, name)
        if isinstance(held, Frozen):
            _read_cached_properties(held)


def test_every_value_class_is_pinned():
    assert set(Frozen.__subclasses__()) == set(VALUES) and len(VALUES) == 20


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    build, parameters, fields = VALUES[cls]
    signature = inspect.signature(cls)
    assert str(signature.replace(return_annotation=inspect.Signature.empty)) == parameters

    value, same = build(), build()
    assert type(value) is cls and value is not same
    # fields the dataclass compared, hashed and printed, in order
    assert cls._fields == fields

    # cached values stay out of equality, hash and repr (two equal frozensets
    # may print their elements in different orders, so only one is printed)
    text = repr(value)
    _read_cached_properties(value)
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert repr(value) == text

    # equal only within the class: never to another class with the same
    # fields and values, nor to the field values themselves
    twin = object.__new__(type("Twin", (Frozen,), {"_fields": fields}))
    vars(twin).update(vars(value))
    assert value != twin and twin != value
    assert value.__eq__(twin) is NotImplemented
    assert value != tuple(getattr(value, name) for name in fields)

    printed = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert text == f"{cls.__qualname__}({printed})"
    if cls in REPRS:
        assert text == REPRS[cls]

    before = dict(vars(value))
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == before

    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is cls and vars(copied).keys() == vars(value).keys()
        assert copied == value and hash(copied) == hash(value)
        assert cls not in REPRS or repr(copied) == text


def test_fields_left_out_of_equality():
    # a catalog's world cap and a verification's posteriors stay out of its hash
    assert TestimonyCatalog(("a",), 5) == TestimonyCatalog(("a",))
    assert hash(TestimonyCatalog(("a",), 5)) == hash(TestimonyCatalog(("a",)))
    assert repr(TestimonyCatalog(("a",), 5)) == "TestimonyCatalog(labels=('a',))"
    held = VerificationResult(True, None, {})
    other = VerificationResult(True, None, {0: F(1, 2)})
    assert held != other and hash(held) == hash(other)
