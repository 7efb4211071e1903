"""Exact-rational models of Bayesian threshold jurors.

The package builds finite trial world spaces, finitely additive
probability charges with exact rational values, and the constructions
that connect them: every verdict disposition satisfying the presumption
of innocence and a willingness to convict is reproduced exactly by an
even-odds threshold prior; charges extend to prescribed conditional
values; belief and verdict thresholds come out in closed form.

Names load on first use (PEP 562): ``import jurybayes`` imports no
submodule, and ``jurybayes.Charge`` imports ``jurybayes.charges`` the
first time it is read.
"""

from __future__ import annotations

from types import ModuleType

__version__ = "0.1.0"

#: Every public name, mapped to the submodule that defines it.
_EXPORTS: dict[str, str] = {
    name: module
    for module, names in (
        ("analyses", (
            "BLOOD_TYPES",
            "FallibleWitnessReport",
            "LikelihoodRatios",
            "Odds",
            "RateBoundConfig",
            "RatioBoundedPrior",
            "SpannSpace",
            "SuspectPool",
            "TestimonyCountBound",
            "build_ratio_bounded_convicting_prior",
            "build_spann_space",
            "certain_witness_posterior",
            "fallible_witness_event",
            "likelihood_ratio",
            "min_convicting_testimony_count",
            "posterior_odds",
            "uniform_guilt_prior",
        )),
        ("charges", ("Charge", "ConditionalResult", "mix")),
        ("dispositions", (
            "Disposition",
            "RationalizationCertificate",
            "VerificationResult",
            "Verdict",
            "always_convict_nonempty",
            "check_poi",
            "check_wtc",
            "guilt_prior",
            "is_open_door",
            "posner_even_odds_prior",
            "rationalize",
            "verify_rationalization",
        )),
        ("errors", (
            "AlgebraMismatch",
            "AxiomViolation",
            "CapExceeded",
            "CatalogMismatch",
            "CatalogTooSmall",
            "DegeneratePrior",
            "DegenerateUtilities",
            "EmptyMatchWithMatchingDefendant",
            "ForeignTestimony",
            "InvariantViolation",
            "JuryBayesError",
            "NonpositiveRatio",
            "NotExpressible",
            "NotIndependent",
            "OutOfRange",
            "ParseError",
            "ThetaOutOfRange",
            "UndefinedRatio",
            "ZeroConditioningEvent",
            "ZeroTranscriptMass",
        )),
        ("scoring", (
            "Attitude",
            "DoxasticState",
            "OptimalStateChoice",
            "PropositionPair",
            "ScoreWeights",
            "UtilityQuadruple",
            "brute_force_optimal",
            "expected_score",
            "expected_verdict_utilities",
            "optimal_doxastic_state",
            "score",
            "verdict_threshold",
        )),
        ("worlds", (
            "DEFAULT_WORLD_CAP",
            "WORLD_CAP_CEILING",
            "BooleanSubalgebra",
            "Guilt",
            "TestimonyCatalog",
            "Transcript",
            "World",
            "atoms_of_generated_algebra",
            "event_of_transcript",
            "full_world_space",
            "guilt_event",
            "heard_event",
            "is_expressible",
            "is_logically_independent",
            "powerset_algebra",
            "world_algebra",
        )),
    )
    for name in names
}

#: Submodules that ``jurybayes.<name>`` reaches without importing them first.
_SUBMODULES = frozenset(
    ("analyses", "charges", "cli", "dispositions", "errors",
     "rationals", "scoring", "serialize", "worlds")
)

__all__ = list(_EXPORTS)


def _load(module: str) -> ModuleType:
    # __import__, not importlib.import_module, whose imports python -X importtime
    # leaves out; importing a submodule also binds it in this module's globals
    __import__(f"{__name__}.{module}")
    return globals()[module]


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return _load(name)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
