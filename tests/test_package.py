"""The package's lazy exports: every public name, resolved on first use."""

import json
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import jurybayes

#: The names ``jurybayes`` exports, by defining submodule: the public API
#: that every version keeps importable from the package itself.
PUBLIC_NAMES = {
    "analyses": (
        "BLOOD_TYPES", "FallibleWitnessReport", "LikelihoodRatios", "Odds",
        "RateBoundConfig", "RatioBoundedPrior", "SpannSpace", "SuspectPool",
        "TestimonyCountBound", "build_ratio_bounded_convicting_prior",
        "build_spann_space", "certain_witness_posterior", "fallible_witness_event",
        "likelihood_ratio", "min_convicting_testimony_count", "posterior_odds",
        "uniform_guilt_prior",
    ),
    "charges": ("Charge", "ConditionalResult", "mix"),
    "dispositions": (
        "Disposition", "RationalizationCertificate", "VerificationResult", "Verdict",
        "always_convict_nonempty", "check_poi", "check_wtc", "guilt_prior",
        "is_open_door", "posner_even_odds_prior", "rationalize",
        "verify_rationalization",
    ),
    "errors": (
        "AlgebraMismatch", "AxiomViolation", "CapExceeded", "CatalogMismatch",
        "CatalogTooSmall", "DegeneratePrior", "DegenerateUtilities",
        "EmptyMatchWithMatchingDefendant", "ForeignTestimony", "InvariantViolation",
        "JuryBayesError", "NonpositiveRatio", "NotExpressible", "NotIndependent",
        "OutOfRange", "ParseError", "ThetaOutOfRange", "UndefinedRatio",
        "ZeroConditioningEvent", "ZeroTranscriptMass",
    ),
    "scoring": (
        "Attitude", "DoxasticState", "OptimalStateChoice", "PropositionPair",
        "ScoreWeights", "UtilityQuadruple", "brute_force_optimal", "expected_score",
        "expected_verdict_utilities", "optimal_doxastic_state", "score",
        "verdict_threshold",
    ),
    "worlds": (
        "DEFAULT_WORLD_CAP", "WORLD_CAP_CEILING", "BooleanSubalgebra", "Guilt",
        "TestimonyCatalog", "Transcript", "World", "atoms_of_generated_algebra",
        "event_of_transcript", "full_world_space", "guilt_event", "heard_event",
        "is_expressible", "is_logically_independent", "powerset_algebra",
        "world_algebra",
    ),
}
DEFINED_IN = {name: module for module, names in PUBLIC_NAMES.items() for name in names}
SUBMODULES = {info.name for info in pkgutil.iter_modules(jurybayes.__path__)}


def fresh_interpreter(code: str) -> object:
    """Run ``code`` in a new interpreter and decode the JSON it prints last."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_exports_are_the_public_names():
    assert len(DEFINED_IN) == 80
    assert set(jurybayes.__all__) == set(DEFINED_IN)
    assert len(jurybayes.__all__) == len(DEFINED_IN)


def test_each_name_is_its_submodule_object():
    differ = [
        name for name, module in DEFINED_IN.items()
        if getattr(jurybayes, name) is not getattr(import_module(f"jurybayes.{module}"), name)
    ]
    assert differ == []


def test_dir_lists_every_export_and_submodule():
    assert set(DEFINED_IN) | SUBMODULES <= set(dir(jurybayes))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        jurybayes.no_such_name  # noqa: B018
    assert not hasattr(jurybayes, "no_such_name")


def test_bare_import_loads_nothing_yet_reaches_every_submodule():
    loaded = fresh_interpreter(
        "import json, sys\n"
        "import jurybayes\n"
        "before = sorted(m for m in sys.modules if m.startswith('jurybayes'))\n"
        f"reached = [getattr(jurybayes, m).__name__ for m in {sorted(SUBMODULES)!r}]\n"
        "print(json.dumps([before, reached]))\n"
    )
    assert loaded == [["jurybayes"], [f"jurybayes.{m}" for m in sorted(SUBMODULES)]]


def test_star_import_binds_every_name():
    unbound = fresh_interpreter(
        "import json\n"
        "from jurybayes import *\n"
        "import jurybayes\n"
        "print(json.dumps([n for n in jurybayes.__all__ if n not in globals()]))\n"
    )
    assert unbound == []


def test_only_worlds_reads_the_world_powerset_flag():
    """The world-powerset layout (atom i is the world with code i) is known
    to ``worlds`` alone: every other module asks its readers."""
    package = Path(jurybayes.__file__).parent
    readers = sorted(
        path.name for path in package.glob("*.py") if "is_world_powerset" in path.read_text()
    )
    assert readers == ["worlds.py"]
