"""Exact-rational models of Bayesian threshold jurors.

The package builds finite trial world spaces, finitely additive
probability charges with exact rational values, and the constructions
that connect them: every verdict disposition satisfying the presumption
of innocence and a willingness to convict is reproduced exactly by an
even-odds threshold prior; charges extend to prescribed conditional
values; belief and verdict thresholds come out in closed form.
"""

from .analyses import (
    BLOOD_TYPES,
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
    certain_witness_posterior,
    fallible_witness_event,
    likelihood_ratio,
    min_convicting_testimony_count,
    posterior_odds,
    uniform_guilt_prior,
)
from .charges import Charge, ConditionalResult, mix
from .dispositions import (
    Disposition,
    RationalizationCertificate,
    VerificationResult,
    Verdict,
    always_convict_nonempty,
    check_poi,
    check_wtc,
    guilt_prior,
    is_open_door,
    posner_even_odds_prior,
    rationalize,
    transcript_posteriors,
    verify_rationalization,
)
from .errors import (
    AlgebraMismatch,
    AxiomViolation,
    CapExceeded,
    CatalogMismatch,
    CatalogTooSmall,
    DegeneratePrior,
    DegenerateUtilities,
    EmptyMatchWithMatchingDefendant,
    ForeignTestimony,
    InvariantViolation,
    JuryBayesError,
    NonpositiveRatio,
    NotExpressible,
    NotIndependent,
    OutOfRange,
    ParseError,
    ThetaOutOfRange,
    UndefinedRatio,
    ZeroConditioningEvent,
    ZeroTranscriptMass,
)
from .scoring import (
    Attitude,
    DoxasticState,
    OptimalStateChoice,
    PropositionPair,
    ScoreWeights,
    UtilityQuadruple,
    brute_force_optimal,
    expected_score,
    expected_verdict_utilities,
    optimal_doxastic_state,
    score,
    verdict_threshold,
)
from .worlds import (
    DEFAULT_WORLD_CAP,
    WORLD_CAP_CEILING,
    BooleanSubalgebra,
    Guilt,
    TestimonyCatalog,
    Transcript,
    World,
    atoms_of_generated_algebra,
    event_of_transcript,
    full_world_space,
    guilt_event,
    heard_event,
    is_expressible,
    is_logically_independent,
    powerset_algebra,
    world_algebra,
)

__version__ = "0.1.0"
