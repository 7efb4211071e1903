"""Exception hierarchy shared by all jurybayes modules."""


class JuryBayesError(Exception):
    """Base class for all domain errors raised by this package."""


class CapExceeded(JuryBayesError):
    """A size cap (world-space cap, enumeration cap) was exceeded."""


class ForeignTestimony(JuryBayesError):
    """A transcript or label refers to testimony outside the catalog."""


class NotExpressible(JuryBayesError):
    """An event is not a union of atoms of the algebra in use."""


class ZeroConditioningEvent(JuryBayesError):
    """Conditioning was attempted on an event of measure zero."""


class AlgebraMismatch(JuryBayesError):
    """Two charges that must share an algebra do not."""


class OutOfRange(JuryBayesError):
    """A target value lies outside its admissible interval."""


class NotIndependent(JuryBayesError):
    """The adjoined event fails the required independence condition."""


class DegeneratePrior(JuryBayesError):
    """The prior gives the target event probability 0 or 1."""


class AxiomViolation(JuryBayesError):
    """A disposition fails the presumption-of-innocence or
    willingness-to-convict axiom."""


class ThetaOutOfRange(JuryBayesError):
    """The conviction threshold lies outside the admissible interval."""


class ZeroTranscriptMass(JuryBayesError):
    """Verification is undefined: some transcript event has zero mass."""


class DegenerateUtilities(JuryBayesError):
    """The verdict-threshold denominator is zero."""


class NonpositiveRatio(JuryBayesError):
    """A likelihood ratio must be strictly positive."""


class UndefinedRatio(JuryBayesError):
    """A likelihood-ratio denominator is zero."""


class CatalogTooSmall(JuryBayesError):
    """The catalog has fewer testimonies than the construction needs."""


class EmptyMatchWithMatchingDefendant(JuryBayesError):
    """Inconsistent suspect pool: the defendant matches a description
    nobody in the pool matches."""


class CatalogMismatch(JuryBayesError):
    """Two inputs were built over different testimony catalogs."""


class InvariantViolation(JuryBayesError):
    """An internal exactness invariant failed: a bug, not a bad input."""


class ParseError(JuryBayesError):
    """An input file or literal failed to parse."""
