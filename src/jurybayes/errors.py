"""Exception hierarchy shared by all jurybayes modules.

Each class declares the exit code the command line ends with when it is
raised; README's exit-code table documents the same values.  The three
range errors a value object raises are also ``ValueError``s, so a caller
that catches the builtin class keeps catching them.
"""


class JuryBayesError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 1  # every subclass declares its own


class CapExceeded(JuryBayesError):
    """A size cap (world-space cap, enumeration cap) was exceeded."""

    exit_code = 10


class ForeignTestimony(JuryBayesError):
    """A transcript or label refers to testimony outside the catalog."""

    exit_code = 11


class NotExpressible(JuryBayesError):
    """An event is not a union of atoms of the algebra in use."""

    exit_code = 12


class ZeroConditioningEvent(JuryBayesError):
    """Conditioning was attempted on an event of measure zero."""

    exit_code = 13


class AlgebraMismatch(JuryBayesError):
    """Two charges that must share an algebra do not."""

    exit_code = 14


class OutOfRange(JuryBayesError, ValueError):
    """A target value lies outside its admissible interval."""

    exit_code = 15


class NotIndependent(JuryBayesError):
    """The adjoined event fails the required independence condition."""

    exit_code = 5


class DegeneratePrior(JuryBayesError):
    """The prior gives the target event probability 0 or 1."""

    exit_code = 16


class AxiomViolation(JuryBayesError):
    """A disposition fails the presumption-of-innocence or
    willingness-to-convict axiom."""

    exit_code = 2


class ThetaOutOfRange(JuryBayesError, ValueError):
    """The conviction threshold lies outside the admissible interval."""

    exit_code = 17


class ZeroTranscriptMass(JuryBayesError):
    """Verification is undefined: some transcript event has zero mass."""

    exit_code = 18


class DegenerateUtilities(JuryBayesError):
    """The verdict-threshold denominator is zero."""

    exit_code = 19


class NonpositiveRatio(JuryBayesError, ValueError):
    """A likelihood ratio must be strictly positive."""

    exit_code = 20


class UndefinedRatio(JuryBayesError):
    """A likelihood-ratio denominator is zero."""

    exit_code = 21


class CatalogTooSmall(JuryBayesError):
    """The catalog has fewer testimonies than the construction needs."""

    exit_code = 22


class EmptyMatchWithMatchingDefendant(JuryBayesError):
    """Inconsistent suspect pool: the defendant matches a description
    nobody in the pool matches."""

    exit_code = 23


class CatalogMismatch(JuryBayesError):
    """Two inputs were built over different testimony catalogs."""

    exit_code = 4


class InvariantViolation(JuryBayesError):
    """An internal exactness invariant failed: a bug, not a bad input."""

    exit_code = 1


class ParseError(JuryBayesError):
    """An input file or literal failed to parse."""

    exit_code = 3
