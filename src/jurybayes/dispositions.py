"""Juror verdict dispositions and threshold rationalization.

A disposition maps every transcript to a verdict.  The central
construction builds, for any disposition that acquits on no testimony
but convicts on something, an even-odds prior whose threshold behaviour
reproduces the disposition exactly: posterior guilt is theta on every
convicting transcript and 1-theta on every acquitting one.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import repeat
from operator import eq
from types import MappingProxyType
from typing import Iterable, Mapping

from .charges import Charge
from .errors import AxiomViolation, ZeroTranscriptMass
from .rationals import HALF, Frozen, RationalLike, _theta_in
from .worlds import (
    TestimonyCatalog,
    Transcript,
    _not_one_string,
    guilt_event,
    require_world_ground,
    transcript_masses,
    world_algebra,
)


class Verdict(enum.Enum):
    CONVICT = "convict"
    ACQUIT = "acquit"


class Disposition(Frozen):
    """A total map from transcripts to verdicts, stored sparsely.

    Only the convicting transcripts are listed; everything else acquits.
    ``flags`` is the same map read by transcript mask: a ``bytes`` of
    2^n entries, 1 where the transcript convicts and 0 where it acquits.
    It is not a field, so equality, hash and repr read ``convicting``.
    """

    catalog: TestimonyCatalog
    convicting: frozenset[Transcript]

    def __init__(
        self, catalog: TestimonyCatalog, convicting: Iterable[Transcript]
    ) -> None:
        members = frozenset(convicting)
        flags = bytes(map(members.__contains__, range(1 << len(catalog))))
        vars(self).update(catalog=catalog, convicting=members, flags=flags)
        # one type pass and one range check in C (the flags count every
        # member only when each is an int below 2^n); only when either fails
        # are the members walked, so the first bad one names the error
        if not all(map(isinstance, members, repeat(Transcript))) or flags.count(1) != len(members):
            for transcript in members:
                catalog._check_transcript(transcript)

    @classmethod
    def from_label_sets(
        cls, catalog: TestimonyCatalog, label_sets: Iterable[Iterable[str]]
    ) -> "Disposition":
        return cls(catalog, map(catalog.transcript, _not_one_string(label_sets)))

    def verdict(self, transcript: Transcript) -> Verdict:
        self.catalog._check_transcript(transcript)
        return Verdict.CONVICT if self.flags[transcript] else Verdict.ACQUIT


def check_poi(disposition: Disposition) -> bool:
    """Presumption of innocence: no conviction on the empty transcript."""
    return not disposition.flags[0]


def check_wtc(disposition: Disposition) -> bool:
    """Willingness to convict: some transcript convicts."""
    return 1 in disposition.flags


def always_convict_nonempty(catalog: TestimonyCatalog) -> Disposition:
    """Convict as soon as any testimony at all is heard."""
    return Disposition(
        catalog, (t for t in catalog.all_transcripts() if len(t) > 0)
    )


class RationalizationCertificate(Frozen):
    """A prior certified to reproduce a disposition at threshold theta."""

    disposition: Disposition
    theta: Fraction
    prior: Charge
    guilt_prior: Fraction

    def __init__(
        self, disposition: Disposition, theta: Fraction, prior: Charge, guilt_prior: Fraction
    ) -> None:
        vars(self).update(disposition=disposition, theta=theta, prior=prior,
                          guilt_prior=guilt_prior)


class VerificationResult(Frozen):
    """Outcome of an independent threshold-behaviour check.

    ``posteriors`` is read-only: a mapping given in any other form is
    copied into a ``MappingProxyType``.  Results compare by all three
    fields and hash by ``ok`` and ``witness``.
    """

    ok: bool
    witness: Transcript | None
    posteriors: Mapping[Transcript, Fraction]

    def __init__(
        self, ok: bool, witness: Transcript | None, posteriors: Mapping[Transcript, Fraction]
    ) -> None:
        if type(posteriors) is not MappingProxyType:
            posteriors = MappingProxyType(dict(posteriors))
        vars(self).update(ok=ok, witness=witness, posteriors=posteriors)

    def __hash__(self) -> int:
        return hash((self.ok, self.witness))

    def __reduce__(self) -> tuple:
        # a mappingproxy cannot be pickled; its dict can
        return type(self), (self.ok, self.witness, dict(self.posteriors))

    def __bool__(self) -> bool:
        return self.ok


def rationalize(
    disposition: Disposition, theta: RationalLike
) -> RationalizationCertificate:
    """Construct an even-odds prior that theta-rationalizes the disposition.

    Requires 1/2 < theta < 1 and both axioms.  The prior is the equal
    mixture of a convicting-side measure (mass theta/n_C on (T, guilty)
    and (1-theta)/n_C on (T, innocent) for convicting T) and the mirror
    acquitting-side measure; the mixture weight 1/2 is forced by
    requiring prior guilt exactly 1/2.  The mixture takes only four
    values, theta/(2n_C) and (1-theta)/(2n_C) on convicting transcripts
    and their mirror (1-theta)/(2n_A) and theta/(2n_A) on acquitting ones,
    so it is written down directly on the catalog's world algebra, as
    those four values and each world's code among them.
    """
    theta = _theta_in(theta, "rationalization threshold must satisfy 1/2 < theta < 1", HALF)
    if not check_poi(disposition):
        raise AxiomViolation(
            "presumption of innocence fails: the empty transcript convicts"
        )
    if not check_wtc(disposition):
        raise AxiomViolation("willingness to convict fails: no transcript convicts")

    flags = disposition.flags
    n_convict = flags.count(1)
    n_acquit = len(flags) - n_convict
    acquit_theta = 1 - theta
    # (guilty, innocent) world masses of a convicting, then of an acquitting, transcript
    values = (theta / (2 * n_convict), acquit_theta / (2 * n_convict))
    values += (acquit_theta / (2 * n_acquit), theta / (2 * n_acquit))
    # world_algebra's atoms come in canonical order: transcripts by mask,
    # each guilty world before its innocent one.  A transcript's flag is 1
    # if it convicts, and its two worlds' codes are (0, 1) then, else (2, 3).
    codes = bytearray(2 * len(flags))
    codes[0::2] = flags.translate(bytes.maketrans(b"\0\1", b"\2\0"))
    codes[1::2] = flags.translate(bytes.maketrans(b"\0\1", b"\3\1"))
    prior = Charge._from_codes(world_algebra(disposition.catalog), values, bytes(codes))
    return RationalizationCertificate(
        disposition=disposition,
        theta=theta,
        prior=prior,
        guilt_prior=HALF,
    )


def verification_theta(theta: RationalLike) -> Fraction:
    """theta as an exact rational; ThetaOutOfRange unless 0 < theta < 1."""
    return _theta_in(theta, "verification threshold must satisfy 0 < theta < 1", 0)


def verify_rationalization(
    disposition: Disposition, theta: RationalLike, prior: Charge
) -> VerificationResult:
    """Check f(T) = convict iff P(guilt | transcript T) >= theta.

    Recomputes every conditional from the prior's atom masses; it never
    trusts a certificate document's posterior rows.  Each transcript is
    decided by an integer cross-multiplication, each distinct pair of
    guilty and innocent masses is decided once, and the integers of each
    of the prior's values are read once.  Returns the first failing transcript
    (canonical order) as witness.  Raises ThetaOutOfRange unless
    0 < theta < 1.
    """
    theta = verification_theta(theta)
    catalog = disposition.catalog
    flags = disposition.flags
    theta_num, theta_den = theta.numerator, theta.denominator
    # (posterior, convicts) per distinct (guilty, innocent) pair, keyed on
    # their integers: P(G | T) = gn*id / (gn*id + in*gd) = a/s, and with
    # s > 0 it meets theta iff a*theta_den >= theta_num*s
    decided: dict[tuple[int, int, int, int], tuple[Fraction, bool]] = {}
    posteriors: dict[Transcript, Fraction] = {}
    witness: Transcript | None = None
    order, values, *columns = transcript_masses(prior.algebra, prior.values, prior.codes, catalog)
    ratios = list(map(Fraction.as_integer_ratio, values))  # each value's integers, once
    for transcript, guilty, innocent in zip(order, *columns):
        key = ratios[guilty] + ratios[innocent]
        known = decided.get(key)
        if known is None:
            g_num, g_den, i_num, i_den = key
            a = g_num * i_den
            s = a + i_num * g_den
            if s == 0:
                raise ZeroTranscriptMass(
                    f"P(E_T) = 0 for transcript "
                    f"{{{','.join(catalog.transcript_labels(transcript))}}}; "
                    "the threshold biconditional is undefined there"
                )
            known = decided[key] = (Fraction(a, s), a * theta_den >= theta_num * s)
        posterior, convicts = known
        posteriors[transcript] = posterior
        if witness is None and convicts != flags[transcript]:
            witness = transcript
    return VerificationResult(witness is None, witness, MappingProxyType(posteriors))


def is_open_door(prior: Charge) -> bool:
    """True iff no positive-mass transcript pins guilt to 0 or 1.

    Guilt is pinned exactly when one of the transcript's guilty and
    innocent masses is zero and the other is not.  Whether a mass is zero
    is asked once per distinct mass; the transcripts are then compared in
    C, in ground order, and the first pinned one answers, so
    NotExpressible (see ``worlds.transcript_masses``) is raised only when a
    transcript that cannot be read comes before every pinned one.
    """
    _, values, guilty, innocent = transcript_masses(prior.algebra, prior.values, prior.codes)
    positive = list(map(bool, values))
    return all(map(eq, map(positive.__getitem__, guilty), map(positive.__getitem__, innocent)))


def posner_even_odds_prior(catalog: TestimonyCatalog, theta: RationalLike) -> Charge:
    """An even-odds prior that convicts on every nonempty transcript.

    Prior guilt is exactly 1/2 yet the guilt posterior meets theta as
    soon as any testimony is heard.  For theta <= 1/2 the construction
    runs at the interior threshold 2/3, whose posteriors still dominate
    theta.
    """
    theta = _theta_in(theta, "even-odds prior needs 0 < theta < 1", 0)
    effective = theta if theta > HALF else Fraction(2, 3)
    certificate = rationalize(always_convict_nonempty(catalog), effective)
    return certificate.prior


def guilt_prior(prior: Charge, catalog: TestimonyCatalog) -> Fraction:
    """P(guilt) under a charge on the catalog's world space."""
    require_world_ground(prior.algebra, catalog)
    return prior.measure(guilt_event(catalog))
