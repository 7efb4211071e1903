"""Exact rational parsing and rendering.

All probabilities, thresholds, weights and utilities in this package are
`fractions.Fraction` values.  Floats are rejected at every entry point:
the quantities the package certifies (posteriors, conditional targets,
thresholds) are exact equalities that float arithmetic cannot witness.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapExceeded

RationalLike = int | str | Fraction

#: Bound on a string literal's length plus its decimal exponent's
#: magnitude.  It is CPython's default int/str digit limit, so every value
#: accepted can be rendered back; without it "1e3000000" alone would take
#: about a second to parse.
MAX_LITERAL_DIGITS = 4300

APPROX_PLACES = 6  #: places after the point in a rounded display decimal


def as_rational(value: RationalLike, *, name: str = "value") -> Fraction:
    """Convert an int, Fraction, or exact string ("3/4", "0.9", "2") to Fraction.

    Floats are rejected rather than converted: a float argument almost
    always means an unintended precision loss upstream.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a rational, got bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"{name} must be exact (int, Fraction, or string like '3/4'); "
            f"got float {value!r}"
        )
    if isinstance(value, str):
        text = value.strip()
        _check_literal_size(text, name)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{name}: cannot parse {value!r} as a rational") from exc
    raise TypeError(f"{name} must be int, str, or Fraction, got {type(value).__name__}")


def as_rational_fields(value: object) -> None:
    """Convert each field of a frozen dataclass in place, in field order, by ``as_rational``.

    The field's name names any error, so the first bad field in order
    names it.  Fields are read from ``__dataclass_fields__``, which keeps
    ``dataclasses`` (and the ``inspect`` it imports) out of this module.
    """
    for name in value.__dataclass_fields__:  # type: ignore[attr-defined]
        object.__setattr__(value, name, as_rational(getattr(value, name), name=name))


def _check_literal_size(text: str, name: str) -> None:
    """Refuse a literal whose value could outgrow MAX_LITERAL_DIGITS digits."""
    _, _, exponent = text.lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "")
    if len(text) > MAX_LITERAL_DIGITS or len(text) + (
        int(exponent) if exponent.isdecimal() else 0
    ) > MAX_LITERAL_DIGITS:
        raise ValueError(
            f"{name}: literal too large; its length plus its exponent may not "
            f"exceed {MAX_LITERAL_DIGITS}"
        )


def _digits(value: int) -> str:
    """Decimal rendering of an int, or CapExceeded past the interpreter's digit limit."""
    try:
        return str(value)
    except ValueError:  # int -> str conversion limit
        raise CapExceeded(
            f"a {value.bit_length()}-bit integer is too long to render in decimal"
        ) from None


def format_rational(value: Fraction) -> str:
    """Canonical exact rendering: "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def exact_decimal(value: Fraction) -> str | None:
    """Exact terminating decimal string, or None if none exists.

    A rational terminates in base 10 iff its reduced denominator is of
    the form 2^a * 5^b.
    """
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    places = max(twos, fives)
    if places == 0:  # a zero-width slice in _point would drop the digits
        return _digits(value.numerator)
    return _point(value.numerator * 10**places // value.denominator, places)


def approx_decimal(value: Fraction) -> str:
    """Display-only decimal: exact when terminating, otherwise rounded.

    Rounded values carry a trailing '…' marker so reports never pass an
    approximation off as exact.  One that rounds to zero carries no sign.
    """
    exact = exact_decimal(value)
    if exact is not None:
        return exact
    return _point(round(value * 10**APPROX_PLACES), APPROX_PLACES) + "…"


def _point(scaled: int, places: int) -> str:
    """``scaled / 10**places`` written with ``places`` (at least 1) digits after the point."""
    sign = "-" if scaled < 0 else ""
    digits = _digits(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
