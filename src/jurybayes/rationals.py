"""Exact rational parsing and rendering.

All probabilities, thresholds, weights and utilities in this package are
`fractions.Fraction` values.  Floats are rejected at every entry point:
the quantities the package certifies (posteriors, conditional targets,
thresholds) are exact equalities that float arithmetic cannot witness.
The open threshold interval is checked here too, by ``_theta_in``, the
closed unit interval by ``_unit_in``, and an int argument by
``_require_int``, so that the value objects, charges, scoring, analyses
and dispositions share one check each without loading any world
machinery.  ``Frozen``, the base of every value object, lives
here for the same reason.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .errors import CapExceeded, OutOfRange, ThetaOutOfRange

RationalLike = int | str | Fraction

#: Bound on a string literal's length plus its decimal exponent's
#: magnitude.  It is CPython's default int/str digit limit, so every value
#: accepted can be rendered back; without it "1e3000000" alone would take
#: about a second to parse.
MAX_LITERAL_DIGITS = 4300

APPROX_PLACES = 6  #: places after the point in a rounded display decimal

#: The exact constants the other modules share.
ZERO, ONE, HALF = Fraction(0), Fraction(1), Fraction(1, 2)


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


class Frozen:
    """The base of the package's immutable value objects.

    A subclass's ``__init__`` writes its fields into ``__dict__`` once;
    any later assignment or deletion raises AttributeError, while a
    ``cached_property`` still stores its value on first read.  Instances
    compare, hash and print by ``_fields``: the subclass's own, or else
    the names it annotates, in order.  An instance equals only an
    instance of its own class with equal fields, and prints as
    ``Name(field=value, ...)``.  Plain classes keep ``dataclasses``, and
    the ``inspect`` it imports, out of every command's start-up.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = vars(cls).get("_fields") or tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)  # one field's value, or a tuple of them

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key(self))  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


def as_rational_fields(value: Frozen, *args: RationalLike) -> None:
    """Write each of ``value``'s fields, in ``_fields`` order, as its argument made
    exact by ``as_rational``.

    The field's name names any error, so the first bad argument in order
    names it.
    """
    vars(value).update((name, as_rational(arg, name=name)) for name, arg in zip(value._fields, args))


def _require_int(value: object, name: str) -> None:
    """TypeError naming the value unless it is an int; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _theta_in(theta: RationalLike, rule: str, low: Fraction | int) -> Fraction:
    """theta as an exact rational; ThetaOutOfRange stating ``rule`` unless low < theta < 1."""
    theta = as_rational(theta, name="theta")
    if not low < theta < 1:
        raise ThetaOutOfRange(f"{rule}, got {format_rational(theta)}")
    return theta


def _unit_in(value: RationalLike, name: str, what: str) -> Fraction:
    """``value`` as an exact rational; OutOfRange naming it ``what`` unless 0 <= value <= 1."""
    value = as_rational(value, name=name)
    if not 0 <= value <= 1:
        raise OutOfRange(f"{what} {format_rational(value)} not in [0, 1]")
    return value


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
