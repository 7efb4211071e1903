"""Exact rational parsing, decimal rendering, and rational fields of value objects."""

import decimal
import inspect
import itertools
from fractions import Fraction as F

import pytest

from jurybayes.analyses import Odds, RateBoundConfig
from jurybayes.rationals import APPROX_PLACES, approx_decimal, as_rational, exact_decimal
from jurybayes.scoring import ScoreWeights, UtilityQuadruple


class TestAsRational:
    @pytest.mark.parametrize("value", [0.5, True, None], ids=["float", "bool", "none"])
    def test_inexact_and_non_numeric_values_are_type_errors(self, value):
        with pytest.raises(TypeError, match="theta"):
            as_rational(value, name="theta")


class TestDecimals:
    @pytest.mark.parametrize(
        "value,text",
        [(F(1, 5), "0.2"), (F(3, 40), "0.075"), (F(-7, 25), "-0.28"), (F(12), "12")],
    )
    def test_denominators_of_twos_and_fives_terminate(self, value, text):
        assert exact_decimal(value) == text
        assert approx_decimal(value) == text

    def test_other_denominators_are_rounded_and_marked(self):
        assert exact_decimal(F(1, 3)) is None
        assert approx_decimal(F(1, 3)) == "0.333333…"


def decimal_oracle(value: F, places: int) -> str:
    """``value`` to ``places`` digits after the point by ``decimal``, half to even.

    The precision leaves 40 digits beyond the point, far more than a
    non-terminating rational with these tests' denominators can hold
    in a run of 9s or 0s, so rounding the quotient first cannot move the
    result.  A value that rounds to zero prints no sign.
    """
    digits = len(str(abs(value.numerator))) + len(str(value.denominator)) + places + 40
    with decimal.localcontext(decimal.Context(prec=digits)):
        quotient = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        step = decimal.Decimal(1).scaleb(-places)
        text = format(quotient.quantize(step, decimal.ROUND_HALF_EVEN), "f")
    return text.lstrip("-") if set(text) <= set("-0.") else text


def terminating_places(value: F) -> int | None:
    """Digits after the point of ``value``'s decimal, or None if it does not terminate."""
    for places in range(200):
        if (value * 10**places).denominator == 1:
            return places
    return None


class TestDecimalsAgainstDecimal:
    """``exact_decimal`` and ``approx_decimal`` beside a ``decimal.Decimal`` oracle."""

    def cases(self, rng):
        yield from (F(0), F(1), F(-1), F(12), F(-10**30), F(10**30 + 7))
        yield from (F(-1, 3 * 10**6), F(5, 10**7), F(5, 10**7) - F(1, 3 * 10**12))
        for _ in range(300):
            yield F(rng.randrange(-(10**12), 10**12), rng.randrange(1, 10**6))
        for _ in range(200):  # 2^a * 5^b: up to 60 places
            den = 2 ** rng.randrange(61) * 5 ** rng.randrange(61)
            yield F(rng.randrange(-(10**40), 10**40), den)
        for _ in range(100):  # small enough to round to zero, from either side
            value = F(rng.randrange(1, 10**6), rng.randrange(2 * 10**12, 10**15))
            yield value
            yield -value
        for _ in range(100):  # a tie at the sixth place terminates, so it prints exactly
            tie = F(2 * rng.randrange(-(10**8), 10**8) + 1, 2 * 10**6)
            yield tie
            # and just either side of it, where half-even rounding has no tie to break
            near = F(1, 3 * 10**12)
            yield tie + near
            yield tie - near

    def test_both_writers_match_the_oracle(self, rng):
        seen = set()
        for value in self.cases(rng):
            places = terminating_places(value)
            exact, approx = exact_decimal(value), approx_decimal(value)
            if places is None:
                assert exact is None, value
                assert approx == decimal_oracle(value, APPROX_PLACES) + "…", value
                seen.add("rounded to zero" if set(approx) <= set("0.…") else "rounded")
            else:
                assert exact == approx == decimal_oracle(value, places), value
                seen.add("integer" if places == 0 else "exact")
            seen.add("negative" if value < 0 else "nonnegative")
        kinds = {"integer", "exact", "rounded", "rounded to zero", "negative", "nonnegative"}
        assert seen == kinds


# Each value object's fields, in order, a valid value for each, and the
# range errors its constructor raises (arguments, message).
VALUE_OBJECTS = {
    Odds: (
        ("in_favor", "against"),
        (F(3), F(3, 4)),
        [((0, 1), "odds components must be strictly positive"),
         ((1, F(-1, 2)), "odds components must be strictly positive")],
    ),
    RateBoundConfig: (
        ("gamma", "theta"),
        (F(2), F(3, 4)),
        [((0, F(3, 4)), "gamma must be strictly positive"),
         ((0, 1), "gamma must be strictly positive"),
         ((F(1, 2), 1), "theta must lie strictly between 0 and 1"),
         ((F(1, 2), 0), "theta must lie strictly between 0 and 1")],
    ),
    ScoreWeights: (
        ("reward", "penalty"),
        (F(1), F(3, 4)),
        [((0, 1), "reward and penalty must both be strictly positive"),
         ((1, F(-3, 4)), "reward and penalty must both be strictly positive")],
    ),
    UtilityQuadruple: (
        ("convict_guilty", "convict_innocent", "acquit_guilty", "acquit_innocent"),
        (F(1), F(-9, 2), F(0), F(3, 4)),
        [],
    ),
}

#: Ways to write an exact value: as itself, an int where integral, "p/q" and its decimal.
FORMS = (
    lambda v: v,
    lambda v: int(v) if v.denominator == 1 else v,
    lambda v: f"{v.numerator}/{v.denominator}",
    lambda v: f" {exact_decimal(v)} ",
)


def type_error(value, name):
    with pytest.raises(TypeError) as caught:
        as_rational(value, name=name)
    return str(caught.value)


@pytest.mark.parametrize("cls", VALUE_OBJECTS, ids=lambda cls: cls.__name__)
class TestRationalFields:
    """Every field of the four value objects is converted by ``as_rational``."""

    def test_every_form_by_position_or_keyword_builds_the_same_object(self, cls):
        fields, values, _ = VALUE_OBJECTS[cls]
        assert tuple(inspect.signature(cls).parameters) == fields
        reference = cls(*values)
        for form in FORMS:
            written = [form(v) for v in values]
            for built in (cls(*written), cls(**dict(zip(fields, written)))):
                assert built == reference and hash(built) == hash(reference)
                assert repr(built) == repr(reference)
                assert [type(getattr(built, f)) for f in fields] == [F] * len(fields)
                assert tuple(getattr(built, f) for f in fields) == values

    @pytest.mark.parametrize("bad", [0.75, True, None], ids=["float", "bool", "none"])
    def test_an_inexact_field_is_a_type_error_naming_it(self, cls, bad):
        fields, values, _ = VALUE_OBJECTS[cls]
        for i, name in enumerate(fields):
            args = list(values)
            args[i] = bad
            with pytest.raises(TypeError) as caught:
                cls(*args)
            assert str(caught.value) == type_error(bad, name)

    def test_the_first_bad_field_in_order_names_the_error(self, cls):
        fields, values, _ = VALUE_OBJECTS[cls]
        for i, j in itertools.combinations(range(len(fields)), 2):
            args = list(values)
            args[i], args[j] = None, 0.5
            with pytest.raises(TypeError) as caught:
                cls(**dict(zip(fields, args)))
            assert str(caught.value) == type_error(None, fields[i])

    def test_range_errors_keep_their_messages(self, cls):
        fields, _, ranges = VALUE_OBJECTS[cls]
        for args, message in ranges:
            with pytest.raises(ValueError) as caught:
                cls(*args)
            assert str(caught.value) == message
            # every field is converted before any range is checked
            with pytest.raises(TypeError) as caught:
                cls(*args[:-1], 0.5)
            assert str(caught.value) == type_error(0.5, fields[-1])
