"""Exact rational parsing and decimal rendering."""

from fractions import Fraction as F

import pytest

from jurybayes.rationals import approx_decimal, as_rational, exact_decimal


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
