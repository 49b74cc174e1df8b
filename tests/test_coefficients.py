"""Coefficient value types: the ordering of ``INF``."""

import operator
from fractions import Fraction

import pytest

from expansions import INF

OPS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}

# INF op v, then v op INF, for <, >, <=, >=
ABOVE = (False, True, False, True, True, False, True, False)


@pytest.mark.parametrize("other, expected", [
    (3, ABOVE),
    (-10 ** 30, ABOVE),
    (Fraction(7, 2), ABOVE),
    (True, ABOVE),
    (INF, (False, False, True, True, False, False, True, True)),
])
def test_inf_is_above_every_int_and_fraction(other, expected):
    got = [op(INF, other) for op in OPS.values()]
    got += [op(other, INF) for op in OPS.values()]
    assert tuple(got) == expected


@pytest.mark.parametrize("other", [1.5, float("inf"), "a", None])
@pytest.mark.parametrize("symbol", OPS)
def test_inf_refuses_other_types_in_both_orders(other, symbol):
    for left, right in ((INF, other), (other, INF)):
        with pytest.raises(TypeError) as info:
            OPS[symbol](left, right)
        assert str(info.value) == (
            f"'{symbol}' not supported between instances of "
            f"'{type(left).__name__}' and '{type(right).__name__}'"
        )
