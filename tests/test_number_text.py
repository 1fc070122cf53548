"""`numerics.number_text` called directly at every boundary of both layouts
it is given: mpmath's `to_str(value, 40)` (`figure`'s rows) and Python's
`repr` (the extremal sweep's CSV), each its own layout's oracle."""

from decimal import Decimal

import mpmath
import numpy as np
import pytest
from mpmath import libmp

from weylprod.numerics import number_text


def lay_out(cases, width, fixed, exp_digits, lone_point) -> list:
    """The texts `number_text` gives for (digits, e) cases, the digits
    padded with zeros to `width`, all in one block of columns."""
    D = np.array([list(d.ljust(width, "0").encode()) for d, _ in cases],
                 np.uint8).T
    e = np.array([e for _, e in cases], np.int64)
    T = number_text(D, e, fixed, exp_digits, lone_point)
    assert T.shape[1] == len(cases)
    return [T[:, i].tobytes().replace(b"\0", b"").decode("ascii")
            for i in range(len(cases))]


FORTY = "1234567890" * 4
# the digits of a row: all forty, the last a zero, two, and a lone one
ROW_DIGITS = [FORTY, FORTY[:39], "15", "1"]


def to_str_of(digits: str, e: int, min_fixed: int, max_fixed: int) -> str:
    """to_str of the value digits[0].digits[1:] 10^e, read at 400 bits: its
    40 digits round back to `digits`."""
    with mpmath.workprec(400):
        x = mpmath.mpf(f"{digits[0]}.{digits[1:]}e{e}")
    return libmp.to_str(x._mpf_, 40, min_fixed=min_fixed,
                        max_fixed=max_fixed)


@pytest.mark.parametrize("min_fixed, max_fixed, exponents", [
    # figure's own layout: exponent notation from e = -13 down, fixed up to
    # e = 39, where forty digits take a padded 0 after the point; exponents
    # of two, three and four digits
    (-13, 40, [-14, -13, -12, -1, 0, 1, 38, 39, -30, -99, -100, -333,
               -1000]),
    # a narrower fixed range reaches one-digit exponents of both signs
    (-3, 6, [-9, -4, -3, -2, -1, 0, 5, 6, 7, 9, 10, 123]),
])
def test_to_str_layout(min_fixed, max_fixed, exponents):
    cases = [(d, e) for e in exponents for d in ROW_DIGITS]
    got = lay_out(cases, 40, (min_fixed, max_fixed - 1), 1, True)
    assert got == [to_str_of(d, e, min_fixed, max_fixed) for d, e in cases]


def test_to_str_layout_lone_digit_and_padded_zero():
    texts = lay_out([("1", -30), ("1", -13), ("1", 39), (FORTY, 39)], 40,
                    (-13, 39), 1, True)
    assert texts == ["1.0e-30", "1.0e-13", "1" + "0" * 39 + ".0",
                     FORTY + ".0"]


# repr's fixed range, 1e-4 <= |x| < 1e16, at each end and past it; lone
# digits, three-digit exponents, the largest and the smallest normal
REPR_VALUES = [
    1.2345e-5, 1.2345e-4, 1e-5, 1e-4, 0.00012, 9.999999999999999e-5,
    1.5e15, 1.5e16, 1e15, 1e16, 9999999999999998.0, 1.2345678901234567e15,
    123.0, 0.5, 0.1, 1.0, 2.5, 1e22, 1e-100, 1.5e-100, 1e100,
    1.7976931348623157e308, 2.2250738585072014e-308, 5e-324,
]


def repr_digits(v: float) -> tuple:
    """(digits, e) of repr(|v|): its shortest digits and the exponent of
    the leading one."""
    _, digits, exp = Decimal(repr(abs(v))).as_tuple()
    return "".join(map(str, digits)), len(digits) - 1 + exp


def test_repr_layout():
    values = REPR_VALUES + [-v for v in REPR_VALUES]
    texts = lay_out([repr_digits(v) for v in values], 17, (-5, 15), 2,
                    False)
    assert ["-" * (v < 0) + t for v, t in zip(values, texts)] == \
        [repr(v) for v in values]
    assert texts[2:4] == ["1e-05", "0.0001"]
    assert texts[9] == "1e+16" and texts[18] == "1e-100"


@pytest.mark.parametrize("e", range(-7, 19))
def test_repr_layout_at_every_exponent_near_the_fixed_range(e):
    # each exponent with one to sixteen digits, a trailing zero among them
    patterns = ["1", "12", "105", "1200000000000001", "9" * 16, "50"]
    values = [float(f"{d[0]}.{d[1:]}e{e}") for d in patterns]
    texts = lay_out([repr_digits(v) for v in values], 17, (-5, 15), 2,
                    False)
    assert texts == [repr(v) for v in values]
