"""The CSV writers' integer digit kernel against "%.17g" value by value."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladctl.cli import _csv_rows


def _per_value(values):
    """The CSV body, each value printed with "%.17g" (-0.0 as 0)."""
    return "".join(",".join("%.17g" % (float(x) + 0.0) for x in row) + "\n"
                   for row in values)


def _assert_matches(values, cols=3):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-len(values) % cols)])
    values = values.reshape(-1, cols)
    assert _csv_rows("x", values) == "x\n" + _per_value(values)


def _ulp_neighbours(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def _ties():
    """(p, x) with x * 10**p exactly half-way between two 17-digit ints.

    x = odd / 2**(p + 1) makes x * 10**p = odd * 5**p / 2; odd ranges so
    that this lies in [1e16, 1e17) and x stays exact (odd < 2**53).  There
    is none for p = 0, where x would exceed 2**53.
    """
    rng = np.random.default_rng(2718)
    ties = []
    for p in range(23):
        lo = -(-2 * 10 ** 16 // 5 ** p)
        hi = min(2 * 10 ** 17 // 5 ** p, 2 ** 53)
        if lo < hi:
            ties += [(p, (2 * int(m) + 1) / 2 ** (p + 1))
                     for m in rng.integers(lo // 2, (hi - 1) // 2, 50)]
    return ties


def test_ties_are_half_way():
    ties = _ties()
    assert sorted({p for p, _ in ties}) == list(range(1, 23))
    for p, x in ties:
        num, den = x.as_integer_ratio()
        twice, rest = divmod(2 * num * 10 ** p, den)  # 2 * x * 10**p
        assert rest == 0 and twice % 2 == 1
        assert 2 * 10 ** 16 <= twice < 2 * 10 ** 17


def test_no_double_in_range_rounds_up_to_a_power_of_ten():
    # the kernel's 17 digits never carry: the double just below 10**j
    # (and so everything below it) keeps a 9 as its first of 17 digits
    for j in range(-5, 17):
        power = Fraction(10) ** j
        below = float(power)
        while Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        assert ("%.16e" % below).startswith("9."), (j, below)


def test_fixed_edge_values():
    edges = [0.0, -0.0, 5e-324, 1.7976931348623157e308,
             math.nextafter(0.1, 0.0)]
    for x in (1e-6, 1e-5, 1e16, 1e17):
        edges += _ulp_neighbours(x)
    for j in range(-8, 19):
        edges += _ulp_neighbours(10.0 ** j)
    edges += [x for _, x in _ties()]
    _assert_matches(edges + [-x for x in edges])
    _assert_matches(edges, cols=1)


def test_seeded_sweep_over_1e_minus_8_to_1e18():
    rng = np.random.default_rng(17)
    values = 10.0 ** rng.uniform(-8.0, 18.0, 100_000)
    values *= rng.choice([-1.0, 1.0], values.shape)
    _assert_matches(values, cols=7)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_any_finite_doubles(values):
    _assert_matches(values)
