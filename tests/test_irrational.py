import math
import random
from itertools import product as iproduct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ostrowski_digit_sums_by_division
from weylprod.irrational import (DEFAULT_N_MAX, FracPartEvaluator,
                                 IrrationalSpec, cf_expand, cf_expand_until,
                                 default_precision_bits, floor_surd,
                                 is_perfect_square, ostrowski,
                                 ostrowski_digit_sums, ostrowski_levels,
                                 parse_alpha, surd_from_cf, surd_sign)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------- parsing

def test_parse_shorthands():
    a = parse_alpha("sqrt2m1")
    assert (a.a, a.b, a.c, a.d) == (-1, 1, 1, 2)
    g = parse_alpha("golden")
    assert (g.a, g.b, g.c, g.d) == (-1, 1, 2, 5)


def test_parse_string_form():
    a = parse_alpha("(-1+1*sqrt(2))/1")
    assert a == parse_alpha("sqrt2m1")
    b = parse_alpha("(0+1*sqrt(7))/9")
    assert (b.a, b.b, b.c, b.d) == (0, 1, 9, 7)
    # str round-trips through the parser, including negative b
    c = IrrationalSpec(32, -1, 26, 192)
    assert parse_alpha(str(c)) == c


def test_parse_rejects():
    with pytest.raises(ValueError):
        parse_alpha("nonsense")
    with pytest.raises(ValueError):
        parse_alpha("(0+1*sqrt(4))/3")     # square d: rational
    with pytest.raises(ValueError):
        parse_alpha("(0+2*sqrt(2))/1")     # above 1
    with pytest.raises(ValueError):
        parse_alpha("(-9+1*sqrt(2))/1")    # negative
    with pytest.raises(ValueError):
        IrrationalSpec(1, 0, 2, 5)         # b = 0 rational


def test_negative_c_normalized():
    a = IrrationalSpec(1, -1, -2, 2)       # == (-1 + sqrt(2)) / 2
    assert a.c == 2 and a.b == 1 and a.a == -1


# ---------------------------------------------------------- surd primitives

def test_surd_sign_exhaustive():
    rnd = random.Random(0)
    for _ in range(2000):
        u = rnd.randint(-50, 50)
        v = rnd.randint(-20, 20)
        d = rnd.choice([2, 3, 5, 7, 8, 10, 13])
        ref = u + v * math.sqrt(d)
        if abs(ref) < 1e-9:
            continue
        assert surd_sign(u, v, d) == (1 if ref > 0 else -1)


def test_floor_surd_against_floats():
    rnd = random.Random(1)
    for _ in range(2000):
        p = rnd.randint(-1000, 1000)
        q = rnd.randint(-60, 60)
        r = rnd.choice([-7, -3, -1, 1, 2, 5, 11])
        d = rnd.choice([2, 3, 5, 6, 7, 10])
        ref = (p + q * math.sqrt(d)) / r
        if abs(ref - round(ref)) < 1e-9:
            continue
        assert floor_surd(p, q, r, d) == math.floor(ref)


def at_most_q_sqrt_d(u, q, d):
    """u <= q sqrt(d), decided on integers: squares are compared where both
    sides share a sign, and for q != 0 equality is impossible (sqrt(d) is
    irrational)."""
    if q >= 0:
        return u <= 0 or u * u <= q * q * d
    return u < 0 and u * u >= q * q * d


def is_floor_surd(m, p, q, r, d):
    """m <= (p + q sqrt(d)) / r < m + 1, exactly."""
    if r < 0:
        p, q, r = -p, -q, -r
    # m r <= p + q sqrt(d)  and  not ((m + 1) r <= p + q sqrt(d))
    return (at_most_q_sqrt_d(m * r - p, q, d)
            and not at_most_q_sqrt_d((m + 1) * r - p, q, d))


big = st.integers(-2 ** 200, 2 ** 200)
non_square = st.integers(2, 2 ** 80).filter(lambda d: not is_perfect_square(d))


@settings(max_examples=300)
@given(st.one_of(big, st.integers(-50, 50)), st.one_of(big, st.integers(-50, 50)),
       st.one_of(big, st.integers(-50, 50)).filter(lambda r: r != 0),
       st.one_of(non_square, st.sampled_from([2, 3, 5, 6, 7, 10])))
def test_floor_surd_exact_oracle(p, q, r, d):
    m = floor_surd(p, q, r, d)
    assert is_floor_surd(m, p, q, r, d)
    # the integers next to it are not the floor
    assert not is_floor_surd(m - 1, p, q, r, d)
    assert not is_floor_surd(m + 1, p, q, r, d)
    # math.isqrt gives the floor for q >= 0 and r = 1 directly
    if q >= 0:
        assert floor_surd(p, q, 1, d) == p + math.isqrt(q * q * d)


def test_floor_surd_oracle_sign_cases():
    # every sign of p, q and r, and q = 0, against the exact oracle
    for p, q, r in iproduct((-7, 0, 7), (-3, 0, 3), (-2, 2)):
        m = floor_surd(p, q, r, 5)
        assert is_floor_surd(m, p, q, r, 5), (p, q, r)


# ------------------------------------------------------------ cf expansion

def test_sqrt2m1_denominators():
    table = cf_expand(parse_alpha("sqrt2m1"), 8)
    assert table.partial_quotients == (2,) * 8
    assert table.q[:8] == (1, 2, 5, 12, 29, 70, 169, 408)


def test_golden_all_ones():
    table = cf_expand(parse_alpha("golden"), 5)
    assert table.partial_quotients == (1, 1, 1, 1, 1)
    assert table.q[:5] == (1, 1, 2, 3, 5)


def _pqa_oracle(P0, Q0, D, K):
    """Classic (P + sqrt(D))/Q continued fraction recurrence, independent of
    the generic surd-state machinery in cf_expand."""
    if (D - P0 * P0) % Q0 != 0:
        P0, Q0, D = P0 * Q0, Q0 * Q0, D * Q0 * Q0
    quots = []
    P, Q = P0, Q0
    sqrtD = math.isqrt(D)
    for _ in range(K + 1):
        a = (P + sqrtD) // Q
        quots.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return quots


def test_sqrt3_matches_pqa_oracle():
    alpha = IrrationalSpec(-1, 1, 1, 3)            # sqrt(3) - 1
    table = cf_expand(alpha, 6)
    # oracle runs on sqrt(3) - 1 = (-1 + sqrt(3))/1, leading quotient 0
    oracle = _pqa_oracle(-1, 1, 3, 6)
    assert oracle[0] == 0
    assert list(table.partial_quotients) == oracle[1:7]
    # denominators from the oracle's quotients via the standard recursion
    qprev, qcur = 0, 1
    qs = [1]
    for a in oracle[1:7]:
        qprev, qcur = qcur, a * qcur + qprev
        qs.append(qcur)
    assert list(table.q) == qs


def _random_specs(count, seed):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        d = rnd.choice([2, 3, 5, 6, 7, 8, 10, 11, 13, 19, 23])
        b = rnd.choice([-3, -2, -1, 1, 2, 3])
        a = rnd.randint(-20, 20)
        c = rnd.randint(1, 15)
        try:
            out.append(IrrationalSpec(a, b, c, d))
        except ValueError:
            continue
    return out


def test_recursion_and_determinant():
    for alpha in _random_specs(40, seed=2):
        t = cf_expand(alpha, 12)
        for i in range(1, len(t.q) - 1):
            assert t.q[i + 1] == t.partial_quotients[i] * t.q[i] + t.q[i - 1]
            assert t.p[i + 1] == t.partial_quotients[i] * t.p[i] + t.p[i - 1]
        for i in range(len(t.q) - 1):
            assert abs(t.p[i] * t.q[i + 1] - t.p[i + 1] * t.q[i]) == 1
        assert all(t.q[i] < t.q[i + 1] for i in range(1, len(t.q) - 1))


def test_approximation_sandwich_exact():
    # 1/(q_i (q_i + q_{i+1})) < |alpha - p_i/q_i| < 1/(q_i q_{i+1}), compared
    # on integers only: |alpha - p/q| = |(q a - p c) + q b sqrt(d)| / (c q)
    for alpha in _random_specs(25, seed=3):
        t = cf_expand(alpha, 10)
        a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
        for i in range(len(t.q) - 1):
            p, q, qn = t.p[i], t.q[i], t.q[i + 1]
            u, v = q * a - p * c, q * b
            if surd_sign(u, v, d) < 0:
                u, v = -u, -v
            # |alpha - p/q| = (u + v sqrt(d)) / (c q), so the sandwich
            # against 1/(q qn) and 1/(q (q + qn)) cancels the factor q:
            assert surd_sign(u * qn - c, v * qn, d) < 0
            assert surd_sign(u * (q + qn) - c, v * (q + qn), d) > 0


def test_fibonacci_growth():
    for alpha in _random_specs(15, seed=4):
        t = cf_expand(alpha, 18)
        for l, q in enumerate(t.q):
            assert q >= PHI ** (l - 1) * (1 - 1e-12)


# -------------------------------------------------------------- ostrowski

def value_of(dig, table):
    """The N that the digits of `dig` spell: sum b_i q_i."""
    return sum(b * q for b, q in zip(dig.digits, table.q))


def test_ostrowski_exact_denominator(sqrt2m1):
    t = cf_expand(sqrt2m1, 9)
    for l in range(len(t.q) - 1):
        dig = ostrowski(t.q[l], t)
        assert dig.level >= l
        expect = [0] * (dig.level + 1)
        expect[dig.level if t.q[dig.level] == t.q[l] else l] = 1
        assert list(dig.digits) == expect


def test_ostrowski_100_unique_canonical(sqrt2m1):
    t = cf_expand(sqrt2m1, 8)
    dig = ostrowski(100, t)
    assert value_of(dig, t) == 100
    # exhaustive search over all digit vectors with b_i <= a_{i+1}
    l = dig.level
    ranges = [range(t.partial_quotients[i] + 1) for i in range(l + 1)]
    hits = [v for v in iproduct(*ranges)
            if sum(b * q for b, q in zip(v, t.q)) == 100]
    canonical = [v for v in hits
                 if v[0] < t.partial_quotients[0]
                 and all(v[i] < t.partial_quotients[i] or v[i - 1] == 0
                         for i in range(1, l + 1))
                 and v[l] > 0]
    assert canonical == [tuple(dig.digits)]


def test_ostrowski_reconstruction_and_roundtrip(sqrt2m1, golden):
    for alpha in (sqrt2m1, golden):
        t = cf_expand(alpha, 10)
        for N in range(1, t.q[-1]):
            dig = ostrowski(N, t)
            assert value_of(dig, t) == N
            assert t.q[dig.level] <= N < t.q[dig.level + 1]
            quots = t.partial_quotients
            assert all(dig.digits[i] <= quots[i] for i in range(dig.level + 1))
            assert dig.digits[0] < quots[0]
            for i in range(1, dig.level + 1):
                if dig.digits[i] == quots[i]:
                    assert dig.digits[i - 1] == 0


def test_ostrowski_qlp1_minus_1(sqrt2m1):
    t = cf_expand(sqrt2m1, 10)
    for l in range(1, 9):
        N = t.q[l + 1] - 1
        assert value_of(ostrowski(N, t), t) == N


def test_ostrowski_digit_sums_match_per_n(sqrt2m1, golden):
    # golden and [0; 1, (2)] have a_1 = 1, so q_0 = q_1 = 1
    for alpha in (sqrt2m1, golden, surd_from_cf([1], [2]),
                  surd_from_cf([3, 1, 7], [1, 2])):
        t = cf_expand_until(alpha, 2000)
        levels, sums = ostrowski_digit_sums(t, 2000)
        for N in range(1, 2001):
            dig = ostrowski(N, t)
            assert (levels[N - 1], sums[N - 1]) == \
                (dig.level, sum(dig.digits)), N
    with pytest.raises(ValueError):
        ostrowski_digit_sums(cf_expand(sqrt2m1, 4), 100)


def test_ostrowski_digit_sums_tiled_match_division(sqrt2m1, golden):
    # the tiled levels and sums equal the division form's; a prefix of the
    # reference at 2^20 is the reference at N, as each N is expanded alone
    for alpha in (sqrt2m1, golden, surd_from_cf([3, 1000, 7], [1, 2]),
                  surd_from_cf([1, 5, 1], [3])):
        ref_levels, ref_sums = ostrowski_digit_sums_by_division(
            cf_expand_until(alpha, 2 ** 20), 2 ** 20)
        for N in (1, 2, 1000, 123457, 2 ** 20):
            t = cf_expand_until(alpha, N)
            levels, sums = ostrowski_digit_sums(t, N)
            assert levels.dtype == sums.dtype == np.int64
            assert np.array_equal(levels, ref_levels[:N]), N
            assert np.array_equal(sums, ref_sums[:N]), N
            assert np.array_equal(ostrowski_levels(t, N), levels), N
            if N <= 1000:
                assert all(np.array_equal(x, y) for x, y in zip(
                    (levels, sums), ostrowski_digit_sums_by_division(t, N)))
    with pytest.raises(ValueError):
        ostrowski_levels(cf_expand(sqrt2m1, 4), 100)


@st.composite
def cf_alphas(draw):
    """[0; prefix, (period)^inf], sometimes with a_1 = 1 (so q_0 = q_1) and
    sometimes with one quotient up to 2^20."""
    quotient = st.integers(1, 40)
    prefix = draw(st.lists(quotient, min_size=0, max_size=5))
    period = draw(st.lists(quotient, min_size=1, max_size=3))
    if draw(st.booleans()):
        prefix.insert(0, 1)
    if draw(st.booleans()):
        prefix.insert(draw(st.integers(0, len(prefix))),
                      draw(st.integers(41, 2 ** 20)))
    try:
        return surd_from_cf(prefix, period)
    except ValueError:  # the period gave a rational
        return surd_from_cf(prefix, [1])


@settings(max_examples=100)
@given(cf_alphas(), st.lists(st.integers(1, 10 ** 5), min_size=1, max_size=20))
def test_ostrowski_canonical_form(alpha, Ns):
    N_max = max(Ns)
    t = cf_expand_until(alpha, N_max)
    a = t.partial_quotients  # a[i] is a_{i+1}
    levels, sums = ostrowski_digit_sums(t, N_max)
    for N in Ns:
        dig = ostrowski(N, t)
        b = dig.digits
        l = dig.level
        assert len(b) == l + 1 and b[l] > 0
        assert t.q[l] <= N < t.q[l + 1]
        assert value_of(dig, t) == N
        assert b[0] < a[0]
        assert all(0 <= b[i] <= a[i] for i in range(l + 1))
        assert all(b[i - 1] == 0 for i in range(1, l + 1) if b[i] == a[i])
        assert (levels[N - 1], sums[N - 1]) == (l, sum(b))


@settings(max_examples=100)
@given(cf_alphas(), st.integers(0, 2 ** 70))
def test_cf_expand_until_is_shortest(alpha, q_min):
    # the first table of at least one quotient whose q_K exceeds q_min,
    # and the same table as a fixed-length expansion
    t = cf_expand_until(alpha, q_min)
    K = len(t.partial_quotients)
    assert K >= 1 and t.q[-1] > q_min
    assert K == 1 or t.q[-2] <= q_min
    assert t == cf_expand(alpha, K)


def test_ostrowski_table_too_shallow(sqrt2m1):
    t = cf_expand(sqrt2m1, 4)
    with pytest.raises(ValueError, match=f"too shallow: q_K = {t.q[-1]} <= "):
        ostrowski(t.q[-1], t)


# -------------------------------------------------------------- frac_part

def test_frac_part_identity(sqrt2m1):
    ev = FracPartEvaluator(sqrt2m1)
    fp = ev.frac_part(1)
    with mpmath.mp.workprec(200):
        ref = mpmath.sqrt(2) - 1
        assert abs(fp.value - ref) < fp.error_bound


def test_frac_part_n12_vs_256bit_oracle(sqrt2m1):
    fp = FracPartEvaluator(sqrt2m1).frac_part(12)
    with mpmath.mp.workprec(256):
        ref = (12 * (mpmath.sqrt(2) - 1)) % 1
        assert abs(fp.value - ref) < mpmath.ldexp(1, -100)


def test_frac_part_qi_near_integer(sqrt2m1):
    # ||q_i alpha|| < 1/q_{i+1}
    t = cf_expand(sqrt2m1, 10)
    ev = FracPartEvaluator(sqrt2m1)
    for i in range(1, 10):
        v = ev.frac_part(t.q[i]).value
        dist = min(v, 1 - v)
        assert dist < 1.0 / t.q[i + 1]
        assert dist > 1.0 / (2 * t.q[i] * t.q[i + 1])


def test_frac_part_matches_quadruple_precision(sqrt2m1, golden):
    rnd = random.Random(5)
    for alpha in (sqrt2m1, golden):
        ev = FracPartEvaluator(alpha)
        hi = FracPartEvaluator(alpha, precision_bits=4 * ev.precision_bits)
        for _ in range(10 ** 4 // 2):
            n = rnd.randint(1, 10 ** 6)
            lo = ev.frac_part(n)
            assert abs(lo.value - hi.frac_part(n).value) <= lo.error_bound


def test_frac_part_budget_and_bounds(sqrt2m1):
    ev = FracPartEvaluator(sqrt2m1, n_max=1000)
    with pytest.raises(ValueError):
        ev.frac_part(1001)
    assert ev.error_bound < 2.0 ** -64
    with pytest.raises(ValueError):
        FracPartEvaluator(sqrt2m1, precision_bits=32)
    with pytest.raises(ValueError):
        FracPartEvaluator(sqrt2m1, precision_bits=0)
    assert default_precision_bits(DEFAULT_N_MAX) == 112


# ------------------------------------------------------------ surd_from_cf

def test_surd_from_cf_roundtrip():
    cases = [
        ([], [2]),
        ([1, 2], [3, 4]),
        ([2, 2, 2], [1, 1]),
        ([5], [1, 2, 3]),
    ]
    for prefix, period in cases:
        alpha = surd_from_cf(prefix, period)
        want = (prefix + period * 12)[:10]
        got = list(cf_expand(alpha, 10).partial_quotients)
        assert got == want, (prefix, period)


def test_cf_expand_until(sqrt2m1):
    t = cf_expand_until(sqrt2m1, 10 ** 5)
    assert t.q[-1] > 10 ** 5
    assert 80782 in t.q
