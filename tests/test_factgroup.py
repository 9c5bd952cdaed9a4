"""Unit tests for the factorization group layer (exact backend)."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglev import coloring, factgroup
from tanglev.diagram import Piece
from tanglev.factgroup import Mat2
from tanglev.rational import QC, parse_scalar, scalar_from_json, scalar_to_json
from tanglev.samplers import complex_rational_mat

import oracles
from conftest import rational_mat


def qc_strategy(span=6, maxden=3):
    frac = st.builds(Fraction,
                     st.integers(-span, span),
                     st.integers(1, maxden))
    return st.builds(QC, frac, frac)


@st.composite
def scalars(draw, span=40, maxden=12, real=None):
    """(QC, (re, im)): a real or complex rational and its parts as a pair of
    Fractions, from denominators of either sign, built the ways callers
    build scalars: from the parts, as a quotient by an int, or from one
    real Fraction.  real=True draws a zero imaginary part, real=False a
    nonzero one, and None leaves it to the draw."""
    num, den = st.integers(-span, span), st.integers(-maxden, maxden)
    p, q = draw(num), draw(den.filter(bool))
    imag = st.tuples(num.filter(bool) if real is False else num,
                     den.filter(bool))
    if real is None:
        imag = st.one_of(st.just((0, 1)), imag)
    r, s = (0, 1) if real else draw(imag)
    pair = (Fraction(p, q), Fraction(r, s))
    how = draw(st.sampled_from(("parts", "quotient", "real")))
    if how == "quotient":
        return QC(p, Fraction(r * q, s)) / q, pair
    if how == "real" and not r:
        return QC(pair[0]), pair
    return QC(*pair), pair


def _canonical(x):
    return x._d > 0 and gcd(x._a, x._b, x._d) == 1


# the arithmetic of (re, im) pairs of Fractions, the reference for QC
_PAIR_OPS = (
    (operator.add, lambda p, q: (p[0] + q[0], p[1] + q[1])),
    (operator.sub, lambda p, q: (p[0] - q[0], p[1] - q[1])),
    (operator.mul, lambda p, q: (p[0] * q[0] - p[1] * q[1],
                                 p[0] * q[1] + p[1] * q[0])),
    (operator.truediv, lambda p, q: (
        (p[0] * q[0] + p[1] * q[1]) / (q[0] * q[0] + q[1] * q[1]),
        (p[1] * q[0] - p[0] * q[1]) / (q[0] * q[0] + q[1] * q[1]))),
)


def mat_strategy(span=6, maxden=3):
    return st.builds(Mat2, *(qc_strategy(span, maxden) for _ in range(4)))


def factorizable(m):
    try:
        factgroup.factorize(m)
        return True
    except factgroup.NotFactorizable:
        return False


class TestScalars:
    def test_parse_round_trip(self):
        for text in ("3/4", "-1/2+2/3 i", "5 i", "-i", "2-i"):
            v = parse_scalar(text)
            assert parse_scalar(str(v)) == v

    def test_parse_rejects_garbage(self):
        for text in ("", "x", "1/0"):
            with pytest.raises(ValueError):
                parse_scalar(text)

    def test_json_round_trip(self):
        v = QC(Fraction(3, 4), Fraction(-1, 2))
        assert scalar_from_json(scalar_to_json(v)) == v
        z = 1.5 - 2.0j
        assert scalar_from_json(scalar_to_json(z)) == z

    @given(qc_strategy(), qc_strategy())
    def test_field_ops(self, u, v):
        assert u + v == v + u
        assert u * v == v * u
        if v:
            assert (u / v) * v == u

    @given(scalars(real=True), scalars(real=False), scalars(real=True),
           scalars(real=False))
    def test_ops_match_fraction_pairs(self, u, w, v, t):
        # each operand kind on purpose: real.real, real.complex,
        # complex.real and complex.complex
        zero = QC(0)
        for (x, p), (y, q) in ((u, v), (u, t), (w, v), (w, t)):
            for op, ref in _PAIR_OPS:
                if op is operator.truediv and not any(q):
                    continue
                z = op(x, y)
                assert _canonical(z)
                assert (z.re, z.im) == ref(p, q)
            assert _canonical(-x) and ((-x).re, (-x).im) == (-p[0], -p[1])
            # zero results, of either kind, come out as (0, 0, 1)
            zeros = [x - x, x + -x, zero * y, y * zero, x * 0]
            if any(q):
                zeros.append(zero / y)
            for z in zeros:
                assert (z._a, z._b, z._d) == (0, 0, 1)

    @given(scalars())
    def test_parts_round_trip(self, u):
        x, pair = u
        assert _canonical(x)
        assert type(x.re) is Fraction and type(x.im) is Fraction
        assert (x.re, x.im) == pair
        assert QC(x.re, x.im) == x and hash(QC(x.re, x.im)) == hash(x)
        assert complex(x) == complex(float(pair[0]), float(pair[1]))

    def test_equal_values_hash_equal(self):
        half = (QC(Fraction(2, 4)), QC(1) / 2, QC(-1) / -2, QC(3) / QC(6),
                QC(Fraction(1, 2), 0), QC(Fraction(-1, 2)) * -1,
                parse_scalar("2/4"))
        half_i = (QC(Fraction(1, 2), Fraction(1, 2)), QC(1, 1) / 2,
                  (QC(1) + QC(0, 1)) / 2, QC(Fraction(1, 2)) + QC(0, 1) / 2,
                  QC(2, 0) / QC(2, -2), parse_scalar("1/2+1/2 i"))
        for same in (half, half_i):
            assert len(set(same)) == 1
            assert len({hash(x) for x in same}) == 1

    @given(scalars(), st.integers(-5, 5))
    def test_mixed_int_operands(self, u, n):
        x, (re, im) = u
        m = QC(n)
        assert 1 - x == QC(1) - x
        assert (n + x, x + n, n - x, x - n, n * x, x * n) == \
            (m + x, x + m, m - x, x - m, m * x, x * m)
        assert (x == 1) == (re == 1 and im == 0)
        assert (x == n) == (re == n and im == 0)
        if x:
            assert 1 / x == QC(1) / x and n / x == m / x
        if n:
            assert x / n == x / m

    def test_division_by_zero_raises(self):
        for x in (QC(1), QC(Fraction(-1, 2), 3), QC(0)):
            for zero in (QC(0), QC(0, 0), QC(Fraction(0), Fraction(0)), 0):
                with pytest.raises(ZeroDivisionError):
                    x / zero
        with pytest.raises(ZeroDivisionError):
            1 / QC(0, 0)


class TestFactorization:
    def test_worked_example(self):
        g = Mat2(QC(Fraction(-4, 3)), QC(1), QC(Fraction(-10, 3)), QC(2))
        f = factgroup.factorize(g)
        assert f.coords() == (QC(2), QC(1), QC(3), QC(5))
        assert f.plus() == Mat2(QC(1), QC(1), QC(0), QC(2))
        assert f.minus() == Mat2(QC(3), QC(0), QC(5), QC(1))
        assert f.assemble() == g

    def test_rejects_singular_and_border(self):
        with pytest.raises(factgroup.NotFactorizable):
            factgroup.factorize(Mat2(QC(1), QC(2), QC(2), QC(4)))
        with pytest.raises(factgroup.NotFactorizable):
            factgroup.factorize(Mat2(QC(1), QC(0), QC(1), QC(0)))

    @given(mat_strategy())
    @settings(max_examples=200)
    def test_round_trip(self, g):
        if not factorizable(g):
            return
        f = factgroup.factorize(g)
        assert f.assemble() == g
        assert f.plus() * f.minus().inv() == g


class TestStarProduct:
    def test_identity_is_neutral(self, rng):
        e = factgroup.identity()
        for _ in range(20):
            g = rational_mat(rng)
            assert factgroup.star_mul(g, e) == g
            assert factgroup.star_mul(e, g) == g

    def test_inverse_both_sides(self, rng):
        e = factgroup.identity()
        for _ in range(20):
            g = rational_mat(rng)
            try:
                gi = factgroup.star_inv(g)
            except factgroup.NotFactorizable:
                continue
            assert factgroup.star_mul(g, gi) == e
            assert factgroup.star_mul(gi, g) == e

    def test_associative(self, rng):
        for _ in range(30):
            g, h, k = (rational_mat(rng) for _ in range(3))
            try:
                lhs = factgroup.star_mul(factgroup.star_mul(g, h), k)
                rhs = factgroup.star_mul(g, factgroup.star_mul(h, k))
            except factgroup.NotFactorizable:
                continue
            assert lhs == rhs

    def test_matches_matrix_formula(self, rng):
        # the coordinate form of star_mul against its defining product
        for _ in range(20):
            g, h = rational_mat(rng), rational_mat(rng)
            fg, fh = factgroup.factorize(g), factgroup.factorize(h)
            try:
                expect = (fg.plus() * fh.plus()) * \
                    (fg.minus() * fh.minus()).inv()
            except (factgroup.NotFactorizable, ZeroDivisionError):
                continue
            assert factgroup.star_mul(g, h) == expect


class TestCrossingMap:
    def test_xlr_round_trip(self, rng):
        for _ in range(30):
            x, y = rational_mat(rng), rational_mat(rng)
            try:
                c, d = factgroup.xlr(x, y)
                a, b = factgroup.xlr_inverse(c, d)
            except factgroup.NotFactorizable:
                continue
            assert (a, b) == (x, y)

    def test_yb_unmap_round_trip(self, rng):
        for _ in range(30):
            x, y = rational_mat(rng), rational_mat(rng)
            try:
                u, v = factgroup.yb_map(x, y)
                a, b = factgroup.yb_unmap(u, v)
            except factgroup.NotFactorizable:
                continue
            assert (a, b) == (x, y)

    def test_xlr_preserves_star_product(self, rng):
        # the defining property: x_L * x_R = x * y in the star group
        for _ in range(30):
            x, y = rational_mat(rng), rational_mat(rng)
            try:
                c, d = factgroup.xlr(x, y)
                assert factgroup.star_mul(c, d) == factgroup.star_mul(x, y)
            except factgroup.NotFactorizable:
                continue

    def test_curl_partner_inverse(self, rng):
        for _ in range(30):
            c = rational_mat(rng)
            try:
                d = factgroup.curl_partner(c)
                assert factgroup.curl_unpartner(d) == c
            except factgroup.NotFactorizable:
                continue

    def test_curl_partner_fixed_point(self, rng):
        # the kink crossing maps (c, d) to itself
        for _ in range(20):
            c = rational_mat(rng)
            try:
                d = factgroup.curl_partner(c)
                assert factgroup.xlr(c, d) == (c, d)
            except factgroup.NotFactorizable:
                continue


# The defining products of the group layer, written with the Borel factors
# and general 2x2 inverses; the library computes them in closed form.

def oracle_xlr(x, y):
    xm = factgroup.factorize(x).minus()
    xl = xm * y * xm.inv()
    xlp = factgroup.factorize(xl).plus()
    return xl, xlp.inv() * x * xlp


def oracle_xlr_inverse(c, d):
    cp = factgroup.factorize(c).plus()
    a = cp * d * cp.inv()
    am = factgroup.factorize(a).minus()
    return a, am.inv() * c * am


def oracle_curl_partner(c):
    cm = factgroup.factorize(c).minus()
    return cm.inv() * c * cm


def oracle_star_mul(g, h):
    fg, fh = factgroup.factorize(g), factgroup.factorize(h)
    return (fg.plus() * fh.plus()) * (fg.minus() * fh.minus()).inv()


def oracle_star_inv(g):
    f = factgroup.factorize(g)
    return f.plus().inv() * f.minus()


PAIRS = ((factgroup.xlr, oracle_xlr),
         (factgroup.xlr_inverse, oracle_xlr_inverse),
         (factgroup.star_mul, oracle_star_mul))
SINGLES = ((factgroup.curl_partner, oracle_curl_partner),
           (factgroup.star_inv, oracle_star_inv))


def outcome(fn, *args):
    """The value of fn(*args), or the NotFactorizable message it raises."""
    try:
        return fn(*args)
    except factgroup.NotFactorizable as exc:
        return "NotFactorizable: %s" % exc


def assert_same_outcomes(x, y):
    for fn, oracle in PAIRS:
        assert outcome(fn, x, y) == outcome(oracle, x, y), fn.__name__
    for fn, oracle in SINGLES:
        assert outcome(fn, x) == outcome(oracle, x), fn.__name__


class TestClosedForms:
    def test_equal_to_defining_products(self, rng):
        # complex-rational entries, so the imaginary parts take part too
        for _ in range(60):
            x, y = complex_rational_mat(rng), complex_rational_mat(rng)
            assert_same_outcomes(x, y)

    @pytest.mark.parametrize("x, y, message", [
        # det x = 0, x22 = 0, det x_L = det y = 0, (x_L)22 = 0
        ((1, 2, 2, 4), (1, 0, 0, 1), "matrix is singular"),
        ((1, 1, 1, 0), (1, 0, 0, 1), "lower-right entry vanishes"),
        ((1, 0, 1, 1), (1, 2, 1, 2), "matrix is singular"),
        ((1, 0, 1, 1), (1, 1, 0, 1), "lower-right entry vanishes"),
    ])
    def test_xlr_border(self, x, y, message):
        x, y = (Mat2(*map(QC, m)) for m in (x, y))
        with pytest.raises(factgroup.NotFactorizable, match=message):
            factgroup.xlr(x, y)
        assert_same_outcomes(x, y)

    @given(*[st.one_of(mat_strategy(), mat_strategy(span=1, maxden=1))] * 2)
    @settings(max_examples=300, deadline=None)
    def test_same_verdicts_on_small_entries(self, x, y):
        # entries in {-1, 0, 1} + {-1, 0, 1} i put many pairs on the border
        assert_same_outcomes(x, y)

    @pytest.mark.parametrize("kind", [Piece.X_POS, Piece.X_NEG])
    def test_float_coloring_branch(self, rng, kind):
        # x and u = x_L known: the crossing solves y = x-^-1 u x- and
        # x_R = u+^-1 x u+
        for _ in range(30):
            x = oracles.to_float(rational_mat(rng))
            y = oracles.to_float(rational_mat(rng))
            try:
                u = oracle_xlr(x, y)[0]
                xm = factgroup.factorize(x).minus()
                up = factgroup.factorize(u).plus()
            except factgroup.NotFactorizable:
                continue
            y_ref, v_ref = xm.inv() * u * xm, up.inv() * x * up
            cr = coloring._Crossing(kind, "c", "d", "a", "b")
            if kind is Piece.X_POS:
                x_pt, u_pt, y_pt, v_pt = "c", "a", "d", "b"
            else:
                x_pt, u_pt, y_pt, v_pt = "a", "c", "b", "d"
            colors = {x_pt: x, u_pt: u}
            assert coloring._apply_crossing(cr, colors)
            assert factgroup.mats_equal(colors[y_pt], y_ref, tol=1e-12)
            assert factgroup.mats_equal(colors[v_pt], v_ref, tol=1e-12)


class TestArithmeticCount:
    # A guard that does not depend on the machine: the closed forms make a
    # fixed number of scalar multiplications and divisions.

    @pytest.fixture()
    def counts(self, monkeypatch):
        box = {"n": 0}
        for op in ("__mul__", "__truediv__"):
            fn = getattr(QC, op)

            def counted(a, b, fn=fn):
                box["n"] += 1
                return fn(a, b)
            monkeypatch.setattr(QC, op, counted)
        return box

    def test_xlr(self, counts):
        x = Mat2(QC(Fraction(-4, 3)), QC(1), QC(Fraction(-10, 3)), QC(2))
        y = Mat2(QC(2), QC(Fraction(1, 2)), QC(-1), QC(3))
        factgroup.xlr(x, y)
        assert counts["n"] <= 14

    def test_star_mul(self, counts):
        g = Mat2(QC(Fraction(-4, 3)), QC(1), QC(Fraction(-10, 3)), QC(2))
        h = Mat2(QC(2), QC(Fraction(1, 2)), QC(-1), QC(3))
        factgroup.star_mul(g, h)
        assert counts["n"] <= 11


class TestFloatBackend:
    def test_to_float_and_tolerant_equality(self):
        g = Mat2(QC(Fraction(1, 3)), QC(0), QC(2), QC(1))
        gf = oracles.to_float(g)
        assert isinstance(gf.m11, complex)
        assert factgroup.mats_equal(gf, gf)
        bumped = Mat2(gf.m11 + 1e-14, gf.m12, gf.m21, gf.m22)
        assert factgroup.mats_equal(gf, bumped)
        assert not factgroup.mats_equal(gf, Mat2(gf.m11 + 1e-3, gf.m12,
                                                 gf.m21, gf.m22))

    def test_float_xlr_round_trip(self, rng):
        for _ in range(20):
            x = oracles.to_float(rational_mat(rng))
            y = oracles.to_float(rational_mat(rng))
            try:
                c, d = factgroup.xlr(x, y)
                a, b = factgroup.xlr_inverse(c, d)
            except factgroup.NotFactorizable:
                continue
            assert factgroup.mats_equal(a, x, tol=1e-8)
            assert factgroup.mats_equal(b, y, tol=1e-8)

    def test_json_round_trip(self, rng):
        g = rational_mat(rng)
        assert Mat2.from_json(g.to_json()) == g
        gf = oracles.to_float(g)
        assert factgroup.mats_equal(Mat2.from_json(gf.to_json()), gf)
