"""GL2 as a factorizable group, in closed form.

A generic g is g_plus g_minus^-1 with g_plus = [[1, beta], [0, alpha]],
g_minus = [[a, 0], [b, 1]], alpha = g22, beta = g12, a = g22/det g and
b = -g21/det g.  The star product, its inverse and the crossing map
(x_L, x_R) = `xlr` (no separate x_left) are written entry by entry in these
coordinates, with no 2x2 matrix products; as field identities they are
exact over QC and agree up to rounding over floats:

    g*h  = [[(det g det h + B C)/A, B], [C, A]], with A = g22 h22,
           B = h12 + g12 h22, C = g21 h22 + h21 det g;
    i(g) = [[g22^2 + g12 g21, -g12 det g], [-g21, det g]] / (g22 det g);
    x_L  = [[l11, a y12], [(b (l11 - y22) + y21)/a, b y12 + y22]],
           l11 = y11 - b y12, with (a, b) those of x;
    x_R  = [[x11 - u, l12 (x11 - u - x22) + x12 l22], [t, u + x22]],
           t = x21/l22, u = l12 t, with l = x_L.

`NotFactorizable` ("matrix is singular", then "lower-right entry vanishes";
`_nonzero` decides on both backends) is raised where det or the (2,2)
entry vanishes, of: g in factorize, star_inv, curl_partner; g, h in
star_mul; x, x_L in xlr; c, a in xlr_inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import QC, scalar_from_json, scalar_to_json


class NotFactorizable(ValueError):
    """The element lies outside the Zariski-open factorization domain."""


@dataclass(frozen=True)
class Mat2:
    """An invertible 2x2 matrix over the active scalar backend."""

    m11: object
    m12: object
    m21: object
    m22: object

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def __mul__(self, other):
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def inv(self):
        d = self.det()
        if not _nonzero(d):
            raise ZeroDivisionError("singular 2x2 matrix")
        return Mat2(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    def entries(self):
        return (self.m11, self.m12, self.m21, self.m22)

    def to_json(self):
        return [[scalar_to_json(self.m11), scalar_to_json(self.m12)],
                [scalar_to_json(self.m21), scalar_to_json(self.m22)]]

    @staticmethod
    def from_json(obj):
        (a, b), (c, d) = obj
        return Mat2(*(scalar_from_json(v) for v in (a, b, c, d)))


def identity():
    return Mat2(QC(1), QC(0), QC(0), QC(1))


def _nonzero(value, tol=1e-10):
    if isinstance(value, QC):
        return bool(value)
    return abs(value) > tol


@dataclass(frozen=True)
class Factorization:
    """Borel coordinates of g = g_plus * g_minus^-1."""

    alpha: object
    beta: object
    a: object
    b: object

    def plus(self):
        one = self.alpha / self.alpha
        return Mat2(one, self.beta, one - one, self.alpha)

    def minus(self):
        one = self.a / self.a
        return Mat2(self.a, one - one, self.b, one)

    def assemble(self):
        # [[1, beta], [0, alpha]] [[a, 0], [b, 1]]^-1 in closed form
        ainv = self.alpha / (self.alpha * self.a)
        ba = self.b * ainv
        return Mat2(ainv - self.beta * ba, self.beta,
                    -self.alpha * ba, self.alpha)

    def coords(self):
        return (self.alpha, self.beta, self.a, self.b)


def _domain_det(g: Mat2):
    """det g, once g is checked to lie in the factorization domain."""
    d = g.det()
    if not _nonzero(d):
        raise NotFactorizable("matrix is singular")
    if not _nonzero(g.m22):
        raise NotFactorizable("lower-right entry vanishes")
    return d


def factorize(g: Mat2) -> Factorization:
    """Gauss-decompose g into Borel coordinates (alpha, beta, a, b)."""
    d = _domain_det(g)
    return Factorization(alpha=g.m22, beta=g.m12, a=g.m22 / d, b=-g.m21 / d)


def _lower_conj(m: Mat2, a, b) -> Mat2:
    """L^-1 m L for the lower Borel factor L = [[a, 0], [b, 1]]."""
    s = m.m12 / a
    bs = b * s
    n22 = m.m22 - bs
    return Mat2(m.m11 + bs, s, a * m.m21 + b * (n22 - m.m11), n22)


def _upper_conj(m: Mat2, beta, alpha) -> Mat2:
    """U^-1 m U for the upper Borel factor U = [[1, beta], [0, alpha]]."""
    t = m.m21 / alpha
    u = beta * t
    n11 = m.m11 - u
    return Mat2(n11, beta * (n11 - m.m22) + m.m12 * alpha, t, u + m.m22)


def star_mul(g: Mat2, h: Mat2) -> Mat2:
    """Product in GL2*: g*h = g+ h+ (g- h-)^-1."""
    dg, dh = _domain_det(g), _domain_det(h)
    aa = g.m22 * h.m22
    bb = h.m12 + g.m12 * h.m22
    cc = g.m21 * h.m22 + h.m21 * dg
    return Mat2((dg * dh + bb * cc) / aa, bb, cc, aa)


def star_inv(g: Mat2) -> Mat2:
    """Inverse in GL2*: i(g) = g+^-1 g-."""
    d = _domain_det(g)
    e = 1 / (g.m22 * d)
    return Mat2((g.m22 * g.m22 + g.m12 * g.m21) * e, -g.m12 * d * e,
                -g.m21 * e, d * e)


def xlr(x: Mat2, y: Mat2):
    """(x_L, x_R); x-^-1 is the lower factor [[det x/x22, 0], [x21/x22, 1]]."""
    dx = _domain_det(x)
    xl = _lower_conj(y, dx / x.m22, x.m21 / x.m22)
    _domain_det(xl)
    return xl, _upper_conj(x, xl.m12, xl.m22)


def xlr_inverse(c: Mat2, d: Mat2):
    """Solve (c, d) = xlr(a, b): a = c+ d c+^-1, with c+^-1 the upper factor
    [[1, -c12/c22], [0, 1/c22]], and b = a-^-1 c a-."""
    _domain_det(c)
    a = _upper_conj(d, -c.m12 / c.m22, 1 / c.m22)
    fa = factorize(a)
    return a, _lower_conj(c, fa.a, fa.b)


def yb_map(x: Mat2, y: Mat2):
    """The set-theoretic Yang-Baxter map (x, y) -> (x_L(y,x), x_R(y,x))."""
    return xlr(y, x)


def yb_unmap(u: Mat2, v: Mat2):
    """Inverse of yb_map on its image."""
    b, a = xlr_inverse(u, v)
    return a, b


def curl_partner(c: Mat2) -> Mat2:
    """The unique self-consistent loop color of a kink on a strand colored c.

    At the crossing of a positive or negative curl the loop edge must carry
    d = c-^-1 c c- (= c-^-1 c+), the through edge keeps color c.
    """
    f = factorize(c)
    return _lower_conj(c, f.a, f.b)


def curl_unpartner(d: Mat2) -> Mat2:
    """Invert curl_partner: the strand color x with x-^-1 x+ = d, which has
    a = 1/d11, b = -d21/d11, beta = d12/d11 and alpha = det(d)/d11."""
    if not _nonzero(d.m11):
        raise NotFactorizable("no strand color: vanishing (1,1) entry")
    one = d.m11 / d.m11
    return Factorization(alpha=d.det() / d.m11, beta=d.m12 / d.m11,
                         a=one / d.m11, b=-d.m21 / d.m11).assemble()


def mats_equal(g: Mat2, h: Mat2, tol=1e-10):
    for p, q in zip(g.entries(), h.entries()):
        if isinstance(p, QC) and isinstance(q, QC):
            if p != q:
                return False
        else:
            if abs(complex(p) - complex(q)) > tol:
                return False
    return True

