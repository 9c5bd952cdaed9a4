"""GL2 as a factorizable group.

A generic invertible 2x2 matrix g splits uniquely as g = g_plus * g_minus^-1
with g_plus upper triangular with unit (1,1) entry and g_minus lower
triangular with unit (2,2) entry:

    g_plus = [[1, beta], [0, alpha]],   g_minus = [[a, 0], [b, 1]].

The closed form (alpha = g22, beta = g12, a = g22/det, b = -g21/det) is exact
over any field, so the whole module works over both the rational-complex and
the float backend.  On top of the factorization sit the star product group
GL2*, the maps x_left / x_right (`xlr`) and the set-theoretic Yang-Baxter map.
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


def identity(rational=True):
    one, zero = (QC(1), QC(0)) if rational else (1.0 + 0j, 0j)
    return Mat2(one, zero, zero, one)


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


def factorize(g: Mat2) -> Factorization:
    """Gauss-decompose g into Borel coordinates (alpha, beta, a, b)."""
    d = g.det()
    if not _nonzero(d):
        raise NotFactorizable("matrix is singular")
    if not _nonzero(g.m22):
        raise NotFactorizable("lower-right entry vanishes")
    return Factorization(alpha=g.m22, beta=g.m12, a=g.m22 / d, b=-g.m21 / d)


def star_mul(g: Mat2, h: Mat2) -> Mat2:
    """Product in GL2*: g*h = g+ h+ (g- h-)^-1, in Borel coordinates.

    With g = (alpha1, beta1, a1, b1) and h = (alpha2, beta2, a2, b2) the
    product has plus part [[1, B], [0, A]] and minus part [[P, 0], [Q, 1]]
    where B = beta2 + beta1 alpha2, A = alpha1 alpha2, P = a1 a2,
    Q = b1 a2 + b2.
    """
    fg, fh = factorize(g), factorize(h)
    bb = fh.beta + fg.beta * fh.alpha
    aa = fg.alpha * fh.alpha
    p = fg.a * fh.a
    q = fg.b * fh.a + fh.b
    pinv = aa / (aa * p)
    qp = q * pinv
    return Mat2(pinv - bb * qp, bb, -aa * qp, aa)


def star_inv(g: Mat2) -> Mat2:
    """Inverse in GL2*: i(g) = g+^-1 g-, in Borel coordinates."""
    f = factorize(g)
    ba = f.beta / f.alpha
    return Mat2(f.a - ba * f.b, -ba, f.b / f.alpha, f.a / f.a / f.alpha)


def _lower_inv(m: Mat2) -> Mat2:
    """Closed-form inverse of a lower Borel factor [[p, 0], [q, 1]]."""
    one = m.m22
    p = one / m.m11
    return Mat2(p, m.m12, -m.m21 * p, one)


def _upper_inv(m: Mat2) -> Mat2:
    """Closed-form inverse of an upper Borel factor [[1, q], [0, p]]."""
    one = m.m11
    p = one / m.m22
    return Mat2(one, -m.m12 * p, m.m21, p)


def x_left(x: Mat2, y: Mat2) -> Mat2:
    """x_L(x, y) = x- y x-^-1."""
    xm = factorize(x).minus()
    return xm * y * _lower_inv(xm)


def xlr(x: Mat2, y: Mat2):
    """Both components of the crossing map, sharing the factorizations."""
    xl = x_left(x, y)
    xlp = factorize(xl).plus()
    return xl, _upper_inv(xlp) * x * xlp


def xlr_inverse(c: Mat2, d: Mat2):
    """Solve (c, d) = xlr(a, b) for (a, b)."""
    cp = factorize(c).plus()
    a = cp * d * _upper_inv(cp)
    am = factorize(a).minus()
    b = _lower_inv(am) * c * am
    return a, b


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
    cm = factorize(c).minus()
    return _lower_inv(cm) * c * cm


def curl_unpartner(d: Mat2) -> Mat2:
    """Invert curl_partner: the strand color whose kink loop is colored d.

    Solves x_-^-1 x_+ = d in closed form; writing x_+ = [[1, beta], [0, alpha]]
    and x_- = [[a, 0], [b, 1]] gives a = 1/d11, b = -d21/d11, beta = d12/d11,
    alpha = det(d)/d11, and x = x_+ x_-^-1.
    """
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


def to_float(g: Mat2) -> Mat2:
    return Mat2(*(complex(v) for v in g.entries()))
