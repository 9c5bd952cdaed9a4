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

Each Mat2 carries its determinant.  `det()` forms m11 m22 - m12 m21 once
per input matrix; every matrix made here is handed its det through a group
identity instead, exact over QC:

    det(g*h) = det g det h,   det i(g) = 1/det g,
    det x_L = det y,          det x_R = det x,

since x_L and x_R (and the results of xlr_inverse and curl_partner) are
conjugates by a Borel factor; likewise det(gh) = det g det h, det g^-1 =
1/det g, det g_plus = alpha, det g_minus = a and det assemble() = alpha/a.

`NotFactorizable` ("matrix is singular", then "lower-right entry vanishes";
`_nonzero` decides on both backends) is raised where det or the (2,2)
entry vanishes, of: g in factorize, star_inv, curl_partner; g, h in
star_mul; x, x_L in xlr; c, a in xlr_inverse.  A carried det equals the
re-formed one exactly over QC, so each verdict and message is the same as
when every det was formed from the entries.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

from .rational import QC, scalar_from_json, scalar_to_json


class NotFactorizable(ValueError):
    """The element lies outside the Zariski-open factorization domain."""


class Mat2:
    """An invertible 2x2 matrix over the active scalar backend.

    Immutable, and equal, hashed and printed by its four entries only; the
    determinant it carries (`_det`, None until known) is not part of its
    value.  `det()` forms it from the entries once; the producers of this
    module hand it on through `_mat` instead.
    """

    __slots__ = ("m11", "m12", "m21", "m22", "_det")

    def __new__(cls, m11, m12, m21, m22):
        return _mat(m11, m12, m21, m22, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return "Mat2(m11=%r, m12=%r, m21=%r, m22=%r)" % self.entries()

    def __reduce__(self):
        return Mat2, self.entries()

    def det(self):
        d = self._det
        if d is None:
            d = self.m11 * self.m22 - self.m12 * self.m21
            _set_det(self, d)
        return d

    def __mul__(self, other):
        d, e = self._det, other._det
        return _mat(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
            None if d is None or e is None else d * e,
        )

    def inv(self):
        d = self.det()
        if not _nonzero(d):
            raise ZeroDivisionError("singular 2x2 matrix")
        return _mat(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d,
                    1 / d)

    def entries(self):
        return (self.m11, self.m12, self.m21, self.m22)

    def to_json(self):
        return [[scalar_to_json(self.m11), scalar_to_json(self.m12)],
                [scalar_to_json(self.m21), scalar_to_json(self.m22)]]

    @staticmethod
    def from_json(obj):
        (a, b), (c, d) = obj
        return Mat2(*(scalar_from_json(v) for v in (a, b, c, d)))


# Mat2.__setattr__ refuses assignment, so entries go in through the slots
_set_m11, _set_m12, _set_m21, _set_m22, _set_det = (
    getattr(Mat2, name).__set__ for name in Mat2.__slots__)
_new = object.__new__


def _mat(m11, m12, m21, m22, det):
    """Mat2(m11, m12, m21, m22) carrying det, which the caller derived from
    a group identity (or None where it is not known)."""
    g = _new(Mat2)
    _set_m11(g, m11)
    _set_m12(g, m12)
    _set_m21(g, m21)
    _set_m22(g, m22)
    _set_det(g, det)
    return g


def identity():
    return _mat(QC(1), QC(0), QC(0), QC(1), QC(1))


#: Absolute bound at or below which a float det or entry vanishes.
NONZERO_TOL = 1e-10


def _nonzero(value):
    if type(value) is QC:
        # a QC is zero exactly when its canonical triple is (0, 0, 1)
        return value._a != 0 or value._b != 0
    return abs(value) > NONZERO_TOL


@dataclass(frozen=True)
class Factorization:
    """Borel coordinates of g = g_plus * g_minus^-1."""

    alpha: object
    beta: object
    a: object
    b: object

    def plus(self):
        one = self.alpha / self.alpha
        return _mat(one, self.beta, one - one, self.alpha, self.alpha)

    def minus(self):
        one = self.a / self.a
        return _mat(self.a, one - one, self.b, one, self.a)

    def assemble(self):
        # [[1, beta], [0, alpha]] [[a, 0], [b, 1]]^-1 in closed form
        ainv = self.alpha / (self.alpha * self.a)
        ba = self.b * ainv
        return _mat(ainv - self.beta * ba, self.beta,
                    -self.alpha * ba, self.alpha, self.alpha / self.a)

    def coords(self):
        return (self.alpha, self.beta, self.a, self.b)


def _domain_det(g: Mat2):
    """det g (carried, or formed once), once g is checked to lie in the
    factorization domain."""
    d = g._det
    if d is None:
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
    return _mat(m.m11 + bs, s, a * m.m21 + b * (n22 - m.m11), n22, m.det())


def _upper_conj(m: Mat2, beta, alpha) -> Mat2:
    """U^-1 m U for the upper Borel factor U = [[1, beta], [0, alpha]]."""
    t = m.m21 / alpha
    u = beta * t
    n11 = m.m11 - u
    return _mat(n11, beta * (n11 - m.m22) + m.m12 * alpha, t, u + m.m22,
                m.det())


def star_mul(g: Mat2, h: Mat2) -> Mat2:
    """Product in GL2*: g*h = g+ h+ (g- h-)^-1."""
    dg, dh = _domain_det(g), _domain_det(h)
    aa = g.m22 * h.m22
    bb = h.m12 + g.m12 * h.m22
    cc = g.m21 * h.m22 + h.m21 * dg
    d = dg * dh
    return _mat((d + bb * cc) / aa, bb, cc, aa, d)


def star_inv(g: Mat2) -> Mat2:
    """Inverse in GL2*: i(g) = g+^-1 g-."""
    d = _domain_det(g)
    e = 1 / (g.m22 * d)
    # det i(g) = 1/det g = g22 e
    return _mat((g.m22 * g.m22 + g.m12 * g.m21) * e, -g.m12 * d * e,
                -g.m21 * e, d * e, g.m22 * e)


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

