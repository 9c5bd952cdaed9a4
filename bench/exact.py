"""Exact GL2 crossing map and star product, written apart from tanglev.

The group-exact workload checks tanglev's `factgroup` against this code.
Scalars are pairs (re, im) of `Fraction`s and matrices are 4-tuples
(g11, g12, g21, g22) of scalars.  The Gauss decomposition is the closed form
g = g+ g-^-1 with g+ = [[1, beta], [0, alpha]], g- = [[a, 0], [b, 1]],
alpha = g22, beta = g12, a = g22/det, b = -g21/det.
"""

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


class Degenerate(ValueError):
    """A matrix outside the factorization domain (det = 0 or g22 = 0)."""


def mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


def neg(p):
    return (-p[0], -p[1])


def is_zero(p):
    return p[0] == 0 and p[1] == 0


def mmul(g, h):
    return (add(mul(g[0], h[0]), mul(g[1], h[2])),
            add(mul(g[0], h[1]), mul(g[1], h[3])),
            add(mul(g[2], h[0]), mul(g[3], h[2])),
            add(mul(g[2], h[1]), mul(g[3], h[3])))


def det(g):
    return sub(mul(g[0], g[3]), mul(g[1], g[2]))


def inv(g):
    d = det(g)
    if is_zero(d):
        raise Degenerate("singular matrix")
    return (div(g[3], d), div(neg(g[1]), d), div(neg(g[2]), d), div(g[0], d))


def gauss(g):
    """(g+, g-) with g = g+ g-^-1."""
    d = det(g)
    if is_zero(d) or is_zero(g[3]):
        raise Degenerate("matrix outside the factorization domain")
    alpha, beta = g[3], g[1]
    a, b = div(g[3], d), div(neg(g[2]), d)
    return (ONE, beta, ZERO, alpha), (a, ZERO, b, ONE)


def x_left(x, y):
    """x_L = x- y x-^-1."""
    _, xm = gauss(x)
    return mmul(mmul(xm, y), inv(xm))


def xlr(x, y):
    """(x_L, x_R) with x_R = (x_L)+^-1 x (x_L)+."""
    xl = x_left(x, y)
    xlp, _ = gauss(xl)
    return xl, mmul(mmul(inv(xlp), x), xlp)


def yb_map(x, y):
    """The set-theoretic Yang-Baxter map (x, y) -> xlr(y, x)."""
    return xlr(y, x)


def yb_sides(t):
    """Both sides R12 R13 R23 (t) and R23 R13 R12 (t) of the YBE."""
    def r12(t):
        return yb_map(t[0], t[1]) + (t[2],)

    def r13(t):
        u, v = yb_map(t[0], t[2])
        return (u, t[1], v)

    def r23(t):
        return (t[0],) + yb_map(t[1], t[2])

    return r12(r13(r23(t))), r23(r13(r12(t)))


def star_mul(g, h):
    """g * h = g+ h+ (g- h-)^-1."""
    gp, gm = gauss(g)
    hp, hm = gauss(h)
    return mmul(mmul(gp, hp), inv(mmul(gm, hm)))


def equals(mat, ref):
    """Whether a tanglev Mat2 over QC equals a matrix of this module."""
    return all(q.re == r[0] and q.im == r[1]
               for q, r in zip(mat.entries(), ref))
