"""Seeded samplers for property checks: `tanglev verify`, `yb-fuzz` and the
test suite draw their random inputs here, so both check the same
distributions.

Rational entries are n/den with den in 1..MAXDEN and |n/den| <= SPAN;
complex-rational entries have real and imaginary parts n/den with
|n| <= 9 and den in 1..4; float entries have real and imaginary parts uniform in [-2, 2].
"""

from __future__ import annotations

from fractions import Fraction

from . import factgroup
from .factgroup import Mat2
from .rational import QC
from .uqalgebra import CentralCharacter, is_generic

SPAN = 5
MAXDEN = 4


def rational_scalar(rng):
    den = rng.randint(1, MAXDEN)
    return QC(Fraction(rng.randint(-SPAN * den, SPAN * den), den))


def _factorizable_mat(rng, scalar):
    """The first 2x2 matrix of `scalar(rng)` entries that factorizes."""
    while True:
        m = Mat2(*(scalar(rng) for _ in range(4)))
        try:
            factgroup.factorize(m)
            return m
        except factgroup.NotFactorizable:
            continue


def rational_mat(rng):
    """A random factorizable 2x2 matrix with bounded rational entries."""
    return _factorizable_mat(rng, rational_scalar)


def complex_rational_mat(rng):
    """A random factorizable 2x2 matrix with complex-rational entries."""
    return _factorizable_mat(rng, lambda rng: QC(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 4))))


def _uniform_complex(rng):
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def float_group(rng):
    return Mat2(*(_uniform_complex(rng) for _ in range(4)))


def generic_char(rng, rd):
    """A random central character that has a cyclic irrep."""
    while True:
        ch = CentralCharacter(*(_uniform_complex(rng) for _ in range(4)))
        if is_generic(ch, rd):
            return ch


def yb_sides(t):
    """Both sides of R12 R13 R23 = R23 R13 R12 on a triple of colours;
    raises NotFactorizable where the Yang-Baxter map is undefined."""
    def r12(t):
        u, v = factgroup.yb_map(t[0], t[1])
        return (u, v, t[2])

    def r13(t):
        u, v = factgroup.yb_map(t[0], t[2])
        return (u, t[1], v)

    def r23(t):
        u, v = factgroup.yb_map(t[1], t[2])
        return (t[0], u, v)

    return r12(r13(r23(t))), r23(r13(r12(t)))
