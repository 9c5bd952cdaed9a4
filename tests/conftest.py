"""Shared samplers and fixtures for the test suite."""

import random
from fractions import Fraction

import numpy as np
import pytest

from tanglev import coloring, diagram, evaluator, factgroup
from tanglev.factgroup import Mat2
from tanglev.rational import QC
from tanglev.uqalgebra import CentralCharacter, RootData, is_generic


def rational_scalar(rng, span=5, maxden=4):
    den = rng.randint(1, maxden)
    return QC(Fraction(rng.randint(-span * den, span * den), den))


def rational_mat(rng, span=5, maxden=4):
    """A random factorizable 2x2 matrix with bounded rational entries."""
    while True:
        m = Mat2(*(rational_scalar(rng, span, maxden) for _ in range(4)))
        try:
            factgroup.factorize(m)
            return m
        except factgroup.NotFactorizable:
            continue


def float_group(rng):
    return Mat2(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(4)))


def generic_group(rng, rd):
    """A random complex group element whose character is generic."""
    while True:
        g = float_group(rng)
        try:
            factgroup.factorize(g)
        except factgroup.NotFactorizable:
            continue
        if is_generic(CentralCharacter.from_group(g), rd):
            return g


def generic_char(rng, rd):
    while True:
        ch = CentralCharacter(*(complex(rng.uniform(-2, 2),
                                        rng.uniform(-2, 2))
                                for _ in range(4)))
        if is_generic(ch, rd):
            return ch


_LAM = 0.8 - 0.5j
_P = np.array([[1.1 + 0.3j, -0.4 + 0.2j], [0.6 - 0.1j, 0.9 + 0.7j]])


def _conjugated(a0, b0):
    pinv = np.linalg.inv(_P)
    return _LAM * (_P @ a0 @ pinv), _LAM * (_P @ b0 @ pinv)


def trefoil_meridians():
    """Generic meridian matrices with A B A = B A B."""
    s = 0.5 + 1.0j
    return _conjugated(np.array([[1, s], [0, 1]]),
                       np.array([[1, 0], [-1 / s, 1]]))


def trefoil_curve_meridians(m):
    """Meridians on the trefoil's SL2 curve, A B A = B A B for every m:
    A = lam P [[m, 1], [0, 1/m]] P^-1, B = lam P [[1/m, 0], [-1, m]] P^-1."""
    return _conjugated(np.array([[m, 1], [0, 1 / m]]),
                       np.array([[1 / m, 0], [-1, m]]))


def mat2_of(m):
    return Mat2(*(complex(v) for v in np.asarray(m).ravel()))


def trefoil_boundary_2(meridians=None):
    """(bottom color, cup seed) for the partial closure of s1^3."""
    a, b = meridians or trefoil_meridians()
    bnd = coloring.functor_f_object([(1, mat2_of(a)), (1, mat2_of(a @ b))])
    return bnd.colors()


def trefoil_boundary_3(meridians=None):
    """Colors for the partial closure of the 3-strand torus word."""
    a, b = meridians or trefoil_meridians()
    bnd = coloring.functor_f_object(
        [(1, mat2_of(a)), (1, mat2_of(a @ b)), (1, mat2_of(a @ b @ a))])
    return bnd.colors()


def trefoil_magnitudes(rd, meridians=None):
    """|invariant| of the 2- and of the 3-strand trefoil, each evaluated
    from a fresh context."""
    x1, x2 = trefoil_boundary_2(meridians)
    y1, y2, y3 = trefoil_boundary_3(meridians)
    out = []
    for word, strands, bottom, seeds in (([1, 1, 1], 2, x1, [x2]),
                                         ([1, 2, 1, 2], 3, y1, [y2, y3])):
        d = diagram.close_braid_partial(diagram.braid_word(word, strands))
        col = coloring.propagate(d, coloring.ColoredBoundary(((1, bottom),)),
                                 cup_seeds=dict(enumerate(seeds)))
        value, _ = evaluator.invariant(d, col, evaluator.EvalContext(rd))
        out.append(abs(value))
    return out


@pytest.fixture(scope="session")
def rd3():
    return RootData(3)


@pytest.fixture()
def rng():
    return random.Random(20260823)
