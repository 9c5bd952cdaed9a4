"""Shared samplers and fixtures for the test suite."""

import random

import numpy as np
import pytest

from tanglev import coloring, diagram, evaluator, factgroup
from tanglev.braiding import char_to_group, group_to_char
from tanglev.factgroup import Mat2
# the samplers live in the library, which `tanglev verify` draws from too
from tanglev.samplers import float_group, generic_char, rational_mat  # noqa
from tanglev.uqalgebra import RootData, build_irrep, is_generic

from oracles import branch_of


def generic_group(rng, rd):
    """A random complex group element whose character is generic."""
    while True:
        g = float_group(rng)
        try:
            factgroup.factorize(g)
        except factgroup.NotFactorizable:
            continue
        if is_generic(group_to_char(g), rd):
            return g


def strand_outputs(repx, repy, sign=1):
    """The output irreps of the crossing of `sign` out of (repx, repy), by
    the strand rule: the characters are the crossing map's (`xlr`, or
    `xlr_inverse` for a negative crossing), and each output carries the
    central scalars of K L^-1 and c of the opposite input."""
    rd = repx.rd
    crossing = factgroup.xlr if sign > 0 else factgroup.xlr_inverse
    groups = crossing(char_to_group(repx.char), char_to_group(repy.char))
    return tuple(
        build_irrep(ch, branch_of(ch, rep.kappa / rep.lam, rep.cval, rd), rd)
        for ch, rep in zip(map(group_to_char, groups), (repy, repx)))


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


def trefoil_colourings(meridians=None):
    """[(diagram, colouring)] of the 2- and of the 3-strand trefoil."""
    x1, x2 = trefoil_boundary_2(meridians)
    y1, y2, y3 = trefoil_boundary_3(meridians)
    out = []
    for word, strands, bottom, seeds in (([1, 1, 1], 2, x1, [x2]),
                                         ([1, 2, 1, 2], 3, y1, [y2, y3])):
        d = diagram.close_braid_partial(diagram.braid_word(word, strands))
        col = coloring.propagate(d, coloring.ColoredBoundary(((1, bottom),)),
                                 cup_seeds=dict(enumerate(seeds)))
        out.append((d, col))
    return out


def trefoil_magnitudes(rd, meridians=None):
    """|invariant| of the 2- and of the 3-strand trefoil, each evaluated
    from a fresh context."""
    return [abs(evaluator.invariant(d, col, evaluator.EvalContext(rd))[0])
            for d, col in trefoil_colourings(meridians)]


@pytest.fixture(scope="session")
def rd3():
    return RootData(3)


@pytest.fixture()
def rng():
    return random.Random(20260823)
