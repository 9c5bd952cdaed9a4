"""Test-side oracles: helpers that only the tests use."""

import numpy as np

from tanglev.evaluator import ColoredObject, LinearBlock
from tanglev.factgroup import Mat2


def to_float(g: Mat2) -> Mat2:
    """g with every entry cast to complex: the float backend."""
    return Mat2(*(complex(v) for v in g.entries()))


def pretty(d) -> str:
    """A diagram in the slice DSL that `diagram.parse` reads."""
    return " ; ".join(" ".join(p.value for p in s) for s in d.slices)


class ObjectMismatch(ValueError):
    """Composition refused: the boundary objects differ."""


def compose_blocks(top: LinearBlock, bottom: LinearBlock) -> LinearBlock:
    if not bottom.codomain.equal(top.domain):
        raise ObjectMismatch("boundary objects do not match")
    return LinearBlock(top.matrix @ bottom.matrix,
                       bottom.domain, top.codomain,
                       bottom.phase_log + top.phase_log)


def tensor_blocks(left: LinearBlock, right: LinearBlock) -> LinearBlock:
    return LinearBlock(
        np.kron(left.matrix, right.matrix),
        ColoredObject(left.domain.entries + right.domain.entries),
        ColoredObject(left.codomain.entries + right.codomain.entries),
        left.phase_log + right.phase_log)
