"""G-colorings of tangle diagrams.

Every edge of a diagram carries a GL2 element.  At a positive crossing the
two outgoing colors are (x_left, x_right) of the incoming pair; at a negative
crossing the incoming pair is (x_left, x_right) of the outgoing one.  The two
legs of a cup or cap belong to one arc and carry equal colors.

Colors are found by a constraint fixpoint: edge endpoints are merged with a
union-find (identities, cup legs, cap legs) and crossing relations are
applied in every solvable direction until nothing changes.  Kinks need one
non-forward rule: when a crossing's d and b legs are the same arc and only c
is known, the unique consistent loop color is d = c_-^-1 c c_- with a = c.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import factgroup
from .diagram import Piece, TangleDiagram
from .factgroup import Mat2, NotFactorizable, factorize, mats_equal, star_inv


class CapMismatch(ValueError):
    """Two edges forced to one arc carry different colors."""


class Inconsistent(ValueError):
    """A closed-diagram seed does not extend to a flat coloring."""


class UnderdeterminedColoring(ValueError):
    """Propagation needs seed colors for cups it cannot resolve."""


class ArityMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ColoredBoundary:
    entries: tuple  # of (sign, Mat2)

    def __len__(self):
        return len(self.entries)

    def signs(self):
        return tuple(s for s, _ in self.entries)

    def colors(self):
        return tuple(x for _, x in self.entries)

    def twisted(self, i):
        """The epsilon-twisted color: x for +, i(x) = x+^-1 x- for -."""
        sign, x = self.entries[i]
        return x if sign > 0 else star_inv(x)

    def equal(self, other, tol=1e-9):
        if self.signs() != other.signs():
            return False
        return all(mats_equal(x, y, tol)
                   for x, y in zip(self.colors(), other.colors()))


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, key):
        parent = self.parent
        root = key
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
        return rb


@dataclass(frozen=True)
class _Crossing:
    kind: Piece
    c: tuple
    d: tuple
    a: tuple
    b: tuple


def _scan(d: TangleDiagram):
    """Union-find over edge endpoints plus crossing relations and cup roots."""
    uf = _UnionFind()
    crossings = []
    cups = []
    for k, pieces in enumerate(d.slices):
        bcol = tcol = 0
        for p in pieces:
            bot = [(k, bcol + j) for j in range(len(p.bottom))]
            top = [(k + 1, tcol + j) for j in range(len(p.top))]
            if p in (Piece.ID_UP, Piece.ID_DOWN):
                uf.union(bot[0], top[0])
            elif p in (Piece.CUP_L, Piece.CUP_R):
                uf.union(top[0], top[1])
                cups.append(top[0])
            elif p in (Piece.CAP_L, Piece.CAP_R):
                uf.union(bot[0], bot[1])
            else:
                crossings.append(_Crossing(p, bot[0], bot[1], top[0], top[1]))
            bcol += len(p.bottom)
            tcol += len(p.top)
    return uf, crossings, cups


class GColoring:
    """A total coloring of a diagram's edges."""

    def __init__(self, diagram, uf, colors, tol=1e-9):
        self.diagram = diagram
        self._uf = uf
        self._colors = colors
        self.tol = tol

    def color(self, level, pos) -> Mat2:
        return self._colors[self._uf.find((level, pos))]

    def boundary(self, side) -> ColoredBoundary:
        if side == "bottom":
            level, signs = 0, self.diagram.bottom_signs
        elif side == "top":
            level, signs = len(self.diagram.slices), self.diagram.top_signs
        else:
            raise ValueError("side must be 'bottom' or 'top'")
        entries = tuple((s, self.color(level, i))
                        for i, s in enumerate(signs))
        return ColoredBoundary(entries)

    def to_json(self):
        seen = {}
        for key in self._uf.parent:
            root = self._uf.find(key)
            if root in self._colors:
                seen["%d:%d" % key] = self._colors[root].to_json()
        return seen

    def dump(self):
        return json.dumps(self.to_json(), sort_keys=True)


def _set_color(colors, uf, point, value, tol):
    root = uf.find(point)
    old = colors.get(root)
    if old is None:
        colors[root] = value
        return True
    if not mats_equal(old, value, tol):
        raise CapMismatch(
            "conflicting colors on arc through %s" % (point,))
    return False


def _apply_crossing(cr: _Crossing, colors, uf, tol):
    def get(pt):
        return colors.get(uf.find(pt))

    c, d, a, b = get(cr.c), get(cr.d), get(cr.a), get(cr.b)
    progress = False
    if cr.kind is Piece.X_POS:
        if c is not None and d is not None:
            xl, xr = factgroup.xlr(c, d)
            progress |= _set_color(colors, uf, cr.a, xl, tol)
            progress |= _set_color(colors, uf, cr.b, xr, tol)
        elif a is not None and b is not None:
            cc, dd = factgroup.xlr_inverse(a, b)
            progress |= _set_color(colors, uf, cr.c, cc, tol)
            progress |= _set_color(colors, uf, cr.d, dd, tol)
        elif c is not None and a is not None:
            cm = factorize(c).minus()
            ap = factorize(a).plus()
            progress |= _set_color(colors, uf, cr.d, cm.inv() * a * cm, tol)
            progress |= _set_color(colors, uf, cr.b, ap.inv() * c * ap, tol)
        elif c is not None and uf.find(cr.b) == uf.find(cr.d):
            loop = factgroup.curl_partner(c)
            progress |= _set_color(colors, uf, cr.d, loop, tol)
            progress |= _set_color(colors, uf, cr.a, c, tol)
    else:
        if a is not None and b is not None:
            xl, xr = factgroup.xlr(a, b)
            progress |= _set_color(colors, uf, cr.c, xl, tol)
            progress |= _set_color(colors, uf, cr.d, xr, tol)
        elif c is not None and d is not None:
            aa, bb = factgroup.xlr_inverse(c, d)
            progress |= _set_color(colors, uf, cr.a, aa, tol)
            progress |= _set_color(colors, uf, cr.b, bb, tol)
        elif a is not None and c is not None:
            am = factorize(a).minus()
            cp = factorize(c).plus()
            progress |= _set_color(colors, uf, cr.b, am.inv() * c * am, tol)
            progress |= _set_color(colors, uf, cr.d, cp.inv() * a * cp, tol)
        elif c is not None and uf.find(cr.b) == uf.find(cr.d):
            loop = factgroup.curl_partner(c)
            progress |= _set_color(colors, uf, cr.d, loop, tol)
            progress |= _set_color(colors, uf, cr.a, c, tol)
    return progress


def propagate(d: TangleDiagram, bottom: ColoredBoundary,
              cup_seeds=None, tol=1e-9) -> GColoring:
    """Extend a bottom-boundary coloring over the whole diagram.

    cup_seeds optionally maps cup index (bottom-to-top, left-to-right order)
    to the arc color of that cup; cups that close onto known arcs or sit in
    kink patterns are resolved without seeds.
    """
    if len(bottom) != d.bottom_arity:
        raise ArityMismatch(
            "boundary has %d entries, diagram wants %d"
            % (len(bottom), d.bottom_arity))
    if bottom.signs() != d.bottom_signs:
        raise ArityMismatch(
            "boundary signs %s do not match diagram %s"
            % (bottom.signs(), d.bottom_signs))
    uf, crossings, cups = _scan(d)
    colors = {}
    for i, (sign, x) in enumerate(bottom.entries):
        _set_color(colors, uf, (0, i), x, tol)
    if cup_seeds:
        for idx, x in dict(cup_seeds).items():
            if not 0 <= idx < len(cups):
                raise UnderdeterminedColoring(
                    "cup index %d out of range (%d cups)" % (idx, len(cups)))
            _set_color(colors, uf, cups[idx], x, tol)
    progress = True
    while progress:
        progress = False
        for cr in crossings:
            progress |= _apply_crossing(cr, colors, uf, tol)
    missing = [i for i, pt in enumerate(cups)
               if uf.find(pt) not in colors]
    if missing:
        raise UnderdeterminedColoring(
            "no color for cups %s; supply cup_seeds" % missing)
    return GColoring(d, uf, colors, tol)


def solve_closed(d: TangleDiagram, seeds, tol=1e-9) -> GColoring:
    """Verify that cup seed colors extend to a coloring of a closed diagram.

    seeds is a sequence (or index map) of colors for the diagram's cups.
    Raises Inconsistent when the seeds do not extend; not every seed is the
    meridian data of a flat connection.
    """
    if d.bottom_arity != 0 or d.top_arity != 0:
        raise ArityMismatch("diagram has boundary; use propagate")
    if not isinstance(seeds, dict):
        seeds = dict(enumerate(seeds))
    try:
        return propagate(d, ColoredBoundary(()), cup_seeds=seeds, tol=tol)
    except (CapMismatch, NotFactorizable) as exc:
        raise Inconsistent(str(exc)) from exc


def holonomy_of_boundary(boundary: ColoredBoundary, i: int) -> Mat2:
    """Meridian holonomy across the first i strands of a boundary object."""
    if not 1 <= i <= len(boundary):
        raise ArityMismatch("strand index %d out of range" % i)
    plus_acc = None
    minus_acc = None
    for sign, x in boundary.entries[:i]:
        f = factorize(x)
        p, m = f.plus(), f.minus()
        if sign < 0:
            p, m = p.inv(), m.inv()
        plus_acc = p if plus_acc is None else plus_acc * p
        minus_acc = m.inv() if minus_acc is None else m.inv() * minus_acc
    return plus_acc * minus_acc


def functor_f_object(signs_and_holonomies) -> ColoredBoundary:
    """Invert the holonomy formula: recover edge colors from meridians."""
    entries = []
    plus_acc = None
    minus_acc = None
    for sign, g in signs_and_holonomies:
        h = g if plus_acc is None else plus_acc.inv() * g * minus_acc.inv()
        x = h if sign > 0 else star_inv(h)
        entries.append((sign, x))
        f = factorize(x)
        p, m = f.plus(), f.minus()
        if sign < 0:
            p, m = p.inv(), m.inv()
        plus_acc = p if plus_acc is None else plus_acc * p
        minus_acc = m.inv() if minus_acc is None else m.inv() * minus_acc
    return ColoredBoundary(tuple(entries))
