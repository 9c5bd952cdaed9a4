"""G-colorings of tangle diagrams.

Every edge of a diagram carries a GL2 element.  At a positive crossing the
two outgoing colors are (x_left, x_right) of the incoming pair; at a negative
crossing the incoming pair is (x_left, x_right) of the outgoing one.  The two
legs of a cup or cap belong to one arc and carry equal colors.

Colors are found by a constraint fixpoint over arcs.  Edge endpoints are
numbered flat, in evaluation order: point i of level k is endpoint
base[k] + i, where base[0] = 0 and base[k + 1] = base[k] + the width of
level k.  One bottom-to-top pass (`_scan`), the only walk of a diagram,
lists every piece that is not an identity with its endpoint ids, and maps
every endpoint id to its arc root, an id at which the arc or a piece that
a cap joined into it starts: identities carry an arc up, cups and
crossings start arcs, and caps join two.  It records each crossing and
cup on arc roots, so the fixpoint reads colors by root.
Each pass applies every pending crossing's relations in whichever
direction is solvable.  A crossing whose inputs are known runs its
forward rule, which sets or checks both outputs, and leaves the pending
list; the backward rules leave it pending, so the forward rule still
checks the legs they derived.  Kinks need one more rule: when a
crossing's d and b legs are the same arc and only c is known, the unique
consistent loop color is d = c_-^-1 c c_- with a = c.

A move changes a diagram only inside its window, so `recolor` searches
for nothing: at each stall of the fixpoint the first uncolored cup takes
the next seed, and a failure raises Inconsistent led by its cause's name.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

from . import factgroup
from .diagram import ArityMismatch, Piece, TangleDiagram
from .factgroup import Mat2, NotFactorizable, factorize, mats_equal, star_inv


class CapMismatch(ValueError):
    """Two edges forced to one arc carry different colors."""


class Inconsistent(ValueError):
    """Seeds do not extend to a flat coloring of a moved diagram."""


class UnderdeterminedColoring(ValueError):
    """Propagation needs seed colors for cups it cannot resolve."""


#: Absolute bound on the entry differences of equal colours: two colours
#: met on one arc, and two boundary colours (`ColoredBoundary.equal`).
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class ColoredBoundary:
    entries: tuple  # of (sign, Mat2)

    def __len__(self):
        return len(self.entries)

    def signs(self):
        return tuple(s for s, _ in self.entries)

    def colors(self):
        return tuple(x for _, x in self.entries)

    def equal(self, other):
        if self.signs() != other.signs():
            return False
        return all(mats_equal(x, y, BOUNDARY_TOL)
                   for x, y in zip(self.colors(), other.colors()))


class _Crossing(NamedTuple):
    kind: Piece
    c: tuple
    d: tuple
    a: tuple
    b: tuple


def _classes(pairs):
    """The join map of the classes that `pairs` join: each key leads
    straight to its class's root, and a key it lacks is its own root."""
    join = {}
    for a, b in pairs:
        while a in join:
            a = join[a]
        while b in join:
            b = join[b]
        if a != b:
            join[a] = b
    for key, root in join.items():
        while root in join:
            root = join[root]
        join[key] = root
    return join


def _scan(d: TangleDiagram):
    """Each edge endpoint's arc root, the level bases, crossings and cups
    on roots, the piece list and the arc starts.

    Endpoints are ids in evaluation order, level by level and left to
    right: point i of level k is base[k] + i, and base[-1] is the number
    of endpoints.  This one bottom-to-top pass is the only walk of a
    diagram: it lists each piece that is not an identity as (piece, top
    column, bottom arity, id of its first bottom and of its first top
    endpoint).  An identity carries its arc up; a bottom point, a cup and
    a crossing's top leg start an arc, rooted at its own (left) endpoint;
    only a cap joins two arcs.  So every arc starts at a bottom point or
    a listed piece's top leg; the ids of these (the starts) are listed in
    id order.  Cap joins, crossings and cups are read off the piece list.
    """
    roots = list(range(d.bottom_arity))
    starts = list(roots)
    base = [0]
    pieces = []
    for row in d.slices:
        pt = base[-1]  # the id of the next bottom endpoint
        base.append(len(roots))
        for p in row:
            if len(p.top) == 1:  # an identity
                roots.append(roots[pt])
            else:
                top = len(roots)
                pieces.append((p, top - base[-1], len(p.bottom), pt, top))
                legs = range(top, top + len(p.top))
                starts += legs
                roots += legs if p.bottom else (top, top)  # a cup: one arc
            pt += len(p.bottom)
    base.append(len(roots))
    caps = [(roots[b], roots[b + 1]) for p, _, _, b, _ in pieces if not p.top]
    if caps:
        join = _classes(caps)
        roots = [join.get(root, root) for root in roots]
    crossings = [_Crossing(p, roots[b], roots[b + 1], roots[t], roots[t + 1])
                 for p, _, _, b, t in pieces if p.bottom and p.top]
    cups = [roots[t] for p, _, _, _, t in pieces if not p.bottom]
    return roots, base, crossings, cups, pieces, starts


def _point(base, pt):
    """The (level, pos) of endpoint id `pt`."""
    level = bisect.bisect_right(base, pt) - 1
    return level, pt - base[level]


class GColoring:
    """A total coloring of a diagram's edges, with what the one walk of
    its slices (`_scan`) recorded: the arc root list, the level bases, the
    crossing records it was propagated over, the piece list and the arc
    starts.  The planner and contraction read these and walk nothing."""

    def __init__(self, diagram, scan, colors):
        self.diagram = diagram
        # the root of each endpoint id, each level's first id and then the
        # number of ids, the crossings, the piece list and the arc starts
        (self._roots, self._base, self._crossings, _, self._pieces,
         self._starts) = scan
        self._colors = colors

    def color(self, level, pos) -> Mat2:
        base = self._base
        if not (0 <= level < len(base) - 1
                and 0 <= pos < base[level + 1] - base[level]):
            raise KeyError((level, pos))
        return self._colors[self._roots[base[level] + pos]]

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


class _Conflict(Exception):
    """Two colors met on the arc of root id args[0]; `_fill` raises it as
    CapMismatch, naming the root as (level, pos)."""


def _set_color(colors, root, value):
    old = colors.get(root)
    if old is None:
        colors[root] = value
    elif not mats_equal(old, value, BOUNDARY_TOL):
        raise _Conflict(root)


def _put(colors, points, values):
    for pt, value in zip(points, values):
        _set_color(colors, pt, value)


def _apply_crossing(cr: _Crossing, colors):
    """Apply one crossing's relations in whichever direction is solvable.

    Returns whether the crossing stays pending.  Once the forward rule has
    run, its outputs are set or checked and the crossing has nothing left
    to give.  The other rules leave it pending, so a later pass checks xlr
    of its inputs against the legs they derived.  A negative crossing is a
    positive one read with its pairs (c, d) and (a, b) swapped, so both run
    the rules below on (inputs, outputs).
    """
    ins, outs = (cr.c, cr.d), (cr.a, cr.b)
    if cr.kind is not Piece.X_POS:
        ins, outs = outs, ins
    x, y = map(colors.get, ins)
    if x is not None and y is not None:
        _put(colors, outs, factgroup.xlr(x, y))
        return False
    u, v = map(colors.get, outs)
    if u is not None and v is not None:
        _put(colors, ins, factgroup.xlr_inverse(u, v))
    elif x is not None and u is not None:  # y = x-^-1 u x-, v = u+^-1 x u+
        fx, fu = factorize(x), factorize(u)
        _put(colors, (ins[1], outs[1]),
             (factgroup._lower_conj(u, fx.a, fx.b),
              factgroup._upper_conj(x, fu.beta, fu.alpha)))
    elif cr.b == cr.d and cr.c in colors:
        c = colors[cr.c]
        _put(colors, (cr.d, cr.a), (factgroup.curl_partner(c), c))
    return True


def _fill(d, scan, bottom, cup_seeds=None, seeds=()):
    """Seed bottom and cups, then run the crossing fixpoint over a scan;
    at each stall the first uncolored cup takes the next of `seeds`."""
    if len(bottom) != d.bottom_arity:
        raise ArityMismatch(
            "boundary has %d entries, diagram wants %d"
            % (len(bottom), d.bottom_arity))
    if bottom.signs() != d.bottom_signs:
        raise ArityMismatch(
            "boundary signs %s do not match diagram %s"
            % (bottom.signs(), d.bottom_signs))
    roots, base, crossings, cups, _, _ = scan
    colors = {}
    try:
        for i, (sign, x) in enumerate(bottom.entries):  # bottom point i: id i
            _set_color(colors, roots[i], x)
        if cup_seeds:
            for idx, x in dict(cup_seeds).items():
                if not 0 <= idx < len(cups):
                    raise UnderdeterminedColoring(
                        "cup index %d out of range (%d cups)"
                        % (idx, len(cups)))
                _set_color(colors, cups[idx], x)
        seeds = iter(seeds)
        pending = crossings
        while True:
            size = None
            while size != len(colors):  # until a pass colours nothing new
                size = len(colors)
                pending = [cr for cr in pending
                           if _apply_crossing(cr, colors)]
            missing = [i for i, root in enumerate(cups)
                       if root not in colors]
            if not missing:
                return GColoring(d, scan, colors)
            seed = next(seeds, None)
            if seed is None:
                raise UnderdeterminedColoring(
                    "no color for cups %s; each needs a seed color"
                    % missing)
            colors[cups[missing[0]]] = seed
    except _Conflict as exc:
        raise CapMismatch("conflicting colors on arc through %s"
                          % (_point(base, exc.args[0]),)) from None


def propagate(d: TangleDiagram, bottom: ColoredBoundary,
              cup_seeds=None) -> GColoring:
    """Extend a bottom-boundary coloring over the whole diagram.

    cup_seeds optionally maps cup index (bottom-to-top, left-to-right order)
    to the arc color of that cup; cups that close onto known arcs or sit in
    kink patterns are resolved without seeds.  A closed diagram takes an
    empty bottom and is coloured from its cup seeds alone.  Two colours met
    on one arc must agree within BOUNDARY_TOL, or CapMismatch is raised.
    """
    return _fill(d, _scan(d), bottom, cup_seeds)


def recolor(d: TangleDiagram, bottom, seeds) -> GColoring:
    """Re-solve a moved diagram from its bottom colors and cup seeds.

    One scan, one fill: at each stall of the fixpoint the first uncolored
    cup takes the next seed.  UnderdeterminedColoring (no seed left),
    CapMismatch and NotFactorizable become Inconsistent, led by their name.
    """
    try:
        return _fill(d, _scan(d), bottom, seeds=seeds)
    except (UnderdeterminedColoring, CapMismatch, NotFactorizable) as exc:
        raise Inconsistent("%s: %s" % (type(exc).__name__, exc)) from exc


def _accumulate(acc, sign, x):
    """Extend the (plus, minus^-1) products of a boundary by one strand."""
    f = factorize(x)
    p, m = f.plus(), f.minus()
    if sign < 0:
        p, m = p.inv(), m.inv()
    return (p, m.inv()) if acc is None else (acc[0] * p, m.inv() * acc[1])


def holonomy_of_boundary(boundary: ColoredBoundary, i: int) -> Mat2:
    """Meridian holonomy across the first i strands of a boundary object."""
    if not 1 <= i <= len(boundary):
        raise ArityMismatch("strand index %d out of range" % i)
    acc = None
    for sign, x in boundary.entries[:i]:
        acc = _accumulate(acc, sign, x)
    return acc[0] * acc[1]


def functor_f_object(signs_and_holonomies) -> ColoredBoundary:
    """Invert the holonomy formula: recover edge colors from meridians."""
    entries, acc = [], None
    for sign, g in signs_and_holonomies:
        h = g if acc is None else acc[0].inv() * g * acc[1].inv()
        x = h if sign > 0 else star_inv(h)
        entries.append((sign, x))
        acc = _accumulate(acc, sign, x)
    return ColoredBoundary(tuple(entries))
