"""Evaluation of colored tangle diagrams into linear blocks.

A colored diagram is contracted slice by slice, bottom to top.  Upward
strands carry a cyclic irrep V_x chosen by (character, branch); downward
strands carry the dual module with u acting by the transpose of the
antipode image.  The four cup/cap chiralities get the canonical pairing
and copairing on the left-duality side and their mu-twisted versions on
the right-duality side, where mu implements the squared antipode.

Irrep branches are bookkept per arc and derived, not searched
(`_plan_branches`): a crossing carries the central scalars of K L^-1 and c
from each input slot to the opposite output slot, so each arc gets the
irrep of its colour with its strand's scalars.  The plan is the only
labelling.  Contraction hands each piece the irreps of its arcs from the
plan and looks none of them up again; a crossing is solved between the
irreps of its bottom and its top arcs, so a plan off the strand rule
leaves the solve without an intertwiner, and it raises NoIntertwiner.

Nothing here walks a diagram: the colouring's scan (`coloring._scan`)
is the only walk, and the planner and contraction read the arc starts
and the piece list it made.  Contraction gives each listed piece the
plan's irreps of its arcs, sliced from the irrep at each endpoint.  One
call (`EvalContext.operators`) makes the list's
operators: it looks up every crossing and every right cup or cap curl,
solves every miss, once per key, in one batch (`braiding.solve_crossings`),
and memoizes each block or failure.  It then makes the operators in order
and raises a failure at its own piece, so the first error is the one a
piece-by-piece solve would raise, and a context that holds every block
solves nothing.  The state is then multiplied down the list.

Everything an evaluation derives is memoized on the `EvalContext` that
owns it (see its docstring), or on the character it depends on alone
(`CentralCharacter`), never in a module.  A fresh context shares nothing
with another, so it derives and solves everything again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import braiding, coloring, factgroup
from .braiding import CROSSING_ERRORS, group_to_char
from .coloring import GColoring, Inconsistent
from .diagram import ArityMismatch, Piece, TangleDiagram
from .uqalgebra import (CentralCharacter, NonGenericCharacter, RootData,
                        build_irrep)


class BranchObstruction(ValueError):
    """A given bottom boundary branch is not the module of its strand."""


class KinkObstruction(ValueError):
    """The curl that normalizes mu does not close on its loop's module."""


@dataclass(frozen=True)
class ColoredObject:
    """A boundary object: signed strands with their irrep data."""

    entries: tuple  # of (sign, CentralCharacter, branch)

    def __len__(self):
        return len(self.entries)

    def key(self):
        return tuple((s, ch.rounded(9), tuple(b))
                     for s, ch, b in self.entries)

    def equal(self, other):
        return self.key() == other.key()


@dataclass(frozen=True)
class LinearBlock:
    matrix: np.ndarray = field(repr=False)
    domain: ColoredObject
    codomain: ColoredObject
    phase_log: tuple = ()


_CROSSINGS = (Piece.X_POS, Piece.X_NEG)


def _block(hit):
    """The block of a crossing memo entry, or its failure raised."""
    if isinstance(hit, tuple):
        raise hit[0](hit[1])
    return hit


class EvalContext:
    """Shared representation store and crossing-block memo at one root of
    unity.  It has one convention: the balanced framing, in which `mu` is
    K scaled by `twist_scale`, and one nullspace cutoff and colour bound,
    the module constants `braiding.NULLITY_RTOL` and
    `coloring.BOUNDARY_TOL`.

    A context memoizes, each entry derived once and never replaced:
    - each character by its exact colour (`char_of`);
    - each irrep by its rounded character and label (`rep`), and each
      arc's irrep by its exact colour and central scalars (`arc_rep`);
    - each crossing block, or its failure as type and message, by its
      request: the four irrep objects and the sign (`_lookup`);
    - each curl request and twist scale by its loop's (character, label);
    - each cup and cap operator (`cup_cap`), read-only: CUP_L and CAP_L
      once, CUP_R and CAP_R per (piece, character, label).
    Apart from a failed block, a failing derivation stores nothing and
    raises the same error when asked again.
    """

    def __init__(self, rd: RootData):
        self.rd = rd
        self._reps = {}
        self._chars = {}
        self._arcs = {}
        self._twist = {}
        self._curls = {}
        self._blocks = {}
        self._ops = {}

    def rep(self, char: CentralCharacter, branch):
        key = (char.rounded(12), tuple(branch))
        rep = self._reps.get(key)
        if rep is None:
            rep = build_irrep(char, tuple(branch), self.rd)
            self._reps[key] = rep
        return rep

    def char_of(self, color):
        """`group_to_char`, memoized on the exact colour's four entries."""
        key = (color.m11, color.m12, color.m21, color.m22)
        char = self._chars.get(key)
        if char is None:
            char = self._chars[key] = group_to_char(color)
        return char

    def arc_rep(self, color, z, c):
        """The irrep of a colour on which K L^-1 and c act by z and c.

        Memoized on the exact colour's four entries and the scalars.  A
        miss derives the rep from its key through `char_of` and `rep`, whose
        entries are set once and never replaced, so a hit returns the very
        object a miss would derive; a failing derivation stores nothing.
        """
        key = (color.m11, color.m12, color.m21, color.m22, z, c)
        rep = self._arcs.get(key)
        if rep is None:
            char = self.char_of(color)
            rep = self._arcs[key] = self.rep(
                char, braiding.branch_of(char, z, c, self.rd))
        return rep

    def _lookup(self, requests):
        """The memo entry of each crossing request (x, y, a, b, sign): its
        block, or its failure as type and message.

        A request is found by its four irrep objects and its sign; the
        context's irreps come from `rep`, one object per rounded character
        and label.  Requests the memo lacks are solved once each, in one
        batch (`braiding.solve_crossings`).  A failure is kept as its type
        and message, not as the exception, whose traceback would tie this
        context into a reference cycle.
        """
        blocks = self._blocks
        misses = list(dict.fromkeys(
            req for req in requests if req not in blocks))
        if misses:
            solved = braiding.solve_crossings(
                [braiding.Crossing(req[:2], req[2:4], req[4])
                 for req in misses])
            for req, out in zip(misses, solved):
                blocks[req] = (type(out), str(out)) \
                    if isinstance(out, Exception) else out
        return [blocks[req] for req in requests]

    def _solve(self, reps, sign):
        """One crossing's block, or its failure raised; an irrep built
        elsewhere is looked up as the context's own (`rep`)."""
        req = tuple(self.rep(r.char, r.branch) for r in reps)
        return _block(self._lookup([req + (sign,)])[0])

    def solve(self, repx, repy, outputs):
        return self._solve((repx, repy, *outputs), 1)

    def solve_inverse(self, repc, repd, outputs):
        return self._solve((repc, repd, *outputs), -1)

    def operators(self, entries):
        """The matrix of each piece list entry (piece, top column,
        bottom arity, bottom irreps, top irreps), in order.

        Each crossing, and the positive curl of each right cup or cap
        whose loop has no twist yet (`mu` reads its scale), is looked up
        first, every miss in one batch (`_lookup`); a curl whose through
        strand cannot be formed is left out, for `twist_scale` to raise
        that error at its piece.  The operators are then made in order
        (`elementary_op`), so the error raised is the first one a
        piece-by-piece contraction would meet.
        """
        crossings, curls = [], []
        for p, _, _, bottom, top in entries:
            if p in _CROSSINGS:
                crossings.append(
                    (*bottom, *top, 1 if p is Piece.X_POS else -1))
            elif p is Piece.CUP_R or p is Piece.CAP_R:
                loop = top[0] if p is Piece.CUP_R else bottom[0]
                if (loop.char, loop.branch) in self._twist:
                    continue
                try:
                    curl = self._curl(loop)
                except (factgroup.NotFactorizable, NonGenericCharacter):
                    continue
                curls.append((*curl.inputs, *curl.outputs, 1))
        hits = iter(self._lookup(crossings + curls))
        return [elementary_op(p, bottom, top, self,
                              next(hits) if p in _CROSSINGS else None)
                for p, _, _, bottom, top in entries]

    def mu(self, rep):
        """The pivotal element on V: K, which conjugates every generator to
        its antipode-squared image, scaled by `twist_scale` so that
        cancelling curl pairs drop out (balanced framing, the only one)."""
        return self.twist_scale(rep) * rep.Kmat

    def cup_cap(self, piece, bottom, top):
        """The matrix of a cup or cap piece between the irreps `bottom` and
        `top`, derived once and stored read-only: CUP_L and CAP_L once per
        context, CUP_R and CAP_R per (piece, character, label) of their
        loop, whose `mu` they pair with.  A failing `mu` stores nothing."""
        if piece is Piece.CUP_R or piece is Piece.CAP_R:
            loop = top[0] if piece is Piece.CUP_R else bottom[0]
            key = (piece, loop.char, loop.branch)
        else:
            key = piece
        op = self._ops.get(key)
        if op is None:
            ell = self.rd.ell
            if piece is Piece.CUP_L:
                op = np.eye(ell).reshape(ell * ell, 1)
            elif piece is Piece.CAP_L:
                op = np.eye(ell).reshape(1, ell * ell)
            elif piece is Piece.CUP_R:
                op = np.linalg.inv(self.mu(loop)).T.reshape(-1, 1)
            else:
                op = self.mu(loop).T.reshape(1, -1)
            op.flags.writeable = False
            self._ops[key] = op
        return op

    def _kink_scalar(self, m, mu):
        """Schur scalar of the partial right trace Tr_2(m (1 x mu))."""
        ell = self.rd.ell
        m4 = m.reshape(ell, ell, ell, ell)
        t = np.einsum("abik,kb->ai", m4, mu)
        return complex(np.trace(t) / ell)

    def _curl(self, loop):
        """The positive curl that normalizes mu on `loop`: out of (through,
        loop) into (through, loop), with the through strand of the kink's
        colour on the label whose scalars are the loop's.  Memoized on the
        loop's (character, label); a failing derivation stores nothing."""
        key = (loop.char, loop.branch)
        curl = self._curls.get(key)
        if curl is None:
            strand = group_to_char(factgroup.curl_unpartner(
                braiding.char_to_group(loop.char)))
            through = self.rep(strand, braiding.branch_of(
                strand, loop.kappa / loop.lam, loop.cval, self.rd))
            curl = self._curls[key] = braiding.Crossing(
                (through, loop), (through, loop), 1)
        return curl

    def twist_scale(self, loop):
        """Positive scalar normalizing mu so cancelling curl pairs drop out.

        The pivotal map on an irrep is only pinned up to a scalar; the curl
        scalars theta_+- of a kink pair with loop module `loop` fix its
        magnitude through |lambda|^2 |theta_+ theta_-| = 1.  The crossing
        automorphism fixes the central elements K L^-1 and c slot by slot
        up to the flip, so a crossing's slot-2 output carries the central
        scalars of its slot-1 input.  The through-strand therefore gets the
        label whose scalars are the loop's, and the positive curl M is
        solved from (through, loop) to (through, loop); a curl with no such
        intertwiner, or whose curl scalars vanish or are not finite, raises
        KinkObstruction.

        Only the positive curl is solved.  It returns both of its input
        modules, so the negative curl, the inverse crossing on the same
        pair, is M^-1 up to the root of unity that normalization picks, and
        theta_- is read from M^-1 (`_normalize` has refused any M with
        condition number above COND_LIMIT).
        """
        key = (loop.char, loop.branch)
        val = self._twist.get(key)
        if val is None:
            curl = self._curl(loop)
            try:
                m = self.solve(*curl.inputs, curl.outputs).matrix
            except braiding.NoIntertwiner as exc:
                raise KinkObstruction(
                    "the curl does not return its through and loop "
                    "modules") from exc
            prod = (self._kink_scalar(m, loop.Kmat)
                    * self._kink_scalar(np.linalg.inv(m), loop.Kmat))
            if not np.isfinite(prod):
                raise KinkObstruction("curl scalars are not finite (%r)"
                                      % prod)
            if not abs(prod) > 1e-12:
                raise KinkObstruction("curl scalars vanish (%.1e)"
                                      % abs(prod))
            val = 1.0 / np.sqrt(abs(prod))
            self._twist[key] = val
        return val


# ---------------------------------------------------------------------------
# Elementary operators


def elementary_op(piece: Piece, bottom, top, ctx: EvalContext, hit):
    """The matrix of one elementary piece.

    `bottom` and `top` are the irreps on the piece's bottom and top arcs,
    and a crossing's `hit` is its memo entry (`EvalContext._lookup`), whose
    failure is raised here; other pieces get None.  Identity pieces have
    no operator: contraction does not list them.
    """
    if piece not in _CROSSINGS:
        return ctx.cup_cap(piece, bottom, top)
    return _block(hit).matrix


# ---------------------------------------------------------------------------
# Branch planning


def _plan_branches(d: TangleDiagram, col: GColoring, ctx: EvalContext,
                   bottom_branches):
    """Assign an irrep to every arc, derived from its strand.

    A crossing carries the central scalars of K L^-1 and c from each input
    slot to the opposite output slot, so they are constant along a strand;
    strands are the colouring's arcs joined through its crossings.  The
    planner walks no diagram: the colouring's one scan listed the arc
    starts in id order (the bottom points, then the pieces' top legs), and
    an arc's smallest id is always a start, so one pass over them meets
    each arc at its first endpoint.  A strand takes its scalars from the
    module on its first arc: the given branch on a bottom boundary point,
    and label (0, 0) for a closed strand.  Each arc then gets the irrep of
    its colour with those scalars (`EvalContext.arc_rep`, memoized on the
    exact colour and scalars), and no crossing is solved.
    A warm context derives a label only for a colour and scalars it has
    not met.
    """
    strands = coloring._classes(  # crossings are recorded on arc roots
        pair for cr in col._crossings
        for pair in ((cr.c, cr.b), (cr.d, cr.a)))
    n = d.bottom_arity
    given = bottom_branches or [(0, 0)] * n
    colors = col._colors
    scalars = {}
    assign = {}
    roots = col._roots
    for pt in col._starts:
        root = roots[pt]
        if root in assign:
            continue
        color = colors[root]
        strand = strands.get(root, root)
        if strand not in scalars:  # an id below n is that bottom point
            start = ctx.rep(ctx.char_of(color),
                            given[pt] if pt < n else (0, 0))
            scalars[strand] = start.kappa / start.lam, start.cval
        assign[root] = ctx.arc_rep(color, *scalars[strand])
    for i, branch in enumerate(given):
        rep = assign[roots[i]]
        if ctx.rep(rep.char, branch).branch != rep.branch:
            raise BranchObstruction(
                "bottom branch %r at boundary point %d is not the module "
                "of its strand" % (branch, i))
    return assign


# ---------------------------------------------------------------------------
# Contraction


def _local_object(signs, reps):
    return ColoredObject(tuple((s, rep.char, rep.branch)
                               for s, rep in zip(signs, reps)))


def contract(d: TangleDiagram, col: GColoring, ctx: EvalContext,
             bottom_branches=None) -> LinearBlock:
    """Contract a colored diagram into its linear block.

    Nothing walks the diagram again: the colouring's piece list (`_scan`)
    holds every piece that is not an identity, with its top column, its
    bottom arity and the ids of its first bottom and top endpoints, and
    each entry takes the plan's irreps of its arcs by slicing the irrep
    at each endpoint id.  The context makes their operators in one call
    (`EvalContext.operators`), and the state is multiplied down the list.
    An identity only relabels the state's axes, so it is not listed.
    """
    if col.diagram is not d and col.diagram != d:
        raise ArityMismatch("coloring belongs to a different diagram")
    ell = ctx.rd.ell
    arc_rep = _plan_branches(d, col, ctx, bottom_branches)
    reps = [arc_rep[root] for root in col._roots]  # at each endpoint id
    pieces = [(p, tcol, nb, reps[b:b + nb], reps[t:t + len(p.top)])
              for p, tcol, nb, b, t in col._pieces]
    in_dim = ell ** d.bottom_arity
    state = np.eye(in_dim, dtype=complex)
    for (_, tcol, nb, _, _), m in zip(pieces, ctx.operators(pieces)):
        # the state's axes: the top columns made so far, then the bottom
        # columns still to come and the domain
        state = m @ state.reshape(ell ** tcol, ell ** nb, -1)
    state = state.reshape(-1, in_dim)
    domain = _local_object(d.bottom_signs, reps[:col._base[1]])
    codomain = _local_object(d.top_signs, reps[col._base[-2]:])
    log = (("normalization", braiding.NORMALIZATION_VERSION),
           ("mu", "K"), ("framing", "balanced"))
    return LinearBlock(state, domain, codomain, log)


def invariant(d: TangleDiagram, col: GColoring, ctx: EvalContext,
              bottom_branches=None):
    """The scalar of a closed or once-cut colored diagram.

    Closed diagrams give their 1x1 contraction.  A (1,1)-tangle (one
    upward strand at each boundary) gives the Schur scalar of its block;
    cutting one strand open is how knots get a nonvanishing value, since
    the full closure carries the trace of mu which is zero.  Any other
    boundary returns the block itself.
    """
    blk = contract(d, col, ctx, bottom_branches=bottom_branches)
    if not len(blk.domain) and not len(blk.codomain):
        return complex(blk.matrix[0, 0]), blk.phase_log
    if blk.domain.key() == blk.codomain.key() and len(blk.domain) == 1 \
            and blk.domain.entries[0][0] == 1:
        ell = ctx.rd.ell
        m = blk.matrix
        scalar = complex(m.trace() / ell)
        diff = m.copy()
        diff.flat[::ell + 1] -= scalar
        off = float(abs(diff).max())
        log = blk.phase_log + (("schur_off_scalar", off),)
        return scalar, log
    return blk, blk.phase_log


# ---------------------------------------------------------------------------
# Move invariance reporting


#: Re-colour a moved diagram from its bottom and seeds (`coloring.recolor`).
_recolor = coloring.recolor


def reidemeister_report(d: TangleDiagram, bottom, seeds, moves,
                        ctx: EvalContext):
    """Apply framed moves, recolor, re-evaluate; tabulate scalar agreement.

    Works for closed diagrams (bottom = empty ColoredBoundary) and for
    (1,1)-tangles, where the Schur scalar is compared.  The first two sites
    of each move are tried; a magnitude within 1e-8 of the base passes.
    """
    tol = 1e-8
    from . import diagram as dg
    if isinstance(bottom, coloring.ColoredBoundary):
        bnd = bottom
    else:
        bnd = coloring.ColoredBoundary(tuple(bottom))
    base_col = coloring.propagate(d, bnd, cup_seeds=dict(enumerate(seeds)))
    base, _ = invariant(d, base_col, ctx)
    report = {"base": base, "moves": []}
    for move in moves:
        sites = list(dg.find_move_sites(d, move))[:2]
        for site in sites:
            d2 = dg.apply_move(d, move, site)
            try:
                col2 = _recolor(d2, bnd, seeds)
                val, _ = invariant(d2, col2, ctx)
            except CROSSING_ERRORS + (Inconsistent, BranchObstruction,
                                      KinkObstruction) as exc:
                report["moves"].append({
                    "move": move, "variant": site.variant,
                    "direction": site.direction,
                    "skipped": "%s: %s" % (type(exc).__name__, exc),
                    "pass": None,
                })
                continue
            report["moves"].append({
                "move": move, "variant": site.variant,
                "direction": site.direction,
                "value": val,
                "magnitude_defect": abs(abs(val) - abs(base)),
                "phase_drift": float(np.angle(val / base))
                if abs(base) > tol else 0.0,
                "pass": abs(abs(val) - abs(base)) < tol,
            })
    evaluated = [m for m in report["moves"] if m["pass"] is not None]
    report["skipped"] = len(report["moves"]) - len(evaluated)
    report["all_pass"] = all(m["pass"] for m in evaluated)
    return report
