"""Evaluation of colored tangle diagrams into linear blocks.

A colored diagram is contracted slice by slice, bottom to top.  Upward
strands carry a cyclic irrep V_x chosen by (character, branch); downward
strands carry the dual module with u acting by the transpose of the
antipode image.  The four cup/cap chiralities get the canonical pairing
and copairing on the left-duality side and their mu-twisted versions on
the right-duality side, where mu implements the squared antipode.

Irrep branches are derived per strand, not searched (`_plan_branches`): a
crossing conjugates the colours and carries the central scalars of K L^-1
and c to the opposite slot, so a strand's arcs share their central values
and label s, computed on its first arc alone (`arc_rep`, with a guard);
values thus differ from a per-arc labelling at the rounding level, not
bitwise.  The plan is the only labelling.  Contraction hands each piece
the irreps of its arcs from the plan and looks none of them up again; a
crossing is solved between the irreps of its bottom and its top arcs, so
a plan off the strand rule leaves the solve without an intertwiner, and
it raises NoIntertwiner.

Nothing here walks a diagram: the colouring's scan (`coloring._scan`)
is the only walk, and the planner and contraction read the arc starts
and the piece list it made.  Contraction gives each listed piece the
plan's irreps of its arcs, sliced from the irrep at each endpoint.  One
call (`EvalContext.operators`) makes the list's
operators: it looks up every crossing and every right cup or cap curl
(`braiding.Crossing`, the one form of a crossing request, positive
only), solves each distinct miss in one batch (`braiding.solve_crossings`),
and memoizes each block or failure.  It then makes the operators in
order, a negative crossing's as its block's inverse, and raises a failure
at its own piece, so the first error is the one a piece-by-piece solve
would raise, and a context that holds every block solves nothing.  The
state is then multiplied down the list.

Everything an evaluation derives is memoized on the `EvalContext` that
owns it (see its docstring), or on the character it depends on alone
(`CentralCharacter`), never in a module.  A fresh context shares nothing
with another, so it derives and solves everything again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import braiding, coloring, factgroup
from .braiding import group_to_char
from .coloring import GColoring
from .diagram import ArityMismatch, Piece, TangleDiagram
from .uqalgebra import (CentralCharacter, NonGenericCharacter, RootData,
                        _branch_trace, build_irrep, k_shift)

#: Largest drift of T and alpha/a from an arc to its strand's first arc,
#: relative to the larger of the latter's |T| and |alpha/a| (`arc_rep`).
STRAND_RTOL = 1e-8


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
    - each irrep by its rounded character and label, given and collapsed
      (`rep`), and each arc's irrep by its exact colour and its strand's
      first irrep (`arc_rep`);
    - each crossing block, or its failure as type and message, by its
      positive `braiding.Crossing` request (`_lookup`), and the inverse
      that a negative crossing or a twist reads, read-only (`_inverse`);
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
        self._inverses = {}
        self._ops = {}

    def rep(self, char: CentralCharacter, branch, cval=None):
        """The irrep of `char` on label `branch`: one object per module, as
        labels that name one module (`build_irrep`, to which a given `cval`
        is passed) share the one stored under the label the module
        carries."""
        key = (char.rounded(12), tuple(branch))
        rep = self._reps.get(key)
        if rep is None:
            rep = build_irrep(char, tuple(branch), self.rd, cval)
            rep = self._reps[key] = self._reps.setdefault(
                (key[0], rep.branch), rep)
        return rep

    def char_of(self, color):
        """`group_to_char`, memoized on the exact colour's four entries."""
        key = (color.m11, color.m12, color.m21, color.m22)
        char = self._chars.get(key)
        if char is None:
            char = self._chars[key] = group_to_char(color)
        return char

    def arc_rep(self, color, strand, arc):
        """The irrep of a colour on the strand whose first arc carries the
        irrep `strand`; `arc` is the arc's root endpoint id, or None for a
        curl's through strand, which a refusal names.

        Conjugation keeps T and alpha/a, and with them the central values,
        so none is computed: the irrep takes `strand`'s s and c, and r from
        kappa/lam against its own principal roots (`k_shift`).  A colour
        whose T or alpha/a drifts from `strand`'s by more than STRAND_RTOL
        (1e-8 relative) raises NoIntertwiner; there is no per-arc fallback,
        and c is `strand`'s, not bitwise the colour's own.  Memoized on the
        exact colour's entries and `strand`; a miss derives the rep through
        `char_of` and `rep`, whose entries are never replaced, so a hit
        returns the very object a miss would derive; a failing derivation
        stores nothing.
        """
        key = (color.m11, color.m12, color.m21, color.m22, strand)
        rep = self._arcs.get(key)
        if rep is None:
            char, first = self.char_of(color), strand.char
            t, p = _branch_trace(first), first.alpha / first.a
            drift = max(abs(_branch_trace(char) - t),
                        abs(char.alpha / char.a - p)) / max(abs(t), abs(p))
            if drift > STRAND_RTOL:
                raise braiding.NoIntertwiner(
                    "%s is not conjugate to its strand (T or alpha/a drifts "
                    "by %.1e)" % ("the curl's through strand" if arc is None
                                  else "the arc at endpoint %d" % arc, drift))
            rep = self._arcs[key] = self.rep(char, (k_shift(
                char, strand.kappa / strand.lam, self.rd), strand.branch[1]),
                strand.cval)
        return rep

    def _lookup(self, requests):
        """The memo entry of each `braiding.Crossing` request: its block,
        or its failure as type and message.

        A request is found by its four irrep objects; the
        context's irreps come from `rep`, one object per module.  The
        distinct requests the memo lacks are solved in one batch
        (`braiding.solve_crossings`).  A failure is kept as its type and
        message, not as the exception, whose traceback would tie this
        context into a reference cycle.
        """
        blocks = self._blocks
        misses = list(dict.fromkeys(
            req for req in requests if req not in blocks))
        if misses:
            for req, out in zip(misses, braiding.solve_crossings(misses)):
                blocks[req] = (type(out), str(out)) \
                    if isinstance(out, Exception) else out
        return [blocks[req] for req in requests]

    def _inverse(self, req, hit):
        """The inverse of the block of `req`'s memo entry `hit`, or its
        failure raised: a negative crossing's operator, formed once."""
        inv = self._inverses.get(req)
        if inv is None:
            inv = self._inverses[req] = np.linalg.inv(_block(hit).matrix)
            inv.flags.writeable = False
        return inv

    def _solve(self, inputs, outputs):
        """The positive crossing request out of `inputs` into `outputs` and
        its memo entry; other irrep objects are mapped to the context's."""
        x, y, a, b = (self.rep(r.char, r.branch) for r in (*inputs, *outputs))
        req = braiding.Crossing((x, y), (a, b))
        return req, self._lookup([req])[0]

    def solve(self, repx, repy, outputs):
        return _block(self._solve((repx, repy), outputs)[1])

    def solve_inverse(self, repc, repd, outputs):
        """The negative crossing out of (repc, repd): the inverse of the
        positive block out of `outputs`, with that block's residual."""
        req, hit = self._solve(outputs, (repc, repd))
        return braiding.BraidingBlock(
            self._inverse(req, hit), tuple(rep.branch for rep in req.inputs),
            1, _block(hit).residual)

    def operators(self, entries):
        """The matrix of each piece list entry (piece, top column,
        bottom arity, bottom irreps, top irreps), in order.

        Each crossing, as the positive block out of its bottom irreps
        (X_POS) or its top ones (X_NEG), and the positive curl of each
        right cup or cap whose loop has no twist yet (`mu` reads its
        scale), is looked up first, every miss in one batch (`_lookup`); a
        curl whose through strand cannot be formed is left out, for
        `twist_scale` to raise that error at its piece.  The operators are
        then made in order (`elementary_op`), so the error raised is the
        first one a piece-by-piece contraction would meet.
        """
        crossings, curls = [], []
        for p, _, _, bottom, top in entries:
            if p is Piece.X_POS:
                crossings.append(braiding.Crossing(tuple(bottom), tuple(top)))
            elif p is Piece.X_NEG:
                crossings.append(braiding.Crossing(tuple(top), tuple(bottom)))
            elif p is Piece.CUP_R or p is Piece.CAP_R:
                loop = top[0] if p is Piece.CUP_R else bottom[0]
                if (loop.char, loop.branch) in self._twist:
                    continue
                try:
                    curl = self._curl(loop)
                except (factgroup.NotFactorizable, NonGenericCharacter,
                        braiding.NoIntertwiner):
                    continue
                curls.append(curl)
        hits = zip(crossings, self._lookup(crossings + curls))
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
                op = np.diag(1 / self.mu(loop).diagonal()).reshape(-1, 1)
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
        return complex(t.trace() / ell)

    def _curl(self, loop):
        """The positive curl that normalizes mu on `loop`: out of (through,
        loop) into (through, loop), with the through strand of the kink's
        colour, conjugate to the loop's (`curl_unpartner`), on the loop's
        strand (`arc_rep`).  Memoized on the loop's (character, label);
        a failing derivation stores nothing."""
        key = (loop.char, loop.branch)
        curl = self._curls.get(key)
        if curl is None:
            through = self.arc_rep(factgroup.curl_unpartner(
                braiding.char_to_group(loop.char)), loop, None)
            curl = self._curls[key] = braiding.Crossing(
                (through, loop), (through, loop))
        return curl

    def twist_scale(self, loop):
        """Complex scalar normalizing mu so cancelling curl pairs drop out.

        The pivotal map on an irrep is only pinned up to a scalar; the curl
        scalars theta_+- of a kink pair with loop module `loop` fix it
        through lambda^2 theta_+ theta_- = 1, with lambda = 1/sqrt(theta_+
        theta_-) on numpy's principal branch (real part >= 0, cut along the
        negative reals).  The positive curl M (`_curl`) is solved from
        (through, loop) to (through, loop); a curl with no such
        intertwiner, or whose curl scalars vanish or are not finite, raises
        KinkObstruction.

        Only the positive curl is solved.  It returns both of its input
        modules, so the negative curl, the inverse crossing on the same
        pair, is M^-1, the operator its X_NEG piece gets (`_inverse`), and
        theta_- is read from it (the solve has refused any M with
        condition number above COND_LIMIT: `braiding._solve_group`'s
        class-block test raises SingularM).
        """
        key = (loop.char, loop.branch)
        val = self._twist.get(key)
        if val is None:
            curl = self._curl(loop)
            hit = self._lookup([curl])[0]
            try:
                m = _block(hit).matrix
            except braiding.NoIntertwiner as exc:
                raise KinkObstruction(
                    "the curl does not return its through and loop "
                    "modules") from exc
            prod = (self._kink_scalar(m, loop.Kmat)
                    * self._kink_scalar(self._inverse(curl, hit), loop.Kmat))
            if not np.isfinite(prod):
                raise KinkObstruction("curl scalars are not finite (%r)"
                                      % prod)
            if not abs(prod) > 1e-12:
                raise KinkObstruction("curl scalars vanish (%.1e)"
                                      % abs(prod))
            val = 1 / np.sqrt(complex(prod))
            self._twist[key] = val
        return val


# ---------------------------------------------------------------------------
# Elementary operators


def elementary_op(piece: Piece, bottom, top, ctx: EvalContext, hit):
    """The matrix of one elementary piece.

    `bottom` and `top` are the irreps on the piece's bottom and top arcs,
    and a crossing's `hit` is its request and memo entry
    (`EvalContext._lookup`), whose failure is raised here; other pieces
    get None.  X_NEG takes the inverse of its block (`_inverse`).
    Identity pieces have no operator: contraction does not list them.
    """
    if piece is Piece.X_POS:
        return _block(hit[1]).matrix
    if piece is Piece.X_NEG:
        return ctx._inverse(*hit)
    return ctx.cup_cap(piece, bottom, top)


# ---------------------------------------------------------------------------
# Branch planning


def _plan_branches(d: TangleDiagram, col: GColoring, ctx: EvalContext,
                   bottom_branches):
    """Assign an irrep to every arc, derived from its strand.

    A crossing carries the central scalars of K L^-1 and c from each input
    slot to the opposite output slot and conjugates the colours, so the
    scalars, T and alpha/a, the sorted central values and the label s are
    constant along a strand, the colouring's arcs joined through its
    crossings.  The planner walks no diagram: the colouring's one scan
    listed the arc starts in id order (the bottom points, then the pieces'
    top legs), and an arc's smallest id is always a start, so one pass
    over them meets each arc at its first endpoint.  A strand's first arc
    gets the irrep of its label, the given branch on a bottom boundary
    point and (0, 0) on a closed strand, and is the only one to compute
    central values; each other arc gets its colour's irrep with the first
    arc's s and c (`EvalContext.arc_rep`), so its c differs from its own
    character's at the rounding level, not bitwise; one whose T or alpha/a
    drifts past STRAND_RTOL (1e-8 relative) raises NoIntertwiner naming
    it, with no per-arc fallback.  No crossing is solved.  Branches given
    for other than the bottom arity raise ArityMismatch.  A warm context
    derives a label only for a colour and strand it has not met.
    """
    strands = coloring._classes(  # crossings are recorded on arc roots
        pair for cr in col._crossings
        for pair in ((cr.c, cr.b), (cr.d, cr.a)))
    n = d.bottom_arity
    given = [(0, 0)] * n if bottom_branches is None else bottom_branches
    if len(given) != n:
        raise ArityMismatch("%d bottom branches for %d bottom points"
                            % (len(given), n))
    colors = col._colors
    first = {}
    assign = {}
    roots = col._roots
    for pt in col._starts:
        root = roots[pt]
        if root in assign:
            continue
        strand = strands.get(root, root)
        start = first.get(strand)
        if start is None:  # an id below n is that bottom point
            assign[root] = first[strand] = ctx.rep(
                ctx.char_of(colors[root]), given[pt] if pt < n else (0, 0))
        else:
            assign[root] = ctx.arc_rep(colors[root], start, root)
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
# Recolouring moved diagrams


#: Re-colour a moved diagram from its bottom and seeds (`coloring.recolor`).
_recolor = coloring.recolor

