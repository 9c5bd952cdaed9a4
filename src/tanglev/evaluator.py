"""Evaluation of colored tangle diagrams into linear blocks.

A colored diagram is contracted slice by slice, bottom to top.  Upward
strands carry a cyclic irrep V_x chosen by (character, branch); downward
strands carry the dual module with u acting by the transpose of the
antipode image.  The four cup/cap chiralities get the canonical pairing
and copairing on the left-duality side and their mu-twisted versions on
the right-duality side, where mu implements the squared antipode.

Irrep branches are bookkept per arc: boundary arcs get prescribed
branches, crossing outputs get the branches the crossing solver derives
from its inputs, and arcs born at a cup are free variables.  A
backtracking planning pass searches the free branches until every arc
is consistent (caps silently enforce equality because both legs share
an arc); the numeric pass then runs with all branches pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import braiding, coloring, factgroup
from .braiding import CROSSING_ERRORS, NoIntertwiner, group_to_char, \
    twist_mu
from .coloring import GColoring, Inconsistent, UnderdeterminedColoring
from .diagram import Piece, TangleDiagram
from .uqalgebra import CentralCharacter, NonGenericCharacter, RootData, \
    build_irrep


class ArityMismatch(ValueError):
    pass


class ObjectMismatch(ValueError):
    """Composition refused: the boundary objects differ."""


class BranchObstruction(ValueError):
    """No assignment of free arc branches makes every crossing solvable."""


class KinkObstruction(ValueError):
    """The curl that normalizes mu does not close on its loop's module."""


@dataclass(frozen=True)
class ColoredObject:
    """A boundary object: signed strands with their irrep data."""

    entries: tuple  # of (sign, CentralCharacter, branch)

    def __len__(self):
        return len(self.entries)

    def dimension(self, ell):
        return ell ** len(self.entries)

    def key(self, digits=9):
        return tuple((s, ch.rounded(digits), tuple(b))
                     for s, ch, b in self.entries)

    def equal(self, other, digits=9):
        return self.key(digits) == other.key(digits)


@dataclass(frozen=True)
class LinearBlock:
    matrix: np.ndarray = field(repr=False)
    domain: ColoredObject
    codomain: ColoredObject
    phase_log: tuple = ()


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


class EvalContext:
    """Shared representation store, crossing-block memo and conventions."""

    def __init__(self, rd: RootData, mu_choice="K", framing="balanced",
                 tol=1e-8):
        self.rd = rd
        self.mu_choice = mu_choice
        self.framing = framing
        self.tol = tol
        self._reps = {}
        self._twist = {}
        self._blocks = {}

    def rep(self, char: CentralCharacter, branch):
        key = (char.rounded(12), tuple(branch))
        rep = self._reps.get(key)
        if rep is None:
            rep = build_irrep(char, tuple(branch), self.rd)
            self._reps[key] = rep
        return rep

    def _solve_memo(self, repx, repy, sign):
        """The crossing block, solved once per (inputs, sign).

        A failure is kept as its type and message, not as the exception,
        whose traceback would tie this context into a reference cycle.
        """
        key = (repx.char.rounded(12), repx.branch,
               repy.char.rounded(12), repy.branch, sign)
        hit = self._blocks.get(key)
        if hit is None:
            solve = braiding.solve_braiding if sign > 0 \
                else braiding.solve_braiding_inverse
            try:
                hit = solve(repx, repy, rel_tol=self.tol)
            except CROSSING_ERRORS as exc:
                self._blocks[key] = (type(exc), str(exc))
                raise
            self._blocks[key] = hit
        if isinstance(hit, tuple):
            raise hit[0](hit[1])
        return hit

    def solve(self, repx, repy):
        return self._solve_memo(repx, repy, 1)

    def solve_inverse(self, repc, repd):
        return self._solve_memo(repc, repd, -1)

    def mu(self, char, branch):
        m = twist_mu(self.rep(char, branch), self.mu_choice)
        if self.framing == "balanced":
            m = self.twist_scale(char, branch) * m
        return m

    def _kink_scalar(self, blk):
        """Schur scalar of the partial right trace Tr_2(M (1 x mu))."""
        ell = self.rd.ell
        mu = twist_mu(self.rep(blk.target_chars[1],
                               blk.target_branches[1]), self.mu_choice)
        m4 = blk.matrix.reshape(ell, ell, ell, ell)
        t = np.einsum("abik,kb->ai", m4, mu)
        return complex(np.trace(t) / ell)

    def twist_scale(self, char, branch):
        """Positive scalar normalizing mu so cancelling curl pairs drop out.

        The pivotal map on an irrep is only pinned up to a scalar; the curl
        scalars theta_+- of a kink pair with loop color d fix its magnitude
        through |lambda|^2 |theta_+ theta_-| = 1.  The crossing automorphism
        fixes the central elements K L^-1 and c slot by slot up to the flip,
        so a crossing's slot-2 output carries the central scalars of its
        slot-1 input.  The through-strand therefore gets the label whose
        scalars are the loop's; a kink whose crossings still do not return
        the through and loop modules raises KinkObstruction.
        """
        key = (char.rounded(12), tuple(branch))
        val = self._twist.get(key)
        if val is None:
            loop = self.rep(char, branch)
            strand = group_to_char(factgroup.curl_unpartner(
                braiding.char_to_group(char)))
            through = self.rep(strand, braiding.branch_of(
                strand, loop.kappa / loop.lam, loop.cval, self.rd))
            prod = 1.0
            for blk in (self.solve(through, loop),
                        self.solve_inverse(through, loop)):
                if blk.target_branches != (through.branch, loop.branch):
                    raise KinkObstruction(
                        "curl outputs %r, not the through and loop labels "
                        "%r" % (blk.target_branches,
                                (through.branch, loop.branch)))
                prod *= self._kink_scalar(blk)
            if not abs(prod) > 1e-12:
                raise KinkObstruction("curl scalars vanish (%.1e)"
                                      % abs(prod))
            val = 1.0 / np.sqrt(abs(prod))
            self._twist[key] = val
        return val


# ---------------------------------------------------------------------------
# Elementary operators


def _cup_l(ell):
    return np.eye(ell).reshape(ell * ell, 1).copy()


def _cap_l(ell):
    return np.eye(ell).reshape(1, ell * ell).copy()


def _cup_r(mu):
    return np.linalg.inv(mu).T.reshape(-1, 1).copy()


def _cap_r(mu):
    return mu.T.reshape(1, -1).copy()


def elementary_op(piece: Piece, colors: ColoredObject,
                  ctx: EvalContext) -> LinearBlock:
    """The operator of one elementary piece.

    `colors` describes the piece's bottom boundary, except for cups where
    it describes the created top boundary (a cup has empty bottom).
    """
    ell = ctx.rd.ell
    log = ()
    if piece in (Piece.ID_UP, Piece.ID_DOWN):
        (entry,) = colors.entries
        return LinearBlock(np.eye(ell), colors, colors)
    if piece in (Piece.CUP_L, Piece.CUP_R):
        (s1, char, branch), (s2, char2, branch2) = colors.entries
        if (s1, s2) != ((1, -1) if piece is Piece.CUP_L else (-1, 1)):
            raise ArityMismatch("cup signs do not match chirality")
        m = _cup_l(ell) if piece is Piece.CUP_L \
            else _cup_r(ctx.mu(char, branch))
        return LinearBlock(m, ColoredObject(()), colors)
    if piece in (Piece.CAP_L, Piece.CAP_R):
        (s1, char, branch), (s2, char2, branch2) = colors.entries
        if (s1, s2) != ((-1, 1) if piece is Piece.CAP_L else (1, -1)):
            raise ArityMismatch("cap signs do not match chirality")
        m = _cap_l(ell) if piece is Piece.CAP_L \
            else _cap_r(ctx.mu(char, branch))
        return LinearBlock(m, colors, ColoredObject(()))
    # crossings
    (s1, chx, bx), (s2, chy, by) = colors.entries
    if (s1, s2) != (1, 1):
        raise ArityMismatch("crossings need two upward strands")
    repx, repy = ctx.rep(chx, bx), ctx.rep(chy, by)
    if piece is Piece.X_POS:
        blk = ctx.solve(repx, repy)
    else:
        blk = ctx.solve_inverse(repx, repy)
    if blk.branch_retry:
        log += (("branch-retry", piece.value, blk.target_branches),)
    codomain = ColoredObject((
        (1, blk.target_chars[0], blk.target_branches[0]),
        (1, blk.target_chars[1], blk.target_branches[1])))
    return LinearBlock(blk.matrix, colors, codomain, log)


# ---------------------------------------------------------------------------
# Branch planning


def _walk(d: TangleDiagram):
    """Yield (level, piece, bottom_col, top_col) in evaluation order."""
    for level, pieces in enumerate(d.slices):
        bcol = tcol = 0
        for p in pieces:
            yield level, p, bcol, tcol
            bcol += len(p.bottom)
            tcol += len(p.top)


#: Crossing attempts after which the branch search gives up.
PLANNER_NODE_LIMIT = 4000


def _plan_branches(d: TangleDiagram, col: GColoring, ctx: EvalContext,
                   bottom_branches):
    """Assign an irrep branch to every arc, searching free cup branches.

    The search is exhaustive up to PLANNER_NODE_LIMIT crossing attempts;
    colorings whose branch constraints have no solution (the section
    x -> V_x does not close up around every cycle) fail fast instead of
    scanning the full product space, with a BranchObstruction that names
    the first typed error the search met.
    """
    uf, _, _ = coloring._scan(d)
    budget = [PLANNER_NODE_LIMIT]
    first_cause = []  # the first typed error the search met, as text

    def note(exc):
        if not first_cause:
            first_cause.append("%s: %s" % (type(exc).__name__, exc))

    events = [e for e in _walk(d)
              if e[1] not in (Piece.ID_UP, Piece.ID_DOWN,
                              Piece.CAP_L, Piece.CAP_R)]
    assign = {}
    for i in range(d.bottom_arity):
        root = uf.find((0, i))
        want = (0, 0)
        if bottom_branches:
            char = group_to_char(col.color(0, i))
            want = ctx.rep(char, bottom_branches[i]).branch
        if assign.setdefault(root, want) != want:
            raise BranchObstruction(
                "boundary strands on one arc carry different branches")

    def solve_event(level, piece, bcol, tcol):
        """The [(root, branch)] a crossing assigns, or raises."""
        rx = uf.find((level, bcol))
        ry = uf.find((level, bcol + 1))
        chx = group_to_char(col.color(level, bcol))
        chy = group_to_char(col.color(level, bcol + 1))
        repx = ctx.rep(chx, assign[rx])
        repy = ctx.rep(chy, assign[ry])
        blk = ctx.solve(repx, repy) if piece is Piece.X_POS \
            else ctx.solve_inverse(repx, repy)
        out = []
        for j, branch in enumerate(blk.target_branches):
            root = uf.find((level + 1, tcol + j))
            got = assign.get(root)
            if got is None:
                out.append((root, tuple(branch)))
            elif got != tuple(branch):
                raise BranchObstruction("arc branch conflict at crossing")
        return out

    def search(i):
        if i == len(events):
            return True
        level, piece, bcol, tcol = events[i]
        if piece in (Piece.CUP_L, Piece.CUP_R):
            root = uf.find((level + 1, tcol))
            if root in assign:
                return search(i + 1)
            char = group_to_char(col.color(level + 1, tcol))
            try:
                # coincident labels name one module; try it once
                cands = dict.fromkeys(
                    ctx.rep(char, b).branch
                    for b in product(range(ctx.rd.ell), repeat=2))
            except NonGenericCharacter as exc:
                note(exc)
                return False
            for cand in cands:
                assign[root] = cand
                if search(i + 1):
                    return True
                del assign[root]
            return False
        if budget[0] <= 0:
            raise BranchObstruction("branch search budget exceeded")
        budget[0] -= 1
        try:
            news = solve_event(level, piece, bcol, tcol)
        except (BranchObstruction, NoIntertwiner, NonGenericCharacter,
                braiding.SingularM) as exc:
            note(exc)
            return False
        for root, branch in news:
            assign[root] = branch
        if search(i + 1):
            return True
        for root, _ in news:
            del assign[root]
        return False

    if not search(0):
        cause = " (first cause: %s)" % first_cause[0] if first_cause else ""
        raise BranchObstruction(
            "no branch assignment closes up; diagram not evaluable "
            "at this coloring" + cause)
    return uf, assign


# ---------------------------------------------------------------------------
# Contraction


def _local_object(col, arc_branch, uf, level, cols, signs):
    entries = []
    for j, s in enumerate(signs):
        point = (level, cols + j)
        entries.append((s, group_to_char(col.color(*point)),
                        arc_branch[uf.find(point)]))
    return ColoredObject(tuple(entries))


def contract(d: TangleDiagram, col: GColoring, ctx: EvalContext,
             bottom_branches=None) -> LinearBlock:
    """Contract a colored diagram into its linear block."""
    if col.diagram is not d and col.diagram.to_json() != d.to_json():
        raise ArityMismatch("coloring belongs to a different diagram")
    ell = ctx.rd.ell
    uf, arc_branch = _plan_branches(d, col, ctx, bottom_branches)
    domain = _local_object(col, arc_branch, uf, 0, 0, d.bottom_signs)
    in_dim = ell ** d.bottom_arity
    state = np.eye(in_dim, dtype=complex)
    log = [("normalization", braiding.NORMALIZATION_VERSION),
           ("mu", ctx.mu_choice), ("framing", ctx.framing)]
    for level, pieces in enumerate(d.slices):
        done_dim = 1
        rest = sum(len(p.bottom) for p in pieces)
        bcol = tcol = 0
        for p in pieces:
            nb, nt = len(p.bottom), len(p.top)
            if p in (Piece.CUP_L, Piece.CUP_R):
                local = _local_object(col, arc_branch, uf,
                                      level + 1, tcol, p.top)
            else:
                local = _local_object(col, arc_branch, uf,
                                      level, bcol, p.bottom)
            blk = elementary_op(p, local, ctx)
            if p in (Piece.X_POS, Piece.X_NEG):
                want = tuple(blk.codomain.entries[j][2] for j in (0, 1))
                got = tuple(arc_branch[uf.find((level + 1, tcol + j))]
                            for j in (0, 1))
                if want != got:
                    raise BranchObstruction("planner/solver branch mismatch")
            log.extend(blk.phase_log)
            rest -= nb
            cur = state.reshape(done_dim, ell ** nb, (ell ** rest) * in_dim)
            state = np.einsum("ta,iaj->itj", blk.matrix, cur)
            done_dim *= ell ** nt
            bcol += nb
            tcol += nt
        state = state.reshape(done_dim, in_dim)
    top_level = len(d.slices)
    codomain = _local_object(col, arc_branch, uf,
                             top_level, 0, d.top_signs)
    return LinearBlock(state, domain, codomain, tuple(log))


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
        scalar = complex(np.trace(blk.matrix) / ell)
        off = float(np.max(np.abs(blk.matrix - scalar * np.eye(ell))))
        log = blk.phase_log + (("schur_off_scalar", off),)
        return scalar, log
    return blk, blk.phase_log


# ---------------------------------------------------------------------------
# Move invariance reporting


def _recolor(d2: TangleDiagram, bottom, seeds, tol=1e-9):
    """Re-solve a moved diagram, redistributing the cup seed colors.

    Moves change the cup count and positions, so the given seeds are tried
    over cup slots (order preserved, largest subset first); cups left
    unseeded must resolve themselves through arcs or the kink rule.
    """
    _, _, cups = coloring._scan(d2)
    n = len(cups)
    seeds = list(seeds)
    for k in range(min(len(seeds), n), -1, -1):
        for keep in combinations(range(len(seeds)), k):
            for slots in combinations(range(n), k):
                try:
                    return coloring.propagate(
                        d2, bottom,
                        cup_seeds=dict(zip(slots, (seeds[i] for i in keep))),
                        tol=tol)
                except (Inconsistent, UnderdeterminedColoring,
                        coloring.CapMismatch, factgroup.NotFactorizable):
                    continue
    raise Inconsistent("no seed placement colors the moved diagram")


def reidemeister_report(d: TangleDiagram, bottom, seeds, moves,
                        ctx: EvalContext, sites_per_move=2, tol=1e-8):
    """Apply framed moves, recolor, re-evaluate; tabulate scalar agreement.

    Works for closed diagrams (bottom = empty ColoredBoundary) and for
    (1,1)-tangles, where the Schur scalar is compared.
    """
    from . import diagram as dg
    if isinstance(bottom, coloring.ColoredBoundary):
        bnd = bottom
    else:
        bnd = coloring.ColoredBoundary(tuple(bottom))
    base_col = coloring.propagate(d, bnd, cup_seeds=dict(enumerate(seeds)))
    base, _ = invariant(d, base_col, ctx)
    report = {"base": base, "moves": []}
    for move in moves:
        sites = list(dg.find_move_sites(d, move))[:sites_per_move]
        for site in sites:
            d2 = dg.apply_move(d, move, site)
            try:
                col2 = _recolor(d2, bnd, seeds)
                val, _ = invariant(d2, col2, ctx)
            except (Inconsistent, BranchObstruction, KinkObstruction,
                    NoIntertwiner, NonGenericCharacter, braiding.SingularM,
                    braiding.AmbiguousIntertwiner) as exc:
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
                "phase_drift": float(np.angle(val) - np.angle(base))
                if abs(base) > tol else 0.0,
                "pass": abs(abs(val) - abs(base)) < tol,
            })
    evaluated = [m for m in report["moves"] if m["pass"] is not None]
    report["skipped"] = len(report["moves"]) - len(evaluated)
    report["all_pass"] = all(m["pass"] for m in evaluated)
    return report
