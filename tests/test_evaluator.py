"""Unit tests for diagram contraction and the scalar invariant."""

import gc
import weakref

import numpy as np
import pytest

from tanglev import (braiding, coloring, diagram, evaluator, factgroup,
                     uqalgebra)
from tanglev.braiding import group_to_char
from tanglev.coloring import ColoredBoundary
from tanglev.evaluator import EvalContext
from tanglev.factgroup import Mat2
from tanglev.rational import QC
from tanglev.uqalgebra import CentralCharacter, NonGenericCharacter, RootData

import oracles
from conftest import (mat2_of, strand_outputs, trefoil_boundary_2,
                      trefoil_boundary_3, trefoil_colourings,
                      trefoil_curve_meridians, trefoil_magnitudes)


@pytest.fixture(scope="module")
def ctx():
    return EvalContext(RootData(3))


def strand_with(move, ctx, variant=None):
    d = diagram.parse("id+")
    sites = diagram.find_move_sites(d, move)
    site = next(s for s in sites if variant is None or s.variant == variant)
    d2 = diagram.apply_move(d, move, site)
    x1, _ = trefoil_boundary_2()
    col = evaluator._recolor(d2, ColoredBoundary(((1, x1),)), [])
    return evaluator.contract(d2, col, ctx)


def counted_solves(monkeypatch):
    """The requests of every call into the batch solve made from now on,
    one list per call."""
    batches = []

    def counted(requests, *args, _solve=braiding.solve_crossings, **kw):
        batches.append(list(requests))
        return _solve(requests, *args, **kw)
    monkeypatch.setattr(braiding, "solve_crossings", counted)
    return batches


def failing_crossings(monkeypatch, error):
    """Make every request of a batch that is not a curl (one whose outputs
    are its inputs) fail with `error`("probe"); the curls are solved as
    before."""
    def solve(requests, *args, _solve=braiding.solve_crossings, **kw):
        return [out if req.inputs == req.outputs else error("probe")
                for req, out in zip(requests, _solve(requests, *args, **kw))]
    monkeypatch.setattr(braiding, "solve_crossings", solve)


def visited_pieces(monkeypatch):
    """The piece of every elementary operator contraction asks for."""
    pieces = []

    def op(piece, *args, _op=evaluator.elementary_op):
        pieces.append(piece)
        return _op(piece, *args)
    monkeypatch.setattr(evaluator, "elementary_op", op)
    return pieces


def cold_knots():
    """[(diagram, colouring)] of the unknot with a cancelling curl pair and
    of the 2- and 3-strand trefoils at the fixture colouring."""
    strand = diagram.parse("id+")
    d = diagram.apply_move(
        strand, "FramedR1", next(diagram.find_move_sites(strand, "FramedR1")))
    x1, _ = trefoil_boundary_2()
    col = coloring.propagate(d, ColoredBoundary(((1, x1),)), cup_seeds={})
    return [(d, col)] + trefoil_colourings()


def curl_below_crossing():
    """(diagram, colouring) of two strands, the first with a cancelling
    curl pair, then a negative crossing of the two: its block is the one
    request that is not a curl."""
    strand = diagram.parse("id+")
    curl = diagram.apply_move(
        strand, "FramedR1", next(diagram.find_move_sites(strand, "FramedR1")))
    d = diagram.compose(diagram.braid_word([-1], 2),
                        diagram.tensor(curl, strand))
    col = coloring.propagate(d, ColoredBoundary(
        tuple((1, x) for x in trefoil_boundary_2())), cup_seeds={})
    return d, col


class TestElementaryIdentities:
    def test_bare_strand_is_identity(self, ctx):
        d = diagram.parse("id+")
        x1, _ = trefoil_boundary_2()
        col = coloring.propagate(d, ColoredBoundary(((1, x1),)),
                                 cup_seeds={})
        blk = evaluator.contract(d, col, ctx)
        assert np.max(np.abs(blk.matrix - np.eye(3))) < 1e-12

    def test_closed_loop_vanishes(self, ctx):
        # the quantum dimension Tr(mu) is zero at a root of unity
        x1, _ = trefoil_boundary_2()
        for text in ("cupL; capR", "cupR; capL"):
            d = diagram.parse(text)
            col = coloring.propagate(d, ColoredBoundary(()),
                                     cup_seeds={0: x1})
            val, _ = evaluator.invariant(d, col, ctx)
            assert abs(val) < 1e-10

    def test_zigzags_contract_to_identity(self, ctx):
        for variant in ("up-left", "up-right"):
            blk = strand_with("SlideCupCap", ctx, variant)
            scalar = np.trace(blk.matrix) / 3
            assert abs(abs(scalar) - 1.0) < 1e-9
            assert np.max(np.abs(blk.matrix - scalar * np.eye(3))) < 1e-9

    def test_curl_pair_is_magnitude_neutral(self, ctx):
        blk = strand_with("FramedR1", ctx)
        scalar = np.trace(blk.matrix) / 3
        assert abs(abs(scalar) - 1.0) < 1e-9
        assert np.max(np.abs(blk.matrix - scalar * np.eye(3))) < 1e-9

    def test_twist_is_load_bearing(self, monkeypatch):
        # the curl pair's two right caps close on one loop module, whose
        # twist scale s is far from 1: mu = K alone would scale the pair's
        # magnitude by |s|^-2 (1.793 here), and the balanced mu = s K
        # cancels it
        d = diagram.parse("id+")
        d2 = diagram.apply_move(
            d, "FramedR1", next(iter(diagram.find_move_sites(d, "FramedR1"))))
        x1, _ = trefoil_boundary_2()
        col = evaluator._recolor(d2, ColoredBoundary(((1, x1),)), [])
        ctx = EvalContext(RootData(3))
        plan = evaluator._plan_branches(d2, col, ctx, None)
        [loop] = {plan[col._roots[b]] for p, _, _, b, _ in col._pieces
                  if p is diagram.Piece.CAP_R}
        s = ctx.twist_scale(loop)
        assert abs(s - 1) > 1e-2
        balanced = np.trace(evaluator.contract(d2, col, ctx).matrix) / 3
        assert abs(abs(balanced) - 1) < 1e-9
        monkeypatch.setattr(EvalContext, "twist_scale", lambda self, rep: 1.0)
        raw = evaluator.contract(d2, col, EvalContext(RootData(3))).matrix
        assert abs(abs(np.trace(raw) / 3) - abs(s) ** -2) < 1e-9

    def test_r2_pair_is_phase(self, ctx):
        d = diagram.braid_word([1, -1], 2)
        x1, x2 = trefoil_boundary_2()
        col = coloring.propagate(
            d, ColoredBoundary(((1, x1), (1, x2))), cup_seeds={})
        blk = evaluator.contract(d, col, ctx)
        scalar = np.trace(blk.matrix) / 9
        assert abs(abs(scalar) - 1.0) < 1e-9
        assert np.max(np.abs(blk.matrix - scalar * np.eye(9))) < 1e-9


class TestContractOracle:
    def test_single_crossing_matches_solver(self, ctx):
        # contraction of a one-crossing braid is the crossing block itself
        d = diagram.braid_word([1], 2)
        x1, x2 = trefoil_boundary_2()
        col = coloring.propagate(
            d, ColoredBoundary(((1, x1), (1, x2))), cup_seeds={})
        blk = evaluator.contract(d, col, ctx)
        rx = ctx.rep(braiding.group_to_char(x1), (0, 0))
        ry = ctx.rep(braiding.group_to_char(x2), (0, 0))
        direct = ctx.solve(rx, ry, strand_outputs(rx, ry))
        assert np.max(np.abs(blk.matrix - direct.matrix)) < 1e-12

    def test_tensor_and_compose_block_algebra(self, ctx):
        d = diagram.braid_word([1], 2)
        x1, x2 = trefoil_boundary_2()
        col = coloring.propagate(
            d, ColoredBoundary(((1, x1), (1, x2))), cup_seeds={})
        blk = evaluator.contract(d, col, ctx)
        ident = evaluator.LinearBlock(
            np.eye(9), blk.domain, blk.domain, ())
        comp = oracles.compose_blocks(blk, ident)
        assert np.array_equal(comp.matrix, blk.matrix)
        tens = oracles.tensor_blocks(blk, ident)
        assert tens.matrix.shape == (81, 81)
        with pytest.raises(oracles.ObjectMismatch):
            oracles.compose_blocks(ident, blk)


class TestInvariant:
    def test_unknot_is_one(self, ctx):
        d = diagram.parse("id+")
        x1, _ = trefoil_boundary_2()
        col = coloring.propagate(d, ColoredBoundary(((1, x1),)),
                                 cup_seeds={})
        val, log = evaluator.invariant(d, col, ctx)
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert ("framing", "balanced") in log

    def test_trefoil_value_pinned(self, ctx):
        d = diagram.close_braid_partial(diagram.braid_word([1, 1, 1], 2))
        x1, x2 = trefoil_boundary_2()
        col = coloring.propagate(d, ColoredBoundary(((1, x1),)),
                                 cup_seeds={0: x2})
        val, log = evaluator.invariant(d, col, ctx)
        assert abs(val) == pytest.approx(5.196152422706661, abs=1e-9)
        off = dict(log)["schur_off_scalar"]
        assert off < 1e-9

    def test_presentations_agree(self, ctx):
        d2 = diagram.close_braid_partial(diagram.braid_word([1, 1, 1], 2))
        x1, x2 = trefoil_boundary_2()
        col2 = coloring.propagate(d2, ColoredBoundary(((1, x1),)),
                                  cup_seeds={0: x2})
        v2, _ = evaluator.invariant(d2, col2, ctx)
        d3 = diagram.close_braid_partial(
            diagram.braid_word([1, 2, 1, 2], 3))
        y1, y2, y3 = trefoil_boundary_3()
        col3 = evaluator._recolor(d3, ColoredBoundary(((1, y1),)),
                                  [y2, y3])
        v3, _ = evaluator.invariant(d3, col3, ctx)
        assert abs(v2) == pytest.approx(abs(v3), abs=1e-8)

    @pytest.mark.parametrize("m", [1, 2 + 1j, 1.3 + 0.2j])
    def test_presentations_agree_along_curve(self, m):
        two, three = trefoil_magnitudes(RootData(3),
                                        trefoil_curve_meridians(m))
        assert two == pytest.approx(three, abs=1e-8)

    def test_non_generic_colour_raises_its_own_error(self, ctx):
        # unconjugated triangular meridians colour the strands with
        # characters that have no cyclic irrep
        s, lam = 0.5 + 1j, 0.8 - 0.5j
        a = lam * np.array([[1, s], [0, 1]])
        b = lam * np.array([[1, 0], [-1 / s, 1]])
        x1, x2 = coloring.functor_f_object(
            [(1, mat2_of(a)), (1, mat2_of(a @ b))]).colors()
        d = diagram.close_braid_partial(diagram.braid_word([1, 1, 1], 2))
        col = coloring.propagate(d, ColoredBoundary(((1, x1),)),
                                 cup_seeds={0: x2})
        with pytest.raises(NonGenericCharacter):
            evaluator.invariant(d, col, ctx)

    def test_exact_parabolic_colours_are_real_and_non_generic(self):
        # the paper's parabolic meridians, exactly: every arc colour of the
        # 2-strand trefoil stays real, the bottom colour has Borel b = 0,
        # and that exact zero puts its character off the generic locus
        a = Mat2(QC(1), QC(1), QC(0), QC(1))
        b = Mat2(QC(1), QC(0), QC(-1), QC(1))
        x1, x2 = coloring.functor_f_object([(1, a), (1, a * b)]).colors()
        d = diagram.close_braid_partial(diagram.braid_word([1, 1, 1], 2))
        col = coloring.propagate(d, ColoredBoundary(((1, x1),)),
                                 cup_seeds={0: x2})
        colours = list(col._colors.values())
        assert len(colours) == 7
        assert all(type(v) is QC and v.im == 0
                   for x in colours for v in x.entries())
        assert factgroup.factorize(col.color(0, 0)).b == QC(0)
        with pytest.raises(NonGenericCharacter):
            evaluator.invariant(d, col, EvalContext(RootData(3)))

    def test_full_closure_vanishes(self, ctx):
        d = diagram.close_braid(diagram.braid_word([1, 1, 1], 2))
        x1, x2 = trefoil_boundary_2()
        col = evaluator._recolor(d, ColoredBoundary(()), [x1, x2])
        val, _ = evaluator.invariant(d, col, ctx)
        assert abs(val) < 1e-9


class TestPlanner:
    def test_labels_come_without_crossing_solves(self, monkeypatch):
        # off the fixture colouring the cup strands start off the branch
        # their crossings reach; the labels are still derived, not searched
        y1, y2, y3 = trefoil_boundary_3(trefoil_curve_meridians(1))
        d = diagram.close_braid_partial(diagram.braid_word([1, 2, 1, 2], 3))
        col = coloring.propagate(d, ColoredBoundary(((1, y1),)),
                                 cup_seeds={0: y2, 1: y3})

        def no_solve(*_):
            raise AssertionError("the planner solved a crossing")

        ctx = EvalContext(RootData(3))
        with monkeypatch.context() as patch:
            patch.setattr(ctx, "solve", no_solve)
            patch.setattr(ctx, "solve_inverse", no_solve)
            assign = evaluator._plan_branches(d, col, ctx, None)
        assert col._roots[col._base[0] + 0] in assign

        batches = counted_solves(monkeypatch)
        ctx = EvalContext(RootData(3))
        evaluator.invariant(d, col, ctx)
        crossings = sum(p in (diagram.Piece.X_POS, diagram.Piece.X_NEG)
                        for pieces in d.slices for p in pieces)
        # each diagram crossing once, and the positive curl of each twist,
        # all in one batch
        assert len(batches) == 1
        assert len(batches[0]) == crossings + len(ctx._twist) == 6

    @pytest.mark.parametrize("knot, count", [(0, 1), (1, 4), (2, 6)],
                             ids=["unknot-curl", "trefoil-2", "trefoil-3"])
    def test_cold_solve_count(self, monkeypatch, knot, count):
        # a fresh context solves each crossing block once and one curl per
        # twist, in one batch; the curl pair of the unknot is its own kink,
        # and its negative crossing inverts the positive one's block
        d, col = cold_knots()[knot]
        batches = counted_solves(monkeypatch)
        evaluator.invariant(d, col, EvalContext(RootData(3)))
        assert [len(batch) for batch in batches] == [count]
        assert len(set(batches[0])) == count

    @pytest.mark.parametrize("knot", [0, 1, 2],
                             ids=["unknot-curl", "trefoil-2", "trefoil-3"])
    def test_warm_evaluation_solves_nothing(self, monkeypatch, knot):
        # a second evaluation on the filled context finds every block and
        # twist in its memos and calls no batch solve, with the same value
        d, col = cold_knots()[knot]
        ctx = EvalContext(RootData(3))
        cold, _ = evaluator.invariant(d, col, ctx)
        batches = counted_solves(monkeypatch)
        # nor does it derive a cup or cap operator or a central value again
        derived = []
        for owner, name in ((EvalContext, "mu"),
                            (uqalgebra, "central_values")):
            def counted(*args, _fn=getattr(owner, name), _name=name):
                derived.append(_name)
                return _fn(*args)
            monkeypatch.setattr(owner, name, counted)
        warm, _ = evaluator.invariant(d, col, ctx)
        assert batches == [] and derived == []
        assert warm == cold

    def test_cold_trefoil_derives_central_values_once(self, monkeypatch):
        # only a strand's first arc computes central values; its other
        # arcs and the curls' through strands take the strand's
        computed = []

        def counted(char, rd, r, _fn=uqalgebra.central_values):
            computed.append((char, r))
            return _fn(char, rd, r)

        monkeypatch.setattr(uqalgebra, "central_values", counted)
        for d, col in cold_knots():
            computed.clear()
            evaluator.invariant(d, col, EvalContext(RootData(3)))
            strands = coloring._classes(
                pair for cr in col._crossings
                for pair in ((cr.c, cr.b), (cr.d, cr.a)))
            assert len(computed) == len({strands.get(root, root)
                                         for root in col._roots}) == 1

    @pytest.mark.parametrize("ell", [3, 5, 7])
    @pytest.mark.parametrize("m", [None, 2 + 1j, 1.3 + 0.2j])
    def test_strand_labels_are_the_per_arc_ones(self, ell, m):
        # every arc of a knot, and every curl's through strand, carries
        # the label that the per-arc reference derives from its own
        # character and the scalars of the knot's first arc, and a value
        # of c within 1e-12 of its own character's
        rd = RootData(ell)
        knots = cold_knots() if m is None else trefoil_colourings(
            trefoil_curve_meridians(m))
        for d, col in knots:
            ctx = EvalContext(rd)
            evaluator.invariant(d, col, ctx)
            plan = evaluator._plan_branches(d, col, ctx, None)
            first = plan[col._roots[0]]
            pairs = [(rep, first) for rep in plan.values()] + [
                curl.inputs for curl in ctx._curls.values()]
            assert len(pairs) > len(plan)
            for rep, strand in pairs:
                r, s = oracles.branch_of(rep.char, strand.kappa / strand.lam,
                                         strand.cval, rd)
                assert rep.branch == (r, s)
                own = uqalgebra.central_values(rep.char, rd, r)[2][s]
                assert abs(rep.cval - own) <= 1e-12 * abs(own)

    def test_arc_off_its_strand_is_refused(self):
        # one arc colour of the 3-strand trefoil moved by 1e-6 is no
        # longer conjugate to its strand's: its label is refused by name
        d, col = trefoil_colourings()[1]
        root = col._roots[col._starts[-1]]
        assert root != col._roots[0]
        col._colors = dict(col._colors)
        col._colors[root] = Mat2(*(v * (1 + 1e-6)
                                   for v in col._colors[root].entries()))
        with pytest.raises(braiding.NoIntertwiner,
                           match="arc at endpoint %d is not conjugate" % root):
            evaluator.invariant(d, col, EvalContext(RootData(3)))

    def test_contract_reuses_the_colouring(self, monkeypatch, ctx):
        # the planner reads the arcs and crossings propagation recorded
        y1, y2, y3 = trefoil_boundary_3()
        d = diagram.close_braid_partial(diagram.braid_word([1, 2, 1, 2], 3))
        col = coloring.propagate(d, ColoredBoundary(((1, y1),)),
                                 cup_seeds={0: y2, 1: y3})

        def no_scan(_):
            raise AssertionError("the diagram was scanned again")

        monkeypatch.setattr(coloring, "_scan", no_scan)
        val, _ = evaluator.invariant(d, col, ctx)
        assert abs(val) == pytest.approx(5.196152422706661, abs=1e-9)

    def test_contract_reads_reps_from_the_plan(self, monkeypatch):
        # once the twists and crossings are memoized, every irrep lookup
        # of an evaluation is the planner's: contraction reads the plan
        y1, y2, y3 = trefoil_boundary_3()
        d = diagram.close_braid_partial(diagram.braid_word([1, 2, 1, 2], 3))
        col = coloring.propagate(d, ColoredBoundary(((1, y1),)),
                                 cup_seeds={0: y2, 1: y3})
        ctx = EvalContext(RootData(3))
        evaluator.invariant(d, col, ctx)
        lookups = []

        def counted(*args, _rep=ctx.rep):
            lookups.append(args)
            return _rep(*args)

        monkeypatch.setattr(ctx, "rep", counted)
        evaluator._plan_branches(d, col, ctx, None)
        planned = len(lookups)
        lookups.clear()
        evaluator.invariant(d, col, ctx)
        assert len(lookups) == planned > 0

    def test_warm_plan_derives_nothing(self, monkeypatch):
        # once a context has evaluated the trefoil and a moved copy of it,
        # re-evaluating either derives no character and no label
        y1, y2, y3 = trefoil_boundary_3()
        d, col = trefoil_colourings()[1]
        d2 = diagram.apply_move(
            d, "FramedR1", next(diagram.find_move_sites(d, "FramedR1")))
        col2 = evaluator._recolor(d2, ColoredBoundary(((1, y1),)), [y2, y3])
        ctx = EvalContext(RootData(3))

        def values():
            return np.array([evaluator.invariant(*dc, ctx)[0]
                             for dc in ((d, col), (d2, col2))])

        cold = values()
        derived = []
        for module, name in ((evaluator, "k_shift"),
                             (evaluator, "build_irrep"),
                             (evaluator, "group_to_char")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                derived.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        warm = values()
        assert derived == []
        assert np.array_equal(warm.view(np.uint64), cold.view(np.uint64))

    def test_arc_memo_is_keyed_on_the_exact_colour(self):
        # a hit is the rep a miss derives; a conjugate colour misses and
        # gets the irrep of its own character, and a colour 1e-6 away
        # misses and is refused, storing nothing
        y1, y2, _ = trefoil_boundary_3()
        ctx = EvalContext(RootData(3))
        start = ctx.rep(group_to_char(y1), (0, 0))
        z, c = start.kappa / start.lam, start.cval
        rep = ctx.arc_rep(y1, start, 1)
        assert rep is start
        assert ctx.arc_rep(y1, start, 1) is rep
        conj = y2 * y1 * y2.inv()
        other = ctx.arc_rep(conj, start, 2)
        char = group_to_char(conj)
        assert other is not rep and other.char == char != rep.char
        assert other.branch == oracles.branch_of(char, z, c, ctx.rd)
        assert other is ctx.rep(char, other.branch)
        near = factgroup.Mat2(*(v * (1 + 1e-6) for v in y1.entries()))
        with pytest.raises(braiding.NoIntertwiner, match="endpoint 3"):
            ctx.arc_rep(near, start, 3)
        assert len(ctx._arcs) == 2

    def test_bottom_branch_off_its_strand_is_refused(self, ctx):
        # the crossing's slot-2 output turns down through the cap, so
        # bottom points 0 and 2 lie on one strand
        d = diagram.parse("x+ id-; id+ capR")
        x1, x2 = trefoil_boundary_2()
        _, xr = factgroup.xlr(x1, x2)
        col = coloring.propagate(
            d, ColoredBoundary(((1, x1), (1, x2), (-1, xr))))
        evaluator.contract(d, col, ctx, bottom_branches=[(0, 0)] * 3)
        with pytest.raises(evaluator.BranchObstruction,
                           match="boundary point 2"):
            evaluator.contract(d, col, ctx,
                               bottom_branches=[(0, 0), (0, 0), (1, 0)])


    @pytest.mark.parametrize("branches", [[(0, 0)],
                                          [(0, 0), (1, 0), (2, 2)]],
                             ids=["short", "long"])
    def test_bottom_branches_of_another_arity_are_refused(self, ctx,
                                                          branches):
        # one label per bottom point of the 2-point braid s1^3, or none
        d = diagram.braid_word([1, 1, 1], 2)
        col = coloring.propagate(d, ColoredBoundary(
            tuple((1, x) for x in trefoil_boundary_2())))
        evaluator.invariant(d, col, ctx, bottom_branches=[(0, 0)] * 2)
        with pytest.raises(diagram.ArityMismatch, match="bottom branches"):
            evaluator.invariant(d, col, ctx, bottom_branches=branches)


class TestOwnership:
    @staticmethod
    def trefoil(word):
        y1, y2, y3 = trefoil_boundary_3()
        d = diagram.close_braid_partial(diagram.braid_word(word, 3))
        col = coloring.propagate(d, ColoredBoundary(((1, y1),)),
                                 cup_seeds={0: y2, 1: y3})
        return d, col

    def test_colouring_of_an_equal_diagram_evaluates(self, ctx):
        d, col = self.trefoil([1, 2, 1, 2])
        twin = diagram.close_braid_partial(diagram.braid_word([1, 2, 1, 2],
                                                              3))
        assert twin is not d and twin == d
        assert evaluator.invariant(twin, col, ctx)[0] \
            == evaluator.invariant(d, col, ctx)[0]

    def test_colouring_of_another_diagram_is_refused(self, ctx):
        _, col = self.trefoil([1, 2, 1, 2])
        other = diagram.close_braid_partial(diagram.braid_word([2, 1, 2, 1],
                                                               3))
        with pytest.raises(diagram.ArityMismatch) as exc:
            evaluator.contract(other, col, ctx)
        assert str(exc.value) == "coloring belongs to a different diagram"


def trefoil_2_value(word, rd):
    """The complex value of the partial closure of the 2-strand braid
    `word` at the 2-strand trefoil's fixture colouring, from a fresh
    context."""
    x1, x2 = trefoil_boundary_2()
    d = diagram.close_braid_partial(diagram.braid_word(word, 2))
    col = coloring.propagate(d, ColoredBoundary(((1, x1),)),
                             cup_seeds={0: x2})
    return evaluator.invariant(d, col, EvalContext(rd))[0]


class TestComplexValue:
    # complex values compared with each other; no digit is pinned
    @pytest.mark.parametrize("pad", [[1, -1], [-1, 1], [1, 1, -1, -1]],
                             ids=["s1s1-", "s1-s1", "s1^2s1^-2"])
    @pytest.mark.parametrize("ell", [3, 5])
    def test_r2_pads_keep_the_value(self, ell, pad):
        # a negative crossing is the inverse of its positive block, so a
        # cancelling pair drops out with its phase
        rd = RootData(ell)
        base = trefoil_2_value([1, 1, 1], rd)
        assert abs(trefoil_2_value([1, 1, 1] + pad, rd) / base - 1) < 1e-9

    @pytest.mark.parametrize("ell", [3, 5])
    def test_curl_pair_unknot_is_one(self, ell):
        # the complex twist scale cancels the curl pair's phase as well
        d, col = cold_knots()[0]
        value, _ = evaluator.invariant(d, col, EvalContext(RootData(ell)))
        assert abs(value - 1) < 1e-9

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_trefoil_presentations_differ_by_a_root_of_unity(self, ell):
        # the det-1 rule fixes each block only up to an ell^2-th root of
        # unity; the 3- and 2-strand trefoils differ by a root of order
        # dividing 2 ell^2
        rd = RootData(ell)
        two, three = (evaluator.invariant(d, col, EvalContext(rd))[0]
                      for d, col in trefoil_colourings())
        assert abs((three / two) ** (2 * ell ** 2) - 1) < 1e-8


class TestTwistScale:
    def test_curl_closes_off_the_principal_branch(self, monkeypatch):
        # at m = 2+i the curl of x2's loop on (0,0) needs a through-strand
        # off (0,0); pinning it to (0,0) does not close the kink
        _, x2 = trefoil_boundary_2(trefoil_curve_meridians(2 + 1j))
        char = group_to_char(x2)
        ctx = EvalContext(RootData(3))
        assert abs(ctx.twist_scale(ctx.rep(char, (0, 0)))) > 0

        def principal_through(self, color, strand, arc):
            return self.rep(self.char_of(color), (0, 0))

        monkeypatch.setattr(EvalContext, "arc_rep", principal_through)
        ctx = EvalContext(RootData(3))
        with pytest.raises(evaluator.KinkObstruction):
            ctx.twist_scale(ctx.rep(char, (0, 0)))

    @pytest.mark.parametrize("ell, m", [(3, None), (3, 2 + 1j),
                                        (3, 1.3 + 0.2j), (5, None)])
    def test_negative_curl_is_the_inverse(self, ell, m):
        # the negative curl N of every loop the trefoils normalize by is
        # M^-1: twist_scale reads theta_- from the context's one inverse of
        # M, the very matrix a negative curl crossing gets
        rd = RootData(ell)
        ctx = EvalContext(rd)
        for d, col in trefoil_colourings(
                None if m is None else trefoil_curve_meridians(m)):
            evaluator.invariant(d, col, ctx)
        assert ctx._twist
        for char, branch in ctx._twist:
            fresh = EvalContext(rd)
            loop = fresh.rep(char, branch)
            fresh.twist_scale(loop)
            [(key, blk)] = fresh._blocks.items()
            [(inv_key, inv)] = fresh._inverses.items()
            assert inv_key == key
            through = key.inputs[0]
            n = fresh.solve_inverse(through, loop, (through, loop)).matrix
            assert n is inv
            assert np.max(np.abs(n @ blk.matrix - np.eye(len(n)))) < 1e-10

    def test_non_finite_curl_scalars_are_refused(self, monkeypatch):
        # a NaN curl product is refused as not finite, not reported as
        # curl scalars that vanish; a zero one is refused as vanishing
        x1, _ = trefoil_boundary_2()
        for scalar, message in ((complex("nan"), "not finite"),
                                (0j, "curl scalars vanish")):
            ctx = EvalContext(RootData(3))
            loop = ctx.rep(group_to_char(x1), (0, 0))
            monkeypatch.setattr(ctx, "_kink_scalar",
                                lambda m, mu, _s=scalar: _s)
            with pytest.raises(evaluator.KinkObstruction, match=message):
                ctx.twist_scale(loop)

    def test_no_fallback_without_a_through_strand(self):
        # (1 + beta b)/a is the (1,1) entry of the loop colour, so b =
        # -1/beta leaves the kink without a through-strand colour
        char = CentralCharacter(1.3 + 0.2j, 2.0, 0.7 - 0.1j, -0.5)
        ctx = EvalContext(RootData(3))
        loop = ctx.rep(char, (0, 0))
        with pytest.raises(factgroup.NotFactorizable):
            ctx.twist_scale(loop)


class TestOperatorMemo:
    def test_cup_cap_operators_are_read_only(self):
        # each cup and cap operator is derived once and shared, so writing
        # to it would change every later contraction
        x1, _ = trefoil_boundary_2()
        ctx = EvalContext(RootData(3))
        rep = ctx.rep(group_to_char(x1), (0, 0))
        Piece = diagram.Piece
        for piece, bottom, top in ((Piece.CUP_L, [], [rep, rep]),
                                   (Piece.CAP_L, [rep, rep], []),
                                   (Piece.CUP_R, [], [rep, rep]),
                                   (Piece.CAP_R, [rep, rep], [])):
            op = ctx.cup_cap(piece, bottom, top)
            assert ctx.cup_cap(piece, bottom, top) is op
            with pytest.raises(ValueError):
                op[0, 0] = 1
        assert len(ctx._ops) == 4

    def test_failing_mu_stores_nothing(self):
        # the loop colour of this character has no through-strand, so its
        # twist fails, and fails again, with no operator stored
        char = CentralCharacter(1.3 + 0.2j, 2.0, 0.7 - 0.1j, -0.5)
        ctx = EvalContext(RootData(3))
        loop = ctx.rep(char, (0, 0))
        for _ in range(2):
            with pytest.raises(factgroup.NotFactorizable):
                ctx.cup_cap(diagram.Piece.CUP_R, [], [loop, loop])
        assert ctx._ops == {}


class TestSolveMemo:
    def test_failure_is_cached_as_type_and_message(self, monkeypatch):
        calls = []

        def failing(requests):
            calls.append(requests)
            return [braiding.NoIntertwiner("probe") for _ in requests]

        monkeypatch.setattr(braiding, "solve_crossings", failing)
        ctx = EvalContext(RootData(3))
        x1, _ = trefoil_boundary_2()
        rep = ctx.rep(group_to_char(x1), (0, 0))
        for _ in range(2):
            with pytest.raises(braiding.NoIntertwiner, match="probe"):
                ctx.solve(rep, rep, (rep, rep))
        assert len(calls) == 1
        # no cached traceback ties the context into a cycle
        ref = weakref.ref(ctx)
        gc.disable()
        try:
            del ctx
            assert ref() is None
        finally:
            gc.enable()


    @pytest.mark.parametrize("order", [[(0, 1), (0, 2)], [(0, 2), (0, 1)]])
    def test_labels_of_one_module_share_one_rep(self, order):
        # at the branch-degenerate parabolic colour, labels (0, 1) and
        # (0, 2) name one module: the context hands out one object for it,
        # so the block memo, keyed by irrep objects, holds one entry
        ch = group_to_char(trefoil_boundary_2()[0])
        ctx = EvalContext(RootData(3))
        first, second = (ctx.rep(ch, branch) for branch in order)
        assert second is first and first.branch == (0, 1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_hit_by_key_with_other_rep_objects(self, monkeypatch, sign):
        # irreps built outside the context are other objects with the same
        # (character, label): the lookup by object misses, the one by key
        # finds the block (a negative crossing its memoized inverse), and
        # nothing is solved again
        x1, x2 = trefoil_boundary_2()
        rd = RootData(3)
        ctx = EvalContext(rd)
        inputs = [ctx.rep(group_to_char(g), (0, 0)) for g in (x1, x2)]
        outputs = [ctx.rep(rep.char, rep.branch)
                   for rep in strand_outputs(*inputs, sign=sign)]
        solve = ctx.solve if sign > 0 else ctx.solve_inverse
        blk = solve(*inputs, outputs)
        batches = counted_solves(monkeypatch)
        others = [uqalgebra.build_irrep(rep.char, rep.branch, rd)
                  for rep in inputs + outputs]
        assert all(o is not r for o, r in zip(others, inputs + outputs))
        assert solve(*others[:2], others[2:]).matrix is blk.matrix
        assert batches == []


class TestBatchedContraction:
    def test_failure_raises_at_its_own_piece(self, monkeypatch):
        # the crossing above the curl pair fails in the batch; the pieces
        # below it, the curl's crossings and its twist among them, are
        # contracted first, and the error is raised at that crossing
        d, col = curl_below_crossing()
        failing_crossings(monkeypatch, braiding.SingularM)
        pieces = visited_pieces(monkeypatch)
        ctx = EvalContext(RootData(3))
        with pytest.raises(braiding.SingularM, match="probe"):
            evaluator.contract(d, col, ctx)
        Piece = diagram.Piece
        assert pieces == [Piece.CUP_L, Piece.X_POS, Piece.CAP_R,
                          Piece.CUP_L, Piece.X_NEG, Piece.CAP_R, Piece.X_NEG]
        assert len(ctx._twist) == 1
        assert sorted(isinstance(hit, tuple)
                      for hit in ctx._blocks.values()) == [False, True]

    def test_earlier_kink_obstruction_wins(self, monkeypatch):
        # the twist on the cap below the failing crossing raises first
        d, col = curl_below_crossing()
        failing_crossings(monkeypatch, braiding.SingularM)
        ctx = EvalContext(RootData(3))
        monkeypatch.setattr(ctx, "_kink_scalar",
                            lambda m, mu: complex("nan"))
        with pytest.raises(evaluator.KinkObstruction, match="not finite"):
            evaluator.contract(d, col, ctx)

    def test_curl_without_through_strand_is_left_to_twist_scale(
            self, monkeypatch):
        # the batch leaves out the curl whose through strand cannot be
        # formed; twist_scale raises NotFactorizable at the cap, before
        # the failing crossing above it
        d, col = curl_below_crossing()
        failing_crossings(monkeypatch, braiding.SingularM)
        batches = counted_solves(monkeypatch)

        def no_strand(_):
            raise factgroup.NotFactorizable("probe strand")

        monkeypatch.setattr(factgroup, "curl_unpartner", no_strand)
        with pytest.raises(factgroup.NotFactorizable, match="probe strand"):
            evaluator.contract(d, col, EvalContext(RootData(3)))
        assert [[req.inputs == req.outputs for req in batch]
                for batch in batches] == [[True, False]]

