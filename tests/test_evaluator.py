"""Unit tests for diagram contraction and the scalar invariant."""

import numpy as np
import pytest

from tanglev import braiding, coloring, diagram, evaluator
from tanglev.coloring import ColoredBoundary
from tanglev.evaluator import EvalContext
from tanglev.uqalgebra import RootData

from conftest import trefoil_boundary_2, trefoil_boundary_3


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

    def test_raw_framing_keeps_curl_anomaly(self):
        # the unnormalized pivot is documented to scale curls by a
        # non-unimodular factor; "balanced" exists to cancel it
        raw = EvalContext(RootData(3), framing="raw")
        blk = strand_with("FramedR1", raw)
        scalar = np.trace(blk.matrix) / 3
        assert abs(abs(scalar) - 1.0) > 1e-2

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
        direct = ctx.solve(rx, ry)
        assert np.max(np.abs(blk.matrix - direct.matrix)) < 1e-12

    def test_tensor_and_compose_block_algebra(self, ctx):
        d = diagram.braid_word([1], 2)
        x1, x2 = trefoil_boundary_2()
        col = coloring.propagate(
            d, ColoredBoundary(((1, x1), (1, x2))), cup_seeds={})
        blk = evaluator.contract(d, col, ctx)
        ident = evaluator.LinearBlock(
            np.eye(9), blk.domain, blk.domain, ())
        comp = evaluator.compose_blocks(blk, ident)
        assert np.array_equal(comp.matrix, blk.matrix)
        tens = evaluator.tensor_blocks(blk, ident)
        assert tens.matrix.shape == (81, 81)
        with pytest.raises(evaluator.ObjectMismatch):
            evaluator.compose_blocks(ident, blk)


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

    def test_full_closure_vanishes(self, ctx):
        d = diagram.close_braid(diagram.braid_word([1, 1, 1], 2))
        x1, x2 = trefoil_boundary_2()
        col = evaluator._recolor(d, ColoredBoundary(()), [x1, x2])
        val, _ = evaluator.invariant(d, col, ctx)
        assert abs(val) < 1e-9


class TestReidemeisterReport:
    def test_strand_report_all_pass(self, ctx):
        d = diagram.parse("id+")
        x1, _ = trefoil_boundary_2()
        report = evaluator.reidemeister_report(
            d, ColoredBoundary(((1, x1),)), [],
            ["FramedR1", "SlideCupCap"], ctx)
        assert report["all_pass"]
        assert report["skipped"] == 0
        for entry in report["moves"]:
            assert entry["magnitude_defect"] < 1e-8

    def test_trefoil_r3_report_all_pass(self, ctx):
        d = diagram.close_braid_partial(
            diagram.braid_word([1, 2, 1, 2], 3))
        y1, y2, y3 = trefoil_boundary_3()
        report = evaluator.reidemeister_report(
            d, ColoredBoundary(((1, y1),)), [y2, y3], ["R3"], ctx)
        assert report["all_pass"]
        assert report["skipped"] == 0
        assert [m["variant"] for m in report["moves"]] \
            == ["pos-121", "pos-212"]

    def test_report_skips_unrecolourable_sites(self, ctx):
        # the R2 sites of the curl pair cannot be recoloured from the
        # bottom strand alone; they are reported as skipped with the
        # reason, not failed or silently dropped
        d = diagram.parse("id+")
        d = diagram.apply_move(
            d, "FramedR1", next(diagram.find_move_sites(d, "FramedR1")))
        x1, _ = trefoil_boundary_2()
        report = evaluator.reidemeister_report(
            d, ColoredBoundary(((1, x1),)), [], ["R2"], ctx)
        assert report["all_pass"]
        assert report["skipped"] == len(report["moves"]) == 2
        assert all(m["pass"] is None
                   and m["skipped"].startswith("Inconsistent")
                   for m in report["moves"])
