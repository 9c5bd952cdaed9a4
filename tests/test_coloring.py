"""Unit tests for flat-connection colorings of tangle diagrams."""

import numpy as np
import pytest

from tanglev import coloring, diagram, evaluator, factgroup
from tanglev.coloring import ColoredBoundary
from tanglev.factgroup import Mat2

import oracles
from conftest import (mat2_of, rational_mat, trefoil_boundary_2,
                      trefoil_boundary_3, trefoil_meridians)


def two_colors(rng):
    while True:
        x, y = rational_mat(rng), rational_mat(rng)
        try:
            factgroup.xlr(x, y)
            return x, y
        except factgroup.NotFactorizable:
            continue


def benchmark_knots():
    """[(name, diagram, bottom colour, cup seeds)] of the three knots of
    the `knot-cold` benchmark."""
    x1, x2 = trefoil_boundary_2()
    y1, y2, y3 = trefoil_boundary_3()
    strand = diagram.parse("id+")
    return [
        ("unknot-curl", diagram.apply_move(strand, "FramedR1", next(
            diagram.find_move_sites(strand, "FramedR1"))), x1, []),
        ("trefoil-2", diagram.close_braid_partial(
            diagram.braid_word([1, 1, 1], 2)), x1, [x2]),
        ("trefoil-3", diagram.close_braid_partial(
            diagram.braid_word([1, 2, 1, 2], 3)), y1, [y2, y3])]


class TestPropagation:
    def test_identity_passes_colors_through(self, rng):
        d = diagram.parse("id+ id-")
        x, y = two_colors(rng)
        col = coloring.propagate(
            d, ColoredBoundary(((1, x), (-1, y))), cup_seeds={})
        top = col.boundary("top")
        assert top.signs() == (1, -1)
        assert top.colors() == (x, y)

    def test_positive_crossing_applies_map(self, rng):
        d = diagram.braid_word([1], 2)
        x, y = two_colors(rng)
        col = coloring.propagate(
            d, ColoredBoundary(((1, x), (1, y))), cup_seeds={})
        assert col.boundary("top").colors() == factgroup.xlr(x, y)

    def test_negative_crossing_applies_inverse(self, rng):
        d = diagram.braid_word([-1], 2)
        x, y = two_colors(rng)
        c, d_col = factgroup.xlr(x, y)
        col = coloring.propagate(
            d, ColoredBoundary(((1, c), (1, d_col))), cup_seeds={})
        assert col.boundary("top").colors() == (x, y)

    def test_braid_word_composes_maps(self, rng):
        word = [1, 2, 1]
        d = diagram.braid_word(word, 3)
        x, y = two_colors(rng)
        z, _ = two_colors(rng)
        cols = [x, y, z]
        try:
            expect = list(cols)
            for i in word:
                expect[i - 1], expect[i] = factgroup.xlr(expect[i - 1],
                                                         expect[i])
            col = coloring.propagate(
                d, ColoredBoundary(tuple((1, c) for c in cols)),
                cup_seeds={})
        except factgroup.NotFactorizable:
            pytest.skip("coloring outside the domain of the crossing map")
        assert list(col.boundary("top").colors()) == expect

    def test_cup_seed_flows_to_both_legs(self, rng):
        d = diagram.parse("cupL")
        x, _ = two_colors(rng)
        col = coloring.propagate(d, ColoredBoundary(()), cup_seeds={0: x})
        top = col.boundary("top")
        assert top.colors() == (x, x)
        assert top.signs() == (1, -1)

    def test_unseeded_cup_is_underdetermined(self):
        d = diagram.parse("cupL")
        with pytest.raises(coloring.UnderdeterminedColoring):
            coloring.propagate(d, ColoredBoundary(()), cup_seeds={})

    def test_cap_requires_matching_colors(self, rng):
        d = diagram.parse("capL")
        x, y = two_colors(rng)
        coloring.propagate(
            d, ColoredBoundary(((-1, x), (1, x))), cup_seeds={})
        with pytest.raises((coloring.CapMismatch, coloring.Inconsistent)):
            coloring.propagate(
                d, ColoredBoundary(((-1, x), (1, y))), cup_seeds={})

    def test_kink_rule_forces_curl_loop(self, rng):
        # a curl inserted on a strand colors its loop without a seed
        d0 = diagram.parse("id+")
        site = next(diagram.find_move_sites(d0, "FramedR1"))
        d = diagram.apply_move(d0, "FramedR1", site)
        c, _ = two_colors(rng)
        try:
            expect = factgroup.curl_partner(c)
            col = coloring.propagate(
                d, ColoredBoundary(((1, c),)), cup_seeds={})
        except factgroup.NotFactorizable:
            pytest.skip("curl partner undefined at this color")
        assert col.boundary("top").colors() == (c,)
        assert col.color(1, 1) == expect

    def test_arity_mismatch(self, rng):
        d = diagram.braid_word([1], 2)
        x, _ = two_colors(rng)
        with pytest.raises(coloring.ArityMismatch):
            coloring.propagate(d, ColoredBoundary(((1, x),)), cup_seeds={})

    def test_forward_rule_runs_once_per_crossing(self, monkeypatch):
        # a crossing leaves the fixpoint once xlr has set or checked its
        # outputs, so no later pass recomputes it
        calls = []

        def counted(x, y, _xlr=factgroup.xlr):
            calls.append((x, y))
            return _xlr(x, y)

        monkeypatch.setattr(factgroup, "xlr", counted)
        counts = {}
        for name, d, y, seeds in benchmark_knots():
            calls.clear()
            coloring.propagate(d, ColoredBoundary(((1, y),)),
                               cup_seeds=dict(enumerate(seeds)))
            counts[name] = len(calls)
            assert len(calls) == sum(p in (diagram.Piece.X_POS,
                                           diagram.Piece.X_NEG)
                                     for s in d.slices for p in s)
        assert counts == {"unknot-curl": 2, "trefoil-2": 3, "trefoil-3": 4}

    def test_derived_legs_are_checked_forward(self, monkeypatch, rng):
        # the inverse rule leaves its crossing pending, so the next pass
        # checks xlr of the derived inputs against the known outputs
        def skewed(u, v, _inverse=factgroup.xlr_inverse):
            a, b = _inverse(u, v)
            return Mat2(a.m11 + 1e-6, a.m12, a.m21, a.m22), b

        x, y = map(oracles.to_float, two_colors(rng))
        bottom = ColoredBoundary(((1, x), (1, y)))
        d = diagram.parse("x-")
        coloring.propagate(d, bottom)
        monkeypatch.setattr(factgroup, "xlr_inverse", skewed)
        with pytest.raises(coloring.CapMismatch):
            coloring.propagate(d, bottom)


class TestRecolor:
    @pytest.mark.parametrize("site, cups", [(0, (2, 3)), (2, (0, 3))],
                             ids=["curl-below", "curl-between"])
    def test_one_scan_one_fill(self, monkeypatch, site, cups):
        # a curl on the 3-strand trefoil leaves four cups; the fixpoint
        # colours the curl cups, and each stall seeds the first cup still
        # uncoloured, whether the curl sits below the closure cups or
        # between them
        y1, y2, y3 = trefoil_boundary_3()
        d = diagram.close_braid_partial(diagram.braid_word([1, 2, 1, 2], 3))
        d2 = diagram.apply_move(
            d, "FramedR1", list(diagram.find_move_sites(d, "FramedR1"))[site])
        bottom = ColoredBoundary(((1, y1),))
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        with monkeypatch.context() as patch:
            for name in ("_scan", "_fill"):
                patch.setattr(coloring, name,
                              counted(name, getattr(coloring, name)))
            col = evaluator._recolor(d2, bottom, [y2, y3])
        assert calls == ["_scan", "_fill"]
        ref = coloring.propagate(d2, bottom, cup_seeds=dict(zip(cups,
                                                                 (y2, y3))))
        widths = [d2.bottom_arity] + [len(diagram.slice_top(s))
                                      for s in d2.slices]

        def bits(c):
            return np.array([c.color(level, pos).entries()
                             for level, width in enumerate(widths)
                             for pos in range(width)]).view(np.uint64)

        assert np.array_equal(bits(col), bits(ref))

    def test_every_move_site(self):
        # every site of every move on the three benchmark knots: the
        # trefoils' and most of the unknot's colour; the rest stall with
        # no seed left and say so, naming no parameter recolor lacks
        coloured, failed = 0, []
        for name, d, y, seeds in benchmark_knots():
            for move in ("R2", "R3", "FramedR1", "SlideCupCap"):
                for site in diagram.find_move_sites(d, move):
                    try:
                        coloring.recolor(diagram.apply_move(d, move, site),
                                         ColoredBoundary(((1, y),)), seeds)
                    except coloring.Inconsistent as exc:
                        failed.append((name, str(exc)))
                        continue
                    coloured += 1
        assert coloured == 239
        assert len(failed) == 16
        assert all(name == "unknot-curl"
                   and msg.startswith("UnderdeterminedColoring: ")
                   and "cup_seeds" not in msg
                   for name, msg in failed)

    def test_crossings_are_recorded_on_arc_roots(self):
        y1, y2, y3 = trefoil_boundary_3()
        d = diagram.close_braid_partial(diagram.braid_word([1, 2, 1, 2], 3))
        col = coloring.propagate(d, ColoredBoundary(((1, y1),)),
                                 cup_seeds={0: y2, 1: y3})
        points = [pt for cr in col._crossings
                  for pt in (cr.c, cr.d, cr.a, cr.b)]
        assert len(points) == 16
        assert all(col._roots[pt] == pt for pt in points)

    def test_root_map_holds_every_endpoint(self, rng):
        # colours, the planner and contraction index the flat root list
        # directly, with no find: point i of level k is id base[k] + i
        y1, y2, y3 = trefoil_boundary_3()
        d3 = diagram.close_braid_partial(diagram.braid_word([1, 2, 1, 2], 3))
        moved = diagram.apply_move(
            d3, "FramedR1", next(diagram.find_move_sites(d3, "FramedR1")))
        x, _ = two_colors(rng)
        cases = [(d3, ColoredBoundary(((1, y1),)), {0: y2, 1: y3}),
                 (moved, ColoredBoundary(((1, y1),)), {2: y2, 3: y3}),
                 (diagram.parse("x+ ; x-"),
                  ColoredBoundary(((1, x), (1, x))), {}),
                 (diagram.TangleDiagram((), (1,)),
                  ColoredBoundary(((1, x),)), {})]
        for d, bottom, seeds in cases:
            col = coloring.propagate(d, bottom, cup_seeds=seeds)
            self.check_root_map(d, col._roots, col._base)
            assert col.color(0, 0) == bottom.entries[0][1]
        # and on every moved diagram of the `moves-warm` benchmark, whether
        # or not it colours
        sites = 0
        for _, d, y, seeds in benchmark_knots():
            for move in ("R2", "R3", "FramedR1", "SlideCupCap"):
                for site in diagram.find_move_sites(d, move):
                    d2 = diagram.apply_move(d, move, site)
                    roots, base, _, _, _, _ = coloring._scan(d2)
                    self.check_root_map(d2, roots, base)
                    try:
                        col = coloring.recolor(
                            d2, ColoredBoundary(((1, y),)), seeds)
                    except coloring.Inconsistent:
                        continue
                    assert col._roots == roots and col._base == base
                    assert col.color(0, 0) == y
                    sites += 1
        assert sites == 239

    @staticmethod
    def check_root_map(d, roots, base):
        # one id per endpoint: the bases are the running sums of the level
        # widths, and the last one counts the endpoints
        widths = [len(signs) for signs in d._levels]
        assert base == [sum(widths[:k]) for k in range(len(widths) + 1)]
        assert len(roots) == base[-1]
        # in evaluation order, level by level and left to right: the
        # planner starts each closed strand at its first arc in it
        points = {(0, i) for i in range(d.bottom_arity)}
        for k, pieces in enumerate(d.slices):
            bcol = tcol = 0
            for p in pieces:
                points.update((k, bcol + j) for j in range(len(p.bottom)))
                points.update((k + 1, tcol + j) for j in range(len(p.top)))
                bcol += len(p.bottom)
                tcol += len(p.top)
        assert [base[k] + i for k, i in sorted(points)] \
            == list(range(len(roots)))
        assert all(roots[root] == root for root in roots)

    def test_piece_list_matches_a_walk_of_the_slices(self):
        # the scan's piece list and arc starts, which contraction and the
        # planner read in place of the slices, against a walk of the
        # slices with a column counter per level
        cases = [diagram.parse("x+ ; x-"), diagram.TangleDiagram((), (1,))]
        for _, d, _, _ in benchmark_knots():
            cases.append(d)
            for move in ("R2", "R3", "FramedR1", "SlideCupCap"):
                cases += [diagram.apply_move(d, move, site)
                          for site in diagram.find_move_sites(d, move)]
        assert len(cases) == 2 + 3 + 255
        for d in cases:
            roots, _, _, _, pieces, starts = coloring._scan(d)
            assert (pieces, starts) == oracles.slice_walk(d)
            # each arc, joined or not, is first met at a start
            first = {}
            for pt, root in enumerate(roots):
                first.setdefault(root, pt)
            assert set(first.values()) <= set(starts)

    def test_cap_mismatch_names_the_point(self, monkeypatch, rng):
        # a conflict names its arc's root as (level, pos): here the
        # negative crossing's derived legs contradict the positive
        # crossing's outputs at point 1 of level 1
        def skewed(u, v, _inverse=factgroup.xlr_inverse):
            a, b = _inverse(u, v)
            return Mat2(a.m11 + 1e-6, a.m12, a.m21, a.m22), b

        x, y = map(oracles.to_float, two_colors(rng))
        bottom = ColoredBoundary(((1, x), (1, x), (1, y)))
        d = diagram.parse("id+ x+ ; id+ x-")
        coloring.propagate(d, bottom)
        monkeypatch.setattr(factgroup, "xlr_inverse", skewed)
        with pytest.raises(coloring.CapMismatch) as exc:
            coloring.propagate(d, bottom)
        assert str(exc.value) == "conflicting colors on arc through (1, 1)"


class TestClosedDiagrams:
    def test_solve_closed_accepts_flat_seeds(self):
        # equal meridians are fixed by the crossing action, so the
        # closure of s1^2 colors consistently
        a, _ = trefoil_meridians()
        bnd = coloring.functor_f_object(
            [(1, mat2_of(a)), (1, mat2_of(a @ a))])
        x1, x2 = bnd.colors()
        d = diagram.close_braid(diagram.braid_word([1, 1], 2))
        col = coloring.propagate(d, ColoredBoundary(()),
                                 cup_seeds={0: x1, 1: x2})
        assert col.boundary("top").signs() == ()

    def test_solve_closed_rejects_inconsistent_seeds(self, rng):
        d = diagram.close_braid(diagram.braid_word([1, 1], 2))
        x, y = two_colors(rng)
        with pytest.raises((coloring.CapMismatch,
                            coloring.UnderdeterminedColoring,
                            factgroup.NotFactorizable)):
            coloring.propagate(d, ColoredBoundary(()),
                               cup_seeds={0: x, 1: y})

    def test_functor_object_holonomy_round_trip(self, rng):
        x, y = two_colors(rng)
        # inputs are cumulative meridian holonomies
        bnd = coloring.functor_f_object(((1, x), (1, y)))
        assert coloring.holonomy_of_boundary(bnd, 1) == x
        assert coloring.holonomy_of_boundary(bnd, 2) == y

    def test_functor_object_downward_strand(self, rng):
        x, _ = two_colors(rng)
        bnd = coloring.functor_f_object(((-1, x),))
        assert bnd.signs() == (-1,)
        assert coloring.holonomy_of_boundary(bnd, 1) == x


class TestBoundaryEquality:
    def test_exact_and_tolerant(self, rng):
        x, y = two_colors(rng)
        b1 = ColoredBoundary(((1, x), (1, y)))
        b2 = ColoredBoundary(((1, x), (1, y)))
        assert b1.equal(b2)
        assert not b1.equal(ColoredBoundary(((1, y), (1, x))))
        assert not b1.equal(ColoredBoundary(((1, x),)))
