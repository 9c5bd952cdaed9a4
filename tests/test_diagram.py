"""Unit tests for tangle diagrams, the slice DSL, and move rewrites."""

import dataclasses

import pytest

from tanglev import diagram
from tanglev.diagram import Piece, TangleDiagram

import oracles


class TestParsing:
    def test_parse_pretty_round_trip(self):
        text = "id+ cupL; x+ id-; id+ capR"
        d = diagram.parse(text)
        assert diagram.parse(oracles.pretty(d)).to_json() == d.to_json()
        # empty chunks are skipped
        assert diagram.parse("x+ ;; x+;") == diagram.parse("x+; x+")

    def test_json_round_trip(self):
        d = diagram.braid_word([1, -2, 1], 3)
        assert TangleDiagram.from_json(d.to_json()).to_json() == d.to_json()

    def test_bad_token_reports_position(self):
        with pytest.raises(diagram.DiagramSyntaxError) as err:
            diagram.parse("id+ qq; id+")
        assert err.value.position is not None

    def test_orientation_mismatch(self):
        # crossing needs two upward strands
        with pytest.raises(diagram.OrientationMismatch):
            diagram.parse("id+ id-; x+")

    def test_arity_mismatch_between_slices(self):
        with pytest.raises(diagram.ArityMismatch):
            diagram.parse("id+ id+; id+")


class TestStructure:
    def test_braid_word_arities(self):
        d = diagram.braid_word([1, 2, -1], 3)
        assert d.bottom_arity == 3 and d.top_arity == 3
        assert len(d.slices) == 3
        assert d.writhe() == 1

    def test_braid_word_validates_letters(self):
        with pytest.raises(diagram.IndexOutOfRange):
            diagram.braid_word([3], 3)
        with pytest.raises(diagram.IndexOutOfRange):
            diagram.braid_word([0], 2)

    def test_compose_and_tensor(self):
        a = diagram.braid_word([1], 2)
        b = diagram.braid_word([-1], 2)
        c = diagram.compose(b, a)
        assert len(c.slices) == 2
        t = diagram.tensor(a, b)
        assert t.bottom_arity == 4
        with pytest.raises(diagram.ArityMismatch):
            diagram.compose(a, diagram.braid_word([1], 3))

    def test_close_braid_is_closed(self):
        d = diagram.close_braid(diagram.braid_word([1, 1], 2))
        assert d.bottom_arity == 0 and d.top_arity == 0

    def test_close_braid_partial_is_1_1(self):
        d = diagram.close_braid_partial(diagram.braid_word([1, 1, 1], 2))
        assert d.bottom_signs == (1,) and d.top_signs == (1,)
        assert d.writhe() == 3

    def test_cup_cap_signs(self):
        d = diagram.parse("cupL")
        assert d.top_signs == (1, -1)
        d = diagram.parse("cupR")
        assert d.top_signs == (-1, 1)


class TestMoves:
    @pytest.mark.parametrize("move,variant", [
        (move, variant) for move, stacks in diagram._WINDOWS.items()
        for variant in stacks])
    def test_move_round_trip(self, move, variant):
        # an insert is undone by the remove at its level, column and
        # variant; an R3 swap is undone by the swap back
        if move == "R3":
            sign, shape = variant.split("-")
            letters = [int(c) if sign == "pos" else -int(c) for c in shape]
            bases = (diagram.braid_word(letters, 3),
                     diagram.braid_word(
                         [g + (g > 0) - (g < 0) for g in letters], 4))
            direction = "remove"
            undo = "%s-%s" % (sign, "212" if shape == "121" else "121")
        else:
            bases = (diagram.braid_word([1], 3), diagram.parse("id+"),
                     diagram.parse("id+ cupL; x+ id-; id+ capR"))
            direction, undo = "insert", variant
        sites = [(d, s) for d in bases
                 for s in diagram.find_move_sites(d, move)
                 if s.direction == direction and s.variant == variant]
        assert sites
        for d, site in sites:
            d2 = diagram.apply_move(d, move, site)
            assert d2.writhe() == d.writhe()
            assert d2.bottom_signs == d.bottom_signs
            assert d2.top_signs == d.top_signs
            back = diagram.MoveSite(move, "remove", undo, site.level,
                                    site.position)
            assert back in diagram.find_move_sites(d2, move)
            d3 = diagram.apply_move(d2, move, back)
            assert d3.to_json() == d.to_json()

    def test_moved_diagram_equals_a_checked_one(self):
        # apply_move checks only its window and takes the other level signs
        # over; at every site of every move on the benchmark's three knots
        # the result is the diagram that the full check builds
        strand = diagram.parse("id+")
        knots = [diagram.apply_move(strand, "FramedR1", next(
                     diagram.find_move_sites(strand, "FramedR1"))),
                 diagram.close_braid_partial(diagram.braid_word([1, 1, 1], 2)),
                 diagram.close_braid_partial(
                     diagram.braid_word([1, 2, 1, 2], 3))]
        count = 0
        for d in knots:
            for move in diagram._WINDOWS:
                for site in diagram.find_move_sites(d, move):
                    moved = diagram.apply_move(d, move, site)
                    checked = TangleDiagram(moved.slices, moved.bottom_signs)
                    assert moved == checked
                    assert moved.top_signs == checked.top_signs
                    assert moved._levels == checked._levels
                    count += 1
        assert count == 255

    def test_stale_r3_site_is_refused(self):
        d = diagram.braid_word([1, 2, 1], 3)
        with pytest.raises(diagram.PatternNotFound):
            diagram.apply_move(d, "R3", diagram.MoveSite(
                "R3", "remove", "pos-121", 3, 0))

    @pytest.mark.parametrize("level", [4, 9, -1])
    def test_insert_outside_the_diagram_is_refused(self, level):
        # levels run 0..len(d.slices); slicing would put the pair above
        # the top slice or below the last one instead
        d = diagram.braid_word([1, 2, 1], 3)
        with pytest.raises(diagram.PatternNotFound):
            diagram.apply_move(d, "R2", diagram.MoveSite(
                "R2", "insert", "pos-neg", level, 0))

    def test_r2_remove_found_in_braid(self):
        d = diagram.braid_word([1, -1], 2)
        sites = [s for s in diagram.find_move_sites(d, "R2")
                 if s.direction == "remove"]
        assert sites
        d2 = diagram.apply_move(d, "R2", sites[0])
        assert d2.bottom_arity == 2 and len(d2.slices) == 0

    def test_unknown_direction_is_refused(self):
        # only "remove" takes a window out
        d = diagram.braid_word([1, -1], 2)
        site = next(s for s in diagram.find_move_sites(d, "R2")
                    if s.direction == "remove")
        with pytest.raises(diagram.PatternNotFound):
            diagram.apply_move(d, "R2", dataclasses.replace(
                site, direction="sideways"))

    def test_r3_sites_and_rewrite(self):
        d = diagram.braid_word([1, 2, 1], 3)
        sites = list(diagram.find_move_sites(d, "R3"))
        assert [s.variant for s in sites] == ["pos-121"]
        d2 = diagram.apply_move(d, "R3", sites[0])
        assert [s.variant for s in diagram.find_move_sites(d2, "R3")] \
            == ["pos-212"]
        d3 = diagram.apply_move(
            d2, "R3", next(diagram.find_move_sites(d2, "R3")))
        assert d3.to_json() == d.to_json()

    def test_r3_ignores_mixed_signs(self):
        d = diagram.braid_word([1, -2, 1], 3)
        assert list(diagram.find_move_sites(d, "R3")) == []

    def test_unknown_move(self):
        with pytest.raises(ValueError):
            list(diagram.find_move_sites(diagram.parse("id+"), "R9"))
