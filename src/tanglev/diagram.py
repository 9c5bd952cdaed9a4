"""Tangle diagrams as words of horizontal slices.

A diagram is a bottom-to-top sequence of slices; every slice is a horizontal
row of elementary pieces (identities, cups, caps, crossings).  Crossings are
only defined on two upward strands; the four cup/cap chiralities are separate
tokens because the evaluator assigns them different operators.

Sign conventions (+ = strand oriented upward through the boundary):

    id+   (+) -> (+)          id-   (-) -> (-)
    x+ x- (+,+) -> (+,+)
    capL  (-,+) -> ()         capR  (+,-) -> ()
    cupL  () -> (+,-)         cupR  () -> (-,+)

Each variant of the framed Reidemeister moves R2, R3, FramedR1 (cancelling
curl pair) and SlideCupCap (zigzag) is one stack of slice windows, and a
move site inserts, removes or (R3) swaps one window stack.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence


class ArityMismatch(ValueError):
    pass


class OrientationMismatch(ValueError):
    pass


class IndexOutOfRange(ValueError):
    pass


class PatternNotFound(ValueError):
    pass


class DiagramSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at token %d)" % (message, position))
        self.position = position


class Piece(enum.Enum):
    """An elementary piece: its token and its bottom and top signs."""

    ID_UP = "id+", (1,), (1,)
    ID_DOWN = "id-", (-1,), (-1,)
    CAP_L = "capL", (-1, 1), ()
    CAP_R = "capR", (1, -1), ()
    CUP_L = "cupL", (), (1, -1)
    CUP_R = "cupR", (), (-1, 1)
    X_POS = "x+", (1, 1), (1, 1)
    X_NEG = "x-", (1, 1), (1, 1)

    def __new__(cls, token, bottom, top):
        piece = object.__new__(cls)
        piece._value_ = token
        piece.bottom = bottom
        piece.top = top
        return piece


_TOKENS = {p.value: p for p in Piece}


def slice_bottom(pieces: Sequence[Piece]):
    return tuple(s for p in pieces for s in p.bottom)


def slice_top(pieces: Sequence[Piece]):
    return tuple(s for p in pieces for s in p.top)


def _id_for_sign(sign):
    return Piece.ID_UP if sign > 0 else Piece.ID_DOWN


def _row_top(k, pieces, signs):
    """The top signs of slice `k`, whose bottom signs must be `signs`."""
    want = slice_bottom(pieces)
    if len(want) != len(signs):
        raise ArityMismatch("slice %d expects %d strands, got %d"
                            % (k, len(want), len(signs)))
    if want != tuple(signs):
        raise OrientationMismatch(
            "slice %d orientation signature %s does not match %s"
            % (k, want, tuple(signs)))
    return slice_top(pieces)


@dataclass(frozen=True)
class TangleDiagram:
    """Slices bottom to top, each checked against the signs below it.

    The signs of every level (`_levels`: the bottom signs, then the top
    signs of each slice) are kept as an attribute that is not a field, so
    ==, hash and repr ignore it.
    """

    slices: tuple
    bottom_signs: tuple

    def __post_init__(self):
        levels = [tuple(self.bottom_signs)]
        for k, pieces in enumerate(self.slices):
            levels.append(_row_top(k, pieces, levels[-1]))
        object.__setattr__(self, "slices", tuple(map(tuple, self.slices)))
        object.__setattr__(self, "bottom_signs", levels[0])
        object.__setattr__(self, "_levels", tuple(levels))

    @property
    def top_signs(self):
        return self._levels[-1]

    @property
    def bottom_arity(self):
        return len(self.bottom_signs)

    @property
    def top_arity(self):
        return len(self.top_signs)

    def writhe(self):
        pos = sum(p is Piece.X_POS for s in self.slices for p in s)
        neg = sum(p is Piece.X_NEG for s in self.slices for p in s)
        return pos - neg

    def to_json(self):
        return {"slices": [[p.value for p in s] for s in self.slices],
                "bottom_signs": list(self.bottom_signs)}

    @staticmethod
    def from_json(obj):
        position = itertools.count(1)
        slices = tuple(tuple(_piece(t, next(position)) for t in s)
                       for s in obj["slices"])
        return TangleDiagram(slices, tuple(obj["bottom_signs"]))


def diagram(slices) -> TangleDiagram:
    slices = tuple(map(tuple, slices))
    if not slices:
        return TangleDiagram((), ())
    return TangleDiagram(slices, slice_bottom(slices[0]))


def _piece(token, position):
    piece = _TOKENS.get(token)
    if piece is None:
        raise DiagramSyntaxError("unknown piece %r" % token, position)
    return piece


def parse(text: str) -> TangleDiagram:
    """Parse the slice DSL: pieces split by spaces, slices by ';'."""
    slices = []
    position = 0
    for chunk in text.split(";"):
        pieces = []
        for token in chunk.split():
            position += 1
            pieces.append(_piece(token, position))
        if pieces:
            slices.append(tuple(pieces))
        elif chunk.strip():
            raise DiagramSyntaxError("empty slice", position)
    return diagram(slices)


def braid_word(word: Sequence[int], strands: int) -> TangleDiagram:
    """Signed generator indices -> braid diagram on upward strands."""
    if strands < 1:
        raise IndexOutOfRange("strand count must be positive")
    if not word:
        return diagram([tuple(Piece.ID_UP for _ in range(strands))])
    slices = []
    for gen in word:
        i = abs(gen)
        if gen == 0 or i > strands - 1:
            raise IndexOutOfRange(
                "generator %d outside [1, %d]" % (gen, strands - 1))
        row = [Piece.ID_UP] * (i - 1)
        row.append(Piece.X_POS if gen > 0 else Piece.X_NEG)
        row.extend([Piece.ID_UP] * (strands - i - 1))
        slices.append(tuple(row))
    return diagram(slices)


def compose(top: TangleDiagram, bottom: TangleDiagram) -> TangleDiagram:
    """Stack bottom under top (diagrams compose bottom-to-top)."""
    if bottom.top_signs != top.bottom_signs:
        if bottom.top_arity != top.bottom_arity:
            raise ArityMismatch(
                "cannot compose arity %d on top of arity %d"
                % (top.bottom_arity, bottom.top_arity))
        raise OrientationMismatch(
            "boundary signatures %s vs %s"
            % (bottom.top_signs, top.bottom_signs))
    return TangleDiagram(bottom.slices + top.slices, bottom.bottom_signs)


def tensor(left: TangleDiagram, right: TangleDiagram) -> TangleDiagram:
    """Horizontal juxtaposition, padding the shorter factor with identities."""
    height = max(len(left.slices), len(right.slices))
    slices = []
    lsigns, rsigns = left.bottom_signs, right.bottom_signs
    for k in range(height):
        lrow = left.slices[k] if k < len(left.slices) else tuple(
            _id_for_sign(s) for s in lsigns)
        rrow = right.slices[k] if k < len(right.slices) else tuple(
            _id_for_sign(s) for s in rsigns)
        slices.append(lrow + rrow)
        lsigns, rsigns = slice_top(lrow), slice_top(rrow)
    return TangleDiagram(tuple(slices), left.bottom_signs + right.bottom_signs)


def _close(d: TangleDiagram, open_strands) -> TangleDiagram:
    """Close every strand but the leftmost `open_strands` (0 or 1): nested
    cups below, caps above, return strands on the right running downward.
    The mu-carrying capR closes each strand."""
    n = d.bottom_arity
    if d.top_signs != d.bottom_signs or any(s != 1 for s in d.bottom_signs):
        raise ArityMismatch("closure needs matching all-upward boundaries")
    slices = []
    for k in range(open_strands + 1, n + 1):
        row = [Piece.ID_UP] * (k - 1) + [Piece.CUP_L] + \
              [Piece.ID_DOWN] * (k - 1 - open_strands)
        slices.append(tuple(row))
    down = tuple([Piece.ID_DOWN] * (n - open_strands))
    for pieces in d.slices:
        slices.append(tuple(pieces) + down)
    for k in range(n, open_strands, -1):
        row = [Piece.ID_UP] * (k - 1) + [Piece.CAP_R] + \
              [Piece.ID_DOWN] * (k - 1 - open_strands)
        slices.append(tuple(row))
    return TangleDiagram(tuple(slices), (1,) * open_strands)


def close_braid(d: TangleDiagram) -> TangleDiagram:
    """Trace closure of every strand."""
    return _close(d, 0)


def close_braid_partial(d: TangleDiagram) -> TangleDiagram:
    """Close every strand except the leftmost, leaving a (1,1)-tangle.

    The open strand avoids the vanishing quantum-dimension trace of the
    full closure; the resulting block is scalar by Schur's lemma.
    """
    return _close(d, 1)


# ---------------------------------------------------------------------------
# Framed Reidemeister rewrites


@dataclass(frozen=True)
class MoveSite:
    move: str             # R2 | R3 | FramedR1 | SlideCupCap
    direction: str        # insert | remove
    variant: str
    level: int            # boundary index (insert) / first slice (remove)
    position: int         # leftmost strand column involved


def _pad_row(signs, position, window):
    """One new slice: identities matching `signs` outside the window."""
    width = len(slice_bottom(window))
    row = [_id_for_sign(s) for s in signs[:position]]
    row.extend(window)
    row.extend(_id_for_sign(s) for s in signs[position + width:])
    return tuple(row)


def _curl(crossing):
    return ((Piece.ID_UP, Piece.CUP_L),
            (crossing, Piece.ID_DOWN),
            (Piece.ID_UP, Piece.CAP_R))


def _braid(crossing, shape):
    """One crossing per slice, on the left ("1") or right ("2") strand pair."""
    return tuple((crossing, Piece.ID_UP) if col == "1"
                 else (Piece.ID_UP, crossing) for col in shape)


#: move -> variant -> its stack of slice windows, bottom to top
_WINDOWS = {
    "R2": {"pos-neg": ((Piece.X_POS,), (Piece.X_NEG,)),
           "neg-pos": ((Piece.X_NEG,), (Piece.X_POS,))},
    "R3": {"%s-%s" % (sign, shape): _braid(crossing, shape)
           for sign, crossing in (("pos", Piece.X_POS), ("neg", Piece.X_NEG))
           for shape in ("121", "212")},
    "FramedR1": {"pos-neg": _curl(Piece.X_POS) + _curl(Piece.X_NEG),
                 "neg-pos": _curl(Piece.X_NEG) + _curl(Piece.X_POS)},
    "SlideCupCap": {
        "up-left": ((Piece.CUP_L, Piece.ID_UP), (Piece.ID_UP, Piece.CAP_L)),
        "up-right": ((Piece.ID_UP, Piece.CUP_R), (Piece.CAP_R, Piece.ID_UP)),
        "down-left": ((Piece.CUP_R, Piece.ID_DOWN),
                      (Piece.ID_DOWN, Piece.CAP_R)),
        "down-right": ((Piece.ID_DOWN, Piece.CUP_L),
                       (Piece.CAP_L, Piece.ID_DOWN)),
    },
}

#: moves that swap a stack for its partner's instead of inserting one
_SWAPS = {"R3": {"pos-121": "pos-212", "pos-212": "pos-121",
                 "neg-121": "neg-212", "neg-212": "neg-121"}}


def find_move_sites(d: TangleDiagram, move: str) -> Iterator[MoveSite]:
    """Insert sites at each boundary level and column whose signs equal a
    variant's bottom signs, then remove sites where its stack matches."""
    stacks = _WINDOWS.get(move)
    if stacks is None:
        raise ValueError("unknown move %r" % move)
    if move not in _SWAPS:
        bottoms = [(var, slice_bottom(ws[0])) for var, ws in stacks.items()]
        for level in range(len(d.slices) + 1):
            signs = d._levels[level]
            for pos in range(len(signs)):
                for var, bottom in bottoms:
                    if signs[pos:pos + len(bottom)] == bottom:
                        yield MoveSite(move, "insert", var, level, pos)
    for k in range(len(d.slices)):
        for var, windows in stacks.items():
            for pos in _match_windows(d, k, windows):
                yield MoveSite(move, "remove", var, k, pos)


def _find_window(pieces, window):
    """Matches of `window` as a contiguous piece run with identities elsewhere.

    Yields (bottom_col, top_col) offsets of the run; offsets differ when the
    slice or the window contain cups/caps.
    """
    n = len(window)
    for i in range(len(pieces) - n + 1):
        if tuple(pieces[i:i + n]) != window:
            continue
        rest = pieces[:i] + pieces[i + n:]
        if any(p not in (Piece.ID_UP, Piece.ID_DOWN) for p in rest):
            continue
        b = sum(len(p.bottom) for p in pieces[:i])
        t = sum(len(p.top) for p in pieces[:i])
        yield b, t


def _match_windows(d, start, windows):
    """Bottom columns where `windows` match consecutive slices, aligned."""
    if start + len(windows) > len(d.slices):
        return
    for b0, expect in _find_window(d.slices[start], windows[0]):
        for pieces, window in zip(d.slices[start + 1:], windows[1:]):
            expect = next((t for b, t in _find_window(pieces, window)
                           if b == expect), None)
            if expect is None:
                break
        else:
            yield b0


def apply_move(d: TangleDiagram, move: str, site: MoveSite) -> TangleDiagram:
    """Replace the window stack `old` at (level, position) by `new`.

    An insert puts the variant's stack in, a remove takes it out, and R3
    swaps it for its partner's.  A site that does not fit, or whose level
    lies outside 0..len(d.slices), raises PatternNotFound.

    Only the window is checked again: the new rows against the signs
    below them, and the top of the last against the bottom of the slice
    above, by the rule of `TangleDiagram`; the other slices and their
    level signs are taken over from `d`.
    """
    if site.move != move:
        raise PatternNotFound("site belongs to move %s" % site.move)
    stack = _WINDOWS.get(move, {}).get(site.variant)
    if stack is None:
        raise PatternNotFound("no %s variant %r" % (move, site.variant))
    k, pos = site.level, site.position
    if not 0 <= k <= len(d.slices):
        raise PatternNotFound("level %d outside 0..%d" % (k, len(d.slices)))
    signs = d._levels[k]
    if site.direction != "insert":
        old = stack
        new = _WINDOWS[move][_SWAPS[move][site.variant]] \
            if move in _SWAPS else ()
        fits = pos in _match_windows(d, k, old)
    else:
        old, new = (), stack
        bottom = slice_bottom(stack[0])
        fits = move not in _SWAPS and signs[pos:pos + len(bottom)] == bottom
    if not fits:
        raise PatternNotFound("%s %s %s does not fit at level %d column %d"
                              % (move, site.direction, site.variant, k, pos))
    rows, levels = [], [signs]
    for window in new:
        rows.append(_pad_row(levels[-1], pos, window))
        levels.append(_row_top(k + len(rows) - 1, rows[-1], levels[-1]))
    above = k + len(old)
    if above < len(d.slices):
        _row_top(k + len(rows), d.slices[above], levels[-1])
    moved = object.__new__(TangleDiagram)  # checked: skip __post_init__
    vars(moved).update(slices=d.slices[:k] + tuple(rows) + d.slices[above:],
                       bottom_signs=d.bottom_signs,
                       _levels=d._levels[:k] + tuple(levels)
                       + d._levels[above + 1:])
    return moved
