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

The framed Reidemeister moves R2, R3, FramedR1 (cancelling curl pair) and
SlideCupCap (zigzag insertion/removal) are implemented as local slice-window
rewrites with explicit sites, in both directions, for the property suite.
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


@dataclass(frozen=True)
class TangleDiagram:
    slices: tuple
    bottom_signs: tuple

    def __post_init__(self):
        signs = self.bottom_signs
        for k, pieces in enumerate(self.slices):
            want = slice_bottom(pieces)
            if len(want) != len(signs):
                raise ArityMismatch(
                    "slice %d expects %d strands, got %d"
                    % (k, len(want), len(signs)))
            if want != tuple(signs):
                raise OrientationMismatch(
                    "slice %d orientation signature %s does not match %s"
                    % (k, want, tuple(signs)))
            signs = slice_top(pieces)
        object.__setattr__(self, "slices", tuple(map(tuple, self.slices)))
        object.__setattr__(self, "bottom_signs", tuple(self.bottom_signs))

    @property
    def top_signs(self):
        signs = self.bottom_signs
        for pieces in self.slices:
            signs = slice_top(pieces)
        return signs

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

    def pretty(self):
        return " ; ".join(" ".join(p.value for p in s) for s in self.slices)

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


def _level_signs(d: TangleDiagram, level: int):
    signs = d.bottom_signs
    for pieces in d.slices[:level]:
        signs = slice_top(pieces)
    return signs


def _pad_row(signs, position, window, width_after):
    """One inserted slice: identities matching `signs` outside the window."""
    row = [_id_for_sign(s) for s in signs[:position]]
    row.extend(window)
    row.extend(_id_for_sign(s) for s in signs[position + width_after:])
    return tuple(row)


#: crossing pairs, bottom first: of an R2 site, and of a FramedR1 site's
#: two curls
_SIGN_VARIANTS = {"pos-neg": (Piece.X_POS, Piece.X_NEG),
                  "neg-pos": (Piece.X_NEG, Piece.X_POS)}

# zigzag windows: (strand sign, slice 1 window, slice 2 window)
_ZIGZAG_VARIANTS = {
    "up-left": (1, (Piece.CUP_L, Piece.ID_UP), (Piece.ID_UP, Piece.CAP_L)),
    "up-right": (1, (Piece.ID_UP, Piece.CUP_R), (Piece.CAP_R, Piece.ID_UP)),
    "down-left": (-1, (Piece.CUP_R, Piece.ID_DOWN),
                  (Piece.ID_DOWN, Piece.CAP_R)),
    "down-right": (-1, (Piece.ID_DOWN, Piece.CUP_L),
                   (Piece.CAP_L, Piece.ID_DOWN)),
}


def _curl_windows(crossing):
    return ((Piece.ID_UP, Piece.CUP_L),
            (crossing, Piece.ID_DOWN),
            (Piece.ID_UP, Piece.CAP_R))


def find_move_sites(d: TangleDiagram, move: str) -> Iterator[MoveSite]:
    if move == "R2":
        yield from _find_r2(d)
    elif move == "R3":
        yield from _find_r3(d)
    elif move == "FramedR1":
        yield from _find_r1(d)
    elif move == "SlideCupCap":
        yield from _find_zigzag(d)
    else:
        raise ValueError("unknown move %r" % move)


def _find_r2(d):
    for level in range(len(d.slices) + 1):
        signs = _level_signs(d, level)
        for pos in range(len(signs) - 1):
            if signs[pos] == signs[pos + 1] == 1:
                for var in _SIGN_VARIANTS:
                    yield MoveSite("R2", "insert", var, level, pos)
    for k in range(len(d.slices) - 1):
        for var, (first, second) in _SIGN_VARIANTS.items():
            for pos in _match_windows(d, k, [(first,), (second,)]):
                yield MoveSite("R2", "remove", var, k, pos)


def _single_crossing_col(pieces, kind):
    if sum(p in (Piece.X_POS, Piece.X_NEG) for p in pieces) != 1:
        return None
    return next(iter(b for b, _ in _find_window(pieces, (kind,))), None)


def _find_r3(d):
    for k in range(len(d.slices) - 2):
        for kind in (Piece.X_POS, Piece.X_NEG):
            a = _single_crossing_col(d.slices[k], kind)
            b = _single_crossing_col(d.slices[k + 1], kind)
            c = _single_crossing_col(d.slices[k + 2], kind)
            if None in (a, b, c):
                continue
            sign = "pos" if kind is Piece.X_POS else "neg"
            if b == a + 1 and c == a:
                yield MoveSite("R3", "remove", sign + "-121", k, a)
            elif b == a - 1 and c == a:
                yield MoveSite("R3", "remove", sign + "-212", k, b)


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
    for b0, t0 in _find_window(d.slices[start], windows[0]):
        expect = t0
        ok = True
        for off, window in enumerate(windows[1:], start=1):
            hit = next(
                (t for b, t in _find_window(d.slices[start + off], window)
                 if b == expect), None)
            if hit is None:
                ok = False
                break
            expect = hit
        if ok:
            yield b0


def _find_r1(d):
    for level in range(len(d.slices) + 1):
        signs = _level_signs(d, level)
        for pos in range(len(signs)):
            if signs[pos] == 1:
                for var in _SIGN_VARIANTS:
                    yield MoveSite("FramedR1", "insert", var, level, pos)
    for k in range(len(d.slices) - 5):
        for var, (first, second) in _SIGN_VARIANTS.items():
            windows = list(_curl_windows(first)) + list(_curl_windows(second))
            for pos in _match_windows(d, k, windows):
                yield MoveSite("FramedR1", "remove", var, k, pos)


def _find_zigzag(d):
    for level in range(len(d.slices) + 1):
        signs = _level_signs(d, level)
        for pos in range(len(signs)):
            for var, (sign, _, _) in _ZIGZAG_VARIANTS.items():
                if signs[pos] == sign:
                    yield MoveSite("SlideCupCap", "insert", var, level, pos)
    for k in range(len(d.slices) - 1):
        for var, (sign, w1, w2) in _ZIGZAG_VARIANTS.items():
            for pos in _match_windows(d, k, [w1, w2]):
                yield MoveSite("SlideCupCap", "remove", var, k, pos)


def apply_move(d: TangleDiagram, move: str, site: MoveSite) -> TangleDiagram:
    """Apply a framed Reidemeister move at a site found by find_move_sites."""
    if site.move != move:
        raise PatternNotFound("site belongs to move %s" % site.move)
    if site.direction == "insert":
        return _insert_move(d, site)
    return _remove_move(d, site)


def _insert_move(d, site):
    signs = _level_signs(d, site.level)
    pos = site.position
    new = []
    if site.move == "R2":
        if pos + 1 >= len(signs) or signs[pos] != 1 or signs[pos + 1] != 1:
            raise PatternNotFound("no parallel upward strands at site")
        for kind in _SIGN_VARIANTS[site.variant]:
            new.append(_pad_row(signs, pos, (kind,), 2))
    elif site.move == "FramedR1":
        if pos >= len(signs) or signs[pos] != 1:
            raise PatternNotFound("no upward strand at site")
        for kind in _SIGN_VARIANTS[site.variant]:
            row_signs, width = signs, 1
            for window in _curl_windows(kind):
                new.append(_pad_row(row_signs, pos, window, width))
                row_signs, width = slice_top(new[-1]), 3
            signs = slice_top(new[-1])
    elif site.move == "SlideCupCap":
        sign, w1, w2 = _ZIGZAG_VARIANTS[site.variant]
        if pos >= len(signs) or signs[pos] != sign:
            raise PatternNotFound("strand orientation does not match variant")
        new.append(_pad_row(signs, pos, w1, 1))
        new.append(_pad_row(slice_top(new[0]), pos, w2, 3))
    else:
        raise PatternNotFound("cannot insert move %s" % site.move)
    slices = d.slices[:site.level] + tuple(new) + d.slices[site.level:]
    return TangleDiagram(slices, d.bottom_signs)


def _remove_move(d, site):
    k, pos = site.level, site.position
    if site.move == "R2":
        expect = [(p,) for p in _SIGN_VARIANTS[site.variant]]
    elif site.move == "FramedR1":
        expect = list(_curl_windows(_SIGN_VARIANTS[site.variant][0])) + \
            list(_curl_windows(_SIGN_VARIANTS[site.variant][1]))
    elif site.move == "SlideCupCap":
        _, w1, w2 = _ZIGZAG_VARIANTS[site.variant]
        expect = [w1, w2]
    elif site.move == "R3":
        return _rewrite_r3(d, site)
    else:
        raise PatternNotFound("cannot remove move %s" % site.move)
    if pos not in _match_windows(d, k, expect):
        raise PatternNotFound(
            "%s pattern absent at slice %d column %d" % (site.move, k, pos))
    slices = d.slices[:k] + d.slices[k + len(expect):]
    return TangleDiagram(slices, d.bottom_signs)


def _rewrite_r3(d, site):
    k, a = site.level, site.position
    sign, shape = site.variant.split("-")
    kind = Piece.X_POS if sign == "pos" else Piece.X_NEG
    signs = _level_signs(d, k)
    if shape == "121":
        cols, newcols = (a, a + 1, a), (a + 1, a, a + 1)
    else:
        cols, newcols = (a + 1, a, a + 1), (a, a + 1, a)
    for off, col in enumerate(cols):
        if _single_crossing_col(d.slices[k + off], kind) != col:
            raise PatternNotFound("R3 pattern absent at slice %d" % (k + off))
    new = tuple(_pad_row(signs, col, (kind,), 2) for col in newcols)
    slices = d.slices[:k] + new + d.slices[k + 3:]
    return TangleDiagram(slices, d.bottom_signs)
