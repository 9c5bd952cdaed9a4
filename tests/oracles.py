"""Test-side oracles: helpers that only the tests use."""

import numpy as np

from tanglev import braiding
from tanglev.braiding import RImages
from tanglev.evaluator import ColoredObject, LinearBlock
from tanglev.factgroup import Mat2


def to_float(g: Mat2) -> Mat2:
    """g with every entry cast to complex: the float backend."""
    return Mat2(*(complex(v) for v in g.entries()))


def pretty(d) -> str:
    """A diagram in the slice DSL that `diagram.parse` reads."""
    return " ; ".join(" ".join(p.value for p in s) for s in d.slices)


class ObjectMismatch(ValueError):
    """Composition refused: the boundary objects differ."""


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


def _dev(m):
    return float(np.max(np.abs(m)))


def automorphism_residuals(ri: RImages):
    """Residuals of the defining algebra relations among the image matrices."""
    rd = ri.pair[0].rd
    eps, e2, img, dev = rd.eps, rd.eps_pow(2), ri.images, _dev
    out = {}
    for suf in ("1", "2"):
        K, L = img["K" + suf], img["L" + suf]
        E, F = img["E" + suf], img["F" + suf]
        Linv = np.linalg.inv(L)
        out["KL" + suf] = dev(K @ L - L @ K)
        out["KE" + suf] = dev(K @ E - e2 * E @ K)
        out["KF" + suf] = dev(K @ F - F @ K / e2)
        out["LE" + suf] = dev(L @ E - e2 * E @ L)
        out["LF" + suf] = dev(L @ F - F @ L / e2)
        out["EF" + suf] = dev(E @ F - F @ E - (eps - 1 / eps) * (K - Linv))
    # the two slots commute elementwise
    for a in ("K1", "L1", "E1", "F1"):
        for b in ("K2", "L2", "E2", "F2"):
            out[a + b] = dev(img[a] @ img[b] - img[b] @ img[a])
    return out


def sigma_delta_residuals(ri: RImages):
    """Residuals of R(Delta(u)) = flip Delta(u) on the four generators."""
    slot = dict(zip(RImages.SLOTS, braiding._pair_stack(*ri.pair)))
    img, dev = ri.images, _dev
    return {
        "K": dev(img["K1"] @ img["K2"] - slot["K1"] @ slot["K2"]),
        "L": dev(img["L1"] @ img["L2"] - slot["L1"] @ slot["L2"]),
        "E": dev(img["E1"] @ img["K2"] + img["E2"]
                 - (slot["K1"] @ slot["E2"] + slot["E1"])),
        "F": dev(img["F1"] + np.linalg.inv(img["L1"]) @ img["F2"]
                 - (slot["F2"] + slot["F1"] @ np.linalg.inv(slot["L2"])))}
