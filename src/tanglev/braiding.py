"""Colored braiding operators.

The braiding automorphism R of the doubled algebra acts on generator
slots as

    1 (x) K -> (1 (x) K) N^-1,      N = 1 - eps K^-1 E (x) F L,
    1 (x) L -> (1 (x) L) N^-1,
    E (x) 1 -> E (x) L,
    1 (x) F -> K^-1 (x) F,

and is determined on the remaining slots by R(Delta(u)) = flip(Delta(u)).
(The sign in N is forced: with a plus sign the eight images fail the
defining algebra relations, so no automorphism exists.)

On central ell-th powers R realizes the set-theoretic Yang-Baxter data
of the factorizable group: evaluating the images in the pair
(rho_y, rho_x) makes the ell-th powers of slot-1 images act by the
coordinates of x_L(x, y) and slot-2 by those of x_R(x, y), under the
identification

    K^ell -> alpha,  E^ell -> beta,  L^ell -> a,  F^ell -> -b a^-1

of central characters with Borel coordinates (the sign on F^ell is the
unique choice compatible with the minus sign in N; both twisted
identifications are Hopf homomorphisms to functions on the group).

A colored positive crossing V_x (x) V_y -> V_{x_L} (x) V_{x_R} is the
twisted intertwiner M solving

    M (P R(w) P) = (rho_{x_L} (x) rho_{x_R})(w) M

for all eight generator slots w, with R(w) evaluated in (rho_y, rho_x)
and P the tensor flip.  Its output branches are not searched for: K L^-1
and c = E F + K eps^-1 + eps L^-1 act by scalars on each source slot,
and only the irreps with those scalars can be reached, so each crossing
is one nullspace solve.  The negative crossing solves the same equation
with source slots R^-1(flip w), evaluated in its own input pair.

The solve is graded by weight.  K is diagonal in every cyclic irrep and
R(Delta K) = flip Delta K, so total K = K1 K2 is diagonal on source and
target alike, and M can only map a weight space of the source to the
equal weight space of the target: ell^3 unknowns instead of ell^4.
Distinct weights differ by a power of eps^2, a relative distance of at
least 2 sin(pi/ell), while equal ones agree to rounding (about 1e-15):
weights within WEIGHT_RTOL are equal, weights at least sin(pi/ell) apart
are distinct, and a pair in between, like a source total K that is not
diagonal, raises WeightGrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import factgroup
from .factgroup import Factorization, Mat2
from .uqalgebra import (CentralCharacter, CyclicRep, NonGenericCharacter,
                        RootData, build_irrep, central_values, is_generic)

NORMALIZATION_VERSION = "det1-phase-1"

#: Condition number above which a series factor N or an intertwiner M
#: counts as singular.  Scale-free: M has unit norm when solved, so its
#: determinant shrinks like (1/ell^2)^(ell^2) and says nothing by itself.
COND_LIMIT = 1e12

#: Relative distance below which two weights of total K count as equal.
#: Distinct weights sit at least 2 sin(pi/ell) apart; rounding puts equal
#: ones about 1e-15 apart.
WEIGHT_RTOL = 1e-8


class SingularN(ValueError):
    """The series factor N is not invertible for this pair."""


class NoIntertwiner(ValueError):
    """Empty solution space under the attempted branch choice."""


class AmbiguousIntertwiner(ValueError):
    """Solution space of dimension > 1; the pair is not generic enough."""


class SingularM(ValueError):
    pass


class WeightGrading(ValueError):
    """Total K is not diagonal on the source, or a source and a target
    weight are neither equal nor separated."""


#: What a crossing solve raises when the crossing has no usable block.
CROSSING_ERRORS = (NoIntertwiner, AmbiguousIntertwiner, SingularM, SingularN,
                   WeightGrading, NonGenericCharacter)


def group_to_char(g: Mat2) -> CentralCharacter:
    """The central character of a group-colored strand (twisted on F^ell)."""
    f = factgroup.factorize(g)
    alpha, beta, a, b = (complex(v) for v in f.coords())
    return CentralCharacter(alpha, beta, a, -b)


def char_to_group(char: CentralCharacter) -> Mat2:
    """Inverse of group_to_char."""
    f = Factorization(complex(char.alpha), complex(char.beta),
                      complex(char.a), -complex(char.b))
    return f.assemble()


def target_chars(x: CentralCharacter, y: CentralCharacter):
    """Characters (x_L, x_R) of the positive-crossing outputs."""
    gl, gr = factgroup.xlr(char_to_group(x), char_to_group(y))
    return group_to_char(gl), group_to_char(gr)


@dataclass(frozen=True)
class RImages:
    """Generator images of R evaluated in a fixed pair of irreps."""

    pair: tuple  # (rep_first, rep_second)
    images: dict = field(repr=False)  # slot -> ell^2 x ell^2 matrix

    SLOTS = ("K1", "L1", "E1", "F1", "K2", "L2", "E2", "F2")


def _pair_eval(ra: CyclicRep, rb: CyclicRep):
    """Evaluations of the eight generator slots in V_a (x) V_b."""
    eye_a = np.eye(ra.dim, dtype=complex)
    eye_b = np.eye(rb.dim, dtype=complex)
    out = {}
    for name, m in ra.matrices().items():
        out[name + "1"] = np.kron(m, eye_b)
    for name, m in rb.matrices().items():
        out[name + "2"] = np.kron(eye_a, m)
    return out


def r_images(rep_a: CyclicRep, rep_b: CyclicRep) -> RImages:
    """Evaluate the braiding automorphism in the pair V_a (x) V_b."""
    rd = rep_a.rd
    slot = _pair_eval(rep_a, rep_b)
    ell2 = rd.ell * rep_b.dim
    eye = np.eye(ell2, dtype=complex)
    kinv_e = np.linalg.inv(rep_a.Kmat) @ rep_a.Emat
    f_l = rep_b.Fmat @ rep_b.Lmat
    n_mat = eye - rd.eps * np.kron(kinv_e, f_l)
    if np.linalg.cond(n_mat) > COND_LIMIT:
        raise SingularN("series factor N numerically singular")
    n_inv = np.linalg.inv(n_mat)

    img = {}
    img["K2"] = slot["K2"] @ n_inv
    img["L2"] = slot["L2"] @ n_inv
    img["E1"] = np.kron(rep_a.Emat, rep_b.Lmat)
    img["F2"] = np.kron(np.linalg.inv(rep_a.Kmat), rep_b.Fmat)
    # the rest from R(Delta(u)) = flip Delta(u)
    img["K1"] = slot["K1"] @ slot["K2"] @ np.linalg.inv(img["K2"])
    img["L1"] = slot["L1"] @ slot["L2"] @ np.linalg.inv(img["L2"])
    img["E2"] = (slot["K1"] @ slot["E2"] + slot["E1"]) - img["E1"] @ img["K2"]
    img["F1"] = (slot["F2"] + slot["F1"] @ np.linalg.inv(slot["L2"])) \
        - np.linalg.inv(img["L1"]) @ img["F2"]
    return RImages((rep_a, rep_b), img)


def r_inverse_images(rep_c: CyclicRep, rep_d: CyclicRep) -> RImages:
    """Evaluate the inverse automorphism R^-1 in the pair V_c (x) V_d.

    R^-1(N) = 1 - eps E (x) F, so 1 (x) K -> (1 (x) K)(1 - eps E (x) F) and
    likewise for L; the rest follows from R(E (x) 1) = E (x) L,
    R(1 (x) F) = K^-1 (x) F and R^-1(flip Delta(u)) = Delta(u).
    """
    rd = rep_c.rd
    slot = _pair_eval(rep_c, rep_d)
    eye = np.eye(rd.ell * rep_d.dim, dtype=complex)
    n_mat = eye - rd.eps * slot["E1"] @ slot["F2"]
    if np.linalg.cond(n_mat) > COND_LIMIT:
        raise SingularN("series factor R^-1(N) numerically singular")
    inv = np.linalg.inv

    img = {}
    img["K2"] = slot["K2"] @ n_mat
    img["L2"] = slot["L2"] @ n_mat
    img["K1"] = slot["K1"] @ slot["K2"] @ inv(img["K2"])
    img["L1"] = slot["L1"] @ slot["L2"] @ inv(img["L2"])
    img["E1"] = slot["E1"] @ inv(img["L2"])
    img["F2"] = img["K1"] @ slot["F2"]
    img["E2"] = inv(img["K1"]) @ (slot["E1"] @ slot["K2"] + slot["E2"]
                                  - img["E1"])
    img["F1"] = (slot["F1"] + inv(slot["L1"]) @ slot["F2"] - img["F2"]) \
        @ img["L2"]
    return RImages((rep_c, rep_d), img)


def automorphism_residuals(ri: RImages):
    """Residuals of the defining algebra relations among the image matrices."""
    rd = ri.pair[0].rd
    eps = rd.eps
    e2 = rd.eps_pow(2)
    img = ri.images

    def dev(m):
        return float(np.max(np.abs(m)))

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
    slot = _pair_eval(*ri.pair)
    img = ri.images

    def dev(m):
        return float(np.max(np.abs(m)))

    out = {}
    out["K"] = dev(img["K1"] @ img["K2"] - slot["K1"] @ slot["K2"])
    out["L"] = dev(img["L1"] @ img["L2"] - slot["L1"] @ slot["L2"])
    out["E"] = dev(img["E1"] @ img["K2"] + img["E2"]
                   - (slot["K1"] @ slot["E2"] + slot["E1"]))
    out["F"] = dev(img["F1"] + np.linalg.inv(img["L1"]) @ img["F2"]
                   - (slot["F2"] + slot["F1"] @ np.linalg.inv(slot["L2"])))
    return out


def z0_pullback_check(x: Mat2, y: Mat2, rd: RootData):
    """Scalar actions of the eight ell-th-power images vs the group map.

    The images are evaluated in the pair (rho_y, rho_x); the ell-th power
    of each slot must be a scalar matching the coordinates of
    b(x, y) = (x_L(x, y), x_R(x, y)) coordinate-wise.
    """
    rep_a = build_irrep(group_to_char(y), (0, 0), rd)
    rep_b = build_irrep(group_to_char(x), (0, 0), rd)
    ri = r_images(rep_a, rep_b)
    gl, gr = factgroup.xlr(x, y)
    cl, cr = group_to_char(gl), group_to_char(gr)

    def coords(ch):
        return {"K": complex(ch.alpha), "E": complex(ch.beta),
                "L": complex(ch.a), "F": complex(ch.f_ell())}

    expected = {}
    for gen, val in coords(cl).items():
        expected[gen + "1"] = val
    for gen, val in coords(cr).items():
        expected[gen + "2"] = val
    ell2 = rd.ell ** 2
    report = {}
    for slotname, m in ri.images.items():
        p = np.linalg.matrix_power(m, rd.ell)
        scalar = np.trace(p) / ell2
        off = float(np.max(np.abs(p - scalar * np.eye(ell2))))
        dev = abs(scalar - expected[slotname])
        report[slotname] = {"scalar": scalar, "off_scalar": off,
                            "deviation": dev}
    report["max_off_scalar"] = max(v["off_scalar"]
                                   for v in report.values()
                                   if isinstance(v, dict))
    report["max_deviation"] = max(v["deviation"]
                                  for v in report.values()
                                  if isinstance(v, dict))
    return report


@dataclass(frozen=True)
class BraidingBlock:
    """The colored positive crossing V_x (x) V_y -> V_{x_L} (x) V_{x_R}."""

    matrix: np.ndarray = field(repr=False)
    source_chars: tuple
    source_branches: tuple
    target_chars: tuple  # (x_L char, x_R char)
    target_branches: tuple  # ((r,s) of x_L rep, (r,s) of x_R rep)
    nullity: int
    residual: float
    branch_retry: bool
    normalization: str = NORMALIZATION_VERSION


def _normalize(m):
    """Determinant one, then the distinguished phase: among the det-1
    rescalings by roots of unity, make the first entry of maximal modulus
    have the lexicographically largest (re, im)."""
    if np.linalg.cond(m) > COND_LIMIT:
        raise SingularM("intertwiner is singular")
    dim = m.shape[0]
    det = np.linalg.det(m)
    m = m / det ** (1.0 / dim)
    flat = np.abs(m).ravel()
    first = int(np.argmax(flat > flat.max() - 1e-9 * flat.max()))
    pivot = m.ravel()[first]
    best = None
    for k in range(dim):
        w = np.exp(2j * np.pi * k / dim)
        z = pivot * w
        key = (round(z.real, 9), round(z.imag, 9))
        if best is None or key > best[0]:
            best = (key, w)
    return m * best[1]


def _total_weights(slots):
    """The diagonal of total K = K1 K2, which must be diagonal."""
    kk = slots["K1"] @ slots["K2"]
    weights = np.diag(kk)
    off = np.max(np.abs(kk - np.diag(weights)))
    if off > WEIGHT_RTOL * np.max(np.abs(weights)):
        raise WeightGrading("total K is not diagonal (off-diagonal %.1e)"
                            % off)
    return weights


def _weight_mask(target_w, source_w):
    """mask[i, j]: target weight i equals source weight j, under the
    margin rule of the module docstring."""
    ell = math.isqrt(len(source_w))
    dist = np.abs(target_w[:, None] / source_w[None, :] - 1)
    mask = dist < WEIGHT_RTOL
    if np.any(~mask & (dist < math.sin(math.pi / ell))):
        raise WeightGrading("weights neither equal nor separated "
                            "(relative distance %.1e)"
                            % np.min(dist[~mask]))
    return mask


def _solve_intertwiner(source_slots, target_slots, rel_tol=1e-8):
    """The nullspace of M S_w - T_w M over the eight slots.

    M commutes total K from source to target, so only entries M[i, j]
    with equal weights are unknowns (ell^3 of the ell^4).  For each slot
    the rows of M S_w - T_w M that these entries reach are built directly:
    with unknowns x_a = M[i_a, j_a], row (p, q) has coefficient
    [i_a = p] S_w[j_a, q] - [j_a = q] T_w[p, i_a].
    """
    dim = source_slots["K1"].shape[0]
    mask = _weight_mask(_total_weights(target_slots),
                        _total_weights(source_slots))
    i, j = np.nonzero(mask)
    if not len(i):
        raise NoIntertwiner("no target weight matches a source weight")
    blocks = []
    for name in RImages.SLOTS:
        s, t = source_slots[name], target_slots[name]
        p, q = np.nonzero((mask @ (s != 0)) | ((t != 0) @ mask))
        p, q = p[:, None], q[:, None]
        blocks.append((p == i) * s[j, q] - (q == j) * t[p, i])
    system = np.vstack(blocks)
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    cutoff = rel_tol * svals[0]
    nullity = int(np.sum(svals < cutoff))
    if nullity == 0:
        raise NoIntertwiner("no solution at this branch choice")
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = vh[-1].conj()
    return m, nullity


def _positive_slots(repx, repy):
    """Source slots P R(w) P of the positive crossing, R in (rho_y, rho_x)."""
    ell = repx.rd.ell
    return {name: m.reshape(ell, ell, ell, ell).transpose(1, 0, 3, 2)
            .reshape(ell * ell, ell * ell)
            for name, m in r_images(repy, repx).images.items()}


def _negative_slots(repc, repd):
    """Source slots R^-1(flip w) of the negative crossing, R^-1 in
    (rho_c, rho_d)."""
    img = r_inverse_images(repc, repd).images
    slots = RImages.SLOTS
    return {w: img[flip_w] for w, flip_w in zip(slots, slots[4:] + slots[:4])}


def branch_of(char, z, c, rd):
    """The label (r, s) of the irrep of `char` on which the central
    elements K L^-1 and c = E F + K eps^-1 + eps L^-1 act by the scalars
    z and c: r from z = kappa/lam, s from c against `central_values`."""
    cands = [central_values(char, rd, r) for r in range(rd.ell)]
    r = min(range(rd.ell), key=lambda r: abs(cands[r][0] / cands[r][1] - z))
    values = cands[r][2]
    s = min(range(rd.ell), key=lambda s: abs(values[s] - c))
    return r, s


def _read_branch(char, slots, suffix, rd):
    """The label of the irrep of `char` whose central scalars are those
    K L^-1 and c act by on the given source slot."""
    k, l, e, f = (slots[g + suffix] for g in "KLEF")
    l_inv = np.linalg.inv(l)
    z = np.trace(k @ l_inv) / k.shape[0]
    c = np.trace(e @ f + k / rd.eps + rd.eps * l_inv) / k.shape[0]
    return branch_of(char, z, c, rd)


def _solve_crossing(sources, chars, slots_of, rel_tol):
    """The unique intertwiner M source_w = target_w M, with source_w =
    slots_of(*sources) and target_w the plain pair evaluation in the
    output irreps of `chars` whose branches are read off the source."""
    rd = sources[0].rd
    if not all(is_generic(ch, rd) for ch in chars):
        raise NonGenericCharacter("crossing output character not generic")
    source_slots = slots_of(*sources)
    reps = [build_irrep(ch, _read_branch(ch, source_slots, suffix, rd), rd)
            for ch, suffix in zip(chars, "12")]
    target_slots = _pair_eval(*reps)
    m, nullity = _solve_intertwiner(source_slots, target_slots, rel_tol)
    if nullity > 1:
        raise AmbiguousIntertwiner("solution space has dimension %d" % nullity)
    m = _normalize(m)
    residual = max(float(np.max(np.abs(
        m @ source_slots[name] - target_slots[name] @ m)))
        for name in RImages.SLOTS)
    labels = tuple(rep.branch for rep in reps)
    return BraidingBlock(
        m, tuple(rep.char for rep in sources),
        tuple(rep.branch for rep in sources), tuple(chars), labels,
        nullity, residual, labels != ((0, 0), (0, 0)))


def solve_braiding(repx: CyclicRep, repy: CyclicRep,
                   rel_tol=1e-8) -> BraidingBlock:
    """Solve for the colored positive-crossing operator.

    The source side of the intertwiner equation is the flip-conjugated
    R-image evaluated in (rho_y, rho_x); the target side is the plain
    pair evaluation in the output irreps, whose branches are derived from
    the source side.
    """
    return _solve_crossing((repx, repy), target_chars(repx.char, repy.char),
                           _positive_slots, rel_tol)


def solve_braiding_inverse(repc: CyclicRep, repd: CyclicRep,
                           rel_tol=1e-8) -> BraidingBlock:
    """Solve for the colored negative crossing V_c (x) V_d -> V_a (x) V_b.

    (a, b) is the group-level preimage of (c, d) under the crossing map.
    The positive block M for sources (a, b) satisfies
    M (rho_a (x) rho_b)(flip R(w)) = (rho_c (x) rho_d)(w) M, so its inverse
    N satisfies N S'_w = (rho_a (x) rho_b)(w) N with S'_w = R^-1(flip w)
    evaluated in (rho_c, rho_d): R^-1 of the slot-swapped generator.
    """
    ga, gb = factgroup.xlr_inverse(char_to_group(repc.char),
                                   char_to_group(repd.char))
    chars = (group_to_char(ga), group_to_char(gb))
    return _solve_crossing((repc, repd), chars, _negative_slots, rel_tol)


def twist_mu(rep: CyclicRep, choice="K") -> np.ndarray:
    """The framing twist on V, implementing the antipode squared.

    Both K and L conjugate every generator to its antipode-squared image;
    the choice is a convention switch recorded by callers.
    """
    if choice == "K":
        return rep.Kmat.copy()
    if choice == "L":
        return rep.Lmat.copy()
    raise ValueError("twist choice must be 'K' or 'L'")
