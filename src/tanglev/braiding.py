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
and P the tensor flip.  The colouring fixes both sides of a crossing, so
the caller hands the solve its output irreps as well as its inputs, and
the solve labels nothing: an output pair off the strand rule (each
output carries the central scalars of the opposite input) admits no
intertwiner, and the one nullspace solve raises NoIntertwiner.  The
negative crossing V_c (x) V_d -> V_a (x) V_b is the normalized inverse of
the positive block out of (a, b) into (c, d): there is one solve path,
for the positive sign.

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
                        RootData, build_irrep, central_values, principal_root)

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
    """Empty solution space: no intertwiner into the given outputs."""


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


@dataclass(frozen=True)
class RImages:
    """Generator images of R evaluated in a fixed pair of irreps."""

    pair: tuple  # (rep_first, rep_second)
    images: dict = field(repr=False)  # slot -> ell^2 x ell^2 matrix

    SLOTS = ("K1", "L1", "E1", "F1", "K2", "L2", "E2", "F2")


def _kron(a, b):
    """np.kron of two matrices as one broadcast product: each entry is the
    same single product, without np.kron's generic reshaping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _pair_eval(ra: CyclicRep, rb: CyclicRep):
    """Evaluations of the eight generator slots in V_a (x) V_b."""
    eye_a = np.eye(ra.dim, dtype=complex)
    eye_b = np.eye(rb.dim, dtype=complex)
    out = {}
    for name, m in ra.matrices().items():
        out[name + "1"] = _kron(m, eye_b)
    for name, m in rb.matrices().items():
        out[name + "2"] = _kron(eye_a, m)
    return out


def r_images(rep_a: CyclicRep, rep_b: CyclicRep) -> RImages:
    """Evaluate the braiding automorphism in the pair V_a (x) V_b."""
    rd = rep_a.rd
    slot = _pair_eval(rep_a, rep_b)
    k1, k2, l1, l2 = (np.diagonal(slot[g])
                      for g in ("K1", "K2", "L1", "L2"))
    eye = np.eye(rd.ell * rep_b.dim, dtype=complex)
    kinv_a = 1 / np.diagonal(rep_a.Kmat)
    f_l = rep_b.Fmat @ rep_b.Lmat
    n_mat = eye - rd.eps * _kron(kinv_a[:, None] * rep_a.Emat, f_l)
    if np.linalg.cond(n_mat) > COND_LIMIT:
        raise SingularN("series factor N numerically singular")
    n_inv = np.linalg.inv(n_mat)

    img = {}
    img["K2"] = slot["K2"] @ n_inv
    img["L2"] = slot["L2"] @ n_inv
    img["E1"] = _kron(rep_a.Emat, rep_b.Lmat)
    img["F2"] = _kron(np.diag(kinv_a), rep_b.Fmat)
    # the rest from R(Delta(u)) = flip Delta(u); K and L are diagonal and
    # img K2^-1 = N K2^-1, likewise for L, so only N needs a dense inverse
    img["K1"] = (k1 * k2)[:, None] * n_mat / k2
    img["L1"] = (l1 * l2)[:, None] * n_mat / l2
    img["E2"] = (slot["K1"] @ slot["E2"] + slot["E1"]) - img["E1"] @ img["K2"]
    img["F1"] = (slot["F2"] + slot["F1"] / l2) \
        - (l2[:, None] * n_inv / (l1 * l2)) @ img["F2"]
    return RImages((rep_a, rep_b), img)


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
    """A colored crossing: the positive V_x (x) V_y -> V_{x_L} (x) V_{x_R}
    or the negative V_c (x) V_d -> V_a (x) V_b."""

    matrix: np.ndarray = field(repr=False)
    target_branches: tuple  # the labels (r, s) of the two output irreps
    nullity: int
    residual: float
    branch_retry: bool


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
        raise NoIntertwiner("no intertwiner into these output irreps")
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = vh[-1].conj()
    return m, nullity


def _positive_slots(repx, repy):
    """Source slots P R(w) P of the positive crossing, R in (rho_y, rho_x)."""
    ell = repx.rd.ell
    return {name: m.reshape(ell, ell, ell, ell).transpose(1, 0, 3, 2)
            .reshape(ell * ell, ell * ell)
            for name, m in r_images(repy, repx).images.items()}


def branch_of(char, z, c, rd):
    """The label (r, s) of the irrep of `char` on which the central
    elements K L^-1 and c = E F + K eps^-1 + eps L^-1 act by the scalars
    z and c: r from z = kappa/lam, with kappa = alpha^(1/ell) eps^(2r) as
    in `central_values`, and s from c against the values at that r."""
    z0 = principal_root(char.alpha, rd.ell) / principal_root(char.a, rd.ell)
    r = min(range(rd.ell), key=lambda r: abs(z0 * rd.eps_pow(2 * r) - z))
    values = central_values(char, rd, r)[2]
    s = min(range(rd.ell), key=lambda s: abs(values[s] - c))
    return r, s


def _solve_positive(repx, repy, outputs, rel_tol):
    """The normalized positive crossing M out of V_x (x) V_y into the
    irreps `outputs`, its nullity and the two sides (source, target) of
    its equation."""
    source, target = _positive_slots(repx, repy), _pair_eval(*outputs)
    m, nullity = _solve_intertwiner(source, target, rel_tol)
    if nullity > 1:
        raise AmbiguousIntertwiner("solution space has dimension %d" % nullity)
    return _normalize(m), nullity, source, target


def _residual(m, source, target):
    """max_w |M S_w - T_w M| over the eight slots."""
    return max(float(np.max(np.abs(m @ source[w] - target[w] @ m)))
               for w in RImages.SLOTS)


def _block(m, outputs, nullity, residual):
    labels = tuple(rep.branch for rep in outputs)
    return BraidingBlock(m, labels, nullity, residual,
                         labels != ((0, 0), (0, 0)))


def solve_braiding(repx: CyclicRep, repy: CyclicRep, outputs,
                   rel_tol=1e-8) -> BraidingBlock:
    """Solve for the colored positive crossing V_x (x) V_y -> `outputs`.

    The source side of the intertwiner equation is the flip-conjugated
    R-image evaluated in (rho_y, rho_x); the target side is the plain
    pair evaluation in the output irreps.
    """
    m, nullity, source, target = _solve_positive(repx, repy, outputs,
                                                 rel_tol)
    return _block(m, outputs, nullity, _residual(m, source, target))


def solve_braiding_inverse(repc: CyclicRep, repd: CyclicRep, outputs,
                           rel_tol=1e-8) -> BraidingBlock:
    """Solve for the colored negative crossing V_c (x) V_d -> `outputs`.

    With `outputs` = (V_a, V_b), the positive block M out of V_a (x) V_b
    into V_c (x) V_d is solved, and the negative crossing is its inverse
    N = M^-1, normalized; nullity is M's and the residual is
    max_w |N T_w - S_w N| on M's own slots.
    """
    m, nullity, source, target = _solve_positive(*outputs, (repc, repd),
                                                 rel_tol)
    n = _normalize(np.linalg.inv(m))
    return _block(n, outputs, nullity, _residual(n, target, source))
