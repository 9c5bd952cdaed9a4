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

The solve is graded by weight and transported along E1.  K is diagonal
in every cyclic irrep and R(Delta K) = flip Delta K, so total K = K1 K2 is
diagonal on both sides and M maps each source weight space to the equal
target one.  Distinct weights differ by a power of eps^2, a relative
distance of at least 2 sin(pi/ell), while equal ones agree to rounding:
weights within WEIGHT_RTOL are equal, weights at least sin(pi/ell) apart
are distinct, and a pair in between, like a source total K that is not
diagonal, raises WeightGrading.  E1 moves each weight by eps^2 and is
invertible (E^ell acts by beta != 0), so M = T_E1 M S_E1^-1 is fixed by
its block on one weight class.  Both E1 slots are monomial, so the ell^2
matrices X_c = sum_k T_E1^k e_c S_E1^-k, c an entry of the first class,
have disjoint supports, one entry in each class: normalized, they are an
orthonormal basis of the E1 equation's solutions, and the system
X_c S_w - T_w X_c is 8 ell^3 x ell^2 (216 x 9 at ell = 3, 1000 x 25 at
ell = 5).  Its singular values interlace those on all ell^3 graded
entries: the second smallest only grows and the largest only shrinks, so
a block of nullity one stays one.  An S_E1 whose entry moduli spread
beyond COND_LIMIT raises SingularM.
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

#: Condition number above which a series factor N, an intertwiner M or an
#: E1 source slot counts as singular.  Scale-free: M has unit norm when
#: solved, so its determinant shrinks like (1/ell^2)^(ell^2) and says
#: nothing by itself.
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
    """The intertwiner M, or the E1 slot it is transported by, is not
    invertible."""


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
    eye_a, eye_b = (np.eye(r.dim, dtype=complex) for r in (ra, rb))
    out = {name + "1": _kron(m, eye_b) for name, m in ra.matrices().items()}
    out.update((name + "2", _kron(eye_a, m))
               for name, m in rb.matrices().items())
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
    slot, img, dev = _pair_eval(*ri.pair), ri.images, _dev
    return {
        "K": dev(img["K1"] @ img["K2"] - slot["K1"] @ slot["K2"]),
        "L": dev(img["L1"] @ img["L2"] - slot["L1"] @ slot["L2"]),
        "E": dev(img["E1"] @ img["K2"] + img["E2"]
                 - (slot["K1"] @ slot["E2"] + slot["E1"])),
        "F": dev(img["F1"] + np.linalg.inv(img["L1"]) @ img["F2"]
                 - (slot["F2"] + slot["F1"] @ np.linalg.inv(slot["L2"])))}


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

    expected = {gen + suffix: val for suffix, ch in (("1", cl), ("2", cr))
                for gen, val in coords(ch).items()}
    ell2 = rd.ell ** 2
    report = {}
    for slotname, m in ri.images.items():
        p = np.linalg.matrix_power(m, rd.ell)
        scalar = np.trace(p) / ell2
        off = float(np.max(np.abs(p - scalar * np.eye(ell2))))
        report[slotname] = {"scalar": scalar, "off_scalar": off,
                            "deviation": abs(scalar - expected[slotname])}
    report.update({"max_" + key: max(v[key] for v in report.values())
                   for key in ("off_scalar", "deviation")})
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
    m = m / np.linalg.det(m) ** (1.0 / dim)
    flat = np.abs(m).ravel()
    pivot = m.ravel()[np.argmax(flat > flat.max() - 1e-9 * flat.max())]
    roots = np.exp(2j * np.pi * np.arange(dim) / dim)
    keys = [(z.real, z.imag) for z in np.round(pivot * roots, 9).tolist()]
    return m * roots[keys.index(max(keys))]


def _stack(slots):
    """A slot dict as one (8, dim, dim) array in RImages.SLOTS order."""
    return np.stack([slots[w] for w in RImages.SLOTS])


_K1, _K2, _E1 = (RImages.SLOTS.index(w) for w in ("K1", "K2", "E1"))


def _total_weights(slots):
    """The diagonal of total K = K1 K2, which must be diagonal."""
    kk = slots[_K1] @ slots[_K2]
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


def _solve_intertwiner(source, target, rel_tol=1e-8):
    """The nullspace of M S_w - T_w M over the stacked slots, on the basis
    X_c of the module docstring.  Column i of T_E1 holds its one entry
    tv[i] in row tr[i] (S_E1: sv, sr), and X_c holds x[k, c] at (ii[k, c],
    jj[k, c]).  Row (p, q) meets step kt[p] of X_c S_w and step ks[q] of
    T_w X_c: the steps in the weight classes of p and of q."""
    dim = source.shape[1]
    ell = math.isqrt(dim)
    mask = _weight_mask(_total_weights(target), _total_weights(source))
    if not mask.any():
        raise NoIntertwiner("no target weight matches a source weight")
    tr, sr = (np.argmax(a[_E1] != 0, axis=0) for a in (target, source))
    tv, sv = target[_E1, tr, range(dim)], source[_E1, sr, range(dim)]
    if np.max(np.abs(sv)) > COND_LIMIT * np.min(np.abs(sv)):
        raise SingularM("E1 slot of the source is singular")
    i0, j0 = np.argwhere(mask)[0]
    first = np.nonzero(np.outer(mask[:, j0], mask[i0]))
    ii, jj = np.empty((2, ell, len(first[0])), dtype=int)
    ii[0], jj[0] = first
    x = np.ones(ii.shape, dtype=complex)
    for k in range(1, ell):
        ii[k], jj[k] = tr[ii[k - 1]], sr[jj[k - 1]]
        x[k] = x[k - 1] * tv[ii[k - 1]] / sv[jj[k - 1]]
    x /= np.linalg.norm(x, axis=0)
    kt, ks = np.zeros((2, dim), dtype=int)
    kt[ii] = ks[jj] = np.arange(ell)[:, None]
    w, p, q = np.nonzero((mask @ (source != 0)) | ((target != 0) @ mask))
    kp, kq, w, p, q = kt[p], ks[q], w[:, None], p[:, None], q[:, None]
    system = ((ii[kp] == p) * x[kp] * source[w, jj[kp], q]
              - (jj[kq] == q) * x[kq] * target[w, p, ii[kq]])
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    nullity = int(np.sum(svals < rel_tol * svals[0]))
    if nullity == 0:
        raise NoIntertwiner("no intertwiner into these output irreps")
    m = np.zeros((dim, dim), dtype=complex)
    m[ii, jj] = vh[-1].conj() * x
    return m, nullity


def _positive_slots(repx, repy):
    """Source slots P R(w) P of the positive crossing, R in (rho_y, rho_x),
    stacked."""
    ell = repx.rd.ell
    return (_stack(r_images(repy, repx).images)
            .reshape(8, ell, ell, ell, ell).transpose(0, 2, 1, 4, 3)
            .reshape(8, ell * ell, ell * ell))


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
    source, target = _positive_slots(repx, repy), _stack(_pair_eval(*outputs))
    m, nullity = _solve_intertwiner(source, target, rel_tol)
    if nullity > 1:
        raise AmbiguousIntertwiner("solution space has dimension %d" % nullity)
    return _normalize(m), nullity, source, target


def _residual(m, source, target):
    """max_w |M S_w - T_w M| over the eight stacked slots."""
    return float(np.max(np.abs(m @ source - target @ m)))


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
