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

The solve is graded by weight and transported along E1 and F2.  K is
diagonal in every cyclic irrep and R(Delta K) = flip Delta K, so total
K = K1 K2 is diagonal on both sides and M maps each source weight space
to the equal target one.  Distinct weights differ by a power of eps^2, a
relative distance of at least 2 sin(pi/ell), while equal ones agree to
rounding: weights within WEIGHT_RTOL are equal, weights at least
sin(pi/ell) apart are distinct, and a pair in between, like a source
total K that is not diagonal, raises WeightGrading.  E and F are
invertible on a cyclic irrep (E^ell acts by beta, F^ell by b/a, both
nonzero), so every intertwiner satisfies M = T_w M S_w^-1 for w = E1
and w = F2, whose slots are monomial on both sides.  The two transports
commute and move the ell^3 weight-matched entries in ell orbits of
ell^2 entries, one entry in each target row and each source column.
Normalized, the monomial matrices X_o = sum_{a,b} T_E1^a T_F2^b e_o
S_F2^-b S_E1^-a, e_o an entry of orbit o, are an orthonormal basis that
holds every intertwiner, and the system X_o S_w - T_w X_o is
8 ell^3 x ell (216 x 3 at ell = 3, 1000 x 5 at ell = 5).  Its singular
values interlace those on all ell^3 graded entries: the second smallest
only grows and the largest only shrinks, so a block of nullity one stays
one.  An S_E1 or S_F2 whose entry moduli spread beyond COND_LIMIT raises
SingularM.

Which entries form the orbits, and which entries of the slots each row
of the system meets, depends only on the weight mask and on the zero
patterns of the two stacks, so `_index_plan` builds those index arrays
once per pattern and memoizes them (at most PLAN_CAP).  The memo holds
index arrays only, never a colour, character or block: a fresh
EvalContext still solves every crossing, and each solve recomputes its
transport coefficients, its system and its SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    stack: np.ndarray = field(repr=False)  # (8, ell^2, ell^2), SLOTS order

    SLOTS = ("K1", "L1", "E1", "F1", "K2", "L2", "E2", "F2")

    @property
    def images(self):
        """slot -> ell^2 x ell^2 matrix, views into `stack`."""
        return dict(zip(self.SLOTS, self.stack))


_K1, _L1, _E1, _F1, _K2, _L2, _E2, _F2 = range(len(RImages.SLOTS))


def _kron(a, b):
    """np.kron of two matrices, or of two stacks of matrices pairwise, as
    one broadcast product: each entry is the same single product, without
    np.kron's generic reshaping."""
    *lead, m, n = a.shape
    p, q = b.shape[-2:]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        *lead, m * p, n * q)


def _pair_stack(ra: CyclicRep, rb: CyclicRep):
    """The eight generator slots evaluated in V_a (x) V_b, M (x) 1 for
    slot 1 and 1 (x) M for slot 2, stacked in RImages.SLOTS order."""
    eye = np.eye(ra.dim, dtype=complex)
    return _kron(np.array([ra.Kmat, ra.Lmat, ra.Emat, ra.Fmat] + [eye] * 4),
                 np.array([eye] * 4 + [rb.Kmat, rb.Lmat, rb.Emat, rb.Fmat]))


def r_images(rep_a: CyclicRep, rep_b: CyclicRep) -> RImages:
    """Evaluate the braiding automorphism in the pair V_a (x) V_b.

    N = 1 - A with A = eps (K^-1 E) (x) (F L) monomial, and A^ell is the
    scalar sigma that the two characters fix, so N^-1 is
    sum_{k < ell} A^k / (1 - sigma) in closed form."""
    rd, ell = rep_a.rd, rep_a.rd.ell
    slot = _pair_stack(rep_a, rep_b)
    k1, l1, k2, l2 = (np.diagonal(slot[w]) for w in (_K1, _L1, _K2, _L2))
    # A^1 .. A^ell, from the powers of both factors at once
    kinv_a = 1 / np.diagonal(rep_a.Kmat)
    factors = np.array([rd.eps * kinv_a[:, None] * rep_a.Emat,
                        rep_b.Fmat @ rep_b.Lmat])
    powers = [factors]
    for _ in range(ell - 1):
        powers.append(powers[-1] @ factors)
    powers = np.array(powers)
    a_pow = _kron(powers[:, 0], powers[:, 1])
    eye = np.eye(ell * ell)
    n_mat = eye - a_pow[0]
    if np.linalg.cond(n_mat) > COND_LIMIT:
        raise SingularN("series factor N numerically singular")
    n_inv = (eye + a_pow[:-1].sum(axis=0)) / (1 - a_pow[-1, 0, 0])

    img = np.empty_like(slot)
    img[_K2] = k2[:, None] * n_inv
    img[_L2] = l2[:, None] * n_inv
    img[_E1] = slot[_E1] * l2  # E (x) L
    img[_F2] = slot[_F2] / k1[:, None]  # K^-1 (x) F
    # the rest from R(Delta(u)) = flip Delta(u); K and L are diagonal and
    # img K2^-1 = N K2^-1, likewise for L, so only N needs an inverse
    img[_K1] = (k1 * k2)[:, None] * n_mat / k2
    img[_L1] = (l1 * l2)[:, None] * n_mat / l2
    img[_E2] = (k1[:, None] * slot[_E2] + slot[_E1]) - img[_E1] @ img[_K2]
    img[_F1] = (slot[_F2] + slot[_F1] / l2) \
        - (l2[:, None] * n_inv / (l1 * l2)) @ img[_F2]
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
    slot = dict(zip(RImages.SLOTS, _pair_stack(*ri.pair)))
    img, dev = ri.images, _dev
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
    have the lexicographically largest (re, im).  The determinant is
    taken as sign and log modulus: a unit-norm block of dimension ell^2
    has |det| near (1/ell)^(ell^2), below the smallest double from
    ell = 11 on."""
    if np.linalg.cond(m) > COND_LIMIT:
        raise SingularM("intertwiner is singular")
    dim = m.shape[0]
    sign, logdet = np.linalg.slogdet(m)
    m = m / (sign ** (1.0 / dim) * np.exp(logdet / dim))
    flat = np.abs(m).ravel()
    pivot = m.ravel()[np.argmax(flat > flat.max() - 1e-9 * flat.max())]
    roots = np.exp(2j * np.pi * np.arange(dim) / dim)
    keys = [(z.real, z.imag) for z in np.round(pivot * roots, 9).tolist()]
    return m * roots[keys.index(max(keys))]


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


class _Plan(NamedTuple):
    """The index arrays of one solve (`_build_plan`).  Indices marked flat
    index the raveled (8, ell^2, ell^2) stacks."""

    moves: np.ndarray  # (2, ell^2): flat, S_E1 and S_F2 entry of column j
    num: np.ndarray  # (ell, ell): flat, T_E1 or T_F2 entry of the step
    den: np.ndarray  # (ell, ell, ell): flat, S_E1 or S_F2 entry of orbit o
    entries: np.ndarray  # (ell, ell, ell): into raveled M, orbit o at (a, b)
    x1: np.ndarray  # (R, ell): into the coefficients, X_o[p, j] of row r
    g1: np.ndarray  # (R, ell): flat, the S_w[j, q] it meets
    x2: np.ndarray  # (R, ell): into the coefficients, X_o[i, q] of row r
    g2: np.ndarray  # (R, ell): flat, the T_w[p, i] it meets


#: Plans by (ell^2, packed mask and zero patterns).  It holds index arrays
#: only, never a colour, character or block; beyond PLAN_CAP plans it
#: drops its oldest.  Each benchmark workload meets a single pattern.
_PLANS = {}
PLAN_CAP = 16


def _index_plan(mask, source_nz, target_nz):
    """The plan of a solve on these patterns, built once per pattern."""
    key = (len(mask), np.packbits(np.concatenate(
        (mask, source_nz, target_nz), axis=None)).tobytes())
    plan = _PLANS.get(key)
    if plan is None:
        if len(_PLANS) >= PLAN_CAP:
            del _PLANS[next(iter(_PLANS))]
        plan = _PLANS[key] = _build_plan(mask, source_nz, target_nz)
    return plan


def _build_plan(mask, source_nz, target_nz):
    """Orbits of E1 and F2 on the weight-matched entries, and the gather
    indices of the system's rows.

    Orbit o starts at the entry (i0, j_o) of the first weight class, j_o
    its o-th source column, and holds the images after b F2 and then a E1
    steps, (path[a, b], src[o, a, b]); the step into (a, b) multiplies
    the coefficient by the slot entries num[a, b] / den[o, a, b].  An
    orbit meets every target row and every source column once, so X_o is
    monomial, and row (w, p, q) of X_o S_w - T_w X_o is
    X_o[p, j] S_w[j, q] - T_w[p, i] X_o[i, q] with j = src_o(p) and
    src_o(i) = q.  The rows are those that weight-matched entries reach.
    """
    dim = len(mask)
    ell = math.isqrt(dim)
    cols = np.arange(dim)
    tr, sr, tf, sf = (np.argmax(nz, axis=0) for nz in (
        target_nz[_E1], source_nz[_E1], target_nz[_F2], source_nz[_F2]))
    i0 = np.argmax(mask.any(axis=1))
    path = np.empty((ell, ell), dtype=int)
    src = np.empty((ell, ell, ell), dtype=int)
    path[0, 0], src[:, 0, 0] = i0, np.flatnonzero(mask[i0])
    for b in range(1, ell):
        path[0, b], src[:, 0, b] = tf[path[0, b - 1]], sf[src[:, 0, b - 1]]
    for a in range(1, ell):
        path[a], src[:, a] = tr[path[a - 1]], sr[src[:, a - 1]]
    tmoves, smoves = (np.stack((_E1 * dim + e1, _F2 * dim + f2)) * dim
                      + cols for e1, f2 in ((tr, tf), (sr, sf)))
    num = np.zeros((ell, ell), dtype=int)
    den = np.zeros((ell, ell, ell), dtype=int)
    num[0, 1:] = tmoves[1, path[0, :-1]]  # F2 steps, then E1 steps
    den[:, 0, 1:] = smoves[1, src[:, 0, :-1]]
    num[1:] = tmoves[0, path[:-1]]
    den[:, 1:] = smoves[0, src[:, :-1]]
    # each target row's position in path order, and each source column's
    # in orbit o
    at_row = np.empty(dim, dtype=int)
    at_row[path.ravel()] = cols
    at_col = np.empty((ell, dim), dtype=int)
    np.put_along_axis(at_col, src.reshape(ell, dim), cols[None], axis=1)
    w, p, q = (v[:, None] for v in np.nonzero(
        (mask @ source_nz) | (target_nz @ mask)))
    orbit = np.arange(ell) * dim
    x1, x2 = orbit + at_row[p], orbit + at_col[:, q[:, 0]].T
    j, i = src.reshape(-1)[x1], path.reshape(-1)[x2 % dim]
    return _Plan(
        smoves, num, den, path * dim + src,
        x1, (w * dim + j) * dim + q, x2, (w * dim + p) * dim + i)


def _solve_intertwiner(source, target, rel_tol=1e-8):
    """The nullspace of M S_w - T_w M over the stacked slots, on the
    orthonormal orbit basis X_o of the module docstring: `_index_plan`
    gives the indices, and this pass computes the transport coefficients,
    the system of 8 ell^3 rows and ell columns, and its one SVD."""
    mask = _weight_mask(_total_weights(target), _total_weights(source))
    if not mask.any():
        raise NoIntertwiner("no target weight matches a source weight")
    plan = _index_plan(mask, source != 0, target != 0)
    source, target = source.reshape(-1), target.reshape(-1)
    spread = np.abs(source[plan.moves])
    singular = spread.max(axis=1) > COND_LIMIT * spread.min(axis=1)
    if singular.any():
        raise SingularM("%s slot of the source is singular"
                        % ("E1", "F2")[np.argmax(singular)])
    x = target[plan.num] / source[plan.den]
    x[:, 0, 0] = 1
    x[:, 0] = np.cumprod(x[:, 0], axis=1)
    x = np.cumprod(x, axis=1)
    x /= np.linalg.norm(x, axis=(1, 2))[:, None, None]
    coef = x.reshape(-1)
    system = (coef[plan.x1] * source[plan.g1]
              - coef[plan.x2] * target[plan.g2])
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    nullity = int(np.sum(svals < rel_tol * svals[0]))
    if nullity == 0:
        raise NoIntertwiner("no intertwiner into these output irreps")
    m = np.zeros(len(mask) ** 2, dtype=complex)
    m[plan.entries] = vh[-1].conj()[:, None, None] * x
    return m.reshape(mask.shape), nullity


def _positive_slots(repx, repy):
    """Source slots P R(w) P of the positive crossing, R in (rho_y, rho_x),
    stacked."""
    ell = repx.rd.ell
    return (r_images(repy, repx).stack
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
    source, target = _positive_slots(repx, repy), _pair_stack(*outputs)
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
