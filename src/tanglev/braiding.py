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
intertwiner, and the one nullspace solve raises NoIntertwiner.  Only
positive blocks are solved: the negative crossing V_c (x) V_d ->
V_a (x) V_b is the inverse of the normalized positive block out of
(a, b) into (c, d), which its caller forms (`EvalContext`), so a
crossing and its inverse compose to the identity.

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
SingularM.  M maps each weight class of ell source columns into the ell
target rows of equal weight, so it is a direct sum of ell blocks of
ell x ell, and its condition number is read from theirs.

The weights are constant on the classes i1 + i2 = c mod ell of each
side: the target's are kappa_c kappa_d eps^(2c) by construction, and the
source's, the diagonal of K1 K2, are k1 k2 because N N^-1 = 1.  As eps^2
is primitive, either no class matches or target class c matches source
class c - s alone, for one class shift s.  Which entries form the orbits
and the weight classes, and which entries of the slots each row of the
system meets, follows from the grading: T_E1, S_E1, T_F2 and S_F2 move a
point one step along one factor, and slot w moves the class by deg w
(+1 for E, -1 for F, 0 for K and L).  So `_plan` builds those index
arrays once per (ell, s), at most ell plans per ell.  The memo holds
index arrays only, never a colour, character or block: a fresh
EvalContext still solves every crossing, and each solve recomputes its
transport coefficients, its system, its QR and its SVD.

Crossings are solved in batches (`solve_crossings`), each stage once on
the stack of the crossings still alive:
- the R-images and cond(N) (`_source_stacks`), and the target slots;
- the weight rule: the source's total K, which must be diagonal, and the
  target's, read off the diagonals of its K1 and K2 slots, which are
  diagonal by construction;
- per class shift, its plan and the transport coefficients, the
  systems, one batched QR of them, one batched SVD of the ell x ell R
  factors and each block's residual, read off its system (`_solve_group`);
- `_normalized`, which scales each residual as it scales the block.
Every check is made per crossing, in the order above, and a crossing
that fails one leaves the stack with the error it raises when solved
alone; the verdicts of a stage are read off reductions over the stack,
and an error object is built only for a crossing that fails.  A stage
that refuses nothing compacts nothing: its stacks pass on as they are,
and a batch of one class shift takes `_solve_group`'s arrays unchanged.
What depends on ell alone, the identities, N's class indices and the
ell^2-th roots of `_normalized`, is formed once per ell (`_constants`).
At small ell the arrays hold a few hundred entries and a batch costs
mostly its numpy calls, so the solve calls ndarray methods and C-level
functions, not numpy's Python-level wrappers of them; np.linalg alone is
read through this module's `np` at each call, where tests count its
factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import factgroup
from .factgroup import Factorization, Mat2
from .uqalgebra import (CentralCharacter, CyclicRep, NonGenericCharacter,
                        RootData, build_irrep)

NORMALIZATION_VERSION = "det1-phase-2"

#: Condition number above which a series factor N, an intertwiner M or an
#: E1 source slot counts as singular.  Scale-free: M has unit norm when
#: solved, so its determinant shrinks like (1/ell^2)^(ell^2) and says
#: nothing by itself.
COND_LIMIT = 1e12

#: Relative cutoff of the nullspace: a singular value of a crossing's
#: system below NULLITY_RTOL times its largest counts toward the nullity.
NULLITY_RTOL = 1e-8

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
    """np.kron of two matrices, or of two stacks of matrices pairwise (a
    single matrix broadcasts over a stack), as one broadcast product: each
    entry is the same single product, without np.kron's generic
    reshaping."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, m, p, n, q = prod.shape
    return prod.reshape(*lead, m * p, n * q)


def _mats(reps):
    """The K, L, E and F matrices of each rep, stacked (n, 4, ell, ell)."""
    return np.array([rep.gens for rep in reps])


def _pair_stacks(ma, mb):
    """The eight generator slots evaluated in each pair V_a (x) V_b of the
    stacks `ma` and `mb` (`_mats`), M (x) 1 for slot 1 and 1 (x) M for
    slot 2: (n, 8, ell^2, ell^2) in RImages.SLOTS order."""
    eye = _constants(ma.shape[-1]).eye_c
    return np.concatenate((_kron(ma, eye), _kron(eye, mb)), axis=1)


def _singular_blocks(blocks):
    """Whether each matrix whose ell x ell direct-sum blocks are stacked
    in `blocks`, (n, ell, ell, ell), has a condition number above
    COND_LIMIT: its largest singular value over its smallest, each read
    over all of its blocks."""
    svals = np.linalg.svdvals(blocks)
    return (svals[:, :, 0].max(axis=1)
            > COND_LIMIT * svals[:, :, -1].min(axis=1))


def _source_stacks(mx, my, rd):
    """The source slots P R(w) P of the positive crossing out of each pair
    V_x (x) V_y of the stacks `mx` and `my`, R evaluated in (rho_y, rho_x):
    the stacks of the pairs whose N is invertible, (m, 8, ell^2, ell^2),
    and the mask of those pairs.

    The automorphism is evaluated in the flipped basis, where the slot-1
    generators of rho_y act as 1 (x) M_y and the slot-2 ones of rho_x as
    M_x (x) 1; every step below is a product or a diagonal scaling, so
    it commutes with the flip.  N = 1 - A with A = eps (K^-1 E) (x) (F L)
    monomial, and A^ell is the scalar sigma that the two characters fix,
    so N^-1 is sum_{k < ell} A^k / (1 - sigma) in closed form; it is formed
    only for the pairs whose N passes the condition check, which reads
    cond(N) from N's ell blocks of ell x ell."""
    ell = rd.ell
    const = _constants(ell)
    # the powers 1 .. ell of both factors of A, flipped: F L of rho_x
    # first, eps K^-1 E of rho_y second
    kinv_y = 1 / my[:, 0].diagonal(0, 1, 2)
    powers = np.empty((len(mx), ell, 2, ell, ell), dtype=complex)
    powers[:, 0, 0] = mx[:, 3] @ mx[:, 1]
    powers[:, 0, 1] = rd.eps * kinv_y[:, :, None] * my[:, 2]
    for k in range(1, ell):
        powers[:, k] = powers[:, k - 1] @ powers[:, 0]
    n_mat = const.eye - _kron(powers[:, 0, 0], powers[:, 0, 1])
    # A moves point (i1, i2) to (i1 - 1, i2 + 1), so N is the direct sum of
    # its ell blocks on the classes i1 + i2 = c mod ell
    cls = const.classes
    ok = ~_singular_blocks(n_mat[:, cls[:, :, None], cls[:, None, :]])
    if not ok.all():
        mx, my, powers, n_mat = (v[ok] for v in (mx, my, powers, n_mat))
    # A^k is the kron of the k-th factor powers: their sum over k < ell
    # without forming each A^k, and sigma as the (0, 0) entry of A^ell
    series = np.einsum("nkac,nkbd->nabcd", powers[:, :-1, 0],
                       powers[:, :-1, 1]).reshape(n_mat.shape)
    sigma = powers[:, -1, 0, 0, 0] * powers[:, -1, 1, 0, 0]
    n_inv = (const.eye + series) / (1 - sigma)[:, None, None]

    # the pair slots of V_x (x) V_y with slots 1 and 2 swapped: 1 (x) M_y
    # first, M_x (x) 1 second
    eye = const.eye_c
    slot = np.concatenate((_kron(eye, my), _kron(mx, eye)), axis=1)
    # each diagonal as a column (row scaling) and as a row (column scaling)
    k1, l1, k2, l2 = slot[:, [_K1, _L1, _K2, _L2]].diagonal(
        0, 2, 3)[..., None].transpose(1, 0, 2, 3)
    k1r, l1r, k2r, l2r = (v.transpose(0, 2, 1) for v in (k1, l1, k2, l2))
    # the images overwrite the slots, each slot after its last read
    e1 = slot[:, _E1] * l2r  # E (x) L
    f2 = slot[:, _F2] / k1  # K^-1 (x) F
    k2n = k2 * n_inv
    # the rest from R(Delta(u)) = flip Delta(u); K and L are diagonal and
    # img K2^-1 = N K2^-1, likewise for L, so only N needs an inverse
    slot[:, _E2] = (k1 * slot[:, _E2] + slot[:, _E1]) - e1 @ k2n
    slot[:, _F1] = (slot[:, _F2] + slot[:, _F1] / l2r) \
        - (l2 * n_inv / (l1r * l2r)) @ f2
    slot[:, _E1], slot[:, _F2], slot[:, _K2] = e1, f2, k2n
    slot[:, _L2] = l2 * n_inv
    slot[:, _K1] = k1 * k2 * n_mat / k2r
    slot[:, _L1] = l1 * l2 * n_mat / l2r
    return slot, ok


def _flip(stack):
    """Conjugate each slot of a stack (n, 8, ell^2, ell^2) by the tensor
    flip P."""
    n, _, dim, _ = stack.shape
    ell = math.isqrt(dim)
    return (stack.reshape(n, 8, ell, ell, ell, ell)
            .transpose(0, 1, 3, 2, 5, 4).reshape(n, 8, dim, dim))


def _positive_slots(repx, repy):
    """Source slots P R(w) P of the positive crossing, R in (rho_y, rho_x),
    stacked (`_source_stacks`); a singular N raises SingularN."""
    img, ok = _source_stacks(_mats([repx]), _mats([repy]), repx.rd)
    if not ok[0]:
        raise SingularN("series factor N numerically singular")
    return img[0]


def r_images(rep_a: CyclicRep, rep_b: CyclicRep) -> RImages:
    """Evaluate the braiding automorphism in the pair V_a (x) V_b: the
    flip of the source slots of the positive crossing out of
    V_b (x) V_a."""
    return RImages((rep_a, rep_b),
                   _flip(_positive_slots(rep_b, rep_a)[None])[0])


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
    """A colored crossing: the positive V_x (x) V_y -> V_{x_L} (x) V_{x_R},
    or the negative V_c (x) V_d -> V_a (x) V_b as the inverse of the
    positive block out of (a, b), with that block's residual
    (`EvalContext.solve_inverse`)."""

    matrix: np.ndarray = field(repr=False)
    target_branches: tuple  # the labels (r, s) of the two output irreps
    nullity: int
    residual: float


class Crossing(NamedTuple):
    """One crossing block to solve: the positive crossing out of `inputs`
    into `outputs`.  A negative crossing out of (c, d) into (a, b) asks
    for Crossing((a, b), (c, d)) and inverts its block.  Irreps hash by
    identity, so a request keys the context's block memo by its four irrep
    objects."""

    inputs: tuple  # (rep, rep)
    outputs: tuple  # (rep, rep)


def _fail(errors, live, found):
    """Record in `errors`, under its request, each error `found` (keyed by
    a position in `live`), and return the index of the live positions
    without one: all of them, as a slice, when nothing failed."""
    if not found:
        return slice(None)
    keep = np.ones(len(live), dtype=bool)
    for k, exc in found.items():
        errors[live[k]] = exc
        keep[k] = False
    return keep


def _normalized(m):
    """Each block of the stack `m` at determinant one, then at the
    distinguished phase: among the det-1 rescalings by roots of unity, the
    one whose first entry of maximal modulus has the lexicographically
    largest (re, im); and the modulus exp(logdet/dim) that it divided each
    block by.  The determinant is taken as sign and log modulus: a
    unit-norm block of dimension ell^2 has |det| near (1/ell)^(ell^2),
    below the smallest double from ell = 11 on."""
    dim = m.shape[-1]
    sign, logdet = np.linalg.slogdet(m)
    modulus = np.exp(logdet / dim)
    m = m / (sign ** (1.0 / dim) * modulus)[:, None, None]
    flat = m.reshape(len(m), -1)
    size = np.abs(flat)
    top = size.max(axis=1, keepdims=True)
    pivot = flat[np.arange(len(m)),
                 (size > top - 1e-9 * top).argmax(axis=1)]
    roots = _constants(math.isqrt(dim)).roots
    keys = (pivot[:, None] * roots).round(9)
    best = np.lexsort((keys.imag, keys.real))[:, -1]
    return m * roots[best][:, None, None], modulus


def _total_weights(slots):
    """The diagonal of total K = K1 K2 on each stack of `slots`, which
    must be diagonal, and the WeightGrading of each stack where it is not,
    by position."""
    kk = slots[:, _K1] @ slots[:, _K2]
    weights = kk.diagonal(0, 1, 2)
    eye = _constants(math.isqrt(kk.shape[-1])).eye
    off = np.abs(kk - weights[:, :, None] * eye).max(axis=(1, 2))
    bad = off > WEIGHT_RTOL * np.abs(weights).max(axis=1)
    return weights, {k: WeightGrading("total K is not diagonal (off-diagonal "
                                      "%.1e)" % off[k])
                     for k in bad.nonzero()[0]}


def _weight_shifts(target_w, source_w):
    """The class shift s of each crossing's weight mask, mask[i, j] when
    target weight i equals source weight j under the margin rule of the
    module docstring: the class of the target row that matches source
    column 0.  And the error of each crossing that has one, by position:
    WeightGrading for a pair of weights that is neither equal nor
    separated, else NoIntertwiner if no weight matches."""
    ell = math.isqrt(source_w.shape[1])
    dist = np.abs(target_w[:, :, None] / source_w[:, None, :] - 1)
    mask = dist < WEIGHT_RTOL
    between = (~mask & (dist < math.sin(math.pi / ell))).any(axis=(1, 2))
    found = {k: NoIntertwiner("no target weight matches a source weight")
             for k in (~mask.any(axis=(1, 2)) & ~between).nonzero()[0]}
    found.update({k: WeightGrading(
        "weights neither equal nor separated (relative distance %.1e)"
        % dist[k][~mask[k]].min()) for k in between.nonzero()[0]})
    row = mask[:, :, 0].argmax(axis=1)
    return (row // ell + row % ell) % ell, found


class _Plan(NamedTuple):
    """The index arrays of the solves of one class shift at one ell
    (`_build_plan`).  Indices marked flat index the raveled (8, ell^2,
    ell^2) stacks."""

    moves: np.ndarray  # (2, ell^2): flat, S_E1 and S_F2 entry of column j
    num: np.ndarray  # (ell, ell): flat, T_E1 or T_F2 entry of the step
    den: np.ndarray  # (ell, ell, ell): flat, S_E1 or S_F2 entry of orbit o
    entries: np.ndarray  # (ell, ell, ell): into raveled M, orbit o at (a, b)
    x1: np.ndarray  # (R, ell): into the coefficients, X_o[p, j] of row r
    g1: np.ndarray  # (R, ell): flat, the S_w[j, q] it meets
    x2: np.ndarray  # (R, ell): into the coefficients, X_o[i, q] of row r
    g2: np.ndarray  # (R, ell): flat, the T_w[p, i] it meets
    blocks: np.ndarray  # (ell, ell, ell): into raveled M, class c at (i, j)


#: Plans by (ell, class shift): index arrays only, never a colour,
#: character or block, at most ell plans per ell.
_PLANS = {}


class _Constants(NamedTuple):
    """The arrays of a solve that depend on ell alone (`_constants`)."""

    eye: np.ndarray  # (ell^2, ell^2), real: the identity of a pair
    eye_c: np.ndarray  # (ell, ell), complex: the identity of an irrep
    classes: np.ndarray  # (ell, ell): class i1 + i2 = c of N, row i1
    roots: np.ndarray  # (ell^2,): the ell^2-th roots of unity


#: `_Constants` by ell: roots of unity and index arrays only, never a
#: colour, character or block, each formed once and read-only.
_CONSTANTS = {}


def _constants(ell):
    """The `_Constants` of ell, formed once."""
    const = _CONSTANTS.get(ell)
    if const is None:
        dim, i1 = ell * ell, np.arange(ell)
        const = _CONSTANTS[ell] = _Constants(
            np.eye(dim), np.eye(ell, dtype=complex),
            i1 * ell + (np.arange(ell)[:, None] - i1) % ell,
            np.exp(2j * np.pi * np.arange(dim) / dim))
        for arr in const:
            arr.flags.writeable = False
    return const


def _plan(ell, shift):
    """The `_Plan` of the class shift `shift` at ell, built once."""
    plan = _PLANS.get((ell, shift))
    if plan is None:
        plan = _PLANS[ell, shift] = _build_plan(ell, shift)
    return plan


def _build_plan(ell, shift):
    """Orbits of E1 and F2 on the weight-matched entries, and the gather
    indices of the system's rows, by index arithmetic on the grading of
    the module docstring.  Point p = (n1, n2) is index n1 ell + n2.

    Orbit o starts at the entry (0, j_o), j_o the o-th source column of
    class -shift, and holds the images after b F2 and then a E1 steps,
    (path[a, b], src[o, a, b]); the step into (a, b) multiplies the
    coefficient by the slot entries num[a, b] / den[o, a, b].  An orbit
    meets every target row and every source column once, so X_o is
    monomial, and row (w, p, q) of X_o S_w - T_w X_o is
    X_o[p, j] S_w[j, q] - T_w[p, i] X_o[i, q] with j = src_o(p) and
    src_o(i) = q.  The rows are those that weight-matched entries reach,
    every (w, p, q) with class(p) - class(q) = shift + deg w: 8 ell^3.
    """
    dim = ell * ell
    cols = np.arange(dim)
    n1, n2 = np.divmod(cols, ell)
    gap = (n1 + n2)[:, None] - (n1 + n2)  # class(p) - class(q), unreduced
    mask = gap % ell == shift
    # each column's image under T_E1 = E (x) 1 and T_F2 = 1 (x) F, and in
    # the flipped basis under S_E1 = 1 (x) E and S_F2 = F (x) 1
    tr, tf = (n1 + 1) % ell * ell + n2, n1 * ell + (n2 - 1) % ell
    sr, sf = n1 * ell + (n2 + 1) % ell, (n1 - 1) % ell * ell + n2
    a, b = np.ogrid[:ell, :ell]
    path = a * ell + -b % ell
    j1, j2 = (v[:, None, None] for v in np.divmod(np.flatnonzero(mask[0]),
                                                  ell))
    src = (j1 - b) % ell * ell + (j2 + a) % ell
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
    degrees = np.array([0, 0, 1, -1, 0, 0, 1, -1])  # in RImages.SLOTS order
    w, p, q = (v[:, None] for v in np.nonzero(
        (gap - degrees[:, None, None]) % ell == shift))
    orbit = np.arange(ell) * dim
    x1, x2 = orbit + at_row[p], orbit + at_col[:, q[:, 0]].T
    j, i = src.reshape(-1)[x1], path.reshape(-1)[x2 % dim]
    # the weight classes: target rows grouped by the first source column
    # they match, and each class's columns; M restricted to a class is one
    # ell x ell block, and M is the direct sum of its blocks
    rows = np.argsort(np.argmax(mask, axis=1), kind="stable")
    cols = np.nonzero(mask[rows[::ell]])[1]
    return _Plan(
        smoves, num, den, path * dim + src,
        x1, (w * dim + j) * dim + q, x2, (w * dim + p) * dim + i,
        rows.reshape(ell, ell, 1) * dim + cols.reshape(ell, 1, ell))


def _solve_group(plan, source, target):
    """The nullspaces of M S_w - T_w M over the stacked slots of crossings
    of one class shift, on the orthonormal orbit basis X_o of the module
    docstring: `plan`, that shift's `_plan`, gives the indices, and this
    pass computes the transport coefficients, the systems of 8 ell^3 rows
    and ell columns, one batched QR of them and one batched SVD of the
    ell x ell R factors.
    Returns the error of each crossing that has one, by position, and the
    unit-norm blocks M of the others with their residuals
    max_w |M S_w - T_w M|.

    The residual is read off the system.  Row r = (w, p, q) of column o
    is entry (p, q) of X_o S_w - T_w X_o, whole, as X_o is monomial; so
    with M = sum_o v_o X_o, entry (p, q) of M S_w - T_w M is
    (system v)_r.  Every entry of M S_w - T_w M that can be nonzero is a
    row of the system, since the rows are all those that weight-matched
    entries reach, and the others are exact zeros."""
    source, target = source.reshape(len(source), -1), \
        target.reshape(len(target), -1)
    spread = np.abs(source[:, plan.moves])
    singular = spread.max(axis=2) > COND_LIMIT * spread.min(axis=2)
    bad = singular.any(axis=1)
    found = {k: SingularM("%s slot of the source is singular"
                          % ("E1", "F2")[singular[k].argmax()])
             for k in bad.nonzero()[0]}
    live = (~bad).nonzero()[0]
    if not live.size:
        return found, (), ()
    source, target = _take(source, live), _take(target, live)
    x = target[:, plan.num][:, None] / source[:, plan.den]
    x[:, :, 0, 0] = 1
    x[:, :, 0] = x[:, :, 0].cumprod(axis=2)
    x = x.cumprod(axis=2)
    x /= np.linalg.norm(x, axis=(2, 3))[:, :, None, None]
    coef = x.reshape(len(x), -1)
    # gathered along axis 1 and combined in place: the (n, 8 ell^3, ell)
    # temporaries are the largest arrays of the solve
    system = coef.take(plan.x1, axis=1)
    system *= source.take(plan.g1, axis=1)
    other = coef.take(plan.x2, axis=1)
    other *= target.take(plan.g2, axis=1)
    system -= other
    # the R factor has the system's singular values and right singular
    # vectors, without the unused (8 ell^3 x ell) U factor
    _, svals, vh = np.linalg.svd(np.linalg.qr(system, mode="r"))
    nullity = (svals < NULLITY_RTOL * svals[:, :1]).sum(axis=1)
    for k in (nullity != 1).nonzero()[0]:
        found[live[k]] = (
            NoIntertwiner("no intertwiner into these output irreps")
            if nullity[k] == 0 else
            AmbiguousIntertwiner("solution space has dimension %d"
                                 % nullity[k]))
    one = (nullity == 1).nonzero()[0]
    live, x, v = live[one], _take(x, one), _take(vh, one)[:, -1].conj()
    residual = np.abs(_take(system, one) @ v[:, :, None]).max(axis=(1, 2))
    dim = plan.moves.shape[1]
    m = np.zeros((len(x), dim * dim), dtype=complex)
    m[:, plan.entries] = v[:, :, None, None] * x
    # M is the direct sum of its weight-class blocks
    singular = _singular_blocks(m[:, plan.blocks])
    for k in live[singular]:
        found[k] = SingularM("intertwiner is singular")
    regular = (~singular).nonzero()[0]
    return (found, _take(m, regular).reshape(-1, dim, dim),
            _take(residual, regular))


def _solve_intertwiners(source, target):
    """The intertwiner of each crossing out of the source slot stacks into
    the target ones, (n, 8, ell^2, ell^2) each: the weight rule on every
    crossing, then one `_solve_group` pass for each class shift.  Returns
    the error of each crossing that has one, by index, and the unit-norm
    blocks of the others with their residuals (`_solve_group`), in
    crossing order."""
    errors = {}
    live = np.arange(len(source))
    source_w, found = _total_weights(source)
    live = live[_fail(errors, live, found)]
    # a target pair's total K is K_a (x) K_b, diagonal by construction
    diag = _take(target, live)[:, [_K1, _K2]].diagonal(0, 2, 3)
    target_w = diag[:, 0] * diag[:, 1]
    shifts, found = _weight_shifts(target_w, _take(source_w, live))
    keep = _fail(errors, live, found)
    live, shifts = live[keep], shifts[keep]
    ell = math.isqrt(source.shape[-1])
    solved = {}
    for shift in set(shifts.tolist()):
        members = live[shifts == shift]
        found, m, residual = _solve_group(_plan(ell, shift),
                                          _take(source, members),
                                          _take(target, members))
        if len(members) == len(live):  # one shift: already in crossing order
            _fail(errors, members, found)
            return errors, m, residual
        solved.update(zip(members[_fail(errors, members, found)],
                          zip(m, residual)))
    order = sorted(solved)
    return (errors, np.array([solved[i][0] for i in order]),
            np.array([solved[i][1] for i in order]))


def _take(stack, idx):
    """stack[idx] for an increasing index array `idx`, without a copy when
    it takes every entry."""
    return stack if len(idx) == len(stack) else stack[idx]


def solve_crossings(requests):
    """Solve a nonempty batch of distinct positive crossing blocks
    (`Crossing`s, all at one root of unity) in one pass: each stage runs
    once on the stack of the requests still alive.  Returns, in request
    order, each request's BraidingBlock or the error that it raises when
    solved alone, with that error's type and message.

    A request that fails a check leaves the stack before the next stage,
    so it changes nothing in the others.  Equal requests are each solved:
    the one caller, `EvalContext._lookup`, passes distinct ones."""
    out = [None] * len(requests)
    # the batch's irreps in one stack: every x, every y, every c, every d
    rd = requests[0].inputs[0].rd
    sides = zip(*(req.inputs + req.outputs for req in requests))
    mx, my, mc, md = _mats([rep for side in sides for rep in side]).reshape(
        4, len(requests), 4, rd.ell, rd.ell)
    source, ok = _source_stacks(mx, my, rd)
    live = np.arange(len(requests))
    live = live[_fail(out, live, {
        k: SingularN("series factor N numerically singular")
        for k in (~ok).nonzero()[0]})]
    if not live.size:
        return out
    target = _pair_stacks(_take(mc, live), _take(md, live))
    errors, m, residual = _solve_intertwiners(source, target)
    live = live[_fail(out, live, errors)]
    if not live.size:
        return out
    m, modulus = _normalized(m)
    for i, block, res in zip(live, m, residual / modulus):
        labels = tuple(rep.branch for rep in requests[i].outputs)
        out[i] = BraidingBlock(block, labels, 1, float(res))
    return out
