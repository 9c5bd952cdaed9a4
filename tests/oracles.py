"""Test-side oracles: helpers that only the tests use."""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from tanglev import braiding
from tanglev.braiding import RImages
from tanglev.diagram import Piece
from tanglev.evaluator import ColoredObject, LinearBlock
from tanglev.factgroup import Mat2
from tanglev.uqalgebra import (DEGENERACY_RTOL, CentralCharacter, CyclicRep,
                               NonGenericCharacter, RootData,
                               branch_discriminant, build_irrep,
                               central_values, is_branch_degenerate,
                               is_generic, principal_root)


def to_float(g: Mat2) -> Mat2:
    """g with every entry cast to complex: the float backend."""
    return Mat2(*(complex(v) for v in g.entries()))


def pretty(d) -> str:
    """A diagram in the slice DSL that `diagram.parse` reads."""
    return " ; ".join(" ".join(p.value for p in s) for s in d.slices)


def slice_walk(d):
    """Reference for the piece list and arc starts of `coloring._scan`,
    from a walk of `d.slices` with a bottom and a top column counter per
    level: every piece that is not an identity as (piece, top column,
    bottom arity, id of its first bottom endpoint, id of its first top
    endpoint), and the ids at which an arc may start, in id order: the
    bottom points and the top legs of every piece listed."""
    widths = [len(signs) for signs in d._levels]
    base = [sum(widths[:k]) for k in range(len(widths))]
    pieces, starts = [], list(range(d.bottom_arity))
    for k, row in enumerate(d.slices):
        bcol = tcol = 0
        for p in row:
            if p not in (Piece.ID_UP, Piece.ID_DOWN):
                top = base[k + 1] + tcol
                pieces.append((p, tcol, len(p.bottom), base[k] + bcol, top))
                starts += range(top, top + len(p.top))
            bcol += len(p.bottom)
            tcol += len(p.top)
    return pieces, starts


def branch_of(char, z, c, rd):
    """The label (r, s) of the irrep of `char` on which the central
    elements K L^-1 and c = E F + K eps^-1 + eps L^-1 act by the scalars
    z and c, derived for one arc alone: r from z = kappa/lam against the
    principal roots, as `uqalgebra.k_shift` reads it, and s as the
    nearest of `char`'s own central values at that r.  The reference for
    the planner's strand rule, which computes no central value past a
    strand's first arc."""
    z0 = principal_root(char.alpha, rd.ell) / principal_root(char.a, rd.ell)
    k = round(rd.ell * (cmath.phase(z) - cmath.phase(z0)) / (2 * cmath.pi))
    r = k * (rd.ell + 1) // 2 % rd.ell
    values = central_values(char, rd, r)[2]
    s = min(range(rd.ell), key=lambda s: abs(values[s] - c))
    return r, s


def branch_search(char, z, c, rd):
    """`branch_of` by search: the r in range(ell) whose kappa/lam
    = z0 eps^(2r) lies nearest z, then the s whose central value at that
    r lies nearest c."""
    z0 = principal_root(char.alpha, rd.ell) / principal_root(char.a, rd.ell)
    r = min(range(rd.ell), key=lambda r: abs(z0 * rd.eps_pow(2 * r) - z))
    values = central_values(char, rd, r)[2]
    s = min(range(rd.ell), key=lambda s: abs(values[s] - c))
    return r, s


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


def pair_stack(ra: CyclicRep, rb: CyclicRep):
    """`braiding._pair_stacks` of the one pair V_a (x) V_b."""
    mats = braiding._mats
    return braiding._pair_stacks(mats([ra]), mats([rb]))[0]


def weight_mask(source, target):
    """mask[i, j]: target weight i of one crossing's slot stacks equals its
    source weight j within `braiding.WEIGHT_RTOL`, each weight read off the
    diagonal of total K = K1 K2."""
    source_w, target_w = (np.diagonal(slots[braiding._K1]
                                      @ slots[braiding._K2])
                          for slots in (source, target))
    return np.abs(target_w[:, None] / source_w - 1) < braiding.WEIGHT_RTOL


def pattern_plan(mask, source_nz, target_nz):
    """The index plan of one solve found by search over the weight mask and
    the zero patterns of the two slot stacks: the reference for
    `braiding._build_plan`, which derives it from (ell, class shift).

    Each transport's image of a column is the row of its nonzero entry,
    the orbits start at the first target row that matches a source column,
    and the system's rows are the (w, p, q) that weight-matched entries
    reach through a nonzero slot entry."""
    dim = len(mask)
    ell = math.isqrt(dim)
    e1, f2 = braiding._E1, braiding._F2
    cols = np.arange(dim)
    tr, sr, tf, sf = (np.argmax(nz, axis=0) for nz in (
        target_nz[e1], source_nz[e1], target_nz[f2], source_nz[f2]))
    i0 = np.argmax(mask.any(axis=1))
    path = np.empty((ell, ell), dtype=int)
    src = np.empty((ell, ell, ell), dtype=int)
    path[0, 0], src[:, 0, 0] = i0, np.flatnonzero(mask[i0])
    for b in range(1, ell):
        path[0, b], src[:, 0, b] = tf[path[0, b - 1]], sf[src[:, 0, b - 1]]
    for a in range(1, ell):
        path[a], src[:, a] = tr[path[a - 1]], sr[src[:, a - 1]]
    tmoves, smoves = (np.stack((e1 * dim + e, f2 * dim + f)) * dim + cols
                      for e, f in ((tr, tf), (sr, sf)))
    num = np.zeros((ell, ell), dtype=int)
    den = np.zeros((ell, ell, ell), dtype=int)
    num[0, 1:] = tmoves[1, path[0, :-1]]
    den[:, 0, 1:] = smoves[1, src[:, 0, :-1]]
    num[1:] = tmoves[0, path[:-1]]
    den[:, 1:] = smoves[0, src[:, :-1]]
    at_row = np.empty(dim, dtype=int)
    at_row[path.ravel()] = cols
    at_col = np.empty((ell, dim), dtype=int)
    np.put_along_axis(at_col, src.reshape(ell, dim), cols[None], axis=1)
    w, p, q = (v[:, None] for v in np.nonzero(
        (mask @ source_nz) | (target_nz @ mask)))
    orbit = np.arange(ell) * dim
    x1, x2 = orbit + at_row[p], orbit + at_col[:, q[:, 0]].T
    j, i = src.reshape(-1)[x1], path.reshape(-1)[x2 % dim]
    rows = np.argsort(np.argmax(mask, axis=1), kind="stable")
    cols = np.nonzero(mask[rows[::ell]])[1]
    return braiding._Plan(
        smoves, num, den, path * dim + src,
        x1, (w * dim + j) * dim + q, x2, (w * dim + p) * dim + i,
        rows.reshape(ell, ell, 1) * dim + cols.reshape(ell, 1, ell))


def _dev(m):
    return float(np.max(np.abs(m)))


def dense_residual(m, left, right):
    """The residual of a crossing block M by its definition: the largest
    |M L_w - R_w M| over the eight slots of the stacks `left` and `right`,
    (8, ell^2, ell^2) each, one dense product per slot and side."""
    return max(_dev(m @ lw - rw @ m) for lw, rw in zip(left, right))


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
    slot = dict(zip(RImages.SLOTS, pair_stack(*ri.pair)))
    img, dev = ri.images, _dev
    return {
        "K": dev(img["K1"] @ img["K2"] - slot["K1"] @ slot["K2"]),
        "L": dev(img["L1"] @ img["L2"] - slot["L1"] @ slot["L2"]),
        "E": dev(img["E1"] @ img["K2"] + img["E2"]
                 - (slot["K1"] @ slot["E2"] + slot["E1"])),
        "F": dev(img["F1"] + np.linalg.inv(img["L1"]) @ img["F2"]
                 - (slot["F2"] + slot["F1"] @ np.linalg.inv(slot["L2"])))}


# The quantum algebra A_x as a word algebra, its Hopf structure and its
# trace pairing: the PBW oracle that the irreps are checked against.

class BranchDegenerate(ValueError):
    """Repeated roots of the central-element polynomial: fewer than ell^2
    distinct irreps."""


def _require_semisimple(char: CentralCharacter, rd: RootData):
    """Refuse characters where the ell^2 branch labels are not ell^2
    distinct irreps, so that sums over labels would count one twice."""
    if not is_generic(char, rd):
        raise NonGenericCharacter("character fails the genericity test")
    if is_branch_degenerate(char):
        raise BranchDegenerate(
            "branch discriminant %.1e below %.0e"
            % (branch_discriminant(char), DEGENERACY_RTOL))


def all_irreps(char: CentralCharacter, rd: RootData):
    """The full list of ell^2 branch irreps of A_x."""
    _require_semisimple(char, rd)
    return [build_irrep(char, (r, s), rd)
            for r in range(rd.ell) for s in range(rd.ell)]


# PBW algebra

_GENS = ("E", "F", "K", "L")


@dataclass
class AlgebraElement:
    """An element of A_x in the PBW basis E^i F^j K^m L^n."""

    rd: RootData
    char: CentralCharacter
    coeffs: dict  # (i, j, m, n) -> complex

    def copy(self):
        return AlgebraElement(self.rd, self.char, dict(self.coeffs))

    def trim(self, tol=1e-14):
        self.coeffs = {k: v for k, v in self.coeffs.items() if abs(v) > tol}
        return self

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return AlgebraElement(self.rd, self.char, out).trim()

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, z):
        return AlgebraElement(
            self.rd, self.char, {k: z * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        return pbw_multiply(self, other)


def unit(rd, char):
    return AlgebraElement(rd, char, {(0, 0, 0, 0): 1.0 + 0j})


def generator(name, rd, char):
    i = _GENS.index(name)
    key = tuple(1 if k == i else 0 for k in range(4))
    return AlgebraElement(rd, char, {key: 1.0 + 0j})


def _zero(rd, char):
    return AlgebraElement(rd, char, {})


def _lmul_E(elem):
    rd, char = elem.rd, elem.char
    ell = rd.ell
    out = {}
    for (i, j, m, n), v in elem.coeffs.items():
        if i + 1 < ell:
            key, coef = (i + 1, j, m, n), v
        else:
            key, coef = (0, j, m, n), v * char.beta
        out[key] = out.get(key, 0j) + coef
    return AlgebraElement(rd, char, out)


def _lmul_KL(elem, gen, power):
    """Left product by K^power or L^power (gen "K" or "L"), power >= -1."""
    rd, char = elem.rd, elem.char
    ell = rd.ell
    slot = _GENS.index(gen)
    wrap = char.alpha if gen == "K" else char.a
    out = {}
    for key, v in elem.coeffs.items():
        coef = v * rd.eps_pow(2 * power * (key[0] - key[1]))
        e = key[slot] + power
        if e >= ell:
            e -= ell
            coef *= wrap
        elif e < 0:
            e += ell
            coef /= wrap
        key = key[:slot] + (e,) + key[slot + 1:]
        out[key] = out.get(key, 0j) + coef
    return AlgebraElement(rd, char, out)


def _lmul_F(elem):
    # F E = E F - (eps - eps^-1)(K - L^-1); recurse on the E-degree.
    rd, char = elem.rd, elem.char
    ell = rd.ell
    eps = rd.eps
    out = _zero(rd, char)
    plain = {}
    for key, v in elem.coeffs.items():
        i, j, m, n = key
        if i == 0:
            if j + 1 < ell:
                k2, coef = (0, j + 1, m, n), v
            else:
                k2, coef = (0, 0, m, n), v * char.f_ell()
            plain[k2] = plain.get(k2, 0j) + coef
        else:
            mono = AlgebraElement(rd, char, {(i - 1, j, m, n): v})
            out = out + _lmul_E(_lmul_F(mono))
            corr = _lmul_KL(mono, "K", 1) - _lmul_KL(mono, "L", -1)
            out = out + corr.scale(-(eps - 1 / eps))
    return out + AlgebraElement(rd, char, plain)


def pbw_multiply(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Normal-ordered product in A_x."""
    if u.rd.ell != v.rd.ell:
        raise ValueError("mixed root data")
    rd, char = u.rd, u.char
    total = _zero(rd, char)
    for (i, j, m, n), cu in u.coeffs.items():
        term = _lmul_KL(v, "L", n) if n else v
        if m:
            term = _lmul_KL(term, "K", m)
        for _ in range(j):
            term = _lmul_F(term)
        for _ in range(i):
            term = _lmul_E(term)
        total = total + term.scale(cu)
    return total.trim()


def rep_matrix(rep: CyclicRep, elem: AlgebraElement) -> np.ndarray:
    """Evaluate an algebra element in an irrep (the PBW oracle)."""
    ell = rep.rd.ell
    pows = {}
    for name, m in zip("KLEF", rep.gens):
        acc = [np.eye(ell, dtype=complex)]
        for _ in range(ell - 1):
            acc.append(acc[-1] @ m)
        pows[name] = acc
    out = np.zeros((ell, ell), dtype=complex)
    for (i, j, m, n), v in elem.coeffs.items():
        out += v * (pows["E"][i] @ pows["F"][j] @ pows["K"][m] @ pows["L"][n])
    return out


# Hopf structure

def coproduct_matrix(ra: CyclicRep, rb: CyclicRep, gen: str) -> np.ndarray:
    """Delta(gen) evaluated in the tensor product of two irreps."""
    eye_a = np.eye(ra.dim, dtype=complex)
    eye_b = np.eye(rb.dim, dtype=complex)
    if gen == "K":
        return np.kron(ra.Kmat, rb.Kmat)
    if gen == "L":
        return np.kron(ra.Lmat, rb.Lmat)
    if gen == "E":
        return np.kron(ra.Emat, rb.Kmat) + np.kron(eye_a, rb.Emat)
    if gen == "F":
        return np.kron(ra.Fmat, eye_b) + np.kron(
            np.linalg.inv(ra.Lmat), rb.Fmat)
    raise ValueError("unknown generator %r" % gen)


def antipode(gen: str, rd: RootData, char: CentralCharacter) -> AlgebraElement:
    """S(K) = K^-1, S(L) = L^-1, S(E) = -E K^-1, S(F) = -L F."""
    one = unit(rd, char)
    if gen == "K":
        return AlgebraElement(
            rd, char, {(0, 0, rd.ell - 1, 0): 1.0 / char.alpha})
    if gen == "L":
        return _lmul_KL(one, "L", -1)
    if gen == "E":
        E = generator("E", rd, char)
        Kinv = AlgebraElement(
            rd, char, {(0, 0, rd.ell - 1, 0): 1.0 / char.alpha})
        return pbw_multiply(E, Kinv).scale(-1)
    if gen == "F":
        L = generator("L", rd, char)
        F = generator("F", rd, char)
        return pbw_multiply(L, F).scale(-1)
    raise ValueError("unknown generator %r" % gen)


def counit(gen: str) -> complex:
    return 1.0 + 0j if gen in ("K", "L") else 0j


def antipode_applied_coproduct(gen: str, rd: RootData,
                               char: CentralCharacter):
    """The pairs (S(c1), c2) for Delta(gen) = sum c1 (x) c2.

    Computed symbolically before reduction into A_x: the antipode inverts
    the central character (S(L^ell) = a^-1 and so on), so S must act on
    the tensor-factor symbols, in particular S(L^-1) = L, not on their
    PBW reductions.
    """
    one = unit(rd, char)
    K = generator("K", rd, char)
    L = generator("L", rd, char)
    E = generator("E", rd, char)
    F = generator("F", rd, char)
    Kinv = AlgebraElement(rd, char, {(0, 0, rd.ell - 1, 0): 1.0 / char.alpha})
    Linv = _lmul_KL(one, "L", -1)
    if gen == "K":
        return [(Kinv, K)]
    if gen == "L":
        return [(Linv, L)]
    if gen == "E":
        return [(pbw_multiply(E, Kinv).scale(-1), K), (one, E)]
    if gen == "F":
        return [(pbw_multiply(L, F).scale(-1), one), (L, F)]
    raise ValueError("unknown generator %r" % gen)


# Trace form and pairing

class _TraceTable:
    """Traces of PBW monomials summed over all ell^2 branch irreps."""

    def __init__(self, char: CentralCharacter, rd: RootData):
        self.rd = rd
        self.char = char
        reps = all_irreps(char, rd)
        ell = rd.ell
        self.table = {}
        pow_cache = []
        for rep in reps:
            pows = {}
            for name, m in zip("KLEF", rep.gens):
                acc = [np.eye(ell, dtype=complex)]
                for _ in range(ell - 1):
                    acc.append(acc[-1] @ m)
                pows[name] = acc
            pow_cache.append(pows)
        for i in range(ell):
            for j in range(ell):
                for m in range(ell):
                    for n in range(ell):
                        tot = 0j
                        for pows in pow_cache:
                            tot += np.trace(pows["E"][i] @ pows["F"][j]
                                            @ pows["K"][m] @ pows["L"][n])
                        self.table[(i, j, m, n)] = tot

    def trace(self, elem: AlgebraElement) -> complex:
        return sum(v * self.table[k] for k, v in elem.coeffs.items())


@lru_cache(maxsize=32)
def _trace_table(char_key, ell):
    char = CentralCharacter(*(complex(re, im) for re, im in char_key))
    return _TraceTable(char, RootData(ell))


def _table_for(char: CentralCharacter, rd: RootData) -> _TraceTable:
    key = tuple((complex(v).real, complex(v).imag) for v in char.coords())
    return _trace_table(key, rd.ell)


def trace_form(u: AlgebraElement) -> complex:
    """t(u) = sum of matrix traces of u over all ell^2 branch irreps."""
    _require_semisimple(u.char, u.rd)
    return _table_for(u.char, u.rd).trace(u)


def pairing_e(u: AlgebraElement, v: AlgebraElement) -> complex:
    return trace_form(pbw_multiply(u, v))


def basis_elements(rd: RootData, char: CentralCharacter):
    ell = rd.ell
    keys = [(i, j, m, n) for i in range(ell) for j in range(ell)
            for m in range(ell) for n in range(ell)]
    return [AlgebraElement(rd, char, {k: 1.0 + 0j}) for k in keys]


def gram_matrix(rd: RootData, char: CentralCharacter) -> np.ndarray:
    basis = basis_elements(rd, char)
    dim = len(basis)
    g = np.zeros((dim, dim), dtype=complex)
    for p, u in enumerate(basis):
        for q, v in enumerate(basis):
            g[p, q] = pairing_e(u, v)
    return g
