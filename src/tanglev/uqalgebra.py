"""The quantum algebra at an odd root of unity.

Generators K, L, E, F with relations

    KL = LK,  KE = eps^2 EK,  KF = eps^-2 FK,
    LE = eps^2 EL,  LF = eps^-2 FL,
    EF - FE = (eps - eps^-1)(K - L^-1),

eps a primitive ell-th root of unity, ell odd.  The ell-th powers K^ell,
L^ell, E^ell, F^ell are central; fixing their values (alpha, a, beta, b/a)
cuts out a quotient algebra A_x of dimension ell^4 with PBW basis
E^i F^j K^m L^n.  For generic values off the branch-degenerate locus A_x
is semisimple with ell^2 irreducible representations of dimension ell,
labelled here by a branch pair (r, s): r shifts the ell-th root chosen
for K^ell, s picks a root of the characteristic polynomial of the central
element

    c = EF + K eps^-1 + L^-1 eps.

On the degenerate locus that polynomial has double roots; labels sharing
a root name one module and collapse to the smallest s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .factgroup import Mat2, factorize


class NonGenericCharacter(ValueError):
    """The character lies outside the cyclic-representation locus."""


class BranchDegenerate(ValueError):
    """Repeated roots of the central-element polynomial: fewer than ell^2
    distinct irreps."""


@dataclass(frozen=True)
class RootData:
    """An odd order ell together with the primitive root exp(2 pi i/ell)."""

    ell: int

    def __post_init__(self):
        if self.ell < 3 or self.ell % 2 == 0:
            raise ValueError("ell must be an odd integer >= 3")

    @property
    def eps(self):
        return cmath.exp(2j * cmath.pi / self.ell)

    def eps_pow(self, k):
        return cmath.exp(2j * cmath.pi * (k % self.ell) / self.ell)


@dataclass(frozen=True)
class CentralCharacter:
    """Scalar values of the central ell-th powers.

    alpha = K^ell, beta = E^ell, a = L^ell, and b is the second lower
    Borel coordinate, so F^ell = b/a.  The quadruple is exactly a Borel
    coordinate chart on the factorizable group, which is how characters
    are produced from diagram colors.
    """

    alpha: complex
    beta: complex
    a: complex
    b: complex

    @staticmethod
    def from_group(x: Mat2) -> "CentralCharacter":
        f = factorize(x)
        alpha, beta, a, b = (complex(v) for v in f.coords())
        return CentralCharacter(alpha, beta, a, b)

    def f_ell(self):
        return self.b / self.a

    def coords(self):
        return (self.alpha, self.beta, self.a, self.b)

    def rounded(self, digits=12):
        def r(z):
            z = complex(z)
            return (round(z.real, digits), round(z.imag, digits))
        return tuple(r(v) for v in self.coords())


def principal_root(z, ell):
    """The ell-th root with argument in [0, 2 pi/ell)."""
    z = complex(z)
    if z == 0:
        return 0j
    theta = cmath.phase(z) % (2 * cmath.pi)
    return abs(z) ** (1.0 / ell) * cmath.exp(1j * theta / ell)


#: Characters whose scale-relative branch discriminant falls below this
#: bound are branch-degenerate.  Exactly parabolic characters land at the
#: rounding level (about 1e-16), random generic ones at 1e-2 and above.
DEGENERACY_RTOL = 1e-10


def _branch_trace(char: CentralCharacter):
    """T = beta b/a + alpha + 1/a, the right side of D_ell(c, kappa/lam) = T.

    Writing c = y + kappa/(lam y), the central-value equation
    prod_n (c - kappa eps^{2n-1} - lam^-1 eps^{1-2n}) = beta b/a becomes
    Y + (alpha/a)/Y = T in Y = y^ell, i.e. Y^2 - T Y + alpha/a = 0.
    """
    return char.beta * char.b / char.a + char.alpha + 1 / char.a


def branch_discriminant(char: CentralCharacter) -> float:
    """|T^2 - 4 alpha/a| relative to max(|T|^2, 4 |alpha/a|).

    It vanishes exactly when the central-value polynomial has repeated
    roots, which then coincide for every r.  Needs a generic character.
    """
    t, p = _branch_trace(char), char.alpha / char.a
    return abs(t * t - 4 * p) / max(abs(t) ** 2, 4 * abs(p))


def is_branch_degenerate(char: CentralCharacter) -> bool:
    """Whether distinct branch labels can name the same module."""
    return branch_discriminant(char) < DEGENERACY_RTOL


def central_values(char: CentralCharacter, rd: RootData, r: int):
    """(kappa, lam, values): the ell roots of the central-value polynomial
    at K-shift r, sorted by (real, imaginary) part.

    Closed form c_k = y_k + q/y_k, q = kappa/lam, with y_k the ell-th roots
    of a root Y of Y^2 - T Y + alpha/a (both roots give the same set).  At
    a branch-degenerate character Y is snapped to T/2, y_k = y* eps^{2k}
    with y*^2 = q, and c_k = y* (eps^{2k} + eps^{-2k}) comes out exactly
    doubled for k and ell - k.
    """
    ell = rd.ell
    kappa = principal_root(char.alpha, ell) * rd.eps_pow(2 * r)
    lam = principal_root(char.a, ell)
    q = kappa / lam
    t = _branch_trace(char)
    if is_branch_degenerate(char):
        ystar = cmath.sqrt(q)
        if (ystar ** ell * (t / 2).conjugate()).real < 0:
            ystar = -ystar
        values = []
        for k in range(ell):
            m = min(2 * k % ell, -2 * k % ell)
            values.append(ystar * 2 * math.cos(2 * math.pi * m / ell))
    else:
        d = cmath.sqrt(t * t - 4 * char.alpha / char.a)
        big = t + d if abs(t + d) >= abs(t - d) else t - d
        y0 = principal_root(big / 2, ell)
        ys = [y0 * rd.eps_pow(2 * k) for k in range(ell)]
        values = [y + q / y for y in ys]
    return kappa, lam, sorted(values, key=lambda z: (z.real, z.imag))


def is_generic(char: CentralCharacter, rd: RootData, tol=1e-8) -> bool:
    """Whether cyclic irreps exist: K and L invertible and the E^ell, F^ell
    values nonzero.  Whether branch labels coincide is a separate question,
    see is_branch_degenerate."""
    if abs(char.alpha * char.a) < tol or abs(char.beta) < tol:
        return False
    return abs(char.b) >= tol


@dataclass(frozen=True)
class CyclicRep:
    """An ell-dimensional cyclic irreducible representation."""

    rd: RootData
    char: CentralCharacter
    branch: tuple  # (r, s)
    kappa: complex
    lam: complex
    cval: complex
    Kmat: np.ndarray = field(repr=False)
    Lmat: np.ndarray = field(repr=False)
    Emat: np.ndarray = field(repr=False)
    Fmat: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.rd.ell

    def matrices(self):
        return {"K": self.Kmat, "L": self.Lmat,
                "E": self.Emat, "F": self.Fmat}

    def to_json(self):
        def mat(m):
            return [[[z.real, z.imag] for z in row] for row in m.tolist()]
        return {
            "ell": self.rd.ell,
            "char": [[complex(v).real, complex(v).imag]
                     for v in self.char.coords()],
            "branch": list(self.branch),
            "kappa": [self.kappa.real, self.kappa.imag],
            "lambda": [self.lam.real, self.lam.imag],
            "cval": [self.cval.real, self.cval.imag],
            "K": mat(self.Kmat), "L": mat(self.Lmat),
            "E": mat(self.Emat), "F": mat(self.Fmat),
        }


def build_irrep(char: CentralCharacter, branch, rd: RootData,
                tol=1e-8) -> CyclicRep:
    """Construct the cyclic irrep with branch (r, s).

    s indexes the sorted central values; labels whose values coincide (at
    a branch-degenerate character) name one module and collapse to the
    smallest s, which is the branch the returned rep carries.

    On the basis v_0 .. v_{ell-1}:
        K v_n = kappa eps^{2n} v_n,   L v_n = lam eps^{2n} v_n,
        E v_n = v_{n+1},              E v_{ell-1} = beta v_0,
        F v_n = phi_n v_{n-1},        F v_0 = (phi_0/beta) v_{ell-1},
    phi_n = cval - kappa eps^{2n-1} - lam^-1 eps^{1-2n}.
    """
    if not is_generic(char, rd, tol):
        raise NonGenericCharacter("character fails the genericity test")
    ell = rd.ell
    r, s = (k % ell for k in branch)
    kappa, lam, values = central_values(char, rd, r)
    s = values.index(values[s])
    cval = complex(values[s])

    phases = np.array([rd.eps_pow(2 * n) for n in range(ell)])
    Kmat = np.diag(kappa * phases)
    Lmat = np.diag(lam * phases)
    Emat = np.zeros((ell, ell), dtype=complex)
    for n in range(ell - 1):
        Emat[n + 1, n] = 1.0
    Emat[0, ell - 1] = char.beta
    phi = [cval - kappa * rd.eps_pow(2 * n - 1) - rd.eps_pow(1 - 2 * n) / lam
           for n in range(ell)]
    Fmat = np.zeros((ell, ell), dtype=complex)
    for n in range(1, ell):
        Fmat[n - 1, n] = phi[n]
    Fmat[ell - 1, 0] = phi[0] / char.beta
    return CyclicRep(rd, char, (r, s), kappa, lam, cval,
                     Kmat, Lmat, Emat, Fmat)


def relation_residuals(rep: CyclicRep):
    """Max-norm residuals of the defining relations and central values."""
    e2 = rep.rd.eps_pow(2)
    K, L, E, F = rep.Kmat, rep.Lmat, rep.Emat, rep.Fmat
    eps = rep.rd.eps
    ell = rep.rd.ell
    Linv = np.linalg.inv(L)
    eye = np.eye(ell)

    def dev(m):
        return float(np.max(np.abs(m)))

    out = {
        "KL": dev(K @ L - L @ K),
        "KE": dev(K @ E - e2 * E @ K),
        "KF": dev(K @ F - F @ K / e2),
        "LE": dev(L @ E - e2 * E @ L),
        "LF": dev(L @ F - F @ L / e2),
        "EF": dev(E @ F - F @ E - (eps - 1 / eps) * (K - Linv)),
        "K^ell": dev(np.linalg.matrix_power(K, ell) - rep.char.alpha * eye),
        "L^ell": dev(np.linalg.matrix_power(L, ell) - rep.char.a * eye),
        "E^ell": dev(np.linalg.matrix_power(E, ell) - rep.char.beta * eye),
        "F^ell": dev(np.linalg.matrix_power(F, ell) - rep.char.f_ell() * eye),
        "c": dev(E @ F + K / eps + eps * Linv - rep.cval * eye),
    }
    return out


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


# ---------------------------------------------------------------------------
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


def _lmul_K(elem, power=1):
    rd, char = elem.rd, elem.char
    ell = rd.ell
    out = {}
    for (i, j, m, n), v in elem.coeffs.items():
        coef = v * rd.eps_pow(2 * power * (i - j))
        m2 = m + power
        if m2 >= ell:
            m2 -= ell
            coef *= char.alpha
        key = (i, j, m2, n)
        out[key] = out.get(key, 0j) + coef
    return AlgebraElement(rd, char, out)


def _lmul_L(elem, power=1):
    rd, char = elem.rd, elem.char
    ell = rd.ell
    out = {}
    for (i, j, m, n), v in elem.coeffs.items():
        coef = v * rd.eps_pow(2 * power * (i - j))
        n2 = n + power
        if n2 >= ell:
            n2 -= ell
            coef *= char.a
        key = (i, j, m, n2)
        out[key] = out.get(key, 0j) + coef
    return AlgebraElement(rd, char, out)


def _lmul_Linv(elem):
    rd, char = elem.rd, elem.char
    ell = rd.ell
    out = {}
    for (i, j, m, n), v in elem.coeffs.items():
        coef = v * rd.eps_pow(-2 * (i - j))
        n2 = n - 1
        if n2 < 0:
            n2 += ell
            coef /= char.a
        key = (i, j, m, n2)
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
            corr = _lmul_K(mono) - _lmul_Linv(mono)
            out = out + corr.scale(-(eps - 1 / eps))
    return out + AlgebraElement(rd, char, plain)


def pbw_multiply(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Normal-ordered product in A_x."""
    if u.rd.ell != v.rd.ell:
        raise ValueError("mixed root data")
    rd, char = u.rd, u.char
    total = _zero(rd, char)
    for (i, j, m, n), cu in u.coeffs.items():
        term = _lmul_L(v, n) if n else v
        if m:
            term = _lmul_K(term, m)
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
    for name, m in rep.matrices().items():
        acc = [np.eye(ell, dtype=complex)]
        for _ in range(ell - 1):
            acc.append(acc[-1] @ m)
        pows[name] = acc
    out = np.zeros((ell, ell), dtype=complex)
    for (i, j, m, n), v in elem.coeffs.items():
        out += v * (pows["E"][i] @ pows["F"][j] @ pows["K"][m] @ pows["L"][n])
    return out


# ---------------------------------------------------------------------------
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
        return _lmul_Linv(one)
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
    Linv = _lmul_Linv(one)
    if gen == "K":
        return [(Kinv, K)]
    if gen == "L":
        return [(Linv, L)]
    if gen == "E":
        return [(pbw_multiply(E, Kinv).scale(-1), K), (one, E)]
    if gen == "F":
        return [(pbw_multiply(L, F).scale(-1), one), (L, F)]
    raise ValueError("unknown generator %r" % gen)


# ---------------------------------------------------------------------------
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
            for name, m in rep.matrices().items():
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
