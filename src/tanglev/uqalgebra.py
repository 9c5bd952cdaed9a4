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

import numpy as np


class NonGenericCharacter(ValueError):
    """The character lies outside the cyclic-representation locus."""


@dataclass(frozen=True)
class RootData:
    """An odd order ell together with the primitive root exp(2 pi i/ell)."""

    ell: int

    def __post_init__(self):
        if self.ell < 3 or self.ell % 2 == 0:
            raise ValueError("ell must be an odd integer >= 3")
        # eps^k for k < ell and the weights eps^(2n) of K, read-only, formed
        # once; not fields, so ==, hash and repr read ell alone
        object.__setattr__(self, "_powers", tuple(
            cmath.exp(2j * cmath.pi * k / self.ell) for k in range(self.ell)))
        phases = np.array([self.eps_pow(2 * n) for n in range(self.ell)])
        phases.flags.writeable = False
        object.__setattr__(self, "_phases", phases)

    @property
    def eps(self):
        return cmath.exp(2j * cmath.pi / self.ell)

    def eps_pow(self, k):
        """eps^k = exp(2 pi i (k mod ell) / ell)."""
        return self._powers[k % self.ell]


@dataclass(frozen=True)
class CentralCharacter:
    """Scalar values of the central ell-th powers.

    alpha = K^ell, beta = E^ell, a = L^ell, and b is the second lower
    Borel coordinate, so F^ell = b/a.  The quadruple is exactly a Borel
    coordinate chart on the factorizable group, which is how characters
    are produced from diagram colors.

    Each character derives what depends on it alone once, in a memo that
    is not a field (so ==, repr and coords() ignore it): its hash, equal
    to hash(coords()), each `rounded(digits)` tuple and `principal_roots`
    per ell.  Its `central_values` depend on it only through T and
    alpha/a: conjugation keeps them, so the planner computes them once per
    strand and refuses an arc whose T or alpha/a drifts past
    `evaluator.STRAND_RTOL` (1e-8 relative); an arc's c is its strand's,
    not bitwise its own character's (`evaluator._plan_branches`).
    """

    alpha: complex
    beta: complex
    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    def __hash__(self):
        h = self._memo.get("hash")
        if h is None:
            h = self._memo["hash"] = hash(self.coords())
        return h

    def f_ell(self):
        return self.b / self.a

    def coords(self):
        return (self.alpha, self.beta, self.a, self.b)

    def rounded(self, digits=12):
        key = ("rounded", digits)
        out = self._memo.get(key)
        if out is None:
            alpha, beta, a, b = map(complex, self.coords())
            out = self._memo[key] = (
                (round(alpha.real, digits), round(alpha.imag, digits)),
                (round(beta.real, digits), round(beta.imag, digits)),
                (round(a.real, digits), round(a.imag, digits)),
                (round(b.real, digits), round(b.imag, digits)))
        return out


def principal_root(z, ell):
    """The ell-th root with argument in [0, 2 pi/ell)."""
    z = complex(z)
    if z == 0:
        return 0j
    theta = cmath.phase(z) % (2 * cmath.pi)
    return abs(z) ** (1.0 / ell) * cmath.exp(1j * theta / ell)


def principal_roots(char: CentralCharacter, rd: RootData):
    """The principal roots of alpha and a, memoized on `char` per ell."""
    key = ("roots", rd.ell)
    out = char._memo.get(key)
    if out is None:
        out = char._memo[key] = (principal_root(char.alpha, rd.ell),
                                 principal_root(char.a, rd.ell))
    return out


def k_shift(char: CentralCharacter, z, rd: RootData):
    """The r at which kappa/lam = z0 eps^(2r), z0 the principal roots'
    ratio, lies nearest z: eps^k nearest z/z0 has k = round(ell arg(z/z0)
    / 2 pi), and r = k (ell + 1)/2 mod ell; no candidate is searched."""
    root_alpha, root_a = principal_roots(char, rd)
    k = round(rd.ell * (cmath.phase(z) - cmath.phase(root_alpha / root_a))
              / (2 * cmath.pi))
    return k * (rd.ell + 1) // 2 % rd.ell


#: Characters whose scale-relative branch discriminant falls below this
#: bound are branch-degenerate.  Exactly parabolic characters land at the
#: rounding level (about 1e-16), random generic ones at 1e-2 and above.
DEGENERACY_RTOL = 1e-10
#: A character with |alpha a|, |beta| or |b| below this is not generic.
GENERIC_TOL = 1e-8


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
    at K-shift r, sorted by (real, imaginary) part rounded to 9 digits, so
    that a conjugate pair, whose real parts tie up to rounding, keeps its
    order across two roundings of one character.

    Closed form c_k = y_k + q/y_k, q = kappa/lam, with y_k the ell-th roots
    of a root Y of Y^2 - T Y + alpha/a (both roots give the same set).  At
    a branch-degenerate character Y is snapped to T/2, y_k = y* eps^{2k}
    with y*^2 = q, and c_k = y* (eps^{2k} + eps^{-2k}) comes out exactly
    doubled for k and ell - k.  Not memoized: only a strand's first arc
    computes them (`evaluator._plan_branches`).
    """
    ell = rd.ell
    root_alpha, lam = principal_roots(char, rd)
    kappa = root_alpha * rd.eps_pow(2 * r)
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
    return kappa, lam, tuple(sorted(
        values, key=lambda z: (round(z.real, 9), round(z.imag, 9))))


def is_generic(char: CentralCharacter, rd: RootData) -> bool:
    """Whether cyclic irreps exist: K and L invertible and the E^ell, F^ell
    values nonzero.  Whether branch labels coincide is a separate question,
    see is_branch_degenerate."""
    if abs(char.alpha * char.a) < GENERIC_TOL or abs(char.beta) < GENERIC_TOL:
        return False
    return abs(char.b) >= GENERIC_TOL


@dataclass(frozen=True, eq=False)
class CyclicRep:
    """An ell-dimensional cyclic irreducible representation.

    Its generators are one read-only (4, ell, ell) array `gens`, K, L, E,
    F in that order, and `Kmat` .. `Fmat` are views of it.  Equality and
    hash are by identity (the matrix fields have no usable ==), so a rep
    can key a memo as the object it is.
    """

    rd: RootData
    char: CentralCharacter
    branch: tuple  # (r, s)
    kappa: complex
    lam: complex
    cval: complex
    gens: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.gens.flags.writeable = False
        self.__dict__.update(zip(("Kmat", "Lmat", "Emat", "Fmat"), self.gens))

    @property
    def dim(self):
        return self.rd.ell


def build_irrep(char: CentralCharacter, branch, rd: RootData,
                cval=None) -> CyclicRep:
    """Construct the cyclic irrep with branch (r, s).

    s indexes the sorted central values; labels whose values coincide (at
    a branch-degenerate character) name one module and collapse to the
    smallest s, which is the branch the returned rep carries.  A given
    `cval`, the value of c at a collapsed s, computes no central value.

    On the basis v_0 .. v_{ell-1}:
        K v_n = kappa eps^{2n} v_n,   L v_n = lam eps^{2n} v_n,
        E v_n = v_{n+1},              E v_{ell-1} = beta v_0,
        F v_n = phi_n v_{n-1},        F v_0 = (phi_0/beta) v_{ell-1},
    phi_n = cval - kappa eps^{2n-1} - lam^-1 eps^{1-2n}.
    """
    if not is_generic(char, rd):
        raise NonGenericCharacter("character fails the genericity test")
    ell = rd.ell
    r, s = (k % ell for k in branch)
    root_alpha, lam = principal_roots(char, rd)
    kappa = root_alpha * rd.eps_pow(2 * r)
    if cval is None:
        values = central_values(char, rd, r)[2]
        s = values.index(values[s])
        cval = complex(values[s])

    # the diagonal, subdiagonal and superdiagonal are strided runs of .flat
    gens = np.zeros((4, ell, ell), dtype=complex)
    Kmat, Lmat, Emat, Fmat = gens
    Kmat.flat[::ell + 1] = kappa * rd._phases
    Lmat.flat[::ell + 1] = lam * rd._phases
    Emat.flat[ell::ell + 1] = 1.0
    Emat[0, ell - 1] = char.beta
    phi = [cval - kappa * rd.eps_pow(2 * n - 1) - rd.eps_pow(1 - 2 * n) / lam
           for n in range(ell)]
    Fmat.flat[1::ell + 1] = phi[1:]
    Fmat[ell - 1, 0] = phi[0] / char.beta
    return CyclicRep(rd, char, (r, s), kappa, lam, cval, gens)


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
