"""Unit tests for the root-of-unity algebra and its cyclic irreps."""

import random

import numpy as np
import pytest

from tanglev.factgroup import Mat2
from tanglev.braiding import char_to_group, group_to_char
from tanglev.uqalgebra import (CentralCharacter, NonGenericCharacter,
                               RootData, build_irrep, central_values,
                               is_branch_degenerate, is_generic,
                               principal_roots, relation_residuals)

from conftest import generic_char, rational_mat, trefoil_boundary_2
from oracles import (BranchDegenerate, all_irreps, antipode,
                     antipode_applied_coproduct, basis_elements,
                     coproduct_matrix, counit, generator, gram_matrix,
                     pairing_e, pbw_multiply, rep_matrix, trace_form, unit)


class TestRootData:
    def test_primitive_root(self):
        for ell in (3, 5, 7):
            rd = RootData(ell)
            assert abs(rd.eps ** ell - 1) < 1e-12
            assert all(abs(rd.eps ** k - 1) > 1e-6 for k in range(1, ell))

    def test_rejects_even_or_tiny(self):
        with pytest.raises(ValueError):
            RootData(4)
        with pytest.raises(ValueError):
            RootData(1)


class TestCentralCharacter:
    def test_genericity_filter(self, rd3):
        # beta = b = 0 makes the raising/lowering powers vanish
        assert not is_generic(CentralCharacter(2.0, 0.0, 0.5, 0.0), rd3)
        assert is_generic(CentralCharacter(2.0, 1.0, 0.5, 1.0), rd3)

    def test_labels_survive_a_group_round_trip(self):
        # real group entries give conjugate pairs of central values whose
        # real parts tie up to rounding; label s must name the same value
        # on the character and on its round trip through the group
        rd = RootData(5)
        rng = random.Random(5)
        for _ in range(300):
            ch = group_to_char(rational_mat(rng))
            if not is_generic(ch, rd):
                continue
            again = group_to_char(char_to_group(ch))
            for r in range(rd.ell):
                values = central_values(ch, rd, r)[2]
                assert np.allclose(central_values(again, rd, r)[2], values,
                                   rtol=0, atol=1e-6)

    def test_memo_is_not_part_of_the_value(self):
        # a character rebuilt from equal coordinates, with an empty memo,
        # equals one whose memo is filled, in hash, == and roundings, and
        # the memo does not show in repr
        ch = CentralCharacter(1.5 - 0.25j, 2 + 1j, 0.5j, -3 + 0.125j)
        filled = (hash(ch), ch.rounded(9), ch.rounded(12),
                  principal_roots(ch, RootData(3)))
        # what the memo holds is shared, not derived again
        assert ch.rounded(12) is filled[2]
        assert principal_roots(ch, RootData(3)) is filled[3]
        again = CentralCharacter(*ch.coords())
        assert again == ch and again.coords() == ch.coords()
        assert hash(again) == hash(ch) == hash(ch.coords()) == filled[0]
        assert again.rounded(9) == ch.rounded(9) == filled[1]
        assert again.rounded(12) == ch.rounded(12) == filled[2]
        assert repr(again) == repr(ch) == (
            "CentralCharacter(alpha=(1.5-0.25j), beta=(2+1j), a=0.5j, "
            "b=(-3+0.125j))")


class TestIrreps:
    def test_relations_at_random_branches(self, rng, rd3):
        for _ in range(5):
            ch = generic_char(rng, rd3)
            branch = (rng.randrange(3), rng.randrange(3))
            res = relation_residuals(build_irrep(ch, branch, rd3))
            assert max(res.values()) < 1e-9

    def test_all_branches_enumerated(self, rng, rd3):
        ch = generic_char(rng, rd3)
        reps = all_irreps(ch, rd3)
        assert len(reps) == 9
        # branches shift the K-eigenvalue seed by powers of eps
        seeds = {complex(np.round(r.Kmat[0, 0], 9)) for r in reps}
        assert len(seeds) == 3

    def test_nongeneric_rejected(self, rd3):
        with pytest.raises(NonGenericCharacter):
            build_irrep(CentralCharacter(2.0, 0.0, 0.5, 0.0), (0, 0), rd3)

    def test_dimension_is_ell(self, rng):
        rd = RootData(5)
        ch = generic_char(rng, rd)
        rep = build_irrep(ch, (0, 0), rd)
        assert rep.dim == 5
        assert rep.Kmat.shape == (5, 5)

    def test_irreducible_commutant(self, rng, rd3):
        # only scalars commute with all four generator images
        ch = generic_char(rng, rd3)
        rep = build_irrep(ch, (0, 0), rd3)
        mats = list(rep.gens)
        rows = []
        eye = np.eye(3)
        for m in mats:
            rows.append(np.kron(eye, m) - np.kron(m.T, eye))
        stack = np.vstack(rows)
        s = np.linalg.svd(stack, compute_uv=False)
        assert sum(v < 1e-9 * s[0] for v in s) == 1

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_matrices_are_the_entrywise_ones_bitwise(self, rng, ell):
        # the basis action of `build_irrep`'s docstring, written entry by
        # entry: each entry is the same single operation, so no bit differs
        rd = RootData(ell)
        for _ in range(150):
            rep = build_irrep(generic_char(rng, rd),
                              (rng.randrange(ell), rng.randrange(ell)), rd)
            phases = np.array([rd.eps_pow(2 * n) for n in range(ell)])
            emat = np.zeros((ell, ell), dtype=complex)
            fmat = np.zeros((ell, ell), dtype=complex)
            phi = [rep.cval - rep.kappa * rd.eps_pow(2 * n - 1)
                   - rd.eps_pow(1 - 2 * n) / rep.lam for n in range(ell)]
            for n in range(1, ell):
                emat[n, n - 1] = 1.0
                fmat[n - 1, n] = phi[n]
            emat[0, ell - 1] = rep.char.beta
            fmat[ell - 1, 0] = phi[0] / rep.char.beta
            for got, ref in ((rep.Kmat, np.diag(rep.kappa * phases)),
                             (rep.Lmat, np.diag(rep.lam * phases)),
                             (rep.Emat, emat), (rep.Fmat, fmat)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.array_equal(got.view(np.uint64),
                                      ref.view(np.uint64))


class TestPBW:
    def test_rep_is_algebra_map(self, rng, rd3):
        ch = generic_char(rng, rd3)
        rep = build_irrep(ch, (0, 0), rd3)
        e = generator("E", rd3, ch)
        f = generator("F", rd3, ch)
        k = generator("K", rd3, ch)
        u = pbw_multiply(f, pbw_multiply(e, k))
        lhs = rep_matrix(rep, u)
        rhs = rep.Fmat @ rep.Emat @ rep.Kmat
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_unit_is_neutral(self, rng, rd3):
        ch = generic_char(rng, rd3)
        one = unit(rd3, ch)
        x = generator("E", rd3, ch) + generator("K", rd3, ch).scale(2.0)
        assert not (pbw_multiply(one, x) - x).trim().coeffs
        assert not (pbw_multiply(x, one) - x).trim().coeffs

    def test_coproduct_is_homomorphism_on_ef(self, rng, rd3):
        # Delta(E) Delta(F) - Delta(F) Delta(E) matches Delta of [E, F]
        ch = generic_char(rng, rd3)
        ra = build_irrep(ch, (0, 0), rd3)
        rb = build_irrep(generic_char(rng, rd3), (0, 0), rd3)
        de = coproduct_matrix(ra, rb, "E")
        df = coproduct_matrix(ra, rb, "F")
        dk = coproduct_matrix(ra, rb, "K")
        dl = coproduct_matrix(ra, rb, "L")
        eps = rd3.eps
        comm = de @ df - df @ de
        expect = (eps - 1 / eps) * (dk - np.linalg.inv(dl))
        assert np.max(np.abs(comm - expect)) < 1e-9


class TestBranchDegeneracy:
    """The parabolic fixture colors sit on the double-root locus."""

    def test_parabolic_labels_collapse(self, rd3):
        ch = group_to_char(trefoil_boundary_2()[0])
        assert is_generic(ch, rd3)
        assert is_branch_degenerate(ch)
        r1 = build_irrep(ch, (0, 1), rd3)
        r2 = build_irrep(ch, (0, 2), rd3)
        assert r1.branch == r2.branch == (0, 1)
        assert r1.cval == r2.cval
        assert np.array_equal(r1.gens, r2.gens)
        assert max(relation_residuals(r1).values()) < 1e-9
        with pytest.raises(BranchDegenerate):
            trace_form(generator("K", rd3, ch))
        with pytest.raises(BranchDegenerate):
            all_irreps(ch, rd3)

    def test_generic_labels_stay_distinct(self, rng, rd3):
        ch = generic_char(rng, rd3)
        assert not is_branch_degenerate(ch)
        reps = all_irreps(ch, rd3)
        assert len({r.branch for r in reps}) == 9
        assert len({(complex(np.round(r.Kmat[0, 0], 9)),
                     complex(np.round(r.cval, 9))) for r in reps}) == 9


class TestHopfStructure:
    def test_counit_values(self):
        assert counit("K") == 1 and counit("L") == 1
        assert counit("E") == 0 and counit("F") == 0

    def test_antipode_axiom_per_generator(self, rng, rd3):
        # sum S(c1) c2 = counit(gen) * 1, checked in a faithful irrep
        ch = generic_char(rng, rd3)
        rep = build_irrep(ch, (0, 0), rd3)
        eye = np.eye(3)
        for gen in ("K", "L", "E", "F"):
            acc = np.zeros((3, 3), dtype=complex)
            for sc1, c2 in antipode_applied_coproduct(gen, rd3, ch):
                acc += rep_matrix(rep, sc1) @ rep_matrix(rep, c2)
            assert np.max(np.abs(acc - counit(gen) * eye)) < 1e-10

    def test_antipode_inverts_group_likes(self, rng, rd3):
        ch = generic_char(rng, rd3)
        rep = build_irrep(ch, (0, 0), rd3)
        for gen, mat in (("K", rep.Kmat), ("L", rep.Lmat)):
            s = rep_matrix(rep, antipode(gen, rd3, ch))
            assert np.max(np.abs(s @ mat - np.eye(3))) < 1e-10


class TestTracePairing:
    def test_trace_form_linear(self, rng, rd3):
        ch = generic_char(rng, rd3)
        u = generator("K", rd3, ch)
        v = generator("L", rd3, ch)
        t = trace_form(u + v.scale(2.0))
        assert abs(t - trace_form(u) - 2.0 * trace_form(v)) < 1e-10

    def test_pairing_symmetric(self, rng, rd3):
        # the trace of a product is cyclic, so the pairing is symmetric
        ch = generic_char(rng, rd3)
        u = pbw_multiply(generator("E", rd3, ch), generator("K", rd3, ch))
        v = generator("F", rd3, ch)
        assert abs(pairing_e(u, v) - pairing_e(v, u)) < 1e-10

    def test_basis_and_gram_nondegenerate(self, rng, rd3):
        ch = generic_char(rng, rd3)
        basis = basis_elements(rd3, ch)
        assert len(basis) == 81
        gram = gram_matrix(rd3, ch)
        assert gram.shape == (81, 81)
        assert np.linalg.cond(gram) < 1e8
