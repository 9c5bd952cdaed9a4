"""Unit tests for colored crossing operators and the central pull-back."""

from itertools import product

import numpy as np
import pytest

from tanglev import braiding, factgroup
from tanglev.braiding import (char_to_group, group_to_char, solve_braiding,
                              solve_braiding_inverse, twist_mu)
from tanglev.uqalgebra import RootData, build_irrep

from conftest import generic_char, generic_group, trefoil_magnitudes


def random_block(rng, rd):
    while True:
        rx = build_irrep(generic_char(rng, rd), (0, 0), rd)
        ry = build_irrep(generic_char(rng, rd), (0, 0), rd)
        try:
            return rx, ry, solve_braiding(rx, ry)
        except (braiding.NoIntertwiner, braiding.NonGenericCharacter):
            continue


def _assert_inverse_inverts(blk, rd):
    """The negative crossing out of blk's outputs lands on its sources and
    composes with it to a unimodular scalar."""
    rl = build_irrep(blk.target_chars[0], blk.target_branches[0], rd)
    rr = build_irrep(blk.target_chars[1], blk.target_branches[1], rd)
    neg = solve_braiding_inverse(rl, rr)
    assert blk.nullity == neg.nullity == 1
    assert neg.target_branches == blk.source_branches
    prod = neg.matrix @ blk.matrix
    scalar = np.trace(prod) / prod.shape[0]
    assert abs(abs(scalar) - 1.0) < 1e-8
    assert np.max(np.abs(prod - scalar * np.eye(prod.shape[0]))) < 1e-8


def _admits(source_slots, target_reps):
    """Whether an invertible intertwiner reaches the given output irreps."""
    try:
        m, _ = braiding._solve_intertwiner(
            source_slots, braiding._pair_eval(*target_reps))
        braiding._normalize(m)
    except (braiding.NoIntertwiner, braiding.SingularM):
        return False
    return True


def _dense_intertwiner(source_slots, target_slots, rel_tol=1e-8):
    """Reference solve: the nullspace of M S_w = T_w M over all ell^4
    entries of M, ignoring the weight grading."""
    dim = source_slots["K1"].shape[0]
    eye = np.eye(dim)
    system = np.vstack([np.kron(eye, source_slots[w].T)
                        - np.kron(target_slots[w], eye)
                        for w in braiding.RImages.SLOTS])
    _, svals, vh = np.linalg.svd(system)
    nullity = int(np.sum(svals < rel_tol * svals[0]))
    return vh[-1].conj().reshape(dim, dim), nullity


class TestCharGroupDictionary:
    def test_involutive_round_trip(self, rng, rd3):
        for _ in range(10):
            g = generic_group(rng, rd3)
            assert factgroup.mats_equal(
                char_to_group(group_to_char(g)), g, tol=1e-10)

    def test_target_chars_match_group_map(self, rng, rd3):
        x, y = generic_group(rng, rd3), generic_group(rng, rd3)
        cl, cr = braiding.target_chars(group_to_char(x), group_to_char(y))
        gl, gr = factgroup.xlr(x, y)
        assert factgroup.mats_equal(char_to_group(cl), gl, tol=1e-9)
        assert factgroup.mats_equal(char_to_group(cr), gr, tol=1e-9)


class TestAutomorphism:
    def test_images_satisfy_relations(self, rng, rd3):
        ra = build_irrep(generic_char(rng, rd3), (0, 0), rd3)
        rb = build_irrep(generic_char(rng, rd3), (0, 0), rd3)
        ri = braiding.r_images(ra, rb)
        assert max(braiding.automorphism_residuals(ri).values()) < 1e-9
        assert max(braiding.sigma_delta_residuals(ri).values()) < 1e-9

    def test_pullback_matches_group_map(self, rng, rd3):
        x, y = generic_group(rng, rd3), generic_group(rng, rd3)
        rep = braiding.z0_pullback_check(x, y, rd3)
        assert rep["max_deviation"] < 1e-8
        assert rep["max_off_scalar"] < 1e-8


class TestSolver:
    def test_block_intertwines(self, rng, rd3):
        _, _, blk = random_block(rng, rd3)
        assert blk.nullity == 1
        assert blk.residual < 1e-8
        assert abs(abs(np.linalg.det(blk.matrix)) - 1.0) < 1e-8

    def test_targets_follow_group_map(self, rng, rd3):
        rx, ry, blk = random_block(rng, rd3)
        cl, cr = braiding.target_chars(rx.char, ry.char)
        assert blk.target_chars[0].rounded() == cl.rounded()
        assert blk.target_chars[1].rounded() == cr.rounded()

    def test_inverse_block_inverts(self, rng, rd3):
        _, _, blk = random_block(rng, rd3)
        _assert_inverse_inverts(blk, rd3)

    def test_ell5_blocks_invert(self, rng):
        rd = RootData(5)
        rx = build_irrep(generic_char(rng, rd), (0, 0), rd)
        ry = build_irrep(generic_char(rng, rd), (0, 0), rd)
        _assert_inverse_inverts(solve_braiding(rx, ry), rd)

    def test_derived_branches_are_the_only_ones(self, rng, rd3):
        # every other pair of output labels admits no invertible
        # intertwiner, so deriving the labels loses no solution
        labels = list(product(range(rd3.ell), repeat=2))
        for _ in range(2):
            rx, ry = (build_irrep(generic_char(rng, rd3),
                                  (rng.randrange(3), rng.randrange(3)), rd3)
                      for _ in range(2))
            for blk, slots in (
                    (solve_braiding(rx, ry),
                     braiding._positive_slots(rx, ry)),
                    (solve_braiding_inverse(rx, ry),
                     braiding._negative_slots(rx, ry))):
                reps = [[build_irrep(ch, b, rd3) for b in labels]
                        for ch in blk.target_chars]
                admitted = [(rl.branch, rr.branch)
                            for rl, rr in product(*reps)
                            if _admits(slots, (rl, rr))]
                assert admitted == [blk.target_branches]

    def test_twist_mu_choices(self, rng, rd3):
        rep = build_irrep(generic_char(rng, rd3), (0, 0), rd3)
        assert np.array_equal(twist_mu(rep, "K"), rep.Kmat)
        assert np.array_equal(twist_mu(rep, "L"), rep.Lmat)
        with pytest.raises(ValueError):
            twist_mu(rep, "Q")


class TestGradedSolve:
    def test_matches_dense_reference(self, rng, rd3):
        for _ in range(4):
            rx, ry = (build_irrep(generic_char(rng, rd3),
                                  (rng.randrange(3), rng.randrange(3)), rd3)
                      for _ in range(2))
            for blk, slots in (
                    (solve_braiding(rx, ry),
                     braiding._positive_slots(rx, ry)),
                    (solve_braiding_inverse(rx, ry),
                     braiding._negative_slots(rx, ry))):
                targets = braiding._pair_eval(*(
                    build_irrep(ch, b, rd3) for ch, b in
                    zip(blk.target_chars, blk.target_branches)))
                m, nullity = _dense_intertwiner(slots, targets)
                assert nullity == blk.nullity == 1
                assert np.max(np.abs(braiding._normalize(m)
                                     - blk.matrix)) < 1e-12

    def test_one_small_svd_per_solve(self, rng, rd3, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        rx, ry, _ = random_block(rng, rd3)
        solve_braiding_inverse(rx, ry)
        ell = rd3.ell
        assert shapes == [(8 * ell ** 3, ell ** 3)] * 2

    def test_weight_rule(self, rng, rd3):
        rx, ry, blk = random_block(rng, rd3)
        slots = braiding._positive_slots(rx, ry)

        def targets_scaled(factor):
            t = braiding._pair_eval(*(
                build_irrep(ch, b, rd3) for ch, b in
                zip(blk.target_chars, blk.target_branches)))
            t["K1"] = t["K1"] * factor
            return t

        # every target weight far from every source weight: no entry
        with pytest.raises(braiding.NoIntertwiner):
            braiding._solve_intertwiner(slots, targets_scaled(2.5))
        # neither equal nor separated: refused, not guessed
        with pytest.raises(braiding.WeightGrading):
            braiding._solve_intertwiner(slots, targets_scaled(1 + 1e-5))
        twisted = dict(slots, K1=slots["K1"] + 1e-3 * slots["E1"])
        with pytest.raises(braiding.WeightGrading):
            braiding._solve_intertwiner(twisted, targets_scaled(1))

    def test_ell5_trefoil_presentations_agree(self):
        two, three = trefoil_magnitudes(RootData(5))
        assert two == pytest.approx(three, abs=1e-8)
