"""Unit tests for colored crossing operators and the central pull-back."""

from itertools import product

import numpy as np
import pytest

from tanglev import braiding, factgroup
from tanglev.braiding import (BlockCache, BraidingBlock, char_to_group,
                              group_to_char, solve_braiding,
                              solve_braiding_inverse, twist_mu)
from tanglev.uqalgebra import RootData, build_irrep

from conftest import generic_char, generic_group


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


class TestBlockJsonAndCache:
    def test_block_json_round_trip(self, rng, rd3):
        _, _, blk = random_block(rng, rd3)
        blk2 = BraidingBlock.from_json(blk.to_json())
        assert np.max(np.abs(blk2.matrix - blk.matrix)) < 1e-12
        assert blk2.source_branches == blk.source_branches
        assert blk2.target_branches == blk.target_branches
        assert blk2.normalization == blk.normalization

    def test_cache_round_trip(self, rng, rd3, tmp_path):
        cache = BlockCache(tmp_path)
        rx, ry, blk = random_block(rng, rd3)
        assert cache.get(rx, ry) is None
        cache.put(rx, ry, blk)
        hit = cache.get(rx, ry)
        assert hit is not None
        assert np.max(np.abs(hit.matrix - blk.matrix)) < 1e-12

    def test_cache_solve_populates_disk(self, rng, rd3, tmp_path):
        cache = BlockCache(tmp_path)
        rx, ry, _ = random_block(rng, rd3)
        blk1 = cache.solve(rx, ry)
        assert list(tmp_path.iterdir())
        blk2 = cache.solve(rx, ry)
        assert np.array_equal(blk1.matrix, blk2.matrix)

    def test_cache_key_separates_inverse(self, rng, rd3):
        rx, ry, _ = random_block(rng, rd3)
        assert BlockCache.key(rx, ry) != BlockCache.key(rx, ry,
                                                        inverse=True)
        assert braiding.NORMALIZATION_VERSION in BlockCache.key(rx, ry)
