"""Unit tests for colored crossing operators and the central pull-back."""

import dataclasses
from itertools import product

import numpy as np
import pytest

from tanglev import (braiding, coloring, diagram, evaluator, factgroup,
                     uqalgebra)
from tanglev.braiding import char_to_group, group_to_char
from tanglev.evaluator import EvalContext
from tanglev.uqalgebra import RootData, build_irrep

import oracles
from conftest import (generic_char, generic_group, strand_outputs,
                      trefoil_colourings, trefoil_magnitudes)


def random_block(rng, rd):
    """A crossing block on a random generic pair.  A pair whose solve fails
    is redrawn, at most 50 times; then the last failure is raised, so a
    broken solve fails the test instead of hanging it."""
    for _ in range(50):
        rx = build_irrep(generic_char(rng, rd), (0, 0), rd)
        ry = build_irrep(generic_char(rng, rd), (0, 0), rd)
        try:
            return rx, ry, EvalContext(rd).solve(rx, ry,
                                                 strand_outputs(rx, ry))
        except (braiding.NoIntertwiner, braiding.NonGenericCharacter) as exc:
            last = exc
    raise last


def _assert_inverse_inverts(rx, ry):
    """The negative crossing out of the positive crossing's outputs lands
    on its sources and composes with it to the identity."""
    ctx = EvalContext(rx.rd)
    outputs = strand_outputs(rx, ry)
    blk = ctx.solve(rx, ry, outputs)
    back = strand_outputs(*outputs, sign=-1)
    neg = ctx.solve_inverse(*outputs, back)
    assert blk.nullity == neg.nullity == 1
    assert neg.target_branches == (rx.branch, ry.branch)
    prod = neg.matrix @ blk.matrix
    assert np.max(np.abs(prod - np.eye(prod.shape[0]))) < 1e-8


def _negative_slots(repc, repd):
    """Oracle: the source slots R^-1(flip w) of the negative crossing, with
    R^-1 evaluated in (rho_c, rho_d).

    R^-1(N) = 1 - eps E (x) F, so 1 (x) K -> (1 (x) K)(1 - eps E (x) F) and
    likewise for L; the rest follows from R(E (x) 1) = E (x) L,
    R(1 (x) F) = K^-1 (x) F and R^-1(flip Delta(u)) = Delta(u).  The
    negative block N solves N S_w = (rho_a (x) rho_b)(w) N on these slots.
    """
    slot = dict(zip(braiding.RImages.SLOTS,
                    oracles.pair_stack(repc, repd)))
    k1, k2, l1, l2 = (np.diagonal(slot[g]) for g in ("K1", "K2", "L1", "L2"))
    n_mat = np.eye(len(k1)) - repc.rd.eps * slot["E1"] @ slot["F2"]
    n_inv = np.linalg.inv(n_mat)
    img = {}
    img["K2"] = slot["K2"] @ n_mat
    img["L2"] = slot["L2"] @ n_mat
    img["K1"] = (k1 * k2)[:, None] * n_inv / k2
    img["L1"] = (l1 * l2)[:, None] * n_inv / l2
    img["E1"] = slot["E1"] @ n_inv / l2
    img["F2"] = img["K1"] @ slot["F2"]
    img["E2"] = (k2[:, None] * n_mat / (k1 * k2)) @ (
        slot["E1"] @ slot["K2"] + slot["E2"] - img["E1"])
    img["F1"] = (slot["F1"] + slot["F2"] / l1[:, None] - img["F2"]) \
        @ img["L2"]
    slots = braiding.RImages.SLOTS
    return np.stack([img[flip_w] for flip_w in slots[4:] + slots[:4]])


def _dense_intertwiner(source_slots, target_slots):
    """Reference solve: the nullspace of M S_w = T_w M over all ell^4
    entries of M, ignoring the weight grading and the E1 transport, with
    the library's cutoff."""
    dim = source_slots.shape[1]
    eye = np.eye(dim)
    system = np.vstack([np.kron(eye, s.T) - np.kron(t, eye)
                        for s, t in zip(source_slots, target_slots)])
    # the R of a QR has the tall system's singular values and right
    # singular vectors, for about half the cost of its SVD at ell = 5
    _, svals, vh = np.linalg.svd(np.linalg.qr(system, mode="r"))
    nullity = int(np.sum(svals < braiding.NULLITY_RTOL * svals[0]))
    return vh[-1].conj().reshape(dim, dim), nullity


class TestCharGroupDictionary:
    def test_involutive_round_trip(self, rng, rd3):
        for _ in range(10):
            g = generic_group(rng, rd3)
            assert factgroup.mats_equal(
                char_to_group(group_to_char(g)), g, tol=1e-10)

    def test_target_chars_match_group_map(self, rng, rd3):
        # the plan is the only labelling: a crossing's top arcs carry the
        # characters of the group map and the labels of the strand rule
        x, y = generic_group(rng, rd3), generic_group(rng, rd3)
        ctx = evaluator.EvalContext(rd3)
        bottom = [ctx.rep(group_to_char(g), (0, 0)) for g in (x, y)]
        for sign, crossing in ((1, factgroup.xlr),
                               (-1, factgroup.xlr_inverse)):
            d = diagram.braid_word([sign], 2)
            col = coloring.propagate(d, coloring.ColoredBoundary(
                ((1, x), (1, y))))
            plan = evaluator._plan_branches(d, col, ctx, None)
            top = [plan[col._roots[col._base[1] + i]] for i in range(2)]
            for rep, g in zip(top, crossing(x, y)):
                assert factgroup.mats_equal(char_to_group(rep.char), g,
                                            tol=1e-9)
            assert [rep.branch for rep in top] == [
                rep.branch for rep in strand_outputs(*bottom, sign=sign)]


class TestBranchOf:
    @pytest.mark.parametrize("ell", [3, 5, 7, 9, 11])
    def test_direct_label_is_the_searched_one(self, rng, ell):
        # the scalars of every label of seeded generic characters, exact
        # and moved off by up to 0.45 of the angle between two candidates
        rd = RootData(ell)
        for _ in range(3):
            char = generic_char(rng, rd)
            for r in range(ell):
                kappa, lam, values = uqalgebra.central_values(char, rd, r)
                for s, c in enumerate(values):
                    turn = np.exp(2j * np.pi * rng.uniform(-0.45, 0.45)
                                  / ell) * rng.uniform(0.5, 2)
                    for z in (kappa / lam, kappa / lam * turn):
                        label = oracles.branch_search(char, z, c, rd)
                        assert oracles.branch_of(char, z, c, rd) == label
                        assert uqalgebra.k_shift(char, z, rd) == label[0]
                    assert oracles.branch_of(char, kappa / lam, c, rd) \
                        == (r, s)


class TestAutomorphism:
    def test_images_satisfy_relations(self, rng, rd3):
        ra = build_irrep(generic_char(rng, rd3), (0, 0), rd3)
        rb = build_irrep(generic_char(rng, rd3), (0, 0), rd3)
        ri = braiding.r_images(ra, rb)
        assert max(oracles.automorphism_residuals(ri).values()) < 1e-9
        assert max(oracles.sigma_delta_residuals(ri).values()) < 1e-9

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_series_inverse_matches_dense_inverse(self, rng, ell):
        # the K2 image is K2 N^-1 with N^-1 in closed form; the oracle
        # inverts N = 1 - eps K^-1 E (x) F L densely
        rd = RootData(ell)
        ra, rb = (build_irrep(generic_char(rng, rd), (0, 0), rd)
                  for _ in range(2))
        k2 = np.tile(np.diagonal(rb.Kmat), ell)
        closed = braiding.r_images(ra, rb).images["K2"] / k2[:, None]
        kinv_e = np.diag(1 / np.diagonal(ra.Kmat)) @ ra.Emat
        dense = np.linalg.inv(np.eye(ell * ell) - rd.eps * np.kron(
            kinv_e, rb.Fmat @ rb.Lmat))
        assert np.max(np.abs(closed - dense)) < 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("ell", [3, 5])
    def test_cond_n_from_class_blocks(self, monkeypatch, rng, ell):
        # N = 1 - A is zero off its ell blocks on the classes
        # i1 + i2 = c mod ell, their cond matches the dense cond, and the
        # mask of `_source_stacks` is the dense check at any limit
        rd = RootData(ell)
        reps = [build_irrep(generic_char(rng, rd), (0, 0), rd)
                for _ in range(24)]
        mx, my = braiding._mats(reps[:12]), braiding._mats(reps[12:])
        i1 = np.arange(ell)
        cls = i1 * ell + (np.arange(ell)[:, None] - i1) % ell
        outside = np.ones((ell * ell, ell * ell), dtype=bool)
        for c in cls:
            outside[np.ix_(c, c)] = False
        conds = []
        for rx, ry in zip(reps[:12], reps[12:]):
            kinv_e = np.diag(1 / np.diagonal(ry.Kmat)) @ ry.Emat
            n_mat = np.eye(ell * ell) - np.kron(rx.Fmat @ rx.Lmat,
                                                rd.eps * kinv_e)
            assert np.all(n_mat[outside] == 0)
            svals = np.linalg.svd(n_mat[cls[:, :, None], cls[:, None, :]],
                                  compute_uv=False)
            block = svals[:, 0].max() / svals[:, -1].min()
            conds.append(np.linalg.cond(n_mat))
            assert block == pytest.approx(conds[-1], rel=1e-12)
        limit = float(np.median(conds))
        monkeypatch.setattr(braiding, "COND_LIMIT", limit)
        _, ok = braiding._source_stacks(mx, my, rd)
        assert list(ok) == [not c > limit for c in conds]
        assert 0 < ok.sum() < len(ok)

    def test_singular_n_is_refused_by_name(self, monkeypatch, rng, rd3):
        # with COND_LIMIT at 1 every series factor N counts as singular:
        # the images, and the pull-back check that `tanglev verify` runs,
        # raise SingularN instead of returning a value
        ra, rb = (build_irrep(generic_char(rng, rd3), (0, 0), rd3)
                  for _ in range(2))
        x, y = generic_group(rng, rd3), generic_group(rng, rd3)
        monkeypatch.setattr(braiding, "COND_LIMIT", 1)
        with pytest.raises(braiding.SingularN, match="series factor N"):
            braiding.r_images(ra, rb)
        with pytest.raises(braiding.SingularN, match="series factor N"):
            braiding.z0_pullback_check(x, y, rd3)

    def test_pullback_matches_group_map(self, rng, rd3):
        x, y = generic_group(rng, rd3), generic_group(rng, rd3)
        rep = braiding.z0_pullback_check(x, y, rd3)
        assert rep["max_deviation"] < 1e-8
        assert rep["max_off_scalar"] < 1e-8

    def test_kron_is_numpy_kron_bitwise(self):
        # each entry is the same single product, so not even the last
        # bit may differ; rectangular shapes catch a swapped axis
        gen = np.random.default_rng(7)
        a = gen.normal(size=(2, 3)) + 1j * gen.normal(size=(2, 3))
        b = gen.normal(size=(4, 5)) + 1j * gen.normal(size=(4, 5))
        for x, y in ((a, b), (b, a), (a, np.eye(3, dtype=complex))):
            got = braiding._kron(x, y)
            assert got.shape == np.kron(x, y).shape
            assert np.array_equal(got.view(np.uint64),
                                  np.kron(x, y).view(np.uint64))


class TestSolver:
    def test_block_intertwines(self, rng, rd3):
        _, _, blk = random_block(rng, rd3)
        assert blk.nullity == 1
        assert blk.residual < 1e-8
        assert abs(abs(np.linalg.det(blk.matrix)) - 1.0) < 1e-8

    @pytest.mark.parametrize("ell", [3, 5, 7, 9])
    def test_residual_is_the_dense_one(self, rng, ell):
        # a positive block's residual, read off its orbit system, is the
        # dense max_w |M S_w - T_w M| up to rounding; a negative block
        # N = M^-1 reports M's, and its own dense max_w |N T_w - S_w N| on
        # M's slots is small too
        rd = RootData(ell)
        ctx = EvalContext(rd)
        for _ in range(3):
            rx, ry = (build_irrep(generic_char(rng, rd),
                                  (rng.randrange(ell), rng.randrange(ell)),
                                  rd)
                      for _ in range(2))
            outputs = strand_outputs(rx, ry)
            source = braiding._positive_slots(rx, ry)
            target = oracles.pair_stack(*outputs)
            pos = ctx.solve(rx, ry, outputs)
            assert pos.residual == pytest.approx(
                oracles.dense_residual(pos.matrix, source, target), abs=1e-13)
            neg = ctx.solve_inverse(*outputs, (rx, ry))
            assert neg.residual == pos.residual
            assert oracles.dense_residual(neg.matrix, target, source) < 1e-8

    def test_normalize_survives_determinant_underflow(self):
        # a unit-norm 121 x 121 block (ell = 11) of condition number 1e5:
        # its determinant, about 1e-348, underflows to 0, yet the block
        # normalizes to det 1
        gen = np.random.default_rng(11)
        q, _ = np.linalg.qr(gen.normal(size=(121, 121))
                            + 1j * gen.normal(size=(121, 121)))
        m = q * np.logspace(0, -5, 121)
        m /= np.linalg.norm(m)
        assert np.linalg.det(m) == 0
        [out], _ = braiding._normalized(m[None])
        assert np.all(np.isfinite(out))
        sign, logdet = np.linalg.slogdet(out)
        assert abs(sign - 1) < 1e-9 and abs(logdet) < 1e-9

    def test_targets_follow_group_map(self, rng, rd3):
        # outputs off the group map's characters admit no intertwiner
        rx, ry, blk = random_block(rng, rd3)
        outputs = strand_outputs(rx, ry)
        assert blk.target_branches == tuple(rep.branch for rep in outputs)
        for off in (outputs[::-1], (rx, ry), (ry, rx)):
            with pytest.raises(braiding.NoIntertwiner):
                EvalContext(rd3).solve(rx, ry, off)

    def test_inverse_block_inverts(self, rng, rd3):
        rx, ry, _ = random_block(rng, rd3)
        _assert_inverse_inverts(rx, ry)

    def test_ell5_blocks_invert(self, rng):
        rd = RootData(5)
        rx = build_irrep(generic_char(rng, rd), (0, 0), rd)
        ry = build_irrep(generic_char(rng, rd), (0, 0), rd)
        _assert_inverse_inverts(rx, ry)

    @pytest.mark.parametrize("ell", [3, 5])
    def test_negative_is_inverse_of_preimage_positive(self, rng, ell):
        rd = RootData(ell)
        rc, rd_ = (build_irrep(generic_char(rng, rd),
                               (rng.randrange(ell), rng.randrange(ell)), rd)
                   for _ in range(2))
        ctx = EvalContext(rd)
        outputs = strand_outputs(rc, rd_, sign=-1)
        neg = ctx.solve_inverse(rc, rd_, outputs)
        ga, gb = factgroup.xlr_inverse(char_to_group(rc.char),
                                       char_to_group(rd_.char))
        assert factgroup.mats_equal(
            char_to_group(outputs[0].char), ga, tol=1e-9)
        assert factgroup.mats_equal(
            char_to_group(outputs[1].char), gb, tol=1e-9)
        assert neg.target_branches == tuple(rep.branch for rep in outputs)
        landed = strand_outputs(*outputs)
        pos = ctx.solve(*outputs, landed)
        assert pos.target_branches == (rc.branch, rd_.branch)
        assert pos.nullity == neg.nullity == 1
        assert np.max(np.abs(np.linalg.inv(pos.matrix) - neg.matrix)) < 1e-12

    def test_negative_off_its_labels_raises(self, rng, rd3):
        # outputs on labels (0, 0) where the strand rule says otherwise:
        # the solve refuses them, never answers with a block between
        # other modules
        while True:
            rc, rd_ = (build_irrep(generic_char(rng, rd3),
                                   (rng.randrange(3), rng.randrange(3)), rd3)
                       for _ in range(2))
            outputs = strand_outputs(rc, rd_, sign=-1)
            if tuple(rep.branch for rep in outputs) != ((0, 0), (0, 0)):
                break
        origin = tuple(build_irrep(rep.char, (0, 0), rd3) for rep in outputs)
        with pytest.raises(braiding.NoIntertwiner):
            EvalContext(rd3).solve_inverse(rc, rd_, origin)

    def test_derived_branches_are_the_only_ones(self, rng, rd3):
        # of all ell^4 output label pairs, exactly the strand rule's admits
        # an intertwiner; every other pair raises NoIntertwiner, so the
        # solve itself checks the plan's labels
        labels = list(product(range(rd3.ell), repeat=2))
        for _ in range(2):
            rx, ry = (build_irrep(generic_char(rng, rd3),
                                  (rng.randrange(3), rng.randrange(3)), rd3)
                      for _ in range(2))
            ctx = EvalContext(rd3)
            for sign, solve in ((1, ctx.solve), (-1, ctx.solve_inverse)):
                rule = strand_outputs(rx, ry, sign)
                admitted = []
                for bl, br in product(labels, repeat=2):
                    outputs = (build_irrep(rule[0].char, bl, rd3),
                               build_irrep(rule[1].char, br, rd3))
                    try:
                        blk = solve(rx, ry, outputs)
                    except braiding.NoIntertwiner:
                        continue
                    admitted.append(blk.target_branches)
                assert admitted == [tuple(rep.branch for rep in rule)]


def _plan_inputs(rx, ry):
    """The class shift and the weight mask of the positive crossing out of
    (rx, ry) into the strand rule's outputs, and its two stacks."""
    source = braiding._positive_slots(rx, ry)
    target = oracles.pair_stack(*strand_outputs(rx, ry))
    (target_w, _), (source_w, _) = (braiding._total_weights(slots[None])
                                     for slots in (target, source))
    [shift], _ = braiding._weight_shifts(target_w, source_w)
    return int(shift), oracles.weight_mask(source, target), source, target


def _plans_used(monkeypatch):
    """A list that each `_solve_group` pass appends its plan and its two
    stacks to."""
    used = []
    solve_group = braiding._solve_group

    def recorded(plan, source, target):
        used.append((plan, source, target))
        return solve_group(plan, source, target)

    monkeypatch.setattr(braiding, "_solve_group", recorded)
    return used


def _assert_plan_is_the_pattern_one(plan, source, target):
    """`plan` equals, array for array, the plan found by search over each
    crossing's weight mask and zero patterns."""
    for src, tgt in zip(source, target):
        ref = oracles.pattern_plan(oracles.weight_mask(src, tgt), src != 0,
                                   tgt != 0)
        for derived, searched in zip(plan, ref):
            assert derived.shape == searched.shape
            assert np.array_equal(derived, searched)


def _intertwiner(source, target):
    """The intertwiner pass on one crossing's slot stacks: its unit-norm
    block, or its error raised."""
    errors, m, _ = braiding._solve_intertwiners(source[None], target[None])
    if errors:
        raise errors[0]
    return m[0]


def _mixed_batch(rng, rd):
    """Crossing requests of every kind: a positive crossing, the one a
    negative crossing inverts, a curl, an output label shifted off the
    strand rule (NoIntertwiner) and a target weight scaled by 1 + 1e-5
    (WeightGrading)."""
    rx, ry, _ = random_block(rng, rd)
    rc, rd_, _ = random_block(rng, rd)
    ru, rv, _ = random_block(rng, rd)
    ctx = evaluator.EvalContext(rd)
    for d, col in trefoil_colourings():
        evaluator.invariant(d, col, ctx)
    curl = ctx._curl(ctx.rep(*next(iter(ctx._twist))))
    shifted = list(strand_outputs(rx, ry))
    r, s = shifted[0].branch
    shifted[0] = build_irrep(shifted[0].char, (r + 1, s), rd)
    grading = list(strand_outputs(ru, rv))
    gens = grading[0].gens * [[[1 + 1e-5]], [[1]], [[1]], [[1]]]
    grading[0] = dataclasses.replace(grading[0], gens=gens)
    return [braiding.Crossing((rx, ry), strand_outputs(rx, ry)),
            braiding.Crossing(strand_outputs(rc, rd_, -1), (rc, rd_)),
            curl,
            braiding.Crossing((rx, ry), tuple(shifted)),
            braiding.Crossing((ru, rv), tuple(grading))]


class _RefusingNumpy:
    """numpy, except that reading one of `names` raises."""

    def __init__(self, names):
        self._names = names

    def __getattr__(self, name):
        if name in self._names:
            raise AssertionError("np.%s read" % name)
        return getattr(np, name)


def _verdicts(outs):
    """Each output's type and message, or its block's bits and residual."""
    return [(type(out), str(out)) if isinstance(out, Exception) else
            (out.matrix.tobytes(), out.target_branches, out.residual)
            for out in outs]


class TestBatchedSolve:
    def test_batch_matches_requests_solved_alone(self, rng, rd3,
                                                 monkeypatch):
        batch = _mixed_batch(rng, rd3)
        used = _plans_used(monkeypatch)
        outs = braiding.solve_crossings(batch)
        # the shifted output's class shift is not the others': the batch
        # takes the general path of one `_solve_group` pass per shift
        assert len(used) > 1
        assert [type(out).__name__ for out in outs] == [
            "BraidingBlock"] * 3 + ["NoIntertwiner", "WeightGrading"]
        for req, out in zip(batch, outs):
            [alone] = braiding.solve_crossings([req])
            if isinstance(out, Exception):
                assert type(alone) is type(out)
                assert str(alone) == str(out)
                continue
            scale = np.max(np.abs(alone.matrix))
            assert np.max(np.abs(out.matrix - alone.matrix)) < 1e-13 * scale
            assert (out.target_branches, out.nullity) \
                == (alone.target_branches, alone.nullity)
            assert out.residual == pytest.approx(alone.residual, abs=1e-13)

    def test_failures_change_no_bit_of_their_neighbours(self, rng, rd3):
        batch = _mixed_batch(rng, rd3)
        mixed = braiding.solve_crossings(batch)
        clean = braiding.solve_crossings(batch[:3])
        for out, ref in zip(mixed[:3], clean):
            assert np.array_equal(out.matrix.view(np.uint64),
                                  ref.matrix.view(np.uint64))
            assert out.residual == ref.residual

    def test_each_refusal_leaves_the_stack_as_alone(self, rng, rd3):
        # one stack of two passing crossings and one crossing for each
        # refusal after the series factor: source total K not diagonal,
        # weights neither equal nor separated, no weight matched, E1
        # spread.  Each verdict is the crossing's own alone, and each
        # passing block and residual, bit for bit, its clean batch's
        passing = []
        for _ in range(2):
            rx, ry, _ = random_block(rng, rd3)
            passing.append((braiding._positive_slots(rx, ry),
                            oracles.pair_stack(*strand_outputs(rx, ry))))
        source, target = passing[0]
        twisted, skewed = source.copy(), source.copy()
        twisted[braiding._K1] += 1e-3 * source[braiding._E1]
        skewed[braiding._E1][:, 0] *= 1e13
        close, far = target.copy(), target.copy()
        close[braiding._K1] *= 1 + 1e-5
        far[braiding._K1] *= 2.5
        batch = [passing[0], (twisted, target), (source, close), passing[1],
                 (source, far), (skewed, target)]
        errors, m, residual = braiding._solve_intertwiners(
            *map(np.stack, zip(*batch)))
        assert [(k, type(errors[k]).__name__) for k in sorted(errors)] == [
            (1, "WeightGrading"), (2, "WeightGrading"), (4, "NoIntertwiner"),
            (5, "SingularM")]
        for k, exc in errors.items():
            [alone] = braiding._solve_intertwiners(
                batch[k][0][None], batch[k][1][None])[0].values()
            assert (type(exc), str(exc)) == (type(alone), str(alone))
        _, clean_m, clean_residual = braiding._solve_intertwiners(
            *map(np.stack, zip(*passing)))
        assert np.array_equal(m.view(np.uint64), clean_m.view(np.uint64))
        assert np.array_equal(residual.view(np.uint64),
                              clean_residual.view(np.uint64))

    def test_singular_n_leaves_the_batch_as_alone(self, rng, rd3,
                                                  monkeypatch):
        # COND_LIMIT between the two largest dense cond(N) of a batch: the
        # request of the largest is refused with SingularN, as alone, and
        # the others' blocks are, bit for bit, the batch's without it
        batch, conds = [], []
        for _ in range(4):
            rx, ry, _ = random_block(rng, rd3)
            batch.append(braiding.Crossing((rx, ry), strand_outputs(rx, ry)))
            kinv_e = np.diag(1 / np.diagonal(ry.Kmat)) @ ry.Emat
            conds.append(np.linalg.cond(np.eye(9) - np.kron(
                rx.Fmat @ rx.Lmat, rd3.eps * kinv_e)))
        low, high = sorted(conds)[-2:]
        monkeypatch.setattr(braiding, "COND_LIMIT", (low * high) ** 0.5)
        worst = conds.index(high)
        outs = braiding.solve_crossings(batch)
        assert [type(out).__name__ for out in outs] == [
            "SingularN" if k == worst else "BraidingBlock" for k in range(4)]
        assert _verdicts(outs[worst:worst + 1]) \
            == _verdicts(braiding.solve_crossings(batch[worst:worst + 1]))
        assert _verdicts(outs[:worst] + outs[worst + 1:]) == _verdicts(
            braiding.solve_crossings(batch[:worst] + batch[worst + 1:]))

    def test_singular_m_leaves_the_batch_as_alone(self, rd3, monkeypatch):
        # COND_LIMIT between cond(M) of a trefoil-2 crossing and the larger
        # of its cond(N) and its E1 and F2 entry spreads: that request
        # passes every check before M and is refused as a singular
        # intertwiner, as alone, and the others' verdicts are, bit for
        # bit, the batch's without it
        d, col = trefoil_colourings()[0]
        ctx = EvalContext(rd3)
        evaluator.invariant(d, col, ctx)
        batch, gaps = list(ctx._blocks), []
        for req in batch:
            rx, ry = req.inputs
            kinv_e = np.diag(1 / np.diagonal(ry.Kmat)) @ ry.Emat
            cond_n = np.linalg.cond(np.eye(9) - np.kron(
                rx.Fmat @ rx.Lmat, rd3.eps * kinv_e))
            # S_E1 and S_F2 are monomial: one entry per column
            source = braiding._positive_slots(rx, ry)
            spread = max(cols.max() / cols.min() for cols in (
                np.abs(source[w]).max(axis=0)
                for w in (braiding._E1, braiding._F2)))
            cond_m = np.linalg.cond(ctx._blocks[req].matrix)
            gaps.append((cond_m, max(cond_n, spread)))
        worst = max(range(len(batch)), key=lambda k: gaps[k][0] / gaps[k][1])
        high, low = gaps[worst]
        assert high > 2 * low
        monkeypatch.setattr(braiding, "COND_LIMIT", (low * high) ** 0.5)
        outs = braiding.solve_crossings(batch)
        assert (type(outs[worst]), str(outs[worst])) \
            == (braiding.SingularM, "intertwiner is singular")
        assert _verdicts(outs[worst:worst + 1]) \
            == _verdicts(braiding.solve_crossings(batch[worst:worst + 1]))
        assert _verdicts(outs[:worst] + outs[worst + 1:]) == _verdicts(
            braiding.solve_crossings(batch[:worst] + batch[worst + 1:]))

    def test_batch_reads_no_numpy_wrapper(self, rng, rd3, monkeypatch):
        # with the constants of ell = 3 and both index plans formed, the
        # mixed batch solves, to the same bits, with the Python-level
        # wrappers that an ndarray method or a C-level call replaces out
        # of braiding's reach
        batch = _mixed_batch(rng, rd3)
        expected = _verdicts(braiding.solve_crossings(batch))
        monkeypatch.setattr(braiding, "np", _RefusingNumpy(
            ("stack", "broadcast_to", "roll", "flatnonzero", "diagonal",
             "take", "cumprod")))
        assert _verdicts(braiding.solve_crossings(batch)) == expected

    def test_duplicate_keys_are_factorized_once(self, rng, rd3,
                                                monkeypatch):
        # one request twice in one context lookup is factorized once and
        # shares its memo entry; a request on irreps built anew finds it
        # through `EvalContext.rep` (test_evaluator's TestSolveMemo)
        shapes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        batch = _mixed_batch(rng, rd3)[:3]
        monkeypatch.setattr(np.linalg, "svd", counted)
        outs = EvalContext(rd3)._lookup(batch + [batch[0], batch[1]])
        assert sum(shape[0] for shape in shapes) == 3
        assert outs[3] is outs[0] and outs[4] is outs[1]


class TestGradedSolve:
    def test_matches_dense_reference(self, rng):
        for ell in (3, 3, 3, 3, 5, 5):
            rd = RootData(ell)
            rx, ry = (build_irrep(generic_char(rng, rd),
                                  (rng.randrange(ell), rng.randrange(ell)),
                                  rd)
                      for _ in range(2))
            ctx = EvalContext(rd)
            outputs = strand_outputs(rx, ry)
            blk = ctx.solve(rx, ry, outputs)
            m, nullity = _dense_intertwiner(braiding._positive_slots(rx, ry),
                                            oracles.pair_stack(*outputs))
            assert nullity == blk.nullity == 1
            [m], _ = braiding._normalized(m[None])
            assert np.max(np.abs(m - blk.matrix)) < 1e-12
            # the negative crossing is the inverse of its normalized
            # positive block, and spans the nullspace of its own slots
            outputs = strand_outputs(rx, ry, -1)
            neg = ctx.solve_inverse(rx, ry, outputs)
            m, _ = _dense_intertwiner(braiding._positive_slots(*outputs),
                                      oracles.pair_stack(rx, ry))
            [m], _ = braiding._normalized(m[None])
            assert np.max(np.abs(np.linalg.inv(m) - neg.matrix)) < 1e-12
            n, nullity = _dense_intertwiner(_negative_slots(rx, ry),
                                            oracles.pair_stack(*outputs))
            assert nullity == neg.nullity == 1
            norm = np.linalg.norm(neg.matrix)
            assert abs(np.vdot(n, neg.matrix)) == pytest.approx(norm,
                                                                rel=1e-12)

    def test_one_small_svd_per_solve(self, rng, rd3, monkeypatch):
        shapes = {"qr": [], "svd": []}
        for name, seen in shapes.items():
            def counted(a, *args, _fn=getattr(np.linalg, name), _seen=seen,
                        **kwargs):
                _seen.append(a.shape)
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rx, ry, _ = random_block(rng, rd3)
        EvalContext(rd3).solve_inverse(rx, ry,
                                       strand_outputs(rx, ry, sign=-1))
        # one factorization per system: the QR of the (8 ell^3, ell)
        # system, then the SVD of its (ell, ell) R factor
        ell = rd3.ell
        assert shapes["qr"] == [(1, 8 * ell ** 3, ell)] * 2
        assert shapes["svd"] == [(1, ell, ell)] * 2

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_orbits_tile_the_weight_classes(self, rng, ell):
        # ell orbits of ell^2 entries each; every orbit meets each target
        # row and each source column once, and together they are exactly
        # the weight-matched entries
        rd = RootData(ell)
        rx, ry = (build_irrep(generic_char(rng, rd),
                              (rng.randrange(ell), rng.randrange(ell)), rd)
                  for _ in range(2))
        shift, mask, _, _ = _plan_inputs(rx, ry)
        plan = braiding._plan(ell, shift)
        dim = ell * ell
        orbits = plan.entries.reshape(ell, dim)
        for orbit in orbits:
            assert sorted(orbit // dim) == sorted(orbit % dim) \
                == list(range(dim))
        assert sorted(orbits.ravel()) == list(np.flatnonzero(mask))

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_derived_plan_is_the_pattern_one(self, rng, ell, monkeypatch):
        # both crossings of seeded pairs with random labels: the plan
        # derived from (ell, shift) is the one found from the patterns
        used = _plans_used(monkeypatch)
        rd = RootData(ell)
        ctx = EvalContext(rd)
        for _ in range(4):
            rx, ry = (build_irrep(generic_char(rng, rd),
                                  (rng.randrange(ell), rng.randrange(ell)),
                                  rd)
                      for _ in range(2))
            ctx.solve(rx, ry, strand_outputs(rx, ry))
            ctx.solve_inverse(rx, ry, strand_outputs(rx, ry, -1))
        assert sum(len(source) for _, source, _ in used) == 8
        for args in used:
            _assert_plan_is_the_pattern_one(*args)

    @pytest.mark.parametrize("ell", [3, 5, 7, 9])
    def test_trefoil_plans_are_the_pattern_ones(self, ell, monkeypatch):
        used = _plans_used(monkeypatch)
        ctx = EvalContext(RootData(ell))
        for d, col in trefoil_colourings():
            evaluator.invariant(d, col, ctx)
        assert used
        for args in used:
            _assert_plan_is_the_pattern_one(*args)

    def test_plan_memo_changes_no_bit(self, rng, rd3, monkeypatch):
        # a block solved on an emptied memo equals, bit for bit, the block
        # solved again on the plan that the first solve left there
        monkeypatch.setattr(braiding, "_PLANS", {})
        rx, ry, cold = random_block(rng, rd3)
        assert list(braiding._PLANS) == [(3, _plan_inputs(rx, ry)[0])]
        warm = EvalContext(rd3).solve(rx, ry, strand_outputs(rx, ry))
        assert len(braiding._PLANS) == 1
        assert np.array_equal(cold.matrix.view(np.uint64),
                              warm.matrix.view(np.uint64))

    def test_plan_memo_holds_index_arrays_by_shift(self, rng, monkeypatch):
        # one plan per (ell, shift), of integer arrays only: at most ell
        # per ell, whatever crossings were solved
        monkeypatch.setattr(braiding, "_PLANS", {})
        for ell in (3, 5):
            rd = RootData(ell)
            for _ in range(3):
                rx, ry = (build_irrep(generic_char(rng, rd),
                                      (rng.randrange(ell),
                                       rng.randrange(ell)), rd)
                          for _ in range(2))
                EvalContext(rd).solve(rx, ry, strand_outputs(rx, ry))
            for shift in range(ell):
                braiding._plan(ell, shift)
        assert sorted(braiding._PLANS) == [(ell, shift) for ell in (3, 5)
                                           for shift in range(ell)]
        for (ell, shift), plan in braiding._PLANS.items():
            assert type(ell) is int and type(shift) is int
            for arr, built in zip(plan, braiding._build_plan(ell, shift)):
                assert isinstance(arr, np.ndarray) and arr.dtype.kind in "iu"
                assert np.array_equal(arr, built)

    def test_other_zero_pattern_solves_on_the_derived_plan(self, rng, rd3):
        # a source K1 entry set to zero changes the zero pattern, not the
        # plan: the plan searched from the new pattern is the derived one,
        # and both solve the crossing, and the changed stack, alike
        shift, mask, source, target = _plan_inputs(
            *random_block(rng, rd3)[:2])
        i, j = np.argwhere(source[braiding._K1] != 0)[-1]
        changed = source.copy()
        changed[braiding._K1, i, j] = 0
        derived = braiding._plan(rd3.ell, shift)
        searched = oracles.pattern_plan(mask, changed != 0, target != 0)
        assert all(np.array_equal(a, b) for a, b in zip(derived, searched))
        # the zero leaves no intertwiner: the changed stack has no block
        for stack, blocks in ((source, 1), (changed, 0)):
            (found, m, res), (ref_found, ref_m, ref_res) = (
                braiding._solve_group(plan, stack[None], target[None])
                for plan in (derived, searched))
            assert [(type(e), str(e)) for e in found.values()] \
                == [(type(e), str(e)) for e in ref_found.values()]
            assert len(m) == len(ref_m) == blocks
            assert np.all(np.abs(m - ref_m) < 1e-13)
            assert np.all(np.abs(res - ref_res) < 1e-13)

    def test_weight_rule(self, rng, rd3):
        rx, ry, _ = random_block(rng, rd3)
        slots = braiding._positive_slots(rx, ry)

        def targets_scaled(factor):
            t = oracles.pair_stack(*strand_outputs(rx, ry))
            t[braiding._K1] *= factor
            return t

        # every target weight far from every source weight: no entry
        with pytest.raises(braiding.NoIntertwiner):
            _intertwiner(slots, targets_scaled(2.5))
        # neither equal nor separated: refused, not guessed
        with pytest.raises(braiding.WeightGrading):
            _intertwiner(slots, targets_scaled(1 + 1e-5))
        twisted = slots.copy()
        twisted[braiding._K1] += 1e-3 * slots[braiding._E1]
        with pytest.raises(braiding.WeightGrading):
            _intertwiner(twisted, targets_scaled(1))
        # an ill-conditioned E1 source slot would amplify rounding along
        # the transport: refused by its entry moduli
        skewed = slots.copy()
        skewed[braiding._E1][:, 0] *= 1e13
        with pytest.raises(braiding.SingularM):
            _intertwiner(skewed, targets_scaled(1))
        _intertwiner(slots, targets_scaled(1))

    def test_ell5_shifted_outputs_are_refused(self, rng):
        # an output label shifted in r or in s names another module with
        # the same character: the transported basis still spans every
        # candidate, and the other slots leave no intertwiner
        rd = RootData(5)
        rx, ry = (build_irrep(generic_char(rng, rd),
                              (rng.randrange(5), rng.randrange(5)), rd)
                  for _ in range(2))
        ctx = EvalContext(rd)
        for sign, solve in ((1, ctx.solve), (-1, ctx.solve_inverse)):
            rule = strand_outputs(rx, ry, sign)
            solve(rx, ry, rule)
            for side, (dr, ds) in product((0, 1), ((1, 0), (0, 1), (2, 3))):
                outputs = list(rule)
                r, s = outputs[side].branch
                outputs[side] = build_irrep(outputs[side].char,
                                            (r + dr, s + ds), rd)
                with pytest.raises(braiding.NoIntertwiner):
                    solve(rx, ry, tuple(outputs))

    def test_ell5_trefoil_presentations_agree(self):
        two, three = trefoil_magnitudes(RootData(5))
        assert two == pytest.approx(three, abs=1e-8)

    def test_ell7_trefoil_presentations_agree(self):
        two, three = trefoil_magnitudes(RootData(7))
        assert two == pytest.approx(three, abs=1e-8)

    def test_ell11_trefoil_is_ell_to_three_halves(self):
        # the blocks have 121 x 121 entries and determinants below the
        # smallest double; both presentations still give 11^(3/2)
        for value in trefoil_magnitudes(RootData(11)):
            assert value == pytest.approx(11 ** 1.5, abs=1e-8)
