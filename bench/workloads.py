"""The benchmark's workloads.

A workload builds its inputs from a seed (`setup`), lists the ops of one
round in a seeded order (`round`), runs one op through tanglev (`run`, the
only timed call) and checks the op's output (`check`, which returns None or
a message).  Checks compare with code written apart from tanglev or with
properties the method must have, never with stored numbers.
"""

import random
from fractions import Fraction

import numpy as np

from tanglev import coloring, diagram, evaluator, factgroup
from tanglev.coloring import ColoredBoundary
from tanglev.evaluator import EvalContext
from tanglev.factgroup import Mat2, NotFactorizable
from tanglev.rational import QC
from tanglev.uqalgebra import RootData

import exact

ELL = 3


# ---------------------------------------------------------------------------
# group-exact


def _rational_scalar(rng, span=5, maxden=4):
    den = rng.randint(1, maxden)
    return Fraction(rng.randint(-span * den, span * den), den)


def _rational_mat(rng):
    """A factorizable matrix, drawn like the test suite's `rational_mat`."""
    while True:
        ref = tuple((_rational_scalar(rng), Fraction(0)) for _ in range(4))
        try:
            exact.gauss(ref)
        except exact.Degenerate:
            continue
        return ref


def _to_mat2(ref):
    return Mat2(*(QC(re, im) for re, im in ref))


class GroupExact:
    """Exact YBE, star associativity and star inverse on rational triples."""

    # set-up and ops are both pure-Python Fraction work
    SETUP_DRIFT_PARTS = DRIFT_PARTS = ("fraction",)
    # One pool for every run, so op_s.p99, which reads the pool's heaviest
    # triples, does not change with the seed (it moved by 18% between pools
    # of 1500); the seed orders each round.  A pool of 500 gives four rounds
    # in a run, so each triple's median time is free of one-off host stalls.
    POOL = 500
    POOL_SEED = 20101008

    def setup(self, seed):
        rng = random.Random(self.POOL_SEED)
        self.refs = [tuple(_rational_mat(rng) for _ in range(3))
                     for _ in range(self.POOL)]
        self.triples = [tuple(_to_mat2(m) for m in t) for t in self.refs]
        self.expected = {}
        self.not_factorizable = 0

    def round(self, rng):
        order = list(range(self.POOL))
        rng.shuffle(order)
        return order

    def label(self, i):
        return "triple-%d" % i

    def run(self, i):
        a, b, c = self.triples[i]
        yb = factgroup.yb_map

        def r12(t):
            return yb(t[0], t[1]) + (t[2],)

        def r13(t):
            u, v = yb(t[0], t[2])
            return (u, t[1], v)

        def r23(t):
            return (t[0],) + yb(t[1], t[2])

        try:
            sides = r12(r13(r23((a, b, c)))), r23(r13(r12((a, b, c))))
        except NotFactorizable:
            return "yb"
        star = factgroup.star_mul
        try:
            return (sides, star(star(a, b), c), star(a, star(b, c)),
                    star(a, factgroup.star_inv(a)))
        except NotFactorizable:
            return "star"

    def _reference(self, i):
        ref = self.expected.get(i)
        if ref is None:
            a, b, c = t = self.refs[i]
            try:
                ref = exact.yb_sides(t)
            except exact.Degenerate:
                ref = "yb"
            else:
                try:
                    ref = (ref, exact.star_mul(exact.star_mul(a, b), c))
                except exact.Degenerate:
                    ref = "star"
            self.expected[i] = ref
        return ref

    def check(self, i, out):
        ref = self._reference(i)
        if isinstance(out, str) or isinstance(ref, str):
            if out != ref:
                return "triple %d: NotFactorizable at %r, reference at %r" \
                    % (i, out, ref)
            self.not_factorizable += 1
            return None
        (lhs, rhs), ab_c, a_bc, unit = out
        (ref_lhs, ref_rhs), ref_star = ref
        if not all(exact.equals(m, r) for m, r in
                   zip(lhs + rhs, ref_lhs + ref_rhs)):
            return "triple %d: yb_map differs from the Gauss-decomposition " \
                "crossing map" % i
        if lhs != rhs:
            return "triple %d: YBE fails" % i
        if not exact.equals(ab_c, ref_star) or ab_c != a_bc:
            return "triple %d: star product not associative" % i
        if unit != factgroup.identity():
            return "triple %d: star inverse is not an inverse" % i
        return None

    def counters(self):
        return {"not_factorizable": self.not_factorizable}


# ---------------------------------------------------------------------------
# knots


def _meridians():
    """Generic meridians A, B with A B A = B A B (the test suite's
    `trefoil_meridians`)."""
    s, lam = 0.5 + 1.0j, 0.8 - 0.5j
    a0 = np.array([[1, s], [0, 1]])
    b0 = np.array([[1, 0], [-1 / s, 1]])
    p = np.array([[1.1 + 0.3j, -0.4 + 0.2j], [0.6 - 0.1j, 0.9 + 0.7j]])
    pinv = np.linalg.inv(p)
    return lam * (p @ a0 @ pinv), lam * (p @ b0 @ pinv)


def _mat2(m):
    return Mat2(*(complex(v) for v in np.asarray(m).ravel()))


def knots():
    """[(name, diagram, bottom boundary, cup seed colours)] of the unknot
    with a cancelling curl pair and the 2- and 3-strand trefoils."""
    a, b = _meridians()
    x1, x2 = coloring.functor_f_object(
        [(1, _mat2(a)), (1, _mat2(a @ b))]).colors()
    y1, y2, y3 = coloring.functor_f_object(
        [(1, _mat2(a)), (1, _mat2(a @ b)), (1, _mat2(a @ b @ a))]).colors()
    strand = diagram.parse("id+")
    curl = next(diagram.find_move_sites(strand, "FramedR1"))
    return [
        ("unknot-curl", diagram.apply_move(strand, "FramedR1", curl),
         ColoredBoundary(((1, x1),)), []),
        ("trefoil-2", diagram.close_braid_partial(
            diagram.braid_word([1, 1, 1], 2)),
         ColoredBoundary(((1, x1),)), [x2]),
        ("trefoil-3", diagram.close_braid_partial(
            diagram.braid_word([1, 2, 1, 2], 3)),
         ColoredBoundary(((1, y1),)), [y2, y3]),
    ]


def _knot_problem(name, value, log, tol=1e-8):
    off = dict(log).get("schur_off_scalar")
    if off is None or not off < tol:
        return "%s: block is not scalar (off-scalar %r)" % (name, off)
    if name == "unknot-curl" and not abs(abs(value) - 1) < tol:
        return "%s: |value| = %r, not 1" % (name, abs(value))
    if name.startswith("trefoil") and not abs(value) - 1 > 1e-2:
        return "%s: |value| = %r does not tell it from the unknot" \
            % (name, abs(value))
    return None


class KnotCold:
    """Each op: colour one knot and evaluate it from a fresh EvalContext."""

    # set-up is imports only; ops are mostly nullspace SVDs
    SETUP_DRIFT_PARTS = ("fraction",)
    DRIFT_PARTS = ("fraction", "svd")

    def setup(self, seed):
        self.knots = knots()
        self.last = {}

    def round(self, rng):
        # Each op starts from a fresh context, so the order changes no
        # result; a fixed order keeps the cyclic collections, which free the
        # contexts that cached exceptions keep alive, at the same points in
        # every run, so peak_rss_mb does not depend on the seed.
        return list(range(len(self.knots)))

    def label(self, k):
        return self.knots[k][0]

    def run(self, k):
        _, d, bottom, seeds = self.knots[k]
        col = coloring.propagate(d, bottom, cup_seeds=dict(enumerate(seeds)))
        return evaluator.invariant(d, col, EvalContext(RootData(ELL)))

    def check(self, k, out):
        name = self.knots[k][0]
        value, log = out
        problem = _knot_problem(name, value, log)
        if problem:
            return problem
        self.last[name] = abs(value)
        t2, t3 = self.last.get("trefoil-2"), self.last.get("trefoil-3")
        if t2 is not None and t3 is not None and not abs(t2 - t3) < 1e-8:
            return "|2-strand trefoil| = %r, |3-strand trefoil| = %r" \
                % (t2, t3)
        return None

    def counters(self):
        return {}


# ---------------------------------------------------------------------------
# moves-warm

MOVES = ("R2", "R3", "FramedR1", "SlideCupCap")
SITES_PER_MOVE = 6

#: (knot, move, site index in find_move_sites order) kept out of the
#: workload, with what happens there at the fixture colouring (see the
#: FOUND line on move sites in CHANGES.md).
_SLOW = "no result within 12 s; longer runs end in BranchObstruction or run on"
EXCLUDED = {
    **{("unknot-curl", "R2", i): "recolouring raises Inconsistent"
       for i in range(6)},
    ("unknot-curl", "FramedR1", 4): "recolouring raises Inconsistent",
    ("unknot-curl", "FramedR1", 5): "recolouring raises Inconsistent",
    ("trefoil-2", "FramedR1", 4): _SLOW,
    ("trefoil-2", "FramedR1", 5): _SLOW,
    ("trefoil-3", "R2", 4): _SLOW,
    ("trefoil-3", "R3", 0): _SLOW,
    ("trefoil-3", "FramedR1", 4): _SLOW,
    ("trefoil-3", "FramedR1", 5): _SLOW,
}


class MovesWarm:
    """Each op: re-apply one framed move, recolour, re-evaluate against one
    EvalContext that set-up has filled."""

    # set-up is cold solves like knot-cold's ops; ops are contraction,
    # planner and colouring: many numpy calls on small arrays
    SETUP_DRIFT_PARTS = ("fraction", "svd")
    DRIFT_PARTS = ("small",)

    def setup(self, seed):
        self.ctx = EvalContext(RootData(ELL))
        self.sites = []
        self.base = {}
        self.setup_errors = {}
        for name, d, bottom, seeds in knots():
            col = coloring.propagate(d, bottom,
                                     cup_seeds=dict(enumerate(seeds)))
            value, log = evaluator.invariant(d, col, self.ctx)
            self.base[name] = abs(value)
            for move in MOVES:
                found = list(diagram.find_move_sites(d, move))
                for i, site in enumerate(found[:SITES_PER_MOVE]):
                    if (name, move, i) in EXCLUDED:
                        continue
                    op = (name, d, bottom, seeds, move, i, site)
                    self.sites.append(op)
                    try:
                        self.run(op)
                    except Exception as exc:  # the op counts as failed
                        self.setup_errors[self.label(op)] = repr(exc)

    def round(self, rng):
        order = list(self.sites)
        rng.shuffle(order)
        return order

    def label(self, op):
        return "%s/%s/%d" % (op[0], op[4], op[5])

    def run(self, op):
        _, d, bottom, seeds, move, _, site = op
        moved = diagram.apply_move(d, move, site)
        col = evaluator._recolor(moved, bottom, seeds)
        return evaluator.invariant(moved, col, self.ctx)

    def check(self, op, out):
        value, _ = out
        base = self.base[op[0]]
        if not abs(abs(value) - base) < 1e-8:
            return "%s: |value| = %r, base %r" % (self.label(op), abs(value),
                                                   base)
        return None

    def counters(self):
        return {"sites": len(self.sites), "setup_errors": self.setup_errors}


WORKLOADS = {"group-exact": GroupExact, "knot-cold": KnotCold,
             "moves-warm": MovesWarm}
