"""The benchmark's workloads still run against the library.

`bench/workloads.py` calls `coloring.propagate`, `evaluator._recolor`,
`evaluator.invariant` and `factgroup` directly, and `bench/exact.py` reads
`QC.re` and `QC.im`; one round of each numeric workload and the first
GROUP_OPS ops of a `group-exact` round, each with its op's own check, catch
a refactor that breaks that contract, and traced rounds and solves check
what `bench/tracer.py` counts.  Nothing is timed and nothing is written.
"""

import pathlib
import random
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
GROUP_OPS = 50
# a whole group-exact round is its pool of 500 triples
ROUND_SLICE = {"group-exact": GROUP_OPS}


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    return workloads


@pytest.mark.parametrize("name", ["knot-cold", "moves-warm", "group-exact"])
def test_one_round_checks_clean(workloads, name):
    wl = workloads.WORKLOADS[name]()
    wl.setup(1)
    assert wl.counters().get("setup_errors", {}) == {}
    ops = wl.round(random.Random(1))[:ROUND_SLICE.get(name)]
    assert ops
    for op in ops:
        assert wl.check(op, wl.run(op)) is None, wl.label(op)


def _traced(workloads, name, limit=None):
    """The per-layer metrics of one traced round (its first `limit` ops)."""
    import tracer
    wl = workloads.WORKLOADS[name]()
    wl.setup(1)
    ops = wl.round(random.Random(1))[:limit]
    tr = tracer.Tracer()
    try:
        for op in ops:
            tr.begin_op(wl.label(op))
            try:
                out = wl.run(op)
            finally:
                tr.end_op()
            assert wl.check(op, out) is None, wl.label(op)
    finally:
        tr.uninstall()
    return tr.metrics(len(ops))


def test_traced_knot_cold_solves_once_per_crossing(workloads, monkeypatch):
    # one factorized system per positive crossing block, 1, 4 and 6 for
    # the three knots (11/3 per op), read from the leading dimension of the
    # stacked SVD: the unknot's curl pair and its twist share one block,
    # which its negative crossing inverts.  Each knot meets one index plan,
    # so each contraction makes one SVD call.
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    metrics = _traced(workloads, "knot-cold")
    ops = len(workloads.knots())
    assert [shape[0] for shape in shapes] == [1, 4, 6]
    assert sum(shape[0] for shape in shapes) / ops == 11 / 3
    assert metrics["braiding.nullspace_factorizations"]["value"] \
        == len(shapes) / ops == 1.0


def test_traced_moves_warm_derives_nothing(workloads):
    # every move op re-evaluates against the context set-up filled: a warm
    # lookup that missed would build an irrep or factorize a system again
    metrics = _traced(workloads, "moves-warm")
    assert metrics["uqalgebra.build_irrep_calls"]["value"] == 0
    assert metrics["braiding.nullspace_factorizations"]["value"] == 0


def test_traced_context_solves(workloads):
    # the tracer wraps EvalContext.solve and solve_inverse by name; traced,
    # each returns its block on the trefoil fixture colours and records
    # its span with no error
    import tracer
    from conftest import strand_outputs, trefoil_boundary_2
    from tanglev.evaluator import EvalContext
    from tanglev.uqalgebra import RootData

    ctx = EvalContext(RootData(3))
    x1, x2 = (ctx.rep(ctx.char_of(g), (0, 0)) for g in trefoil_boundary_2())
    tr = tracer.Tracer()
    tr.begin_op("solves")
    try:
        blocks = [ctx.solve(x1, x2, strand_outputs(x1, x2)),
                  ctx.solve_inverse(x1, x2, strand_outputs(x1, x2, -1))]
    finally:
        tr.end_op()
    assert [blk.nullity for blk in blocks] == [1, 1]
    spans = [rec for rec in tr.spans if tr.names[rec[0]] in tracer.CTX_SOLVES]
    assert [tr.names[rec[0]] for rec in spans] == list(tracer.CTX_SOLVES)
    assert all(rec[4] is None for rec in tr.spans)


def test_traced_group_exact_counts_qc_ops(workloads):
    # the tracer counts the QC operations it patches on the class itself
    metrics = _traced(workloads, "group-exact", GROUP_OPS)
    assert metrics["rational.qc_ops"]["value"] > 0
