"""The benchmark's workloads still run against the library.

`bench/workloads.py` calls `coloring.propagate`, `evaluator._recolor` and
`evaluator.invariant` directly; one round of each numeric workload, with
every op's own check, catches a refactor that breaks that contract, and
one traced `knot-cold` round checks what `bench/tracer.py` counts.  Nothing
is timed and nothing is written.
"""

import pathlib
import random
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    return workloads


@pytest.mark.parametrize("name", ["knot-cold", "moves-warm"])
def test_one_round_checks_clean(workloads, name):
    wl = workloads.WORKLOADS[name]()
    wl.setup(1)
    assert wl.counters().get("setup_errors", {}) == {}
    ops = wl.round(random.Random(1))
    assert ops
    for op in ops:
        assert wl.check(op, wl.run(op)) is None, wl.label(op)


def test_traced_knot_cold_solves_once_per_crossing(workloads):
    # one solve and one SVD per crossing block, 2, 4 and 6 for the three
    # knots: a negative crossing that went through the public positive
    # solve would count twice
    import tracer
    wl = workloads.WORKLOADS["knot-cold"]()
    wl.setup(1)
    ops = wl.round(random.Random(1))
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
    metrics = tr.metrics(len(ops))
    assert metrics["braiding.solve_calls"]["value"] == 4.0
    assert metrics["braiding.nullspace_factorizations"]["value"] == 4.0
