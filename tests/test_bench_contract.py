"""The benchmark's workloads still run against the library.

`bench/workloads.py` calls `coloring.propagate`, `evaluator._recolor` and
`evaluator.invariant` directly; one round of each numeric workload, with
every op's own check, catches a refactor that breaks that contract.  This
imports the workloads only: nothing is timed and nothing is written.
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
