"""Per-layer tracing of tanglev from outside its sources.

`Tracer.install()` replaces, in every tanglev module that holds a reference,
each public function of the seven layer modules by a wrapper that records a
span [name, start, end, parent, error, note].  It also wraps the branch
planner `evaluator._plan_branches`, the public methods of `EvalContext`
(the evaluator's caches), and, inside `braiding` only, `numpy.linalg.svd`
(the nullspace factorization).  `rational` gets counters, not spans: its
operations are too many and too short, so their time stays in the self time
of the calling layer.  Methods of data classes (Mat2, GColoring, ...) are
not wrapped either; their time, too, counts to the caller.
`uninstall()` puts every original back.  Nothing in `src/` changes.
"""

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("rational", "factgroup", "diagram", "coloring", "uqalgebra",
          "braiding", "evaluator")
QC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__eq__")
CONTEXT_METHODS = ("rep", "solve", "solve_inverse", "mu", "twist_scale")
SVD = "numpy.linalg.svd"
SOLVES = ("braiding.solve_braiding", "braiding.solve_braiding_inverse")
CTX_SOLVES = ("evaluator.EvalContext.solve",
              "evaluator.EvalContext.solve_inverse")


class _Namespace:
    """Delegates attribute reads to `target` except for the given names."""

    def __init__(self, target, **override):
        self._target = target
        self.__dict__.update(override)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.qc_ops = [0]
        self._patches = []
        self._build()
        self._op_name = len(self.names)
        self.names.append("bench.op")

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, note=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = bool(note(out))
            return out
        return traced

    def _counted(self, fn):
        box = self.qc_ops

        @functools.wraps(fn)
        def counted(*args):
            box[0] += 1
            return fn(*args)
        return counted

    def _build(self):
        mods = {layer: importlib.import_module("tanglev." + layer)
                for layer in LAYERS}
        holders = [importlib.import_module(m) for m in
                   ("tanglev",) + tuple("tanglev." + x for x in LAYERS)]
        targets = []
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    targets.append((layer + "." + name, obj))
        ev = mods["evaluator"]
        targets.append(("evaluator._plan_branches", ev._plan_branches))
        notes = {"braiding.solve_braiding": lambda blk: blk.branch_retry,
                 "braiding.solve_braiding_inverse":
                     lambda blk: blk.branch_retry}
        for name, fn in targets:
            wrapper = self._span(name, fn, notes.get(name))
            for holder in holders:
                for attr, val in list(vars(holder).items()):
                    if val is fn:
                        self._patches.append((holder, attr, fn, wrapper))
        ctx = ev.EvalContext
        for meth in CONTEXT_METHODS:
            fn = vars(ctx)[meth]
            note = (lambda v: v == 1.0) if meth == "twist_scale" else None
            self._patches.append((ctx, meth, fn, self._span(
                "evaluator.EvalContext." + meth, fn, note)))
        qc = mods["rational"].QC
        for op in QC_OPS:
            fn = vars(qc)[op]
            self._patches.append((qc, op, fn, self._counted(fn)))
        br = mods["braiding"]
        linalg = _Namespace(np.linalg,
                            svd=self._span(SVD, np.linalg.svd))
        self._patches.append((br, "np", br.np, _Namespace(np, linalg=linalg)))

    def install(self):
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)

    # -- ops ---------------------------------------------------------------

    def begin_op(self, label):
        """Open the root span of one op; every span of the op descends
        from it."""
        rec = [self._op_name, 0.0, 0.0, -1, None, label]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.install()
        rec[1] = time.perf_counter()

    def end_op(self):
        rec = self.spans[self.stack.pop()]
        rec[2] = time.perf_counter()
        self.uninstall()

    # -- results -----------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics, per traced op."""
        spans, names = self.spans, self.names
        n = len(spans)
        name = [names[rec[0]] for rec in spans]
        child = [0.0] * n
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_t = {}
        for i, rec in enumerate(spans):
            layer = name[i].split(".")[0]
            self_t[layer] = self_t.get(layer, 0.0) \
                + rec[2] - rec[1] - child[i]

        def count(pred):
            return sum(1 for i in range(n) if pred(i))

        def parents_of(pred):
            return {spans[i][3] for i in range(n) if pred(i)}

        def ratio(good, total):
            # a layer that is not called wastes nothing
            return good / total if total else 1.0

        def self_of(*wanted):
            return sum(spans[i][2] - spans[i][1] - child[i]
                       for i in range(n) if name[i] in wanted)

        calls = {layer: count(lambda i, p=layer + ".": name[i].startswith(p))
                 for layer in LAYERS}
        prop = [i for i in range(n) if name[i] == "coloring.propagate"]
        prop_failed = sum(1 for i in prop if spans[i][4])
        solves = [i for i in range(n) if name[i] in SOLVES]
        solve_failed = sum(1 for i in solves if spans[i][4])
        svds = count(lambda i: name[i] == SVD)
        built_by = parents_of(lambda i: name[i] == "uqalgebra.build_irrep")
        solved_by = parents_of(lambda i: name[i] in SOLVES)
        erred_in = parents_of(lambda i: spans[i][4] is not None)
        reps = [i for i in range(n) if name[i] == "evaluator.EvalContext.rep"]
        rep_misses = sum(1 for i in reps if i in built_by)
        ctx_solves = [i for i in range(n) if name[i] in CTX_SOLVES]
        solve_misses = sum(1 for i in ctx_solves if i in solved_by)
        twist_fallbacks = count(
            lambda i: name[i] == "evaluator.EvalContext.twist_scale"
            and spans[i][5] and i in erred_in)
        planner_nodes = sum(
            1 for i in ctx_solves
            if spans[i][3] >= 0
            and name[spans[i][3]] == "evaluator._plan_branches")

        out = {
            "rational.qc_ops": (self.qc_ops[0], "count/op"),
            "factgroup.calls": (calls["factgroup"], "count/op"),
            "factgroup.self_s": (self_t.get("factgroup", 0.0), "s/op"),
            "diagram.calls": (calls["diagram"], "count/op"),
            "diagram.self_s": (self_t.get("diagram", 0.0), "s/op"),
            "coloring.propagate_calls": (len(prop), "count/op"),
            "coloring.propagate_failed": (prop_failed, "count/op"),
            "coloring.self_s": (self_t.get("coloring", 0.0), "s/op"),
            "uqalgebra.build_irrep_calls": (
                count(lambda i: name[i] == "uqalgebra.build_irrep"),
                "count/op"),
            "uqalgebra.self_s": (self_t.get("uqalgebra", 0.0), "s/op"),
            "braiding.solve_calls": (len(solves), "count/op"),
            "braiding.solve_failed": (solve_failed, "count/op"),
            "braiding.retried_blocks": (
                sum(1 for i in solves if spans[i][5]), "count/op"),
            "braiding.nullspace_factorizations": (svds, "count/op"),
            "braiding.nullspace_s": (self_of(SVD), "s/op"),
            "braiding.self_s": (self_t.get("braiding", 0.0), "s/op"),
            "evaluator.rep_misses": (rep_misses, "count/op"),
            "evaluator.solve_misses": (solve_misses, "count/op"),
            "evaluator.twist_fallbacks": (twist_fallbacks, "count/op"),
            "evaluator.planner_nodes": (planner_nodes, "count/op"),
            "evaluator.plan_self_s": (
                self_of("evaluator._plan_branches"), "s/op"),
            "evaluator.contract_self_s": (
                self_of("evaluator.contract", "evaluator.elementary_op"),
                "s/op"),
        }
        out = {k: {"value": v / ops, "unit": u} for k, (v, u) in out.items()}
        ratios = {
            "coloring.propagate_useful_ratio": ratio(
                len(prop) - prop_failed, len(prop)),
            "braiding.factorization_useful_ratio": ratio(
                len(solves) - solve_failed, svds),
            "evaluator.rep_hit_ratio": ratio(len(reps) - rep_misses,
                                             len(reps)),
            "evaluator.solve_hit_ratio": ratio(
                len(ctx_solves) - solve_misses, len(ctx_solves)),
        }
        out.update({k: {"value": v, "unit": "ratio"}
                    for k, v in ratios.items()})
        return out

    def write(self, path):
        """Spans as JSON lines: a header with the name table, then one
        [name id, start, end, parent, error, note] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "clock": "time.perf_counter"}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
