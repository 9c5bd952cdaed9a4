"""Benchmark of tanglev: one workload in one process on one thread.

    python3 bench/run.py --workload knot-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; tanglev is imported from its `src/`.  The
run sets up the workload SETUP_REPEATS times, then runs whole rounds of ops
until --seconds have passed.  Only the tanglev calls of an op are timed;
every op's output is checked outside that time.  A reference kernel
(refkernel.py) runs between ops about every REF_EVERY_S seconds, and every
duration is scaled by the kernel's nominal time over its time right around
that duration, to take out drift in host speed.

Standard output: one `info {...}` line with the machine, the seed, the
reference median and the raw and corrected figures, then, as the last line,
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones.  With --trace 1 rounds alternate between untraced
and traced; the metrics are the per-layer ones from the traced rounds, per
op, and the tracing overhead.  Each run also writes its record, and the
spans of a traced run, to bench/out/.
"""

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

# BLAS runs on one thread; numpy is first imported in main(), after this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 3
REF_EVERY_S = 0.2
REF_RUNS = 3


class RefSampler:
    """Reference-kernel samples taken between ops.

    A sample is the median of REF_RUNS runs of the workload's kernel parts.
    A duration measured between samples j and j + 1 is scaled by nominal /
    (median of samples j - 1 .. j + 2): the host speed right around it.
    """

    def __init__(self, refkernel, parts):
        self._kernel = refkernel
        self._input = refkernel.inputs()
        self.parts = parts
        self.nominal_s = sum(refkernel.NOMINAL_S[p] for p in parts)
        self.samples = []
        self._next = 0.0

    def sample(self):
        self.samples.append(statistics.median(
            sum(self._kernel.run_once(self._input, self.parts).values())
            for _ in range(REF_RUNS)))
        self._next = time.perf_counter() + REF_EVERY_S

    def maybe(self):
        if time.perf_counter() >= self._next:
            self.sample()
        return len(self.samples) - 1

    def scale(self, j):
        """Scale for a duration measured after sample j and before the
        next one (or, for j = -1, before the first)."""
        return self.nominal_s / statistics.median(
            self.samples[max(j - 1, 0):j + 3])


def blas_facts(numpy):
    cfg = numpy.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    facts = {"blas": "%s %s" % (blas.get("name"), blas.get("version")),
             "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                get = getattr(lib, fn)
                get.restype = ctypes.c_int
                facts["blas_threads"] = get()
                return facts
    return facts


def end_to_end(timed, setup_s, peak_rss_mb):
    """The end-to-end metrics from [(op duration, op label)]."""
    by_label = {}
    for d, label in timed:
        by_label.setdefault(label, []).append(d)
    # A round is a fixed mix of inputs with different costs.  Quantiles are
    # taken over inputs of each input's median op time: the median of the
    # pooled times can jump across a gap between the costs of two inputs,
    # and a pooled tail of a few ops is one host hiccup.
    per_input = [statistics.median(v) for v in by_label.values()]
    if len(per_input) == 1:  # quantiles() needs two points
        per_input *= 2
    p50, p99 = (statistics.quantiles(per_input, n=100, method="inclusive")
                [q - 1] for q in (50, 99))
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (p50, "s"),
        "op_s.p99": (p99, "s"),
        "ops_per_s": (len(timed) / sum(d for d, _ in timed), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tanglev", "__init__.py")):
        sys.exit("bench: no tanglev sources under %s" % SRC)
    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy
    import tanglev
    import tanglev.evaluator  # noqa: F401  (the whole pipeline)
    import_s = time.perf_counter() - t_import
    if not tanglev.__file__.startswith(SRC):
        sys.exit("bench: tanglev imported from %s, not %s"
                 % (tanglev.__file__, SRC))

    import refkernel
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit("bench: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))

    wl = workloads.WORKLOADS[args.workload]()
    setup_ref = RefSampler(refkernel, wl.SETUP_DRIFT_PARTS)
    setup_ref.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        j = len(setup_ref.samples) - 1
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setups.append((time.perf_counter() - t0, j))
        setup_ref.sample()

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    ref = RefSampler(refkernel, wl.DRIFT_PARTS)
    ref.sample()
    rng = random.Random(args.seed)
    durations, traced_durations = [], []
    attempted = failed = 0
    problems, errors = [], []
    rounds = 0
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for op in wl.round(rng):
            j = ref.maybe()
            if traced:
                tracer.begin_op(wl.label(op))
            raised = False
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception:  # an op that raises counts as failed
                raised = True
            dt = time.perf_counter() - t0
            if traced:
                tracer.end_op()
            attempted += 1
            if raised:
                failed += 1
                errors.append((wl.label(op), traceback.format_exc()))
                continue
            if traced:
                traced_durations.append((dt, j))
            else:
                durations.append((dt, j, wl.label(op)))
            problem = wl.check(op, out)
            if problem:
                problems.append(problem)
        rounds += 1
        if time.perf_counter() - t_start >= args.seconds \
                and (tracer is None or rounds % 2 == 0):
            break
    measured_s = time.perf_counter() - t_start
    ref.sample()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = end_to_end([(d, label) for d, _, label in durations],
                     import_s + statistics.median(d for d, _ in setups),
                     peak_rss_mb)
    corrected = end_to_end(
        [(d * ref.scale(j), label) for d, j, label in durations],
        import_s * setup_ref.scale(-1)
        + statistics.median(d * setup_ref.scale(j) for d, j in setups),
        peak_rss_mb)
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   corrected.items()}
    else:
        metrics = tracer.metrics(len(traced_durations))
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(d * ref.scale(j)
                                       for d, j in traced_durations)
            / statistics.median(d * ref.scale(j) for d, j, _ in durations),
            "unit": "ratio"}

    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, **blas_facts(numpy),
        "ref_parts": ref.parts, "ref_nominal_s": ref.nominal_s,
        "ref_median_s": statistics.median(ref.samples),
        "ref_samples": len(ref.samples),
        "rounds": rounds, "ops_timed": len(durations),
        "ops_traced": len(traced_durations), "measured_s": measured_s,
        "import_s": import_s, "setup_repeats_s": [d for d, _ in setups],
        "raw": {k: v for k, (v, _) in raw.items()},
        "corrected": {k: v for k, (v, _) in corrected.items()},
        "counters": wl.counters(), "problems": problems[:20],
        "errors": [label for label, _ in errors[:20]],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({**info, "durations_raw_s": [d for d, _, _ in durations],
                   "durations_corrected_s": [d * ref.scale(j)
                                             for d, j, _ in durations],
                   "traced_durations_raw_s": [d for d, _ in
                                              traced_durations],
                   "ref_samples_s": ref.samples,
                   "tracebacks": errors[:5]}, fh)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    print("info " + json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
