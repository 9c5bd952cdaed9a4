"""Reference kernel for host-drift correction.

The kernel calls nothing in tanglev.  It has one part for each kind of work
the program does: "fraction", exact `Fraction` arithmetic on small
rationals like the group layer's; "small", many numpy calls on 9 x 9 complex
matrices like the slice-by-slice contraction; and "svd", one dense complex
SVD with full U of the shape of the l = 3 crossing system (648 x 81), like
the nullspace solve in `braiding`.  Its inputs are fixed, so its duration
depends only on how fast the host runs at the moment.  Each workload names
the parts its ops and its set-up resemble (`DRIFT_PARTS` and
`SETUP_DRIFT_PARTS` in workloads.py).

Measure the nominal times again with

    OPENBLAS_NUM_THREADS=1 python3 bench/refkernel.py
"""

import statistics
import sys
import time
from fractions import Fraction

import numpy as np

#: Nominal part times: round figures near the medians measured on the
#: reference host when it ran fast (see bench/README.md).
NOMINAL_S = {"fraction": 0.0100, "small": 0.0100, "svd": 0.0400}

SVD_SHAPE = (648, 81)
FRACTION_STEPS = 300
SMALL_STEPS = 200


def inputs():
    rng = np.random.default_rng(20101008)
    big = rng.standard_normal(SVD_SHAPE) + 1j * rng.standard_normal(SVD_SHAPE)
    small = [rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
             for _ in range(8)]
    return big, small


def _fraction():
    # complex-rational products and quotients of small fractions, like the
    # Gauss decompositions of the group layer; denominators stay bounded
    acc = Fraction(0)
    for k in range(FRACTION_STEPS):
        a, b = Fraction(k % 7 - 3, k % 5 + 1), Fraction(k % 3 + 1, k % 4 + 2)
        c, d = Fraction(k % 11 - 5, 3), Fraction(2, k % 6 + 1)
        re, im = a * c - b * d, a * d + b * c
        n = c * c + d * d
        acc += (re * c + im * d) / n - a
    return acc


def _small(mats):
    acc = np.eye(9, dtype=complex)
    for k in range(SMALL_STEPS):
        a = mats[k % len(mats)]
        acc = np.einsum("ij,jk->ik", a, acc) / np.linalg.norm(acc)
        np.kron(a[:3, :3], a[:3, :3])
    return acc


def run_once(inp, parts):
    """Run the given parts once; returns {part: seconds}."""
    big, small = inp
    out = {}
    for part in parts:
        t0 = time.perf_counter()
        if part == "fraction":
            _fraction()
        elif part == "small":
            _small(small)
        else:
            np.linalg.svd(big)
        out[part] = time.perf_counter() - t0
    return out


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 200
    inp = inputs()
    samples = [run_once(inp, NOMINAL_S) for _ in range(n + 1)][1:]
    for part in NOMINAL_S:
        q1, med, q3 = statistics.quantiles([s[part] for s in samples], n=4)
        print("%-8s n=%d median=%.6f s q1=%.6f q3=%.6f nominal=%.6f"
              % (part, n, med, q1, q3, NOMINAL_S[part]))


if __name__ == "__main__":
    main(sys.argv)
