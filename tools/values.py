"""The numbers a numeric change must keep, as JSON, and the largest
differences between two such files.

    python tools/values.py OUT.json [--against OTHER.json]

Writes to OUT.json:

- `knots`: the value of each `knot-cold` knot (`bench/workloads.py`),
  evaluated from a fresh EvalContext at each l of KNOT_ELLS;
- `moves`: the value of each `moves-warm` move site at l = 3, re-evaluated
  against the context its set-up filled (or the error that set-up met);
- `sites`: for every site of every `moves-warm` move on each knot, its
  `MoveSite` fields, the moved diagram's `to_json()`, and "ok" if
  `evaluator._recolor` colours the moved diagram, or the error's type;
- `sweep`: for each l of SWEEP_ELLS and each of SWEEP_PAIRS pairs (x, y)
  drawn by `samplers.rational_mat(random.Random(5))`, each braid word of
  SWEEP_WORDS on two strands coloured (x, y) at the bottom and contracted
  from a fresh context: "ok" with its block, or the error's type;
- `exact`: for each of EXACT_REAL triples drawn by `samplers.rational_mat`
  and EXACT_COMPLEX by `samplers.complex_rational_mat`, all from
  `random.Random(EXACT_SEED)`, the exact scalars (as `scalar_to_json`
  strings) of both sides of the YBE (`k/yb`) and of (ab)c, a(bc) and
  a i(a) (`k/star`), or the `NotFactorizable` message.

tanglev is imported from the `src/` next to this file, and the workloads
from the `bench/` next to it, so a copy of this file in another checkout
writes that checkout's numbers.  With --against, the differences to
OTHER.json are printed section by section, with phase kept apart from
value: the outcomes that differ; for values the largest |a - b| and the
largest ||a| - |b|| / |b|; for blocks the largest |A - B| relative to the
largest entry of B, and the largest |B - zA| / max |A| and ||z| - 1|,
where z = <A, B> / <A, A> is the scalar that fits A to B best, so a block
that changed by a phase alone reads near 0 in both; for sites, also the
keys whose site or moved diagram differ, so a changed enumeration or
rewrite shows; for `exact`, every key whose strings or message differ.
A last line says whether the two files are identical: every float and
string equal to the other file's after a JSON round trip (floats print
in their shortest round-trip form, so equal text is equal bits; keys are
sorted).  The command then exits 1 if any knot, move or sweep outcome,
any site or moved diagram, or any exact string or message differs; float
differences alone exit 0.
"""

import argparse
import dataclasses
import json
import os
import pathlib
import random
import sys
from collections import Counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from tanglev import (coloring, diagram, evaluator, factgroup,  # noqa: E402
                     samplers)
from tanglev.uqalgebra import RootData  # noqa: E402

import workloads  # noqa: E402

KNOT_ELLS = (3, 5, 7, 9)
SWEEP_ELLS = (3, 5)
SWEEP_PAIRS = 400
SWEEP_WORDS = ([1], [-1], [1, -1], [-1, 1])
EXACT_SEED = 19
EXACT_REAL, EXACT_COMPLEX = 200, 100


def _pair(z):
    return [z.real, z.imag]


def knot_values():
    out = {}
    for ell in KNOT_ELLS:
        for name, d, bottom, seeds in workloads.knots():
            col = coloring.propagate(d, bottom,
                                     cup_seeds=dict(enumerate(seeds)))
            value, _ = evaluator.invariant(
                d, col, evaluator.EvalContext(RootData(ell)))
            out["%s@%d" % (name, ell)] = _pair(value)
    return out


def move_values():
    wl = workloads.MovesWarm()
    wl.setup(1)
    out = {}
    for op in wl.sites:
        label = wl.label(op)
        if label in wl.setup_errors:
            out[label] = wl.setup_errors[label]
        else:
            out[label] = _pair(wl.run(op)[0])
    return out


def site_outcomes():
    out = {}
    for name, d, bottom, seeds in workloads.knots():
        for move in workloads.MOVES:
            for i, site in enumerate(diagram.find_move_sites(d, move)):
                rec = out["%s/%s/%d" % (name, move, i)] = {
                    "site": list(dataclasses.astuple(site))}
                try:
                    moved = diagram.apply_move(d, move, site)
                    rec["moved"] = moved.to_json()
                    evaluator._recolor(moved, bottom, seeds)
                except Exception as exc:  # the outcome is the error type
                    rec["outcome"] = type(exc).__name__
                    continue
                rec["outcome"] = "ok"
    return out


def sweep_outcomes():
    rng = random.Random(5)
    pairs = [(samplers.rational_mat(rng), samplers.rational_mat(rng))
             for _ in range(SWEEP_PAIRS)]
    out = {}
    for ell in SWEEP_ELLS:
        for k, (x, y) in enumerate(pairs):
            for word in SWEEP_WORDS:
                d = diagram.braid_word(word, 2)
                key = "%d/%d/%s" % (ell, k, ",".join(map(str, word)))
                try:
                    col = coloring.propagate(d, coloring.ColoredBoundary(
                        ((1, x), (1, y))))
                    blk = evaluator.contract(
                        d, col, evaluator.EvalContext(RootData(ell)))
                except Exception as exc:  # the outcome is the error type
                    out[key] = type(exc).__name__
                    continue
                out[key] = [_pair(z) for z in blk.matrix.ravel()]
    return out


def exact_outcomes():
    rng = random.Random(EXACT_SEED)
    triples = [tuple(samplers.rational_mat(rng) for _ in range(3))
               for _ in range(EXACT_REAL)]
    triples += [tuple(samplers.complex_rational_mat(rng) for _ in range(3))
                for _ in range(EXACT_COMPLEX)]
    star = factgroup.star_mul
    out = {}
    for k, (a, b, c) in enumerate(triples):
        parts = {"yb": lambda: sum(samplers.yb_sides((a, b, c)), ()),
                 "star": lambda: (star(star(a, b), c), star(a, star(b, c)),
                                  star(a, factgroup.star_inv(a)))}
        for part, mats in parts.items():
            try:
                out["%d/%s" % (k, part)] = [m.to_json() for m in mats()]
            except factgroup.NotFactorizable as exc:
                out["%d/%s" % (k, part)] = "NotFactorizable: %s" % exc
    return out


def _complex(v):
    return np.array(v, dtype=float).view(complex).ravel()


def _largest(rows, n=3):
    rows.sort(key=lambda r: -r[1])
    return ", ".join("%s %.1e" % r for r in rows[:n]) or "-"


def compare(new, old):
    """Print the differences of `new` to `old`; True if an outcome, a site,
    a moved diagram or an exact string differs."""
    changed = False
    for section in ("knots", "moves"):
        rows, sizes, moved = [], [], []
        for key, a in new[section].items():
            b = old[section].get(key)
            if isinstance(a, str) or isinstance(b, str) or b is None:
                if a != b:
                    moved.append(key)
                continue
            [a], [b] = _complex(a), _complex(b)
            rows.append((key, abs(a - b)))
            sizes.append((key, abs(abs(a) - abs(b)) / abs(b)))
        print("%s: %d compared, outcomes differ on %s; largest |a - b|: %s; "
              "largest ||a| - |b|| / |b|: %s" % (
                  section, len(rows), moved or "none", _largest(rows),
                  _largest(sizes)))
        changed |= bool(moved)
    sites, before = new["sites"], old["sites"]
    keys = sorted(set(sites) | set(before))

    def differ(*fields):
        return [k for k in keys if any(
            sites.get(k, {}).get(f) != before.get(k, {}).get(f)
            for f in fields)]

    moved, rewritten = differ("outcome"), differ("site", "moved")
    print("sites: %s; outcomes differ on %d: %s; sites or moved diagrams "
          "differ on %d: %s" % (
              dict(Counter(r["outcome"] for r in sites.values())),
              len(moved), moved[:5], len(rewritten), rewritten[:5]))
    changed |= bool(moved or rewritten)
    for ell in SWEEP_ELLS:
        prefix = "%d/" % ell
        keys = [k for k in new["sweep"] if k.startswith(prefix)]
        counts = Counter("ok" if isinstance(new["sweep"][k], list)
                         else new["sweep"][k] for k in keys)
        rows, fits, units, moved = [], [], [], []
        for key in keys:
            a, b = new["sweep"][key], old["sweep"].get(key)
            if not (isinstance(a, list) and isinstance(b, list)):
                if a != b:
                    moved.append(key)
                continue
            ca, cb = _complex(a), _complex(b)
            rows.append((key, np.max(abs(ca - cb)) / np.max(abs(cb))))
            z = np.vdot(ca, cb) / np.vdot(ca, ca)
            fits.append((key, np.max(abs(cb - z * ca)) / np.max(abs(ca))))
            units.append((key, abs(abs(z) - 1)))
        print("sweep l = %d: %s; outcomes differ on %d: %s; largest "
              "|A - B| / max |B|: %s; largest |B - zA| / max |A|: %s; "
              "largest ||z| - 1|: %s" % (
                  ell, dict(counts), len(moved), moved[:5], _largest(rows),
                  _largest(fits), _largest(units)))
        changed |= bool(moved)
    exact, before = new["exact"], old["exact"]
    refused = sum(isinstance(v, str) for v in exact.values())
    differ = sorted(k for k in set(exact) | set(before)
                    if exact.get(k) != before.get(k))
    print("exact: %d parts, %d NotFactorizable; strings or messages differ "
          "on %d: %s" % (len(exact), refused, len(differ), differ))
    same = json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)
    print("identical: %s" % ("yes, every float and string" if same else "no"))
    return changed or bool(differ)


def against(values, path):
    """The exit status of comparing `values` with the JSON file at path."""
    with open(path) as fh:
        return 1 if compare(values, json.load(fh)) else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--against", help="JSON file of another checkout")
    args = ap.parse_args()
    values = {"knots": knot_values(), "moves": move_values(),
              "sites": site_outcomes(), "sweep": sweep_outcomes(),
              "exact": exact_outcomes()}
    with open(args.out, "w") as fh:
        json.dump(values, fh)
    return against(values, args.against) if args.against else 0


if __name__ == "__main__":
    sys.exit(main())
