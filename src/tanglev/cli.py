"""Command-line front end.

Four modes: `invariant` evaluates a colored diagram to a scalar,
`color-check` runs the coloring solver and reports boundary data,
`verify` runs the property suite with pass/fail counts, and `yb-fuzz`
fuzzes the set-theoretic Yang-Baxter equation in exact arithmetic.

The CLI sets no threshold of its own: colours, nullspaces and framing
follow the library's module constants, so a verdict here is the
library's verdict.

Reports are JSON on stdout, deterministic for a fixed (config, seed);
diagnostics go to stderr.  Exit codes: 0 ok, 1 hard error (with an
error JSON), 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import braiding, coloring, diagram, evaluator, factgroup, uqalgebra
from .factgroup import Mat2
from .rational import QC, parse_scalar
from .samplers import float_group, generic_char, rational_mat, yb_sides


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing


def _parse_scalar(text, backend):
    text = text.strip()
    if backend == "rational":
        return parse_scalar(text)
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        return complex(parse_scalar(text))


def parse_char(text, backend="float"):
    """The Borel coordinates (alpha, beta, a, b) of a --char colour; alpha
    and a must be nonzero, since its assembly divides by alpha * a."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("char needs four comma-separated values")
    char = tuple(_parse_scalar(p, backend) for p in parts)
    for name, value in (("alpha", char[0]), ("a", char[2])):
        if not value:
            raise ConfigError("char coordinate %s must be nonzero" % name)
    return char


def parse_branch(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("branch needs two comma-separated integers")
    return tuple(int(p) for p in parts)


def _mat_from_json(rows, backend):
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ConfigError("a matrix needs two rows of two entries")
    (a, b), (c, d) = rows
    out = []
    for v in (a, b, c, d):
        if backend == "rational":
            if isinstance(v, str):
                out.append(parse_scalar(v))
            elif isinstance(v, (list, tuple)):
                out.append(QC(Fraction(v[0]), Fraction(v[1])))
            else:
                out.append(QC(Fraction(v)))
        elif isinstance(v, str):
            out.append(complex(parse_scalar(v)))
        elif isinstance(v, (list, tuple)):
            out.append(complex(v[0], v[1]))
        else:
            out.append(complex(v))
    return Mat2(*out)


def _fields(obj, *names):
    """The named fields of an input object; a missing one is a ConfigError."""
    missing = [name for name in names if name not in obj]
    if missing:
        raise ConfigError("input lacks %s" % ", ".join(map(repr, missing)))
    return [obj[name] for name in names]


def _typed_fields(parse):
    """`parse` with an input field of the wrong type reported as a
    ConfigError rather than as the TypeError it meets downstream."""
    @functools.wraps(parse)
    def checked(*args):
        try:
            return parse(*args)
        except (TypeError, AttributeError, IndexError) as exc:
            raise ConfigError("malformed input field: %s" % exc) from exc
    return checked


@_typed_fields
def load_diagram(path):
    if path.endswith(".tgl"):
        with open(path) as fh:
            return diagram.parse(fh.read()), None
    if path.endswith(".braid"):
        with open(path) as fh:
            obj = json.load(fh)
        d = diagram.braid_word(*_fields(obj, "word", "strands"))
        closure = obj.get("closure", "none")
        if closure == "trace":
            d = diagram.close_braid(d)
        elif closure == "partial":
            d = diagram.close_braid_partial(d)
        elif closure != "none":
            raise ConfigError("closure must be none, trace or partial")
        return d, obj.get("coloring")
    if path.endswith(".coloring"):
        with open(path) as fh:
            obj = json.load(fh)
        if "tgl" in obj:
            d = diagram.parse(obj["tgl"])
        elif "diagram" in obj:
            _fields(obj["diagram"], "slices", "bottom_signs")
            d = diagram.TangleDiagram.from_json(obj["diagram"])
        else:
            raise ConfigError("a .coloring needs a 'tgl' or a 'diagram'")
        return d, obj
    raise ConfigError("input must be a .tgl, .braid or .coloring file")


@_typed_fields
def build_boundary(d, cdata, char_coords, backend):
    """Bottom boundary + cup seeds from the coloring data or --char."""
    if cdata and "bottom" in cdata:
        entries = tuple((e[0], _mat_from_json(e[1], backend))
                        for e in cdata["bottom"])
    elif char_coords is not None:
        # braiding.char_to_group with no cast to complex: exact over QC
        alpha, beta, a, b = char_coords
        g = factgroup.Factorization(alpha, beta, a, -b).assemble()
        entries = tuple((s, g) for s in d.bottom_signs)
    else:
        entries = ()
    seeds = {}
    if cdata and "cups" in cdata:
        seeds = {int(k): _mat_from_json(v, backend)
                 for k, v in cdata["cups"].items()}
    return coloring.ColoredBoundary(entries), seeds


# ---------------------------------------------------------------------------
# Modes


def run_invariant(args):
    d, cdata = load_diagram(args.input)
    char = parse_char(args.char, "float") if args.char else None
    bnd, seeds = build_boundary(d, cdata, char, "float")
    rd = uqalgebra.RootData(args.ell)
    ctx = evaluator.EvalContext(rd)
    col = coloring.propagate(d, bnd, cup_seeds=seeds or None)
    branches = [parse_branch(args.branch)] * d.bottom_arity
    value, log = evaluator.invariant(d, col, ctx, bottom_branches=branches)
    if isinstance(value, evaluator.LinearBlock):
        raise ConfigError(
            "diagram boundary is not closed or (1,1); no scalar invariant")
    residuals = {k: v for k, v in log if k == "schur_off_scalar"}
    return 0, {
        "mode": "invariant",
        "ell": args.ell,
        "character": list(map(_cnum, char)) if char else None,
        "branch_policy": list(parse_branch(args.branch)),
        "normalization": braiding.NORMALIZATION_VERSION,
        "mu": "K",
        "framing": "balanced",
        "writhe": d.writhe(),
        "invariant": _cnum(value),
        "magnitude": abs(value),
        "phase_log": [list(entry) for entry in log],
        "residuals": residuals,
    }


def run_color_check(args):
    backend = args.backend or "float"
    d, cdata = load_diagram(args.input)
    char = parse_char(args.char, backend) if args.char else None
    bnd, seeds = build_boundary(d, cdata, char, backend)
    report = {"mode": "color-check", "backend": backend,
              "normalization": braiding.NORMALIZATION_VERSION}
    try:
        col = coloring.propagate(d, bnd, cup_seeds=seeds or None)
    except (coloring.CapMismatch, factgroup.NotFactorizable) as exc:
        report["consistent"] = False
        report["error"] = str(exc)
        return 2, report
    report["consistent"] = True
    for side in ("bottom", "top"):
        b = col.boundary(side)
        report[side] = {
            "signs": list(b.signs()),
            "colors": [x.to_json() for x in b.colors()],
            "holonomies": [coloring.holonomy_of_boundary(b, i + 1).to_json()
                           for i in range(len(b))] if len(b) else [],
        }
    return 0, report


def _yb_check(rng, samples):
    """Exact R12 R13 R23 = R23 R13 R12 on `samples` triples of
    `rational_mat`s: how many were skipped (off the map's domain) and how
    many failed."""
    skipped = failed = 0
    for _ in range(samples):
        try:
            lhs, rhs = yb_sides(tuple(rational_mat(rng) for _ in range(3)))
        except factgroup.NotFactorizable:
            skipped += 1
            continue
        failed += lhs != rhs  # Mat2 == compares the exact entries
    return skipped, failed


def run_yb_fuzz(args):
    skipped, failed = _yb_check(random.Random(args.seed), args.samples)
    report = {"mode": "yb-fuzz", "backend": "rational",
              "samples": args.samples, "seed": args.seed,
              "skipped_not_factorizable": skipped,
              "failures": failed,
              "normalization": braiding.NORMALIZATION_VERSION}
    return (2 if failed else 0), report


def _verify_factorization(rng, samples):
    bad = 0
    for _ in range(samples):
        g, h, k = (rational_mat(rng) for _ in range(3))
        f = factgroup.factorize(g)
        if f.assemble() != g:
            bad += 1
            continue
        try:
            lhs = factgroup.star_mul(factgroup.star_mul(g, h), k)
            rhs = factgroup.star_mul(g, factgroup.star_mul(h, k))
            if lhs != rhs:
                bad += 1
                continue
            gi = factgroup.star_inv(g)
            if (factgroup.star_mul(g, gi), factgroup.star_mul(gi, g)) != \
                    (factgroup.identity(),) * 2:
                bad += 1
        except factgroup.NotFactorizable:
            continue
    return bad


def _verify_relations(rng, samples, rd):
    bad = 0
    for _ in range(samples):
        ch = generic_char(rng, rd)
        rep = uqalgebra.build_irrep(ch, (0, 0), rd)
        res = uqalgebra.relation_residuals(rep)
        if max(res.values()) > 1e-9:
            bad += 1
    return bad


def _verify_pullback(rng, samples, rd):
    bad = 0
    for _ in range(samples):
        x = float_group(rng)
        y = float_group(rng)
        try:
            dev = braiding.z0_pullback_check(x, y, rd)["max_deviation"]
        except (factgroup.NotFactorizable, uqalgebra.NonGenericCharacter):
            continue
        if dev > 1e-7:
            bad += 1
    return bad


def _verify_moves(rng, samples):
    bad = 0
    for _ in range(samples):
        word = [rng.choice([1, -1]) for _ in range(rng.randint(1, 4))]
        d = diagram.braid_word(word, 2)
        bnd = coloring.ColoredBoundary(
            tuple((1, rational_mat(rng)) for _ in range(2)))
        try:
            base = coloring.propagate(d, bnd).boundary("top")
        except factgroup.NotFactorizable:
            continue
        for move in ("R2", "FramedR1", "SlideCupCap"):
            for site in list(diagram.find_move_sites(d, move))[:1]:
                d2 = diagram.apply_move(d, move, site)
                try:
                    top = coloring.propagate(d2, bnd).boundary("top")
                except (factgroup.NotFactorizable, coloring.CapMismatch,
                        coloring.UnderdeterminedColoring):
                    bad += 1
                    continue
                if not top.equal(base):
                    bad += 1
    return bad


def run_verify(args):
    rng = random.Random(args.seed)
    rd = uqalgebra.RootData(args.ell)
    light = max(1, min(args.samples, 10))
    sections = {}
    sections["factorization_star_axioms"] = {
        "samples": args.samples,
        "failures": _verify_factorization(rng, args.samples)}
    sections["yang_baxter_exact"] = {
        "samples": args.samples,
        "failures": _yb_check(random.Random(args.seed + 1),
                              args.samples)[1]}
    np_rng = random.Random(args.seed + 2)
    sections["cyclic_rep_relations"] = {
        "samples": light, "failures": _verify_relations(np_rng, light, rd)}
    sections["z0_pullback"] = {
        "samples": light, "failures": _verify_pullback(np_rng, light, rd)}
    sections["coloring_moves"] = {
        "samples": light, "failures": _verify_moves(np_rng, light)}
    failures = sum(s["failures"] for s in sections.values())
    report = {"mode": "verify", "ell": args.ell, "seed": args.seed,
              "normalization": braiding.NORMALIZATION_VERSION,
              "sections": sections, "failures": failures,
              "ok": failures == 0}
    return (2 if failures else 0), report


# ---------------------------------------------------------------------------
# Entry point


def _cnum(z):
    z = complex(z)
    return [z.real, z.imag]


def build_parser():
    p = argparse.ArgumentParser(
        prog="tanglev",
        description="invariants of framed tangles with flat GL2 connections")
    p.add_argument("mode", choices=["invariant", "color-check", "verify",
                                    "yb-fuzz"])
    p.add_argument("input", nargs="?",
                   help=".tgl, .braid or .coloring file")
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--char", help="alpha,beta,a,b: Borel coordinates of "
                   "the bottom colour")
    p.add_argument("--branch", default="0,0")
    p.add_argument("--backend", choices=["rational", "float"],
                   help="color-check only; default float")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    return p


def run(args):
    if args.ell % 2 == 0:
        raise ConfigError("ell must be odd")
    if args.ell < 3:
        raise ConfigError("ell must be at least 3")
    if args.samples < 1:
        raise ConfigError("samples must be at least 1")
    if args.mode in ("invariant", "color-check") and not args.input:
        raise ConfigError("mode %s needs an input file" % args.mode)
    if args.backend is not None and args.mode != "color-check":
        raise ConfigError("--backend applies to color-check only")
    if args.mode == "invariant":
        return run_invariant(args)
    if args.mode == "color-check":
        return run_color_check(args)
    if args.mode == "verify":
        return run_verify(args)
    return run_yb_fuzz(args)


def main(argv=None):
    args = build_parser().parse_intermixed_args(argv)
    try:
        code, report = run(args)
    except (OSError, ValueError) as exc:  # tanglev's errors are ValueErrors
        print(json.dumps({"error": str(exc) or type(exc).__name__,
                          "type": type(exc).__name__}, sort_keys=True))
        return 1
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
