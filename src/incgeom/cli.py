"""Command line front end.

Subcommands: `construct` writes families to text files, `check` validates
them, `count` runs one counting experiment and emits a JSON report,
`bounds` evaluates the closed-form estimates, `cover` builds and verifies
a slab-intersection box cover, and `sweep` repeats a count over several
scales.  Each subcommand takes only the flags its handler reads, composed
from small parent parsers; any other flag is a usage error.  Deltas accept
either plain floats or the form 2^-6.  Exit status is 0 only when every
requested check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import (annotate, comparison_range, cs_bound_exponent, dov_bound,
                     main_bound, thm2d_exponent)
from .constructions import construct_grid, construct_random, construct_sharp, ConstructionSpec
from .cover import slab_intersection_cover, verify_cover
from .family import read_family, write_family
from .geometry import MODES
from .harness import ExperimentConfig, run_experiment, sweep
from .regularity import min_separation


def _delta_arg(text):
    if "^" in text:
        base, _, exp = text.partition("^")
        return float(base) ** float(exp)
    return float(text)


def _float_list(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _delta_list(text):
    return [_delta_arg(x) for x in text.split(",") if x.strip()]


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _config_from(args, **fields):
    return ExperimentConfig(
        dim=args.dim, s=args.s, t=args.t, C=args.cdelta, mode=args.mode,
        workers=args.workers, counter=args.counter, **fields,
    )


def _cmd_construct(args):
    if args.kind == "sharp":
        spec = ConstructionSpec(d=args.dim, delta=args.delta, s=args.s, t=args.t)
        pf, tf = construct_sharp(spec)
        prefix = args.out or "family"
        write_family(pf, f"{prefix}.points.txt")
        write_family(tf, f"{prefix}.planes.txt")
        print(f"wrote {len(pf)} points -> {prefix}.points.txt")
        print(f"wrote {len(tf)} hyperplanes -> {prefix}.planes.txt")
        return 0
    if args.kind == "grid":
        if not args.spacings:
            raise ValueError("grid construction needs --spacings a,b,...")
        fam = construct_grid(args.dim, args.delta, _delta_list(args.spacings))
    elif args.kind == "random-points":
        fam = construct_random("points", args.dim, args.delta, args.size, args.seed)
    else:
        fam = construct_random("hyperplanes", args.dim, args.delta, args.size, args.seed)
    path = args.out or f"{args.kind}.txt"
    write_family(fam, path)
    print(f"wrote {len(fam)} {fam.kind} -> {path}")
    return 0


def _cmd_check(args):
    status = 0
    for path in args.paths:
        try:
            fam = read_family(path)
            sep = min_separation(fam)
            print(f"{path}: ok  kind={fam.kind} dim={fam.dim} "
                  f"delta={fam.delta!r} size={len(fam)} min_separation={sep:.6g}")
        except (ValueError, OSError) as e:
            print(f"{path}: FAIL  {e}", file=sys.stderr)
            status = 1
    return status


def _cmd_count(args):
    config = _config_from(args, delta=args.delta,
                          points_path=args.points, planes_path=args.planes)
    report = run_experiment(config)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_bounds(args):
    out = {
        "planar": annotate(thm2d_exponent, args.s, args.t),
        "linear": main_bound(args.delta, args.n_points, args.n_planes).to_dict(),
        "cauchy_schwarz": annotate(cs_bound_exponent, args.s, args.t, args.dim),
        "separated_planes": annotate(
            dov_bound, args.delta, args.s, args.dim, args.n_points, args.n_planes
        ),
        "comparison": annotate(comparison_range, args.s, args.t, args.dim),
    }
    _emit(out, args.out)
    return 0


def _cmd_cover(args):
    pi1 = np.array(_float_list(args.plane1))
    pi2 = np.array(_float_list(args.plane2))
    cover = slab_intersection_cover(pi1, pi2, args.delta)
    checked = cover if args.shrink is None else cover.scaled(args.shrink)
    report = verify_cover(pi1, pi2, args.delta, checked,
                          n_samples=args.samples, seed=args.seed)
    _emit({"cover": cover.to_dict(), "coverage": report.to_dict()}, args.out)
    return 0 if report.fraction == 1.0 else 1


def _cmd_sweep(args):
    config = _config_from(args)
    result = sweep(config, _delta_list(args.deltas))
    _emit(result.to_dict(), args.out)
    if args.out:
        for delta, n_points, n_planes, count, ratio in result.rows:
            print(f"delta={delta:.6g}  |P|={n_points}  |Pi|={n_planes}  "
                  f"I={count}  ratio={ratio:.4f}")
    status = 0
    for delta, message in result.failures:
        print(f"delta={delta:.6g}: FAIL  {message}", file=sys.stderr)
        status = 1
    ratios = result.ratios()
    if ratios and args.max_ratio is not None and max(ratios) > args.max_ratio:
        print(f"max ratio {max(ratios):.4f} exceeds {args.max_ratio}", file=sys.stderr)
        status = 1
    if ratios and args.max_spread is not None:
        spread = max(ratios) / min(ratios)
        if spread > args.max_spread:
            print(f"ratio spread {spread:.4f} exceeds {args.max_spread}", file=sys.stderr)
            status = 1
    return status


def build_parser():
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--dim", type=int, default=2, help="ambient dimension d")
    shape.add_argument("--s", type=float, default=1.75, help="point-side exponent")
    shape.add_argument("--t", type=float, default=1.75, help="plane-side exponent")
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--delta", type=_delta_arg, default=2.0**-6,
                       help="scale delta (accepts 2^-k)")
    counting = argparse.ArgumentParser(add_help=False)
    counting.add_argument("--cdelta", type=float, default=1.0,
                          help="incidence constant C; slabs have half-width C*delta")
    counting.add_argument("--mode", choices=MODES, default="euclidean",
                          help="slab predicate: euclidean distance or raw offset")
    counting.add_argument("--workers", type=int, default=1)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="incgeom",
        description="discretized point-hyperplane incidence experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[shape, scale, seed, out],
                       help="build a family (pair) and write text files")
    p.add_argument("--kind", default="sharp",
                   choices=["sharp", "grid", "random-points", "random-planes"])
    p.add_argument("--spacings", default=None,
                   help="comma-separated grid spacings (powers of two)")
    p.add_argument("-n", "--size", type=int, default=100,
                   help="element count for random families")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="validate family files")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("count", parents=[shape, scale, counting, out],
                       help="count incidences and emit a JSON report")
    p.add_argument("--points", default=None, help="points file (else construct)")
    p.add_argument("--planes", default=None, help="hyperplanes file")
    p.add_argument("--counter", choices=["fast", "oracle"], default="fast")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bounds", parents=[shape, scale, out],
                       help="evaluate the closed-form bounds")
    p.add_argument("--n-points", type=int, default=0)
    p.add_argument("--n-planes", type=int, default=0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("cover", parents=[scale, seed, out],
                       help="box-cover a slab intersection and verify")
    p.add_argument("--plane1", required=True, help="comma-separated coefficients a1..ad")
    p.add_argument("--plane2", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--shrink", type=float, default=None,
                   help="negative control: verify a cover scaled by this factor")
    p.set_defaults(func=_cmd_cover)

    # no abbreviations here, or a stray --delta would be read as --deltas
    p = sub.add_parser("sweep", parents=[shape, counting, out], allow_abbrev=False,
                       help="repeat a count across several deltas")
    p.add_argument("--deltas", required=True, help="comma list, e.g. 2^-5,2^-6")
    p.add_argument("--counter", choices=["fast", "oracle"], default="fast")
    p.add_argument("--max-ratio", type=float, default=None,
                   help="fail if any ratio exceeds this")
    p.add_argument("--max-spread", type=float, default=None,
                   help="fail if max/min ratio exceeds this")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
