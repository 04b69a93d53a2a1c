"""Command-line front end: ``ultrasph {verify,tabulate,solve,eval}``.

Exit status contract: 0 = success / all checks pass, 1 = verification
failure, 2 = usage or input error.  All numeric table output uses 17
significant digits, and identical inputs produce byte-identical outputs.
"""

import argparse
import json
import sys

from . import formats
from .gegenbauer import assoc, norm_factor, poly
from .harmonics import count
from .quadrature import _D_LIMITS, _LMAX_LIMITS
from .solver import eval_expansion, fit_annulus, fit_exterior, fit_interior
from .verify import HARMONICITY_FLOOR, run_verification


def _fmt(value):
    return format(float(value), ".17g")


def _parse_d_range(text):
    """Accept a single dimension ("4") or an inclusive range ("3-6")."""
    parts = text.split("-", 1)
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension spec {text!r}")
    lo, hi = values[0], values[-1]
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty dimension range {text!r}")
    return list(range(lo, hi + 1))


def _parse_floats(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ultrasph",
        description="Hyperspherical harmonics, sphere quadrature, and "
        "Laplace boundary-value solving in d >= 3 dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify",
        help="run the numerical identity suite",
        description="Re-checks every identity the library implements "
        "(generating function, derivative shifts, orthonormality, addition "
        "theorems, harmonicity, boundary-fit roundtrips) against "
        "independent routes.  Algebraic checks are held to --tol; the "
        f"finite-difference harmonicity check has a method floor of "
        f"{HARMONICITY_FLOOR:g}.  Exit 0 iff every check passes.",
    )
    p_verify.add_argument("--d", type=_parse_d_range, default=[4],
                          help="dimension or inclusive range, e.g. 4 or 3-6 "
                          f"(each in {_D_LIMITS[0]}..{_D_LIMITS[1]})")
    p_verify.add_argument("--lmax", type=int, default=4,
                          help=f"harmonic band limit, {_LMAX_LIMITS[0]}..{_LMAX_LIMITS[1]} "
                          "(grid-based checks cap levels per dimension)")
    p_verify.add_argument("--tol", type=float, default=1e-8,
                          help="tolerance for algebraic checks")
    p_verify.add_argument("--json", metavar="PATH",
                          help="also write the report as JSON")

    p_tab = sub.add_parser(
        "tabulate",
        help="print values of the core functions",
        description="Tabulates one of: poly (columns: x value), assoc "
        "(columns: theta value), norm (columns: n value), count "
        "(columns: l count).  Values print with 17 significant digits.",
    )
    p_tab.add_argument("kind", choices=["poly", "assoc", "norm", "count"])
    p_tab.add_argument("--d", type=int, required=True, help="dimension")
    p_tab.add_argument("--l", type=int, help="degree (poly, assoc, norm)")
    p_tab.add_argument("--m", type=int, help="order (assoc)")
    p_tab.add_argument("--n", type=int, help="order (norm)")
    p_tab.add_argument("--x", type=_parse_floats,
                       help="comma-separated arguments in [-1, 1] (poly)")
    p_tab.add_argument("--theta", type=_parse_floats,
                       help="comma-separated angles in [0, pi] (assoc)")
    p_tab.add_argument("--lmax", type=int, help="top level (count)")

    p_solve = sub.add_parser(
        "solve",
        help="fit a boundary-value problem from a config file",
        description="Reads a JSON config {d, kind, radii, lmax, boundary} "
        "and writes the fitted coefficient file (see README for the "
        "schemas).  Deterministic: identical configs give identical bytes.",
    )
    p_solve.add_argument("config", help="JSON problem description")
    p_solve.add_argument("-o", "--output", help="coefficient file (default stdout)")

    p_eval = sub.add_parser(
        "eval",
        help="evaluate a coefficient file at points",
        description="Reads a coefficient file and a points file and writes "
        "one complex value per point, order-preserving.",
    )
    p_eval.add_argument("coefficients", help="coefficient file from solve")
    p_eval.add_argument("points", help="points file")
    p_eval.add_argument("-o", "--output", help="values file (default stdout)")
    return parser


def _cmd_verify(args, parser):
    lo, hi = _D_LIMITS
    for d in args.d:
        if not lo <= d <= hi:
            parser.error(f"dimension {d} out of range {lo}..{hi}")
    lo, hi = _LMAX_LIMITS
    if not lo <= args.lmax <= hi:
        parser.error(f"lmax {args.lmax} out of range {lo}..{hi}")
    if not args.tol > 0:
        parser.error("tolerance must be positive")
    report = run_verification(args.d, args.lmax, args.tol)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        params = ", ".join(f"{k}={v}" for k, v in check.params.items())
        print(
            f"{status}  {check.name} [{params}]  "
            f"max residual {check.max_residual:.3e}  tol {check.tolerance:.1e}"
        )
    n_pass = sum(c.passed for c in report.checks)
    print(f"{'OVERALL PASS' if report.passed else 'OVERALL FAIL'} "
          f"({n_pass}/{len(report.checks)} checks)")
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(report.to_dict(), fp, indent=2)
            fp.write("\n")
    return 0 if report.passed else 1


def _cmd_tabulate(args, parser):
    kind = args.kind
    if kind == "poly":
        if args.l is None or args.x is None:
            parser.error("tabulate poly needs --l and --x")
        print("# x  poly")
        for x in args.x:
            print(f"{_fmt(x)} {_fmt(poly(args.l, args.d, x))}")
    elif kind == "assoc":
        if args.l is None or args.m is None or args.theta is None:
            parser.error("tabulate assoc needs --l, --m and --theta")
        print("# theta  assoc")
        for t in args.theta:
            print(f"{_fmt(t)} {_fmt(assoc(args.l, args.m, args.d, t))}")
    elif kind == "norm":
        if args.l is None or args.n is None:
            parser.error("tabulate norm needs --l and --n")
        print("# n  norm")
        print(f"{args.n} {_fmt(norm_factor(args.l, args.n, args.d))}")
    else:  # count
        if args.lmax is None:
            parser.error("tabulate count needs --lmax")
        print("# l  count")
        for l in range(args.lmax + 1):
            print(f"{l} {count(args.d, l)}")
    return 0


def _write_or_stdout(path, writer):
    if path:
        with open(path, "w") as fp:
            writer(fp)
    else:
        writer(sys.stdout)


def _cmd_solve(args):
    config = formats.load_config(args.config)
    problem = formats.build_problem(config)
    fit = {"interior": fit_interior, "exterior": fit_exterior,
           "annulus": fit_annulus}[problem.kind]
    expansion = fit(problem)
    _write_or_stdout(args.output, lambda fp: formats.save_coefficients(fp, expansion))
    return 0


def _cmd_eval(args):
    expansion = formats.load_coefficients(args.coefficients)
    d, points = formats.load_points(args.points)
    if d != expansion.d:
        raise formats.FormatError(
            f"dimension mismatch: coefficients have d={expansion.d}, "
            f"points have d={d}"
        )
    values = eval_expansion(expansion, points.r, points)
    _write_or_stdout(args.output, lambda fp: formats.save_values(fp, values))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "tabulate":
            return _cmd_tabulate(args, parser)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_eval(args)
    except (formats.FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
