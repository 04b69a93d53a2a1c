"""Command-line front end: ``ultrasph {verify,tabulate,solve,eval}``.

Exit status contract: 0 = success / all checks pass, 1 = verification
failure, 2 = usage or input error.  All numeric table output uses 17
significant digits, and identical inputs produce byte-identical outputs.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import formats
from .gegenbauer import assoc, norm_factor, poly
from .harmonics import count
from .quadrature import _D_LIMITS, _DEGREE_LIMIT, _LMAX_LIMITS
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
    # checked before the list is built, so a huge range costs nothing
    for d in (lo, hi):
        if not _D_LIMITS[0] <= d <= _D_LIMITS[1]:
            raise argparse.ArgumentTypeError(
                f"dimension {d} out of range {_D_LIMITS[0]}..{_D_LIMITS[1]}")
    return list(range(lo, hi + 1))


def _parse_floats(text):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"non-finite number in {text!r}")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ultrasph",
        description="Hyperspherical harmonics, sphere quadrature, and "
        "Laplace boundary-value solving in d >= 3 dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the one range check of both --lmax options and of tabulate --d
    lmax_range = range(_LMAX_LIMITS[0], _LMAX_LIMITS[1] + 1)
    d_range = range(_D_LIMITS[0], _D_LIMITS[1] + 1)

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
    p_verify.add_argument("--lmax", type=int, default=4, choices=lmax_range,
                          help="harmonic band limit (grid-based checks cap levels per dimension)")
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
    p_tab.add_argument("--d", type=int, required=True, choices=d_range, help="dimension")
    p_tab.add_argument("--l", type=int, help=f"degree (poly, assoc, norm), <= {_DEGREE_LIMIT}")
    p_tab.add_argument("--m", type=int, help=f"order (assoc), <= {_DEGREE_LIMIT}")
    p_tab.add_argument("--n", type=int, help=f"order (norm), <= {_DEGREE_LIMIT}")
    p_tab.add_argument("--x", type=_parse_floats,
                       help="comma-separated finite numbers, any value, evaluated as given (poly)")
    p_tab.add_argument("--theta", type=_parse_floats,
                       help="comma-separated finite angles, any value, evaluated as given (assoc)")
    p_tab.add_argument("--lmax", type=int, choices=lmax_range, help="top level (count)")

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
    if not 0 < args.tol < math.inf:
        parser.error("tolerance must be finite and positive")
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


def _finite(value, what):
    """``value`` formatted; a value that is not finite raises."""
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite")
    return _fmt(value)


def _cmd_tabulate(args, parser):
    """Print one table; every row is computed first, so a failing call prints nothing."""
    kind = args.kind
    for option, value in (("--l", args.l), ("--m", args.m), ("--n", args.n)):
        if value is not None and value > _DEGREE_LIMIT:  # refused before any value is computed
            parser.error(f"{option} {value} is above the limit {_DEGREE_LIMIT}")
    # an overflow is reported by the finiteness check, not as a numpy warning
    with np.errstate(all="ignore"):
        if kind == "poly":
            if args.l is None or args.x is None:
                parser.error("tabulate poly needs --l and --x")
            header = "# x  poly"
            rows = [(_fmt(x), _finite(poly(args.l, args.d, x), f"poly at x={x!r}"))
                    for x in args.x]
        elif kind == "assoc":
            if args.l is None or args.m is None or args.theta is None:
                parser.error("tabulate assoc needs --l, --m and --theta")
            header = "# theta  assoc"
            rows = [(_fmt(t), _finite(assoc(args.l, args.m, args.d, t), f"assoc at theta={t!r}"))
                    for t in args.theta]
        elif kind == "norm":
            if args.l is None or args.n is None:
                parser.error("tabulate norm needs --l and --n")
            header = "# n  norm"
            norm = norm_factor(args.l, args.n, args.d)
            if norm < math.sqrt(sys.float_info.min):  # refused as norm_coeff refuses it
                parser.error(f"norm at l={args.l}, n={args.n}, d={args.d} underflows")
            rows = [(args.n, _fmt(norm))]
        else:  # count
            if args.lmax is None:
                parser.error("tabulate count needs --lmax")
            header = "# l  count"
            rows = [(l, count(args.d, l)) for l in range(args.lmax + 1)]
    print(header)
    for row in rows:
        print(*row)
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
    try:
        values = eval_expansion(expansion, points.r, points)
    except ValueError as exc:  # a radius where a radial power leaves the double range
        raise formats.FormatError(f"{args.points}: {exc}") from exc
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
    except (ValueError, OverflowError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
