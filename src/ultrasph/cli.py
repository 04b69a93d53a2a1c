"""Command-line front end: ``ultrasph {verify,tabulate,solve,eval}``.

Exit status contract: 0 = success / all checks pass, 1 = verification
failure, 2 = usage or input error.  All numeric table output uses 17
significant digits, and identical inputs produce byte-identical outputs.
"""

import json
import math
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from . import formats
from .gegenbauer import assoc, norm_factor, poly
from .harmonics import count
from .quadrature import _DEGREE_LIMIT
from .solver import eval_expansion, fit_annulus, fit_exterior, fit_interior
from .verify import _LEVEL_CAP, HARMONICITY_FLOOR, run_verification


def _fmt(value):
    return format(float(value), ".17g")


def _checked(convert, ok, message):
    """A converter by ``convert`` that refuses a value ``ok`` rejects, saying ``message``."""
    def read(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(message.format(value))
        return value
    return read


_VERIFY_D = "%d..%d" % (min(_LEVEL_CAP), max(_LEVEL_CAP))  # the dimensions verify covers
_VERIFY_DIMENSION = _checked(int, _LEVEL_CAP.__contains__,
                             f"dimension {{}} out of range {_VERIFY_D}")
_DIMENSION = _checked(int, lambda d: 3 <= d <= _DEGREE_LIMIT,
                      f"dimension {{}} out of range 3..{_DEGREE_LIMIT}")
_LMAX = _checked(int, lambda v: 0 <= v <= _DEGREE_LIMIT, f"{{}} out of range 0..{_DEGREE_LIMIT}")
_DEGREE = _checked(int, lambda v: v <= _DEGREE_LIMIT, f"{{}} is above the limit {_DEGREE_LIMIT}")


def _parse_d_range(text):
    """Accept a single dimension ("4") or an inclusive range ("3-6")."""
    parts = text.split("-", 1)
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad dimension spec {text!r}") from None
    lo, hi = values[0], values[-1]
    if lo > hi:
        raise ValueError(f"empty dimension range {text!r}")
    # each end is checked before the list is built, so a huge range costs nothing
    return list(range(_VERIFY_DIMENSION(lo), _VERIFY_DIMENSION(hi) + 1))


def _parse_floats(text):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"bad number list {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite number in {text!r}")
    return values


def _cmd_verify(args):
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


def _cmd_tabulate(args):
    """Print one table; every row is computed first, so a failing call prints nothing."""
    kind = args.kind
    # an overflow is reported by the finiteness check, not as a numpy warning
    with np.errstate(all="ignore"):
        if kind == "poly":
            if args.l is None or args.x is None:
                _fail("tabulate", "tabulate poly needs --l and --x")
            header = "# x  poly"
            rows = [(_fmt(x), _finite(poly(args.l, args.d, x), f"poly at x={x!r}"))
                    for x in args.x]
        elif kind == "assoc":
            if args.l is None or args.m is None or args.theta is None:
                _fail("tabulate", "tabulate assoc needs --l, --m and --theta")
            header = "# theta  assoc"
            rows = [(_fmt(t), _finite(assoc(args.l, args.m, args.d, t), f"assoc at theta={t!r}"))
                    for t in args.theta]
        elif kind == "norm":
            if args.l is None or args.n is None:
                _fail("tabulate", "tabulate norm needs --l and --n")
            header = "# n  norm"
            norm = norm_factor(args.l, args.n, args.d)
            if norm < math.sqrt(sys.float_info.min):  # refused as norm_coeff refuses it
                _fail("tabulate", f"norm at l={args.l}, n={args.n}, d={args.d} underflows")
            rows = [(args.n, _fmt(norm))]
        else:  # count
            if args.lmax is None:
                _fail("tabulate", "tabulate count needs --lmax")
            header = "# l  count"
            # str here: a count past Python's int-to-str digit limit raises before any print
            rows = [(l, str(count(args.d, l))) for l in range(args.lmax + 1)]
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
    with warnings.catch_warnings(record=True) as caught:  # nearly singular annulus levels
        warnings.simplefilter("always")
        expansion = fit(problem)
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=sys.stderr)
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
    except ValueError as exc:  # a value out of the double range, or tables above the budget
        raise formats.FormatError(f"{args.coefficients} at {args.points}: {exc}") from exc
    _write_or_stdout(args.output, lambda fp: formats.save_values(fp, values))
    return 0


_REQUIRED = object()  # the default of a value that the command line must give
_HELP = "-h/--help"
# command -> (handler, {key: (converter, default, help)}, what it does); a key is a
# positional, read in table order, or an option's spellings joined by "/"
_COMMANDS = {
    "verify": (_cmd_verify, {
        "--d": (_parse_d_range, [4], f"dimension or range like 3-6 (each in {_VERIFY_D})"),
        "--lmax": (_LMAX, 4, f"harmonic band limit, <= {_DEGREE_LIMIT} (checks cap their levels)"),
        "--tol": (_checked(float, lambda tol: 0 < tol < math.inf,
                           "tolerance must be finite and positive"), 1e-8,
                  f"tolerance for algebraic checks; harmonicity's floor is {HARMONICITY_FLOOR:g}"),
        "--json": (str, None, "also write the report as JSON"),
    }, "re-check every identity against independent routes; exit 0 iff all pass"),
    "tabulate": (_cmd_tabulate, {
        "kind": (_checked(str, ("poly", "assoc", "norm", "count").__contains__,
                          "invalid choice {!r} (choose from poly, assoc, norm, count)"), _REQUIRED,
                 "poly (columns x value), assoc (theta value), norm (n value) or count (l count)"),
        "--d": (_DIMENSION, _REQUIRED, f"dimension (required), <= {_DEGREE_LIMIT}"),
        "--l": (_DEGREE, None, f"degree (poly, assoc, norm), <= {_DEGREE_LIMIT}"),
        "--m": (_DEGREE, None, f"order (assoc), <= {_DEGREE_LIMIT}"),
        "--n": (_DEGREE, None, f"order (norm), <= {_DEGREE_LIMIT}"),
        "--x": (_parse_floats, None, "comma-separated finite numbers, any value (poly)"),
        "--theta": (_parse_floats, None, "comma-separated finite angles, any value (assoc)"),
        "--lmax": (_LMAX, None, f"top level (count), <= {_DEGREE_LIMIT}"),
    }, "print values of the core functions to 17 significant digits"),
    "solve": (_cmd_solve, {
        "config": (str, _REQUIRED, "JSON config {d, kind, radii, lmax, boundary}"),
        "-o/--output": (str, None, "coefficient file (default stdout)"),
    }, "fit a boundary-value problem from a JSON config"),
    "eval": (_cmd_eval, {
        "coefficients": (str, _REQUIRED, "coefficient file from solve"),
        "points": (str, _REQUIRED, "points file"),
        "-o/--output": (str, None, "values file (default stdout)"),
    }, "evaluate a coefficient file at points, one complex value per point"),
}


def _help(command):
    """The -h text of a command, or of the program (""): the usage line, then each key or
    command with the last field of its row, its help."""
    table = _COMMANDS[command][1] if command else _COMMANDS
    usage = " ".join([command, "[options]", *(key for key in table if key[0] != "-")]
                     if command else ["{%s} ..." % ",".join(_COMMANDS)])
    text = (_COMMANDS[command][2] if command else "Hyperspherical harmonics, sphere quadrature, "
            "and Laplace boundary-value solving in d >= 3 dimensions.")
    rows = [*((key, row[-1]) for key, row in table.items()), (_HELP, "show this help and exit")]
    width = max(len(name) for name, _ in rows)
    return "\n".join([f"usage: ultrasph {usage}", "", text, "",
                      *(f"  {name:{width}}  {what}" for name, what in rows)])


def _fail(command, message):
    """A usage error: the usage line and the message on stderr, then exit 2."""
    usage = _help(command).partition("\n")[0]
    print(usage, f"ultrasph {command}".rstrip() + f": error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv):
    """The command and its values as attributes; the token after an option is its value."""
    command = argv[0] if argv and argv[0] in _COMMANDS else ""  # "": the program's own -h
    spec = _COMMANDS[command][1] if command else {}
    spellings = {s: key for key in [*spec, _HELP] if key[0] == "-" for s in key.split("/")}
    values = {key: default for key, (_, default, _) in spec.items()}
    positionals = (key for key in spec if key[0] != "-")
    tokens, ended = iter(argv[1:] if command else argv), False
    for token in tokens:
        if token == "--" and not ended:
            ended = True
            continue
        if len(token) > 1 and token[0] == "-" and not ended:
            if token[1] == "-":  # --name or --name=VALUE, where a prefix may name one long option
                name, eq, text = token.partition("=")
                text = text if eq else None
            else:  # -o, -oVALUE or -o=VALUE
                name, text = token[:2], token[2:].removeprefix("=") if len(token) > 2 else None
            names = [name] if name in spellings else [
                s for s in spellings if len(name) > 2 and s.startswith(name)]
            if len(names) != 1:
                _fail(command, f"ambiguous option: {name} could match {', '.join(names)}"
                      if names else f"unrecognized arguments: {token}")
            if (key := spellings[names[0]]) == _HELP:
                print(_help(command))
                raise SystemExit(0)
            text = next(tokens, None) if text is None else text
            if text is None:
                _fail(command, f"argument {key}: expected one argument")
        else:
            key, text = next(positionals, None), token
            if key is None:
                _fail(command, f"unrecognized arguments: {token}" if command else
                      f"invalid choice {token!r} (choose from {', '.join(_COMMANDS)})")
        try:
            values[key] = spec[key][0](text)
        except ValueError as exc:
            _fail(command, f"argument {key}: {exc}")
    for key, value in [("command", command or _REQUIRED), *values.items()]:
        if value is _REQUIRED:
            _fail(command, f"the following arguments are required: {key}")
    return SimpleNamespace(command=command, **{
        key.split("/")[-1].lstrip("-"): value for key, value in values.items()})


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, OverflowError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
