import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrasph import formats
from ultrasph.cli import _COMMANDS, _parse, main
from ultrasph.gegenbauer import assoc, norm_factor, poly
from ultrasph.geometry import UltrasphericalPoint, solid_angle
from ultrasph.harmonics import MultiIndex, _labels, enumerate_indices
from ultrasph.quadrature import _DEGREE_LIMIT, SphereGrid, sphere_grid
from ultrasph.solver import HarmonicExpansion, _synthesize, eval_expansion, fit_annulus
from ultrasph.verify import run_verification


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    """Run a fresh interpreter with the package of this checkout on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def interior_config(tmp_path, data="harmonic:(1,0;0)", radius=1.0, d=4, lmax=2):
    return write_json(
        tmp_path / "config.json",
        {
            "d": d,
            "kind": "interior",
            "radii": [radius],
            "lmax": lmax,
            "boundary": [{"radius": radius, "data": data}],
        },
    )


class TestVerifyCommand:
    def test_default_dimension_passes(self, capsys):
        rc = main(["verify", "--d", "4", "--lmax", "4", "--tol", "1e-8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OVERALL PASS" in out

    def test_low_dimension_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--d", "2", "--lmax", "2"])
        assert err.value.code == 2

    def test_unreachable_tolerance_fails(self, capsys):
        rc = main(["verify", "--d", "5", "--lmax", "3", "--tol", "1e-15"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "--d", "3", "--lmax", "2", "--tol", "1e-7",
                   "--json", str(report)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert all(c["max_residual"] <= c["tolerance"] for c in doc["checks"])

    def test_benchmark_case_passes_every_check(self, capsys):
        rc = main(["verify", "--d", "3-8", "--lmax", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OVERALL PASS (84/84 checks)" in out

    def test_verify_imports_no_numpy_random(self):
        # the first numpy.random generator imports the package with secrets,
        # hmac and _hashlib: about 25 ms of CPU that no identity needs
        result = run_python("-c", (
            "import sys\n"
            "from ultrasph.cli import main\n"
            "assert main(['verify', '--d', '3-8', '--lmax', '8']) == 0\n"
            "assert 'numpy.random' not in sys.modules\n"
        ))
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("OVERALL PASS (84/84 checks)\n")

    def test_no_command_imports_argparse_gettext_or_locale(self, tmp_path):
        # any argparse parser pays about 1 ms for the `import locale` of gettext
        config = interior_config(tmp_path, d=3, lmax=1, data="harmonic:(1;0)")
        points = write_json(tmp_path / "points.json", {"points": [{"cartesian": [0.1, 0.2, 0.3]}]})
        coeffs = str(tmp_path / "coeffs.json")
        result = run_python("-c", (
            "import sys\n"
            "from ultrasph.cli import main\n"
            "assert main(['verify', '--d', '3', '--lmax', '2']) == 0\n"
            "assert main(['tabulate', 'poly', '--d', '3', '--l', '2', '--x', '0.5']) == 0\n"
            f"assert main(['solve', {config!r}, '-o', {coeffs!r}]) == 0\n"
            f"assert main(['eval', {coeffs!r}, {points!r}]) == 0\n"
            "loaded = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
            "print(loaded, file=sys.stderr)\n"
        ))
        assert result.returncode == 0, result.stderr
        assert result.stderr == "[]\n"

    def test_report_is_the_same_in_every_process(self):
        runs = [run_python("-m", "ultrasph.cli", "verify", "--d", "3-8", "--lmax", "8")
                for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.endswith("OVERALL PASS (84/84 checks)\n")

    def test_unsupported_dimension_rejected_up_front(self):
        for d_values in ([9], [3, 9]):
            with pytest.raises(ValueError, match=r"d = 3\.\.8"):
                run_verification(d_values, 4, 1e-8)

    def test_an_lmax_up_to_the_degree_limit_checks_what_lmax_8_checks(self):
        # every check caps its level, so lmax 10,000 costs and finds what lmax 8 does
        high, low = (run_verification([3], lmax, 1e-8) for lmax in (_DEGREE_LIMIT, 8))
        assert [(c.name, c.max_residual) for c in high.checks] == \
            [(c.name, c.max_residual) for c in low.checks]


class TestTabulateCommand:
    def test_count_values(self, capsys):
        rc = main(["tabulate", "count", "--d", "4", "--lmax", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split() for line in out.splitlines() if not line.startswith("#")]
        assert [int(r[1]) for r in rows] == [1, 4, 9, 16]

    def test_poly_value(self, capsys):
        rc = main(["tabulate", "poly", "--d", "3", "--l", "2", "--x", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(out.splitlines()[-1].split()[1]) == -0.5

    def test_norm_value(self, capsys):
        rc = main(["tabulate", "norm", "--d", "3", "--l", "1", "--n", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        got = float(out.splitlines()[-1].split()[1])
        assert abs(got - math.sqrt(1.5)) < 1e-15

    def test_assoc_17_digits(self, capsys):
        rc = main(["tabulate", "assoc", "--d", "4", "--l", "2", "--m", "1",
                   "--theta", "0.7,1.1"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(rows) == 2
        for row in rows:
            value = row.split()[1]
            assert float(value) == float(format(float(value), ".17g"))

    def test_arguments_outside_the_natural_ranges_are_evaluated_as_given(self, capsys):
        # --x and --theta take any finite number: x = 2 is off [-1, 1], theta = 4 off [0, pi]
        for argv, want in (
            (["poly", "--d", "3", "--l", "5", "--x", "2"], poly(5, 3, 2.0)),
            (["assoc", "--d", "3", "--l", "5", "--m", "2", "--theta", "4"], assoc(5, 2, 3, 4.0)),
        ):
            rc = main(["tabulate", *argv])
            out = capsys.readouterr().out
            assert rc == 0
            assert out.splitlines()[1:] == [f"{float(argv[-1]):.17g} {want:.17g}"]

    def test_norm_past_the_overflow_of_the_solid_angles(self, capsys):
        rc = main(["tabulate", "norm", "--d", "400", "--l", "3", "--n", "0"])
        out = capsys.readouterr().out
        assert rc == 0 and out.splitlines()[-1] == f"0 {norm_factor(3, 0, 400):.17g}"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_count_past_the_digit_limit_prints_no_table(self, capsys):
        # at the limit's floor, 640 digits, count(10000, l) passes it near l = 330
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rc = main(["tabulate", "count", "--d", "10000", "--lmax", "10000"])
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_degree_at_the_limit_is_tabulated(self, capsys):
        rc = main(["tabulate", "poly", "--d", "3", "--l", "10000", "--x", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert math.isfinite(float(out.splitlines()[-1].split()[1]))

    def test_missing_params_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["tabulate", "poly", "--d", "3"])
        assert err.value.code == 2

    def test_overflow_is_an_input_error(self, capsys):
        # alpha(200, 8) = deriv_at_one(200, 200, 8) leaves the double range;
        # poly_deriv raises OverflowError
        rc = main(["tabulate", "assoc", "--d", "8", "--l", "300", "--m", "200",
                   "--theta", "1"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["norm", "--d", "3", "--l", "2", "--n", "3"],
        ["poly", "--d", "3", "--l", "3", "--x", "0.5,1e200"],
    ], ids=["norm-order-above-degree", "poly-overflow"])
    def test_failing_call_prints_no_table(self, capsys, argv):
        rc = main(["tabulate", *argv])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


_USAGE_ERRORS = {
    "poly-nan": ["tabulate", "poly", "--d", "3", "--l", "2", "--x", "nan"],
    "poly-inf": ["tabulate", "poly", "--d", "3", "--l", "2", "--x", "inf,0.5"],
    "assoc-inf": ["tabulate", "assoc", "--d", "3", "--l", "2", "--m", "1", "--theta", "inf"],
    "count-negative-lmax": ["tabulate", "count", "--d", "3", "--lmax", "-1"],
    "count-lmax-above-limit": ["tabulate", "count", "--d", "3", "--lmax", str(_DEGREE_LIMIT + 1)],
    "tabulate-d-above-limit": ["tabulate", "count", "--d", str(_DEGREE_LIMIT + 1), "--lmax", "2"],
    "norm-underflow": ["tabulate", "norm", "--d", "3", "--l", "100", "--n", "100"],
    "tol-inf": ["verify", "--d", "3", "--lmax", "1", "--tol", "inf"],
    "tol-nan": ["verify", "--d", "3", "--lmax", "1", "--tol", "nan"],
    # refused before the range's list of dimensions is built
    "verify-huge-d-range": ["verify", "--d", "3-100000000000", "--lmax", "1"],
    # degrees above quadrature._DEGREE_LIMIT, refused before any value is computed
    "poly-huge-degree": ["tabulate", "poly", "--d", "3", "--l", "1000000000000", "--x", "0.5"],
    "assoc-huge-degree": ["tabulate", "assoc", "--d", "3", "--l", "100000000000", "--m", "1",
                          "--theta", "0.5"],
    "norm-huge-degree": ["tabulate", "norm", "--d", "3", "--l", "100000000", "--n", "0"],
}


@pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
def test_non_finite_numbers_and_negative_lmax_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


# a --x / --theta token: number lists with any float, huge integers and
# number-like junk, or arbitrary text
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-10**400, 10**400).map(str),
    st.text(alphabet="0123456789+-._eEinfatyINFNAN ", max_size=8),
)
_TOKEN = st.one_of(st.lists(_NUMBER, min_size=1, max_size=4).map(",".join), st.text(max_size=12))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(kind=st.sampled_from(["poly", "assoc"]), token=_TOKEN)
def test_any_number_token_gives_finite_rows_or_exit_2(kind, token):
    option = "--x" if kind == "poly" else "--theta"
    argv = ["tabulate", kind, "--d", "4", "--l", "3", "--m", "2", f"{option}={token}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        header, *rows = out.getvalue().splitlines()
        assert header.startswith("#") and len(rows) == len(token.split(","))
        assert all(math.isfinite(float(v)) for row in rows for v in row.split())
    else:
        assert rc == 2 and out.getvalue() == ""
        assert "error:" in err.getvalue()


# -- the command-line grammar, against the argparse parser it replaced ---------------------

def _ref_d_range(text):
    parts = text.split("-", 1)
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension spec {text!r}")
    lo, hi = values[0], values[-1]
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty dimension range {text!r}")
    for d in (lo, hi):
        if not 3 <= d <= 8:
            raise argparse.ArgumentTypeError(f"dimension {d} out of range 3..8")
    return list(range(lo, hi + 1))


def _ref_floats(text):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"non-finite number in {text!r}")
    return values


def _reference_parse(argv):
    """The argparse parser of the CLI before its table, with the option checks of its commands."""
    parser = argparse.ArgumentParser(prog="ultrasph")
    sub = parser.add_subparsers(dest="command", required=True)
    # the ranges as metavars, so a usage line does not spell out 10,000 choices
    lmax_range, d_range = range(0, _DEGREE_LIMIT + 1), range(3, _DEGREE_LIMIT + 1)
    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--d", type=_ref_d_range, default=[4])
    p_verify.add_argument("--lmax", type=int, default=4, choices=lmax_range, metavar="LMAX")
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--json", metavar="PATH")
    p_tab = sub.add_parser("tabulate")
    p_tab.add_argument("kind", choices=["poly", "assoc", "norm", "count"])
    p_tab.add_argument("--d", type=int, required=True, choices=d_range, metavar="D")
    p_tab.add_argument("--l", type=int)
    p_tab.add_argument("--m", type=int)
    p_tab.add_argument("--n", type=int)
    p_tab.add_argument("--x", type=_ref_floats)
    p_tab.add_argument("--theta", type=_ref_floats)
    p_tab.add_argument("--lmax", type=int, choices=lmax_range, metavar="LMAX")
    p_solve = sub.add_parser("solve")
    p_solve.add_argument("config")
    p_solve.add_argument("-o", "--output")
    p_eval = sub.add_parser("eval")
    p_eval.add_argument("coefficients")
    p_eval.add_argument("points")
    p_eval.add_argument("-o", "--output")
    args = parser.parse_args(argv)
    if args.command == "verify" and not 0 < args.tol < math.inf:
        parser.error("tolerance must be finite and positive")
    if args.command == "tabulate":
        for option, value in (("--l", args.l), ("--m", args.m), ("--n", args.n)):
            if value is not None and value > _DEGREE_LIMIT:
                parser.error(f"{option} {value} is above the limit {_DEGREE_LIMIT}")
    return args


def _outcome(parse, argv):
    """The parsed values as a dict, or the exit code; what the parser prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


# the README examples and each form of the grammar, with some of the values they give
_SPELLINGS = {
    "readme-verify": ("verify --d 4 --lmax 4 --tol 1e-8", {"d": [4], "lmax": 4, "tol": 1e-8}),
    "readme-verify-json": ("verify --d 3-6 --lmax 4 --tol 1e-8 --json report.json",
                           {"d": [3, 4, 5, 6], "json": "report.json"}),
    "readme-count": ("tabulate count --d 4 --lmax 3", {"kind": "count", "d": 4, "lmax": 3}),
    "readme-poly": ("tabulate poly --d 3 --l 2 --x=-1,0,1", {"l": 2, "x": [-1.0, 0.0, 1.0]}),
    "readme-assoc": ("tabulate assoc --d 4 --l 2 --m 1 --theta 0.7,1.1",
                     {"m": 1, "theta": [0.7, 1.1]}),
    "readme-norm": ("tabulate norm --d 3 --l 1 --n 0", {"l": 1, "n": 0}),
    "readme-solve": ("solve problem.json -o coeffs.json",
                     {"config": "problem.json", "output": "coeffs.json"}),
    "readme-eval": ("eval coeffs.json points.json -o values.json",
                    {"coefficients": "coeffs.json", "points": "points.json"}),
    "defaults": ("verify", {"d": [4], "lmax": 4, "tol": 1e-8, "json": None}),
    "positional-last": ("tabulate --d 3 --l 2 --x 0.5 poly", {"kind": "poly", "d": 3}),
    "option-between-positionals": ("eval c.json -o v.json p.json",
                                   {"coefficients": "c.json", "points": "p.json"}),
    "option-first": ("eval -o v.json c.json p.json", {"output": "v.json"}),
    "equals": ("verify --lmax=3 --d=3-4", {"lmax": 3, "d": [3, 4]}),
    "exact-before-prefix": ("tabulate poly --d 3 --l 2 --x 0", {"l": 2, "lmax": None}),
    "prefix": ("tabulate count --d 4 --lm 3", {"lmax": 3}),
    "prefix-equals": ("tabulate assoc --d 4 --l 2 --m 1 --th=0.5", {"theta": [0.5]}),
    "verify-l-is-lmax": ("verify --l 3 --t 1e-6 --j r.json",
                         {"lmax": 3, "tol": 1e-6, "json": "r.json"}),
    "long-prefix-output": ("solve p.json --out c.json", {"output": "c.json"}),
    "short-attached": ("solve p.json -oc.json", {"output": "c.json"}),
    "short-equals": ("solve p.json -o=c.json", {"output": "c.json"}),
    "short-empty": ("solve p.json -o=", {"output": ""}),
    "repeated-last-wins": ("verify --lmax 2 --lmax 3 --tol 1e-3 --tol 1e-4",
                           {"lmax": 3, "tol": 1e-4}),
    "double-dash": ("solve -- -p.json", {"config": "-p.json"}),
    "double-dash-between": ("eval c.json -- p.json", {"points": "p.json"}),
    "double-dash-after-options": ("eval -o v.json -- c.json p.json", {"coefficients": "c.json"}),
    "negative-int-value": ("tabulate poly --d 3 --l -1 --x -1", {"l": -1, "x": [-1.0]}),
    "negative-decimal-value": ("tabulate poly --d 3 --l 2 --x -.5", {"x": [-0.5]}),
    "dash-value": ("solve p.json -o -", {"output": "-"}),
    "degree-at-limit": (f"tabulate norm --d 3 --l {_DEGREE_LIMIT} --n 0", {"l": _DEGREE_LIMIT}),
    "verify-lmax-at-limit": (f"verify --lmax {_DEGREE_LIMIT}", {"lmax": _DEGREE_LIMIT}),
    "count-at-limits": (f"tabulate count --d {_DEGREE_LIMIT} --lmax {_DEGREE_LIMIT}",
                        {"d": _DEGREE_LIMIT, "lmax": _DEGREE_LIMIT}),
}


@pytest.mark.parametrize("line,values", _SPELLINGS.values(), ids=_SPELLINGS.keys())
def test_accepted_spellings_parse_as_argparse_did(line, values):
    argv = line.split(" ")
    got = _outcome(_parse, argv)
    assert got == _outcome(_reference_parse, argv)
    assert got["command"] == argv[0]
    assert {k: got[k] for k in values} == values


def test_the_token_after_an_option_is_always_its_value(capsys):
    # argparse 3.11 refused a value that starts with "-" unless it was a plain negative number
    argv = ["tabulate", "poly", "--d", "3", "--l", "2", "--x", "-1,0,1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "# x  poly\n-1 1\n0 -0.5\n1 1\n"
    assert vars(_parse(["solve", "p.json", "-o", "--d"]))["output"] == "--d"


def test_help_names_every_command_positional_and_option(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["-h"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 0 and err == ""
    assert out.startswith("usage: ultrasph ") and all(name in out for name in _COMMANDS)
    for name, (_, table, _) in _COMMANDS.items():
        for argv in ([name, "-h"], [name, "--help"], [name, "--he"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            out, err = capsys.readouterr()
            assert exit_.value.code == 0 and err == ""
            assert out.startswith(f"usage: ultrasph {name} ")
            spellings = [s for key in table for s in key.split("/")]
            assert all(re.search(rf"(^|\W){re.escape(s)}(\W|$)", out) for s in spellings)


@pytest.mark.parametrize("argv", [
    ["tabulate", "poly", "--bogus", "1"],
    ["tabulate", "poly", "--d"],
    ["tabulate", "poly", "--d", str(_DEGREE_LIMIT + 1)],
    ["tabulate", "--d", "3"],
    ["solve"],
    ["eval", "a", "b", "c"],
    ["verify", "--tol", "nan"],
], ids=["unknown-option", "missing-value", "refused-value", "missing-positional",
        "missing-config", "extra-positional", "refused-tolerance"])
def test_usage_error_puts_the_usage_line_first(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: ultrasph {argv[0]} ")
    assert error.startswith(f"ultrasph {argv[0]}: error: ")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--d", "3", "verify"], ["-x"]],
                         ids=["empty", "unknown-command", "option-before-command", "unknown"])
def test_program_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert err.startswith("usage: ultrasph {verify,tabulate,solve,eval}")
    assert "\nultrasph: error: " in err


# option spellings drawn by the differential test: every name, its unique prefixes,
# and names no command knows
_OPTION_NAMES = {
    "verify": ["--d", "--lmax", "--lma", "--lm", "--l", "--tol", "--t", "--json", "--js"],
    "tabulate": ["--d", "--l", "--m", "--n", "--x", "--theta", "--th", "--t", "--lmax", "--lm"],
    "solve": ["-o", "--output", "--out", "--o"],
    "eval": ["-o", "--output", "--ou"],
}
_BOGUS_NAMES = ["--bogus", "--lmaxx", "-d", "-x", "--outputs"]
# a value token starts with "-" only as a number argparse took for a value
_VALUE = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4", "8", "1e-3", "0.5", "3-5", "1,2", "-1", "-.5"]),
    st.sampled_from(["9", "10000", "10001", "nan", "inf", "5-3", "3-100", "", "-", "x",
                     "p.json", "poly", "a=b"]),
    st.text(alphabet="0123456789.,-e", max_size=6).filter(
        lambda v: not v.startswith("-") or re.fullmatch(r"-\d+|-\d*\.\d+", v)),
)
_POSITIONALS = ["poly", "assoc", "norm", "count", "bogus", "a.json", "b", "", "-"]


# the positionals and the required option that each command needs
_NEEDED = {"verify": [], "tabulate": [["count"], ["--d", "4"]], "solve": [["a.json"]],
           "eval": [["a.json"], ["b"]]}


@st.composite
def _argv(draw):
    """A command, what it needs, and up to five more units, in any order."""
    command = draw(st.sampled_from(list(_NEEDED)))
    names = _OPTION_NAMES[command]
    units = list(_NEEDED[command])
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)) == 0:
            units.append([draw(st.sampled_from(_POSITIONALS))])
            continue
        bogus = draw(st.integers(0, 7)) == 0
        name, value = draw(st.sampled_from(_BOGUS_NAMES if bogus else names)), draw(_VALUE)
        form = draw(st.sampled_from(["apart", "equals", "attached"]))
        if form == "attached" and len(name) == 2 and value:  # -oVALUE
            units.append([name + value])
        else:
            units.append([name, value] if form == "apart" else [f"{name}={value}"])
    units = draw(st.permutations(units))
    # "--" before a positional; argparse 3.11 refused a "--" after the last positional
    # ("unrecognized arguments: --"), where the table reads it as the end of the options
    at = [i for i, unit in enumerate(units) if len(unit) == 1 and unit[0] in _POSITIONALS]
    if at and draw(st.booleans()):
        units.insert(draw(st.sampled_from(at)), ["--"])
    if draw(st.integers(0, 3)) == 0:  # an option without its value, last
        units.append([draw(st.sampled_from(names))])
    return [command, *(token for unit in units for token in unit)]


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(argv=_argv())
def test_parse_agrees_with_the_argparse_parser(argv):
    assert _outcome(_parse, argv) == _outcome(_reference_parse, argv)


class TestSolveCommand:
    def test_single_harmonic_interior(self, tmp_path, capsys):
        config = interior_config(tmp_path)
        out_path = tmp_path / "coeffs.json"
        rc = main(["solve", config, "-o", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        exp = formats.load_coefficients(str(out_path))
        target = MultiIndex(4, 1, (0, 0))
        for idx, (a, b) in exp.coeffs.items():
            want = 1.0 if idx == target else 0.0
            assert abs(a - want) <= 1e-10
            assert b == 0

    def test_deterministic_bytes(self, tmp_path, capsys):
        config = interior_config(tmp_path)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", config, "-o", str(p1)]) == 0
        assert main(["solve", config, "-o", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_annulus_manufactured_roundtrip(self, tmp_path, capsys):
        rng = np.random.default_rng(55)
        d, lmax = 4, 2
        coeffs = {}
        grid = sphere_grid(d, lmax)
        from ultrasph.harmonics import enumerate_indices

        for l in range(lmax + 1):
            for idx in enumerate_indices(d, l):
                coeffs[idx] = (
                    complex(rng.normal(), rng.normal()),
                    complex(rng.normal(), rng.normal()),
                )
        truth = HarmonicExpansion(d, lmax, coeffs)
        samples = {}
        for name, radius in (("inner", 0.5), ("outer", 2.0)):
            values = np.asarray(eval_expansion(truth, radius, grid.points))
            samples[name] = write_json(
                tmp_path / f"{name}.json",
                {"values": [[v.real, v.imag] for v in values]},
            )
        config = write_json(
            tmp_path / "annulus.json",
            {
                "d": d,
                "kind": "annulus",
                "radii": [0.5, 2.0],
                "lmax": lmax,
                "boundary": [
                    {"radius": 0.5, "samples-file": samples["inner"]},
                    {"radius": 2.0, "samples-file": samples["outer"]},
                ],
            },
        )
        out_path = tmp_path / "coeffs.json"
        rc = main(["solve", config, "-o", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        fit = formats.load_coefficients(str(out_path))
        for idx, (a, b) in truth.coeffs.items():
            ga, gb = fit.coeffs[idx]
            assert abs(ga - a) <= 1e-8 and abs(gb - b) <= 1e-8

    def test_nearly_singular_annulus_levels_are_warning_lines(self, tmp_path, capsys):
        # a Python UserWarning would fail here: the suite turns warnings into errors
        radii = (1.0, 1.00000000000001)
        config = write_json(tmp_path / "near.json", {
            "d": 4, "kind": "annulus", "radii": list(radii), "lmax": 2,
            "boundary": [{"radius": r, "data": "harmonic:(1,0;0)"} for r in radii]})
        out_path = tmp_path / "coeffs.json"
        assert main(["solve", config, "-o", str(out_path)]) == 0
        out, err = capsys.readouterr()
        assert out == "" and "UserWarning" not in err
        lines = err.splitlines()
        assert len(lines) == 3
        for l, line in enumerate(lines):
            assert line.startswith(f"warning: radial system of level {l} for radii {radii}")
        problem = formats.build_problem(formats.load_config(config))
        with pytest.warns(UserWarning, match="nearly singular"):
            expansion = fit_annulus(problem)
        want = io.StringIO()
        formats.save_coefficients(want, expansion)
        assert out_path.read_text() == want.getvalue()

    def test_malformed_radii_exit_2(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "bad.json",
            {
                "d": 4,
                "kind": "annulus",
                "radii": [2.0, 0.5],
                "lmax": 2,
                "boundary": [
                    {"radius": 2.0, "data": "harmonic:(0,0;0)"},
                    {"radius": 0.5, "data": "harmonic:(0,0;0)"},
                ],
            },
        )
        rc = main(["solve", config])
        err = capsys.readouterr().err
        assert rc == 2
        assert "R_inner < R_outer" in err

    def test_dimension_out_of_range_exit_2(self, tmp_path, capsys):
        config = interior_config(tmp_path, d=2)
        rc = main(["solve", config])
        err = capsys.readouterr().err
        assert rc == 2
        assert "dimension out of range" in err

    @pytest.mark.parametrize("lmax", [9, 40])
    def test_band_limits_above_8_round_trip(self, tmp_path, capsys, lmax):
        d, radii = 3, (0.8, 1.25)
        labels = _labels(d, lmax, 0)
        values = np.random.default_rng(lmax).standard_normal((len(labels), 4)).view(complex)
        truth = HarmonicExpansion._of(d, lmax, labels, values)
        boundary = []
        for j, radius in enumerate(radii):
            samples = _synthesize(truth, radius, sphere_grid(d, lmax))
            path = write_json(tmp_path / f"samples{j}.json",
                              {"values": np.stack([samples.real, samples.imag], axis=1).tolist()})
            boundary.append({"radius": radius, "samples-file": path})
        config = write_json(tmp_path / "annulus.json", {"d": d, "kind": "annulus", "radii": radii,
                                                        "lmax": lmax, "boundary": boundary})
        out_path = tmp_path / "coeffs.json"
        assert main(["solve", config, "-o", str(out_path)]) == 0
        fit = formats.load_coefficients(str(out_path))
        assert np.array_equal(fit.labels, labels)
        assert np.max(np.abs(fit.values - values)) <= 1e-10

    def test_config_over_the_budget_exits_2_before_any_samples_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        config = write_json(tmp_path / "big.json", {
            "d": 3, "kind": "interior", "radii": [1.0], "lmax": 400,
            "boundary": [{"radius": 1.0, "samples-file": missing}]})
        rc = main(["solve", config])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {config}: a fit at d=3, lmax=400 would take about ")
        assert err.endswith(" MiB, above the budget of 3072 MiB\n")

    def test_bad_harmonic_spec_exit_2(self, tmp_path, capsys):
        config = interior_config(tmp_path, data="harmonic:(1,0)")
        rc = main(["solve", config])
        assert rc == 2
        assert "harmonic" in capsys.readouterr().err


class TestEvalCommand:
    def test_empty_expansion_writes_zeros(self, tmp_path, capsys):
        coeffs = write_json(tmp_path / "coeffs.json", {
            "format": "ultrasph-coefficients", "d": 4, "lmax": 2, "coefficients": [],
        })
        points = write_json(tmp_path / "points.json", {"points": [
            {"cartesian": [0.1, 0.2, -0.3, 0.4]},
            {"ultraspherical": {"r": 0.77, "theta": [0.5, 1.2], "phi": 4.0}},
        ]})
        out_path = tmp_path / "values.json"
        assert main(["eval", coeffs, points, "-o", str(out_path)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out_path.read_text()) == {"values": [[0.0, 0.0], [0.0, 0.0]]}

    def test_high_degree_coefficient(self, tmp_path, capsys):
        # Y = T_3[100, 100](1) / sqrt(2 pi), far below every normalization constant's range
        coeffs = write_json(tmp_path / "coeffs.json", {
            "format": "ultrasph-coefficients", "d": 3, "lmax": 100, "coefficients": [
                {"index": [100, 100], "A": [1.0, 0.0], "B": [0.0, 0.0]}],
        })
        points = write_json(tmp_path / "points.json", {"points": [
            {"ultraspherical": {"r": 1.0, "theta": [1.0], "phi": 0.0}}]})
        assert main(["eval", coeffs, points]) == 0
        [[re, im]] = json.loads(capsys.readouterr().out)["values"]
        assert abs(re - 3.029345023317297e-08) <= 1e-13 * 3.029345023317297e-08
        assert im == 0.0

    def _solve_constant(self, tmp_path, capsys):
        config = interior_config(tmp_path, data="harmonic:(0,0;0)")
        coeffs = tmp_path / "coeffs.json"
        assert main(["solve", config, "-o", str(coeffs)]) == 0
        capsys.readouterr()
        return coeffs

    def test_constant_expansion_same_value_everywhere(self, tmp_path, capsys):
        coeffs = self._solve_constant(tmp_path, capsys)
        points = write_json(
            tmp_path / "points.json",
            {
                "points": [
                    {"cartesian": [0.1, 0.2, -0.3, 0.4]},
                    {"ultraspherical": {"r": 0.77, "theta": [0.5, 1.2], "phi": 4.0}},
                    {"cartesian": [0.0, 0.0, 0.0, 0.9]},
                ]
            },
        )
        out_path = tmp_path / "values.json"
        rc = main(["eval", str(coeffs), points, "-o", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        values = json.loads(out_path.read_text())["values"]
        want = 1.0 / math.sqrt(solid_angle(4))
        for re, im in values:
            assert abs(re - want) <= 1e-12 and abs(im) <= 1e-15

    def test_boundary_reproduction(self, tmp_path, capsys):
        config = interior_config(tmp_path, data="harmonic:(2,1;1)", lmax=3)
        coeffs = tmp_path / "coeffs.json"
        assert main(["solve", config, "-o", str(coeffs)]) == 0
        grid = sphere_grid(4, 3)
        n = 5
        pts = [
            {
                "ultraspherical": {
                    "r": 1.0,
                    "theta": [float(grid.points.theta[0][i]),
                              float(grid.points.theta[1][i])],
                    "phi": float(grid.points.phi[i]),
                }
            }
            for i in range(0, grid.size, grid.size // n)
        ]
        points = write_json(tmp_path / "points.json", {"points": pts})
        out_path = tmp_path / "values.json"
        assert main(["eval", str(coeffs), points, "-o", str(out_path)]) == 0
        capsys.readouterr()
        values = json.loads(out_path.read_text())["values"]
        from ultrasph.geometry import UltrasphericalPoint
        from ultrasph.harmonics import eval_harmonic

        target = MultiIndex(4, 2, (1, 1))
        for entry, (re, im) in zip(pts, values):
            rec = entry["ultraspherical"]
            p = UltrasphericalPoint(4, rec["r"], tuple(rec["theta"]), rec["phi"])
            want = eval_harmonic(target, p)
            assert abs(complex(re, im) - want) <= 1e-8

    @staticmethod
    def _scatter(tmp_path, rng, d, lmax, n):
        """A coefficients file of every index up to lmax and n point entries, half cartesian."""
        truth = HarmonicExpansion(d, lmax, {
            idx: (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
            for l in range(lmax + 1) for idx in enumerate_indices(d, l)
        })
        coeffs = tmp_path / "coeffs.json"
        with open(coeffs, "w") as fp:
            formats.save_coefficients(fp, truth)
        entries = []
        for i in range(n):
            if i % 2:
                entries.append({"cartesian": list(rng.uniform(-1.5, 1.5, d))})
            else:
                entries.append({"ultraspherical": {
                    "r": rng.uniform(0.5, 2.0),
                    "theta": list(rng.uniform(0.0, math.pi, d - 2)),
                    "phi": rng.uniform(0.0, 2.0 * math.pi),
                }})
        return coeffs, entries

    @staticmethod
    def _eval_values(tmp_path, coeffs, entries, name):
        """The "values" rows ``ultrasph eval`` writes for the point entries."""
        points = write_json(tmp_path / f"{name}.json", {"points": entries})
        out_path = tmp_path / f"{name}-values.json"
        assert main(["eval", str(coeffs), points, "-o", str(out_path)]) == 0
        return points, json.loads(out_path.read_text())["values"]

    def test_batched_eval_matches_per_point(self, tmp_path, capsys):
        rng = np.random.default_rng(56)
        d = 5
        coeffs, entries = self._scatter(tmp_path, rng, d, 3, 50)
        points, values = self._eval_values(tmp_path, coeffs, entries, "points")
        capsys.readouterr()
        _, loaded = formats.load_points(points)
        expansion = formats.load_coefficients(str(coeffs))
        assert len(values) == 50
        for i, (re, im) in enumerate(values):
            p = UltrasphericalPoint(
                d, loaded.r[i], tuple(t[i] for t in loaded.theta), loaded.phi[i]
            )
            want = eval_expansion(expansion, p.r, p)
            assert abs(complex(re, im) - want) <= 1e-14 * max(1.0, abs(want))

    def test_a_point_evaluated_alone_writes_the_bytes_of_the_batch(self, tmp_path, capsys):
        # each point of a 20-point file, read alone from a one-point file
        coeffs, entries = self._scatter(tmp_path, np.random.default_rng(57), 5, 6, 20)
        _, values = self._eval_values(tmp_path, coeffs, entries, "batch")
        for i, entry in enumerate(entries):
            _, alone = self._eval_values(tmp_path, coeffs, [entry], f"point{i}")
            assert [[float.hex(v) for v in pair] for pair in alone] == \
                [[float.hex(v) for v in values[i]]]
        capsys.readouterr()

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        coeffs = self._solve_constant(tmp_path, capsys)
        points = write_json(
            tmp_path / "points.json",
            {"points": [{"cartesian": [0.1, 0.2, 0.3]}]},
        )
        rc = main(["eval", str(coeffs), points])
        err = capsys.readouterr().err
        assert rc == 2
        assert "dimension mismatch" in err

    def test_huge_dimension_without_records_is_a_mismatch(self, tmp_path, capsys):
        # no index row to sort, so nothing is built per dimension
        coeffs = write_json(tmp_path / "coeffs.json", {
            "format": "ultrasph-coefficients", "d": 10**12, "lmax": 2, "coefficients": []})
        points = write_json(tmp_path / "points.json", {"points": [{"cartesian": [0.1, 0.2, 0.3]}]})
        rc = main(["eval", coeffs, points])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err
        assert "coefficients have d=1000000000000" in err


class TestFormats:
    def test_parse_harmonic_specs(self):
        idx = formats.parse_harmonic_spec("harmonic:(1,0;0)", 4)
        assert (idx.l, idx.m) == (1, (0, 0))
        idx = formats.parse_harmonic_spec("harmonic:(3;-2)", 3)
        assert (idx.l, idx.m) == (3, (-2,))
        with pytest.raises(formats.FormatError):
            formats.parse_harmonic_spec("harmonic:(1,0;0)", 5)
        with pytest.raises(formats.FormatError):
            formats.parse_harmonic_spec("harmonic:1,0;0", 4)

    def test_coefficient_roundtrip(self, tmp_path):
        exp = HarmonicExpansion(
            4,
            1,
            {
                MultiIndex(4, 0, (0, 0)): (1.5 + 0.5j, 0j),
                MultiIndex(4, 1, (1, -1)): (0j, -2.25 + 1e-17j),
            },
        )
        path = tmp_path / "c.json"
        with open(path, "w") as fp:
            formats.save_coefficients(fp, exp)
        back = formats.load_coefficients(str(path))
        assert back.d == 4 and back.lmax == 1
        for idx, (a, b) in exp.coeffs.items():
            assert back.coeffs[idx] == (a, b)

    def test_bad_samples_length(self, tmp_path):
        samples = write_json(tmp_path / "s.json", {"values": [[1.0, 0.0]]})
        config = {
            "d": 4,
            "kind": "interior",
            "radii": [1.0],
            "lmax": 2,
            "boundary": [{"radius": 1.0, "samples-file": samples}],
        }
        path = write_json(tmp_path / "cfg.json", config)
        loaded = formats.load_config(path)
        with pytest.raises(formats.FormatError):
            formats.build_problem(loaded)

    def test_boundary_entry_needs_one_data_source(self, tmp_path):
        config = {
            "d": 4,
            "kind": "interior",
            "radii": [1.0],
            "lmax": 1,
            "boundary": [{"radius": 1.0}],
        }
        with pytest.raises(formats.FormatError):
            formats.load_config(write_json(tmp_path / "cfg.json", config))


_GOOD_RECORD = {"index": [1, 0], "A": [1.0, 0.0], "B": [0.0, 0.0]}


@pytest.mark.parametrize(
    "records",
    [
        [dict(_GOOD_RECORD, A=["1", "0"])],
        [dict(_GOOD_RECORD, index=[None, 0])],
        [dict(_GOOD_RECORD, index=[1.7, 0])],
        [dict(_GOOD_RECORD, index=[True, 0])],
        [_GOOD_RECORD, dict(_GOOD_RECORD, A=[2.0, 0.0])],
        [dict(_GOOD_RECORD, A=[float("nan"), 0.0])],
        [dict(_GOOD_RECORD, B=[0.0, float("inf")])],
        [dict(_GOOD_RECORD, A=[True, 0])],
        [dict(_GOOD_RECORD, A=[10**400, 0])],
    ],
    ids=["string-A", "null-index", "float-index", "bool-index", "duplicate-index",
         "nan-A", "inf-B", "bool-A", "huge-int-A"],
)
def test_malformed_coefficient_records_exit_2(tmp_path, capsys, records):
    coeffs = write_json(
        tmp_path / "c.json",
        {"format": "ultrasph-coefficients", "d": 3, "lmax": 1, "coefficients": records},
    )
    points = write_json(tmp_path / "p.json", {"points": [{"cartesian": [0.1, 0.2, 0.3]}]})
    with pytest.raises(formats.FormatError):
        formats.load_coefficients(coeffs)
    rc = main(["eval", coeffs, points])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


def _samples_config(tmp_path, samples_file):
    return write_json(tmp_path / "cfg.json", {
        "d": 3, "kind": "interior", "radii": [1.0], "lmax": 1,
        "boundary": [{"radius": 1.0, "samples-file": samples_file}],
    })


@pytest.mark.parametrize("samples_file", [5, 0, None, ["s.json"]])
def test_samples_file_must_be_a_string(tmp_path, capsys, samples_file):
    config = _samples_config(tmp_path, samples_file)
    with pytest.raises(formats.FormatError, match="samples-file"):
        formats.load_config(config)
    assert main(["solve", config]) == 2
    assert "samples-file" in capsys.readouterr().err


def test_relative_samples_file_is_read_from_the_current_directory(tmp_path, monkeypatch, capsys):
    # the path is not resolved against the config's directory
    cfgdir = tmp_path / "cfgdir"
    cfgdir.mkdir()
    n = math.prod(sphere_grid(3, 1).shape)
    write_json(cfgdir / "s.json", {"values": [[1.0, 0.0]] * n})
    _samples_config(cfgdir, "s.json")
    monkeypatch.chdir(tmp_path)
    assert main(["solve", str(Path("cfgdir") / "cfg.json")]) == 2
    assert "cannot read s.json" in capsys.readouterr().err
    monkeypatch.chdir(cfgdir)
    assert main(["solve", "cfg.json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 ["0.5", "0.25"], [True, False], [10**400, 0]],
                         ids=["nan", "inf", "-inf", "strings", "bools", "401-digit-int"])
def test_non_finite_samples_rejected(tmp_path, capsys, bad):
    n = math.prod(sphere_grid(3, 1).shape)
    values = [[1.0, 0.0]] * n
    values[n // 2] = bad if isinstance(bad, list) else [0.5, bad]
    samples = write_json(tmp_path / "s.json", {"values": values})
    config = _samples_config(tmp_path, samples)
    with pytest.raises(formats.FormatError, match="finite"):
        formats.build_problem(formats.load_config(config))
    assert main(["solve", config]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["1e999", "-1e999", "1" + "0" * 399],
                         ids=["inf", "-inf", "400-digit-int"])
def test_non_finite_radius_rejected(tmp_path, capsys, radius):
    config = tmp_path / "cfg.json"
    config.write_text(
        '{"d": 3, "kind": "interior", "radii": [%s], "lmax": 1, '
        '"boundary": [{"radius": %s, "data": "harmonic:(1;0)"}]}' % (radius, radius)
    )
    with pytest.raises(formats.FormatError, match="radii must be finite numbers"):
        formats.load_config(str(config))
    assert main(["solve", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "radii must be finite numbers" in err
    assert "Traceback" not in err


def _config_doc(**changes):
    doc = {"d": 4, "kind": "interior", "radii": [1.0], "lmax": 2,
           "boundary": [{"radius": 1.0, "data": "harmonic:(1,0;0)"}]}
    doc.update(changes)
    doc["boundary"] = [dict(doc["boundary"][0], radius=r) for r in doc["radii"]]
    return doc


def _points_doc(entry):
    return {"points": [{"cartesian": [0.1, 0.2, -0.3, 0.4]}, entry]}


def _coefficients_doc(index):
    return {"format": "ultrasph-coefficients", "d": 4, "lmax": 2,
            "coefficients": [{"index": index, "A": [1.0, 0.0], "B": [0.0, 0.0]}]}


_US = {"r": 0.5, "theta": [0.5, 1.2], "phi": 4.0}
# "INF" stands for the JSON number 1e999, which reads as a float infinity
_MALFORMED = {
    "config-d-2": ("config", _config_doc(d=2), "dimension out of range"),
    "config-lmax-negative": ("config", _config_doc(lmax=-1), "lmax out of range"),
    "config-lmax-float": ("config", _config_doc(lmax=1.5), "'lmax' has wrong type"),
    "config-kind": ("config", _config_doc(kind="ball"), "unknown problem kind"),
    "config-inf-radius": ("config", _config_doc(radii=["INF"]),
                          "radii must be finite numbers"),
    "config-negative-radius": ("config", _config_doc(radii=[-1.0]),
                               "radii must be positive"),
    "config-reversed-annulus": ("config", _config_doc(kind="annulus", radii=[2.0, 0.5]),
                                "R_inner < R_outer"),
    "config-radius-count": ("config", _config_doc(radii=[0.5, 2.0]),
                            "needs 1 radius/data entries"),
    "points-string": ("points", _points_doc({"cartesian": [0.1, "0.2", 0.3, 0.4]}),
                      "coordinates must be finite numbers"),
    "points-bool": ("points", _points_doc({"cartesian": [0.1, True, 0.3, 0.4]}),
                    "coordinates must be finite numbers"),
    "points-inf-cartesian": ("points", _points_doc({"cartesian": [0.1, "INF", 0.3, 0.4]}),
                             "coordinates must be finite numbers"),
    "points-inf-r": ("points", _points_doc({"ultraspherical": dict(_US, r="INF")}),
                     "coordinates must be finite numbers"),
    "points-string-theta": ("points",
                            _points_doc({"ultraspherical": dict(_US, theta=["0.5", 1.2])}),
                            "coordinates must be finite numbers"),
    "points-huge-int-phi": ("points",
                            _points_doc({"ultraspherical": dict(_US, phi=10**400)}),
                            "coordinates must be finite numbers"),
    "config-harmonic-level": ("config",
                              _config_doc(boundary=[{"data": "harmonic:(5,0;0)"}]),
                              "harmonic level 5 exceeds the problem lmax 2"),
    "points-theta-out-of-range": ("points",
                                  _points_doc({"ultraspherical": dict(_US, theta=[0.5, 4.0])}),
                                  "point #1: polar angles must lie in [0, pi]"),
    "points-two-coordinates": ("points", {"points": [{"cartesian": [0.1, 0.2]}]},
                               "point #0: dimension must be an integer >= 3, got 2"),
    "coefficients-empty-index": ("coefficients", _coefficients_doc([]), "invalid index []"),
    "coefficients-float-entry": ("coefficients", _coefficients_doc([1, 0.7, 0]),
                                 "must be an integer"),
    "coefficients-huge-d": ("coefficients", dict(_coefficients_doc([0, 0]), d=10**8),
                            "expected 99999998 chain entries for d=100000000, got 1"),
}


@pytest.mark.parametrize("kind,doc,message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_exit_2(tmp_path, capsys, kind, doc, message):
    files = {
        "config": _config_doc(),
        "points": _points_doc({"ultraspherical": _US}),
        "coefficients": _coefficients_doc([1, 0, 0]),
    }
    files[kind] = doc
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj).replace('"INF"', "1e999"))
    if kind == "config":
        argv = ["solve", str(paths["config"])]
    else:
        argv = ["eval", str(paths["coefficients"]), str(paths["points"])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(paths[kind]) in err and message in err


# finite radii whose radial powers R^l or R^-(l+d-2), or the coefficients
# solved from them, leave the double range
_OUT_OF_RANGE = {
    "interior-tiny": ("interior", [1e-300], "harmonic:(1;0)"),
    "exterior-huge": ("exterior", [1e300], "harmonic:(1;0)"),
    "annulus-wide": ("annulus", [1e-200, 1e200], "harmonic:(1;0)"),
    "interior-coefficient-overflow": ("interior", [1e-160], "harmonic:(2;0)"),
}


@pytest.mark.parametrize("kind,radii,data", _OUT_OF_RANGE.values(), ids=_OUT_OF_RANGE.keys())
def test_radii_outside_double_range_exit_2(tmp_path, capsys, kind, radii, data):
    config = write_json(tmp_path / "cfg.json", {
        "d": 3, "kind": kind, "radii": radii, "lmax": 2,
        "boundary": [{"radius": r, "data": data} for r in radii],
    })
    assert main(["solve", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "radial system of level" in err and "double range" in err


# fits evaluated at a radius where a radial power with a nonzero
# coefficient leaves the double range: r^2 for A, r^-(l+1) for B (d = 3)
_SINGULAR_EVAL = {
    "interior-growth-overflow": ("interior", 1e200),
    "exterior-decay-overflow": ("exterior", 1e-200),
}


@pytest.mark.parametrize("kind,r", _SINGULAR_EVAL.values(), ids=_SINGULAR_EVAL.keys())
def test_singular_eval_exit_2(tmp_path, capsys, kind, r):
    config = write_json(tmp_path / "cfg.json", {
        "d": 3, "kind": kind, "radii": [1.0], "lmax": 2,
        "boundary": [{"radius": 1.0, "data": "harmonic:(2;0)"}],
    })
    coeffs = str(tmp_path / "coeffs.json")
    assert main(["solve", config, "-o", coeffs]) == 0
    points = write_json(tmp_path / "points.json", {"points": [
        {"ultraspherical": {"r": 0.5, "theta": [0.5], "phi": 1.0}},
        {"ultraspherical": {"r": r, "theta": [0.5], "phi": 1.0}},
    ]})
    capsys.readouterr()
    assert main(["eval", coeffs, points]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err
    assert points in err and "overflows" in err


def test_eval_refuses_tables_above_the_budget(tmp_path, capsys):
    # a file of one record, at level 20,000, which would need 6.4 GB of
    # tables and steps at each point: refused before any is built
    coeffs = write_json(tmp_path / "coeffs.json", {
        "format": "ultrasph-coefficients", "d": 3, "lmax": 20000,
        "coefficients": [{"index": [20000, 0], "A": [1.0, 0.0], "B": [0.0, 0.0]}],
    })
    points = write_json(tmp_path / "points.json", {"points": [
        {"cartesian": [0.1, 0.2, 0.3]}, {"cartesian": [0.3, 0.1, 0.2]},
    ]})
    assert main(["eval", coeffs, points]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert coeffs in err and "level 20000" in err and "budget" in err


def test_overflowing_sum_at_finite_powers_exit_2(tmp_path, capsys):
    # r^1 = 1e300 is finite, but A r^l = 1e310 is not: no inf or NaN is written
    coeffs = write_json(tmp_path / "coeffs.json", {
        "format": "ultrasph-coefficients", "d": 4, "lmax": 1,
        "coefficients": [{"index": [1, 0, 0], "A": [1e10, 0.0], "B": [0.0, 0.0]}],
    })
    points = write_json(tmp_path / "points.json", {"points": [
        {"ultraspherical": {"r": 1e300, "theta": [0.5, 1.2], "phi": 4.0}},
    ]})
    assert main(["eval", coeffs, points]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err
    assert points in err and "overflows" in err


def test_synthesis_overflow_raises():
    expansion = HarmonicExpansion(4, 1, {MultiIndex(4, 1, (0, 0)): (1e10, 0.0)})
    with pytest.raises(ValueError, match="overflows"):
        _synthesize(expansion, 1e300, sphere_grid(4, 1))


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_writers_refuse_non_finite_numbers(bad):
    # built unchecked, as a fit's arrays are: the constructor refuses a non-finite A
    expansion = HarmonicExpansion._of(3, 0, np.zeros((1, 2), dtype=int),
                                      np.array([[complex(bad, 0.0), 0j]]))
    out = io.StringIO()
    with pytest.raises(ValueError, match="non-finite"):
        formats.save_coefficients(out, expansion)
    with pytest.raises(ValueError, match="non-finite"):
        formats.save_values(out, [1.0, complex(0.0, bad)])
    assert out.getvalue() == ""


def test_writers_match_json_dump_indent_2(tmp_path):
    rng = np.random.default_rng(8)
    for d, lmax in ((3, 0), (4, 2), (6, 3)):
        indices = [i for l in range(lmax + 1) for i in enumerate_indices(d, l)]
        parts = rng.standard_normal((len(indices), 4)) * 10.0 ** rng.integers(-300, 300, 4)
        parts[::3, 1] = -0.0
        coeffs = {i: (complex(p[0], p[1]), complex(p[2], p[3])) for i, p in zip(indices, parts)}
        expansion = HarmonicExpansion(d, lmax, coeffs)
        doc = {"format": "ultrasph-coefficients", "d": d, "lmax": lmax, "coefficients": [
            {"index": [i.l, *i.m], "A": [a.real, a.imag], "B": [b.real, b.imag]}
            for i, (a, b) in coeffs.items()]}
        out = io.StringIO()
        formats.save_coefficients(out, expansion)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
        values = parts[:, 0] + 1j * parts[:, 3]
        out = io.StringIO()
        formats.save_values(out, values)
        want = {"values": [[float(v.real), float(v.imag)] for v in values]}
        assert out.getvalue() == json.dumps(want, indent=2) + "\n"
    out = io.StringIO()
    formats.save_coefficients(out, HarmonicExpansion(5, 2, {}))
    formats.save_values(out, [])
    empty = {"format": "ultrasph-coefficients", "d": 5, "lmax": 2, "coefficients": []}
    assert out.getvalue() == (json.dumps(empty, indent=2) + "\n"
                              + json.dumps({"values": []}, indent=2) + "\n")


def test_verify_and_harmonic_solve_build_no_node_mesh(tmp_path, monkeypatch, capsys):
    # the staged synthesis serves both, so neither needs SphereGrid.points
    def no_mesh(grid):
        raise AssertionError(f"node mesh of sphere_grid({grid.d}, {grid.lmax}) built")

    monkeypatch.setattr(SphereGrid, "points", property(no_mesh))
    assert run_verification([3, 8], 8, 1e-8).passed
    config = write_json(tmp_path / "cfg.json", {
        "d": 5, "kind": "annulus", "radii": [0.5, 2.0], "lmax": 3,
        "boundary": [{"radius": 0.5, "data": "harmonic:(3,2,1;-1)"},
                     {"radius": 2.0, "data": "harmonic:(2,0,0;0)"}],
    })
    assert main(["solve", config, "-o", str(tmp_path / "coeffs.json")]) == 0


@pytest.mark.parametrize("command", ["solve", "eval", "verify"])
def test_unwritable_output_path_exit_2(tmp_path, capsys, command):
    missing = tmp_path / "missing" / "out.json"
    config = interior_config(tmp_path)
    coeffs = str(tmp_path / "coeffs.json")
    assert main(["solve", config, "-o", coeffs]) == 0
    points = write_json(tmp_path / "points.json",
                        {"points": [{"cartesian": [0.1, 0.2, 0.3, 0.4]}]})
    capsys.readouterr()
    argv = {
        "solve": ["solve", config, "-o", str(missing)],
        "eval": ["eval", coeffs, points, "-o", str(missing)],
        "verify": ["verify", "--d", "3", "--lmax", "1", "--json", str(missing)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(missing) in err
