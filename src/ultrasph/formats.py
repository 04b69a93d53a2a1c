"""JSON file formats for the command-line front end.

One self-describing JSON syntax covers all four file kinds:

* config:        {"d": 4, "kind": "interior|exterior|annulus",
                  "radii": [1.0] or [0.5, 2.0], "lmax": 3,
                  "boundary": [{"radius": 1.0, "data": "harmonic:(1,0;0)"}
                               or {"radius": 1.0, "samples-file": "path"}]}
* coefficients:  {"format": "ultrasph-coefficients", "d": ..., "lmax": ...,
                  "coefficients": [{"index": [l, m_{d-2}, ..., m_1],
                                    "A": [re, im], "B": [re, im]}, ...]}
* samples:       {"values": [[re, im], ...]} in the canonical node order
                  of sphere_grid(d, lmax) (row-major over theta_d, ...,
                  theta_3, phi)
* points:        {"points": [{"cartesian": [x_1, ..., x_d]} or
                  {"ultraspherical": {"r": ..., "theta": [...], "phi": ...}},
                  ...]}
* values:        {"values": [[re, im], ...]}, order-preserving

Floats serialize through Python's shortest round-trip repr, so identical
inputs produce byte-identical files.
"""

import json
import math
import re

import numpy as np

from .geometry import CartesianPoint, UltrasphericalPoint, _check_int, to_ultraspherical
from .harmonics import MultiIndex, eval_harmonic
from .quadrature import _D_LIMITS, _LMAX_LIMITS, grid_shape
from .solver import BoundaryProblem, HarmonicExpansion

__all__ = [
    "FormatError",
    "build_problem",
    "load_coefficients",
    "load_config",
    "load_points",
    "parse_harmonic_spec",
    "save_coefficients",
    "save_values",
]

_HARMONIC_RE = re.compile(r"^harmonic:\(([0-9, +-]*);(\s*-?\d+\s*)\)$")


class FormatError(ValueError):
    """A config or data file violates the documented schema."""


def _load_json(path):
    try:
        with open(path) as fp:
            return json.load(fp)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _require(obj, key, kind, where):
    if key not in obj:
        raise FormatError(f"{where}: missing required key {key!r}")
    value = obj[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) and bool not in kinds:
        raise FormatError(f"{where}: key {key!r} must be a number")
    if not isinstance(value, kind):
        raise FormatError(f"{where}: key {key!r} has wrong type {type(value).__name__}")
    return value


def parse_harmonic_spec(spec, d):
    """Parse "harmonic:(l,m_{d-2},...,m_2;m_1)" into a MultiIndex."""
    match = _HARMONIC_RE.match(spec.strip())
    if not match:
        raise FormatError(
            f"bad harmonic spec {spec!r}; expected harmonic:(l,...;m_1)"
        )
    try:
        head = [int(v) for v in match.group(1).split(",")]
        m1 = int(match.group(2))
    except ValueError as exc:
        raise FormatError(f"bad harmonic spec {spec!r}: {exc}") from exc
    if len(head) != d - 2:
        raise FormatError(
            f"harmonic spec {spec!r} has {len(head)} leading entries; "
            f"d={d} needs {d - 2} (l plus the upper orders)"
        )
    try:
        return MultiIndex(d, head[0], tuple(head[1:]) + (m1,))
    except ValueError as exc:
        raise FormatError(f"invalid harmonic index in {spec!r}: {exc}") from exc


def load_config(path):
    """Read a boundary-problem config and check it against the schema; returns a dict.

    Only the file's syntax is checked here, plus the supported size limits;
    the rules of a problem (kind, radius count and order) are
    BoundaryProblem's, applied by :func:`build_problem`.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    d = _require(obj, "d", int, path)
    lo, hi = _D_LIMITS
    if not lo <= d <= hi:
        raise FormatError(f"{path}: dimension out of range, need {lo} <= d <= {hi}")
    kind = _require(obj, "kind", str, path)
    lmax = _require(obj, "lmax", int, path)
    lo, hi = _LMAX_LIMITS
    if not lo <= lmax <= hi:
        raise FormatError(f"{path}: lmax out of range, need {lo} <= lmax <= {hi}")
    radii = _require(obj, "radii", list, path)
    if not all(_is_finite_number(r) for r in radii):
        raise FormatError(f"{path}: radii must be finite numbers")
    radii = [float(r) for r in radii]
    boundary = _require(obj, "boundary", list, path)
    seen = []
    for entry in boundary:
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: boundary entries must be objects")
        radius = _require(entry, "radius", (int, float), path)
        if not _is_finite_number(radius) or float(radius) not in radii:
            raise FormatError(
                f"{path}: boundary radius {radius} does not match radii {radii}"
            )
        seen.append(float(radius))
        if ("data" in entry) == ("samples-file" in entry):
            raise FormatError(
                f"{path}: each boundary entry needs exactly one of 'data' or 'samples-file'"
            )
        if not isinstance(entry.get("samples-file", ""), str):
            raise FormatError(f"{path}: 'samples-file' must be a path string")
    if sorted(seen) != sorted(radii):
        raise FormatError(f"{path}: boundary entries must cover every radius once")
    return {"d": d, "kind": kind, "radii": radii, "lmax": lmax, "boundary": boundary,
            "path": path}


def _data_for_entry(entry, d, lmax, where):
    if "data" in entry:
        spec = entry["data"]
        if not isinstance(spec, str):
            raise FormatError(f"{where}: 'data' must be a harmonic spec string")
        idx = parse_harmonic_spec(spec, d)
        if idx.l > lmax:
            raise FormatError(
                f"{where}: harmonic level {idx.l} exceeds the problem lmax {lmax}"
            )
        return lambda pts, i=idx: eval_harmonic(i, pts)
    samples = _load_json(entry["samples-file"])
    if not isinstance(samples, dict) or "values" not in samples:
        raise FormatError(f"{entry['samples-file']}: expected an object with 'values'")
    values = _parse_complex_list(samples["values"], entry["samples-file"])
    expected = math.prod(grid_shape(d, lmax))
    if values.size != expected:
        raise FormatError(
            f"{entry['samples-file']}: expected {expected} samples for "
            f"d={d}, lmax={lmax} in grid order, got {values.size}"
        )
    return values


def build_problem(config):
    """Turn a config dict from :func:`load_config` into a BoundaryProblem.

    A boundary entry or config that breaks a rule of BoundaryProblem
    raises FormatError naming the config file.
    """
    d, kind, lmax = config["d"], config["kind"], config["lmax"]
    radii = config["radii"]
    by_radius = {float(e["radius"]): e for e in config["boundary"]}
    try:
        data = tuple(
            _data_for_entry(by_radius[r], d, lmax, f"boundary r={r}") for r in radii
        )
        return BoundaryProblem(d, kind, tuple(radii), lmax, data)
    except ValueError as exc:
        raise FormatError(f"{config['path']}: {exc}") from exc


def _parse_complex_list(raw, where):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: values must be [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise FormatError(f"{where}: values must be [re, im] pairs")
    if not np.isfinite(arr).all():
        raise FormatError(f"{where}: values must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def _is_finite_number(v):
    """True for an int or float (not bool) that is a finite double."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer literal too large for a float
        return False


def _finite_numbers(values):
    """A JSON list of coordinates as floats; rejects strings, bools and non-finite."""
    if not (isinstance(values, list) and all(_is_finite_number(v) for v in values)):
        raise ValueError("coordinates must be finite numbers")
    return [float(v) for v in values]


def _finite_pair(rec, key, where):
    """The [re, im] pair under ``key`` as a complex; rejects bools and non-finite."""
    pair = _require(rec, key, list, where)
    if not (len(pair) == 2 and all(_is_finite_number(v) for v in pair)):
        raise FormatError(f"{where}: {key} must be a [re, im] pair of finite numbers")
    return complex(pair[0], pair[1])


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def save_coefficients(fp, expansion):
    """Write an expansion; coefficient order follows the expansion's dict."""
    doc = {
        "format": "ultrasph-coefficients",
        "d": expansion.d,
        "lmax": expansion.lmax,
        "coefficients": [
            {"index": [idx.l, *idx.m], "A": _pair(a), "B": _pair(b)}
            for idx, (a, b) in expansion.coeffs.items()
        ],
    }
    json.dump(doc, fp, indent=2)
    fp.write("\n")


def load_coefficients(path):
    obj = _load_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "ultrasph-coefficients":
        raise FormatError(f"{path}: not a coefficients file")
    d = _require(obj, "d", int, path)
    lmax = _require(obj, "lmax", int, path)
    coeffs = {}
    for rec in _require(obj, "coefficients", list, path):
        if not isinstance(rec, dict):
            raise FormatError(f"{path}: coefficient records must be objects")
        index = _require(rec, "index", list, path)
        try:
            l, *m = index
            idx = MultiIndex(d, l, tuple(m))
        except ValueError as exc:
            raise FormatError(f"{path}: invalid index {index}: {exc}") from exc
        if idx in coeffs:
            raise FormatError(f"{path}: duplicate index {index}")
        coeffs[idx] = (_finite_pair(rec, "A", path), _finite_pair(rec, "B", path))
    try:
        return HarmonicExpansion(d, lmax, coeffs)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_points(path):
    """Read a points file; returns (d, one UltrasphericalPoint holding every point).

    The point's fields are arrays with one entry per point, in file order;
    all Cartesian entries are converted by one to_ultraspherical call.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict) or "points" not in obj:
        raise FormatError(f"{path}: expected an object with a 'points' list")
    entries = obj["points"]
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"{path}: 'points' must be a nonempty list")
    rows = []  # the d numbers of each entry: (r, theta_d, ..., theta_3, phi) or x
    cartesian = []  # positions of the Cartesian entries
    for i, entry in enumerate(entries):
        where = f"{path} point #{i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: must be an object")
        if ("cartesian" in entry) == ("ultraspherical" in entry):
            raise FormatError(
                f"{where}: needs exactly one of 'cartesian' or 'ultraspherical'"
            )
        try:
            if "cartesian" in entry:
                row = _finite_numbers(entry["cartesian"])
                cartesian.append(i)
            else:
                rec = entry["ultraspherical"]
                r, phi = _finite_numbers([rec["r"], rec["phi"]])
                row = [r, *_finite_numbers(rec["theta"]), phi]
            _check_int(len(row), "dimension", 3)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{where}: {exc}") from exc
        if rows and len(row) != len(rows[0]):
            raise FormatError(f"{where}: dimension {len(row)} differs from {len(rows[0])}")
        rows.append(row)
    d, coords = len(rows[0]), np.array(rows).T
    if cartesian:
        converted = to_ultraspherical(CartesianPoint(d, coords[:, cartesian]))
        coords[:, cartesian] = [converted.r, *converted.theta, converted.phi]

    def point(c):  # the columns c of coords as one point
        return UltrasphericalPoint(d, c[0], tuple(c[1:-1]), c[-1])

    try:
        return d, point(coords)
    except ValueError:
        # the same rules entry by entry, to name the first point that breaks one
        for i in range(len(rows)):
            try:
                point(coords[:, i])
            except ValueError as exc:
                raise FormatError(f"{path} point #{i}: {exc}") from exc
        raise


def save_values(fp, values):
    json.dump({"values": [_pair(v) for v in values]}, fp, indent=2)
    fp.write("\n")
