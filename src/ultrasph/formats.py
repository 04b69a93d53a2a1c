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

Readers and writers work on whole arrays: one bulk number check
(_finite_rows: one layout pass over the rows, one flat list of numbers,
one set of their types, one np.array call and one finiteness check)
serves samples, coefficient pairs and coordinates, and only the first
failing record or entry, in file order, is checked alone to word the
error.  Writers fill one %-template per row; %r is Python's shortest
round-trip float repr, as json.dump writes it, so identical inputs
produce byte-identical files.  A non-finite number is never written.
"""

import itertools
import json
import math
import re

import numpy as np

from .geometry import CartesianPoint, UltrasphericalPoint, _check_int, to_ultraspherical
from .harmonics import MultiIndex, _chain_ok
from .quadrature import _D_LIMITS, _LMAX_LIMITS, grid_shape, sphere_grid
from .solver import BoundaryProblem, HarmonicExpansion, _synthesize

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
    BoundaryProblem's, applied by :func:`build_problem`.  A relative
    'samples-file' path is read, by build_problem, from the current
    directory, not from the config's.
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
        # the samples of Y_idx in grid order, synthesized without the node mesh
        return _synthesize(HarmonicExpansion(d, lmax, {idx: (1, 0)}), 1.0, sphere_grid(d, lmax))
    samples = _load_json(entry["samples-file"])
    if not isinstance(samples, dict) or "values" not in samples:
        raise FormatError(f"{entry['samples-file']}: expected an object with 'values'")
    values = _finite_rows(samples["values"], entry["samples-file"], 2).view(complex)[:, 0]
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


def _finite_rows(raw, where, width):
    """``raw``, a list of lists of ``width`` numbers, as a (len(raw), width) float array.

    Another layout raises FormatError naming ``where``; then any entry
    but a JSON int or float that is a finite double (a bool, string, list,
    object or null, an integer beyond the double range, inf, NaN) raises
    FormatError saying the values must be finite numbers.
    """
    if not (type(raw) is list and set(map(type, raw)) <= {list}
            and set(map(len, raw)) <= {width}):
        raise FormatError(f"{where}: values must be " + (
            "[re, im] pairs" if width == 2 else f"lists of {width} numbers"))
    # one flat list for one np.array call: numpy walking nested lists costs more
    flat = list(itertools.chain.from_iterable(raw))
    try:
        # only JSON numbers: not bools, nor strings numpy would convert
        arr = np.array(flat, dtype=float) if set(map(type, flat)) <= {int, float} else None
    except OverflowError:  # an integer literal too large for a float
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise FormatError(f"{where}: values must be finite numbers")
    return arr.reshape(len(raw), width)


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
    """Check the [re, im] pair under ``key`` of one record; rejects bools and non-finite."""
    pair = _require(rec, key, list, where)
    if not (len(pair) == 2 and all(_is_finite_number(v) for v in pair)):
        raise FormatError(f"{where}: {key} must be a [re, im] pair of finite numbers")


def _parts(values):
    """The (re, im) parts of a complex array as floats, each row's in order; a non-finite part raises ValueError."""
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    finite = np.isfinite(parts)
    if not finite.all():
        raise ValueError(f"cannot write the non-finite value {float(parts[~finite][0])!r}")
    return parts


def _list(items, pad):
    """Formatted items as a list in json.dump's indent=2 layout, nested at ``pad``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


_PAIR = "[\n{0}  %r,\n{0}  %r\n{0}]"


def save_coefficients(fp, expansion):
    """Write an expansion; coefficient order follows the expansion's rows.

    The bytes are those of json.dump(..., indent=2) plus a newline: one
    %-template per record, %d for the index and %r (float repr, as json
    writes) for A and B.  A non-finite coefficient raises ValueError
    before anything is written.
    """
    labels, parts = expansion.labels, _parts(expansion.values)
    index = ",\n".join(["        %d"] * labels.shape[1])
    pair = _PAIR.format(" " * 6)
    record = ('    {\n      "index": [\n' + index + '\n      ],\n'
              '      "A": ' + pair + ',\n      "B": ' + pair + "\n    }")
    fields = np.concatenate([labels, parts], axis=1, dtype=object).tolist()
    records = [record % tuple(row) for row in fields]
    fp.write('{\n  "format": "ultrasph-coefficients",\n  "d": %d,\n  "lmax": %d,\n'
             '  "coefficients": %s\n}\n' % (expansion.d, expansion.lmax, _list(records, "  ")))


def _record_error(rec, d, path):
    """Raise the error of ``rec``, a record whose index breaks a rule or repeats an earlier one.

    Only this record is built as a MultiIndex, whose error text the message keeps.
    """
    if not isinstance(rec, dict):
        raise FormatError(f"{path}: coefficient records must be objects")
    index = _require(rec, "index", list, path)
    try:
        l, *m = index
        MultiIndex(d, l, tuple(m))
    except ValueError as exc:
        raise FormatError(f"{path}: invalid index {index}: {exc}") from exc
    raise FormatError(f"{path}: duplicate index {index}")


def _label_rows(rows, d):
    """(labels, bad): the int-list rows of ``rows`` as one array, in order, and a mask.

    ``bad`` marks each row that is not a list of d - 1 ints, breaks the
    chain rule (harmonics._chain_ok) or repeats an earlier row.  Integers
    beyond int64 stay Python ints (an object array), so every comparison
    is exact.
    """
    width, keep = d - 1, None
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        # find the rows that are lists of d - 1 ints, one by one
        keep = np.array([type(r) is list and len(r) == width and set(map(type, r)) <= {int}
                         for r in rows], dtype=bool)
        rows = list(itertools.compress(rows, keep))
    try:
        labels = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        labels = np.array(rows, dtype=object).reshape(len(rows), width)
    bad = ~_chain_ok(labels)
    if len(labels) > 1:  # a repeat needs two rows; lexsort takes one key per column
        order = np.lexsort(labels.T)  # stable: a repeated row follows its first, file order kept
        bad[order[1:]] |= (labels[order[1:]] == labels[order[:-1]]).all(axis=1)
    if keep is not None:  # the rows left out are bad too
        keep[keep] = ~bad
        bad = ~keep
    return labels, bad


def load_coefficients(path):
    """Read a coefficients file into a HarmonicExpansion, rows in file order.

    No MultiIndex is built unless a record fails; then the first failing
    one words the error, as a record-by-record reader would.  A level
    above lmax is reported once every record has passed.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "ultrasph-coefficients":
        raise FormatError(f"{path}: not a coefficients file")
    d = _require(obj, "d", int, path)
    lmax = _require(obj, "lmax", int, path)
    records = _require(obj, "coefficients", list, path)
    objects = [rec if type(rec) is dict else {} for rec in records]
    labels, bad = _label_rows([rec.get("index") for rec in objects], max(d, 3))
    bad |= d < 3  # no index fits
    try:
        pairs = [p for rec in objects for p in (rec.get("A"), rec.get("B"))]
        values = _finite_rows(pairs, path, 2)
    except FormatError:
        values = None
    if values is None or bad.any():
        for rec, flagged in zip(records, bad):
            if flagged:
                _record_error(rec, d, path)
            _finite_pair(rec, "A", path)
            _finite_pair(rec, "B", path)
    try:
        d, lmax = _check_int(d, "dimension", 3), _check_int(lmax, "lmax", 0)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    above = labels[:, 0] > lmax
    if above.any():
        raise FormatError(f"{path}: index level {labels[above.argmax(), 0]} exceeds lmax={lmax}")
    return HarmonicExpansion._of(d, lmax, np.asarray(labels, dtype=np.int64),
                                 values.view(complex).reshape(-1, 2))


def _point_row(entry):
    """An entry's numbers, x or (r, theta_d, ..., theta_3, phi), unchecked."""
    if "cartesian" in entry:
        return entry["cartesian"]
    rec = entry["ultraspherical"]
    return [rec["r"], *rec["theta"], rec["phi"]]


def _point_error(entries, path):
    """Raise the error of the first entry, in file order, that breaks a rule of the points file."""
    d = None
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
            else:
                rec = entry["ultraspherical"]
                r, phi = _finite_numbers([rec["r"], rec["phi"]])
                row = [r, *_finite_numbers(rec["theta"]), phi]
            _check_int(len(row), "dimension", 3)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{where}: {exc}") from exc
        d = d or len(row)
        if len(row) != d:
            raise FormatError(f"{where}: dimension {len(row)} differs from {d}")


def load_points(path):
    """Read a points file; returns (d, one UltrasphericalPoint holding every point).

    The point's fields are arrays with one entry per point, in file order;
    all Cartesian entries are converted by one to_ultraspherical call.
    Every coordinate passes one bulk number check; only when an entry
    fails are the entries checked one by one, to name it.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict) or "points" not in obj:
        raise FormatError(f"{path}: expected an object with a 'points' list")
    entries = obj["points"]
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"{path}: 'points' must be a nonempty list")
    coords = None
    if set(map(type, entries)) <= {dict} and all(
            [("cartesian" in e) != ("ultraspherical" in e) for e in entries]):
        try:
            rows = [_point_row(e) for e in entries]
            coords = _finite_rows(rows, path, len(rows[0]))
        except (KeyError, TypeError, FormatError):
            pass
    if coords is None or coords.shape[1] < 3:
        _point_error(entries, path)
    d, coords = coords.shape[1], coords.T
    cartesian = [i for i, e in enumerate(entries) if "cartesian" in e]
    if cartesian:
        converted = to_ultraspherical(CartesianPoint(d, coords[:, cartesian]))
        coords[:, cartesian] = [converted.r, *converted.theta, converted.phi]

    def point(c):  # the columns c of coords as one point
        return UltrasphericalPoint(d, c[0], tuple(c[1:-1]), c[-1])

    try:
        return d, point(coords)
    except ValueError:
        # the same rules entry by entry, to name the first point that breaks one
        for i in range(len(entries)):
            try:
                point(coords[:, i])
            except ValueError as exc:
                raise FormatError(f"{path} point #{i}: {exc}") from exc
        raise


def save_values(fp, values):
    """Write values in the layout of :func:`save_coefficients`; a non-finite value raises ValueError."""
    pair = "    " + _PAIR.format(" " * 4)
    rows = [pair % tuple(p) for p in _parts(values).reshape(-1, 2).tolist()]
    fp.write('{\n  "values": %s\n}\n' % _list(rows, "  "))
