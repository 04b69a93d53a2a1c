"""The bulk readers of ultrasph.formats against record-by-record reference loaders."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrasph import formats
from ultrasph.cli import main
from ultrasph.formats import FormatError
from ultrasph.geometry import CartesianPoint, UltrasphericalPoint, _check_int, to_ultraspherical
from ultrasph.harmonics import MultiIndex, enumerate_indices
from ultrasph.quadrature import _check_budget, sphere_grid
from ultrasph.solver import HarmonicExpansion

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# reference loaders: one record (or entry) at a time, one MultiIndex per record


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


def _is_finite_number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _finite_numbers(values):
    if not (isinstance(values, list) and all(_is_finite_number(v) for v in values)):
        raise ValueError("coordinates must be finite numbers")
    return [float(v) for v in values]


def _finite_pair(rec, key, where):
    pair = _require(rec, key, list, where)
    if not (len(pair) == 2 and all(_is_finite_number(v) for v in pair)):
        raise FormatError(f"{where}: {key} must be a [re, im] pair of finite numbers")
    return complex(pair[0], pair[1])


def reference_load_coefficients(path):
    with open(path) as fp:
        obj = json.load(fp)
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


def reference_load_points(path):
    with open(path) as fp:
        obj = json.load(fp)
    if not isinstance(obj, dict) or "points" not in obj:
        raise FormatError(f"{path}: expected an object with a 'points' list")
    entries = obj["points"]
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"{path}: 'points' must be a nonempty list")
    rows, cartesian = [], []
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
    for i in range(len(rows)):
        c = coords[:, i]
        try:
            UltrasphericalPoint(d, c[0], tuple(c[1:-1]), c[-1])
        except ValueError as exc:
            raise FormatError(f"{path} point #{i}: {exc}") from exc
    return d, UltrasphericalPoint(d, coords[0], tuple(coords[1:-1]), coords[-1])


# ---------------------------------------------------------------------------
# generated documents: valid, then at most one entry mutated

# "INF" stands for the JSON number 1e999, which reads as a float infinity
_VALUES = {"bool": st.booleans(), "string": st.just("1"), "null": st.none(),
           "float": st.sampled_from([1.0, 2.5]), "401-digit-int": st.just(10**400),
           "1e999": st.just("INF"), "nan": st.just(math.nan)}
_NUMBER = st.one_of(st.floats(-1e3, 1e3), st.integers(-1000, 1000))


def _mutate_slot(draw, holder, keys, value):
    """Put ``value`` at one drawn key of ``holder`` or, for a list there, at one of its entries."""
    key = draw(st.sampled_from(keys))
    if isinstance(holder[key], list) and holder[key] and draw(st.booleans()):
        holder[key][draw(st.integers(0, len(holder[key]) - 1))] = value
    else:
        holder[key] = value


@st.composite
def coefficient_docs(draw, d):
    lmax = draw(st.integers(0, 3))
    indices = [[i.l, *i.m] for l in range(lmax + 1) for i in enumerate_indices(d, l)]
    chosen = draw(st.lists(st.sampled_from(indices), unique_by=tuple, max_size=6))
    records = [{"index": list(index), "A": [draw(_NUMBER), draw(_NUMBER)],
                "B": [draw(_NUMBER), draw(_NUMBER)]} for index in chosen]
    kinds = ["none", *_VALUES, "missing-key", "index-length", "chain", "level", "duplicate"]
    kind = draw(st.sampled_from(kinds)) if records else "none"
    if kind != "none":
        k = draw(st.integers(0, len(records) - 1))
        rec, index = records[k], records[k]["index"]
        if kind in _VALUES:
            value = draw(_VALUES[kind])
            if draw(st.integers(0, 5)) == 0:
                records[k] = value
            else:
                _mutate_slot(draw, rec, ["index", "A", "B"], value)
        elif kind == "missing-key":
            del rec[draw(st.sampled_from(["index", "A", "B"]))]
        elif kind == "index-length":
            rec["index"] = index[:-1] if draw(st.booleans()) else index + [0]
        elif kind == "chain":
            j = draw(st.integers(1, d - 2))
            index[j] = index[j - 1] + 1
        elif kind == "level":
            rec["index"] = [lmax + 1] + [0] * (d - 2)
        elif len(records) > 1:  # duplicate
            other = draw(st.sampled_from([r for i, r in enumerate(records) if i != k]))
            rec["index"] = list(other["index"])
    return {"format": "ultrasph-coefficients", "d": d, "lmax": lmax, "coefficients": records}


@st.composite
def points_docs(draw, d):
    angle = st.floats(0.0, math.pi)
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            entries.append({"cartesian": [draw(st.floats(0.5, 1.5)) for _ in range(d)]})
        else:
            entries.append({"ultraspherical": {
                "r": draw(st.one_of(st.floats(0.5, 2.0), st.integers(1, 2))),
                "theta": [draw(angle) for _ in range(d - 2)],
                "phi": draw(st.floats(0.0, 6.28))}})
    kind = draw(st.sampled_from(["none", *_VALUES, "missing-key", "length"]))
    if kind != "none":
        k = draw(st.integers(0, len(entries) - 1))
        entry = entries[k]
        (key, body), = entry.items()
        coords = body if key == "cartesian" else body["theta"]
        if kind in _VALUES:
            value = draw(_VALUES[kind])
            where = draw(st.sampled_from(["entry", "body", "inside"]))
            if where == "entry":
                entries[k] = value
            elif where == "body":
                entry[key] = value
            elif key == "cartesian":
                coords[draw(st.integers(0, d - 1))] = value
            else:
                _mutate_slot(draw, body, ["r", "theta", "phi"], value)
        elif kind == "missing-key":
            if key == "ultraspherical" and draw(st.booleans()):
                del body[draw(st.sampled_from(["r", "theta", "phi"]))]
            else:  # neither or both of 'cartesian' and 'ultraspherical'
                del entry[key]
                if draw(st.booleans()):
                    entry.update(cartesian=[1.0] * d,
                                 ultraspherical={"r": 1.0, "theta": [0.5] * (d - 2), "phi": 1.0})
        elif draw(st.booleans()):  # length
            coords.pop()
        else:
            coords.append(0.5)
    return {"points": entries}


def _write(path, doc):
    path.write_text(json.dumps(doc).replace('"INF"', "1e999"))
    return str(path)


def _outcome(load, path):
    try:
        return load(path), None
    except FormatError as exc:
        return None, str(exc)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data(), d=st.integers(3, 5))
def test_generated_documents_load_as_the_reference_loads_them(tmp_path_factory, data, d):
    tmp = tmp_path_factory.mktemp("docs")
    coeffs = _write(tmp / "coeffs.json", data.draw(coefficient_docs(d), "coefficients"))
    points = _write(tmp / "points.json", data.draw(points_docs(d), "points"))

    want, want_error = _outcome(reference_load_coefficients, coeffs)
    got, got_error = _outcome(formats.load_coefficients, coeffs)
    assert got_error == want_error
    if want is not None:
        assert (got.d, got.lmax) == (want.d, want.lmax)
        assert _same_bits(got.labels, want.labels) and _same_bits(got.values, want.values)

    want_points, want_points_error = _outcome(reference_load_points, points)
    got_points, got_points_error = _outcome(formats.load_points, points)
    assert got_points_error == want_points_error
    if want_points is not None:
        (got_d, got_p), (want_d, want_p) = got_points, want_points
        assert got_d == want_d
        for a, b in zip((got_p.r, *got_p.theta, got_p.phi), (want_p.r, *want_p.theta, want_p.phi)):
            assert _same_bits(a, b)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["eval", coeffs, points])
    message = want_error or want_points_error
    if message is None and want_points[0] != d:  # a point entry of another length, in every entry
        message = f"dimension mismatch: coefficients have d={d}, points have d={want_points[0]}"
    if message is None:
        assert rc == 0 and err.getvalue() == ""
    else:
        assert rc == 2 and out.getvalue() == "" and err.getvalue() == f"error: {message}\n"


# ---------------------------------------------------------------------------
# generated configs and samples files for ``solve``: the reference loader reads
# them entry by entry and row by row, and ``solve`` must fail with its message


def _reference_samples(path, d, lmax):
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or "values" not in doc:
        raise FormatError(f"{path}: expected an object with 'values'")
    rows = doc["values"]
    if not (isinstance(rows, list) and all(isinstance(row, list) and len(row) == 2
                                           for row in rows)):
        raise FormatError(f"{path}: values must be [re, im] pairs")
    if not all(_is_finite_number(v) for row in rows for v in row):
        raise FormatError(f"{path}: values must be finite numbers")
    expected = (lmax + 2) ** (d - 2) * (2 * lmax + 2)
    if len(rows) != expected:
        raise FormatError(f"{path}: expected {expected} samples for d={d}, lmax={lmax} "
                          f"in grid order, got {len(rows)}")
    return [complex(re, im) for re, im in rows]


def reference_load_problem(path):
    """(d, kind, radii, lmax, samples per radius) of a config with samples files."""
    with open(path) as fp:
        obj = json.load(fp)
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    d = _require(obj, "d", int, path)
    if d < 3:
        raise FormatError(f"{path}: dimension out of range, need d >= 3")
    kind = _require(obj, "kind", str, path)
    lmax = _require(obj, "lmax", int, path)
    if lmax < 0:
        raise FormatError(f"{path}: lmax out of range, need lmax >= 0")
    try:
        _check_budget(d, lmax)  # the one size rule, sphere_grid's
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    radii = _require(obj, "radii", list, path)
    if not all(_is_finite_number(r) for r in radii):
        raise FormatError(f"{path}: radii must be finite numbers")
    radii = [float(r) for r in radii]
    files = {}
    for entry in _require(obj, "boundary", list, path):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: boundary entries must be objects")
        radius = _require(entry, "radius", (int, float), path)
        if not _is_finite_number(radius) or float(radius) not in radii:
            raise FormatError(f"{path}: boundary radius {radius} does not match radii {radii}")
        if ("data" in entry) == ("samples-file" in entry):
            raise FormatError(
                f"{path}: each boundary entry needs exactly one of 'data' or 'samples-file'")
        if not isinstance(entry["samples-file"], str):
            raise FormatError(f"{path}: 'samples-file' must be a path string")
        files[float(radius)] = entry["samples-file"]
    if sorted(files) != sorted(radii):
        raise FormatError(f"{path}: boundary entries must cover every radius once")
    try:
        samples = [_reference_samples(files[r], d, lmax) for r in radii]
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    # generated radii are positive, ordered and as many as the kind needs
    if kind not in ("interior", "exterior", "annulus"):
        raise FormatError(f"{path}: unknown problem kind {kind!r}")
    return d, kind, radii, lmax, samples


@st.composite
def problem_docs(draw, d, folder):
    """A config with samples files in ``folder``, then at most one entry mutated.

    Returns the config and the {path: samples document} it names.
    """
    lmax = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["interior", "exterior", "annulus"]))
    if kind == "annulus":
        radii = [draw(st.floats(0.5, 1.0)), draw(st.floats(1.5, 2.0))]
    else:
        radii = [draw(st.floats(0.5, 2.0))]
    nodes = (lmax + 2) ** (d - 2) * (2 * lmax + 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    paths = [f"{folder}/samples{j}.json" for j in range(len(radii))]
    samples = {path: {"values": rng.uniform(-1.0, 1.0, (nodes, 2)).tolist()} for path in paths}
    entries = [{"radius": r, "samples-file": path} for r, path in zip(radii, paths)]
    config = {"d": d, "kind": kind, "radii": list(radii), "lmax": lmax, "boundary": entries}
    kinds = ["none", *_VALUES, "pair-length", "missing-key", "radius-mismatch", "sample-count"]
    mutation = draw(st.sampled_from(kinds))
    k = draw(st.integers(0, len(radii) - 1))
    entry, rows = entries[k], samples[paths[k]]["values"]
    if mutation in _VALUES:
        value = draw(_VALUES[mutation])
        target = draw(st.sampled_from(["config", "entry", "samples"]))
        if draw(st.integers(0, 9)) == 0:
            config = value
        elif target == "config":
            _mutate_slot(draw, config, ["d", "kind", "radii", "lmax", "boundary"], value)
        elif target == "entry":
            _mutate_slot(draw, entry, ["radius", "samples-file"], value)
        else:
            i = draw(st.integers(0, nodes - 1))
            where = draw(st.sampled_from(["values", "row", "number"]))
            if where == "values":
                samples[paths[k]]["values"] = value
            elif where == "row":
                rows[i] = value
            else:
                rows[i][draw(st.integers(0, 1))] = value
    elif mutation == "pair-length":
        row = rows[draw(st.integers(0, nodes - 1))]
        row.pop() if draw(st.booleans()) else row.append(0.5)
    elif mutation == "missing-key":
        holder = draw(st.sampled_from(["config", "entry", "samples"]))
        if holder == "config":
            del config[draw(st.sampled_from(sorted(config)))]
        elif holder == "entry":
            del entry[draw(st.sampled_from(sorted(entry)))]
        else:
            del samples[paths[k]]["values"]
    elif mutation == "radius-mismatch":
        entry["radius"] += 0.25
    elif mutation == "sample-count":
        rows.pop() if draw(st.booleans()) else rows.append([0.5, 0.25])
    return config, samples


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data(), d=st.integers(3, 5))
def test_generated_problems_solve_or_fail_as_the_reference_loads_them(
    tmp_path_factory, data, d
):
    tmp = tmp_path_factory.mktemp("problem")
    config, samples = data.draw(problem_docs(d, str(tmp)), "problem")
    for path, doc in samples.items():
        _write(Path(path), doc)
    path = _write(tmp / "config.json", config)
    want, want_error = _outcome(reference_load_problem, path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["solve", path])
    if want_error is None:
        assert rc == 0 and err.getvalue() == ""
        assert json.loads(out.getvalue())["d"] == want[0]
    else:
        assert rc == 2 and out.getvalue() == "" and err.getvalue() == f"error: {want_error}\n"


@pytest.mark.parametrize("rows, message", [
    ([["x", 0.25]], "values must be finite numbers"),
    ([["1", 0.25]], "values must be finite numbers"),
    ([[[1.0], 0.25]], "values must be finite numbers"),
    ([[0.25, {}]], "values must be finite numbers"),
    ([[0.25, None]], "values must be finite numbers"),
    ([[True, 0.25]], "values must be finite numbers"),
    ([[0.25]], "values must be [re, im] pairs"),
    ([[0.25, "x"], [0.25]], "values must be [re, im] pairs"),  # the layout is checked first
    ([{"re": 0.25, "im": 0.0}], "values must be [re, im] pairs"),
    ([], "expected 4 samples for d=3, lmax=0 in grid order, got 0"),
], ids=["text", "number-text", "nested-list", "object", "null", "bool", "short-pair",
        "text-then-short-pair", "object-row", "empty"])
def test_a_sample_that_is_no_number_is_named_as_the_reference_names_it(tmp_path, rows, message):
    # the rows, then valid ones up to the 4 nodes of the d = 3, lmax 0 grid
    values = rows + [[0.5, 0.0]] * (4 - len(rows)) if rows else rows
    samples = _write(tmp_path / "samples.json", {"values": values})
    config = {"d": 3, "kind": "interior", "radii": [1.0], "lmax": 0,
              "boundary": [{"radius": 1.0, "samples-file": samples}]}
    path = _write(tmp_path / "config.json", config)
    want, want_error = _outcome(reference_load_problem, path)
    assert want_error == f"{path}: {samples}: {message}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["solve", path])
    assert rc == 2 and out.getvalue() == "" and err.getvalue() == f"error: {want_error}\n"


@pytest.mark.parametrize("index, message", [
    ([10**400, 0], "index level " + "1" + "0" * 400 + " exceeds lmax=2"),
    ([2**63, 2**63], "index level 9223372036854775808 exceeds lmax=2"),
    ([2, -2**63], "invalid index [2, -9223372036854775808]: "),
    ([-2**63, 0], "invalid index [-9223372036854775808, 0]: "),
])
def test_indices_beyond_int64_are_checked_exactly(tmp_path, index, message):
    doc = {"format": "ultrasph-coefficients", "d": 3, "lmax": 2, "coefficients": [
        {"index": [1, 0], "A": [1.0, 0.0], "B": [0.0, 0.0]},
        {"index": index, "A": [1.0, 0.0], "B": [0.0, 0.0]},
    ]}
    path = _write(tmp_path / "c.json", doc)
    with pytest.raises(FormatError) as want:
        reference_load_coefficients(path)
    with pytest.raises(FormatError) as got:
        formats.load_coefficients(path)
    assert str(got.value) == str(want.value) and message in str(got.value)


def test_valid_coefficient_file_builds_no_multi_index(tmp_path, monkeypatch):
    d, lmax = 5, 3
    rng = np.random.default_rng(14)
    coeffs = {idx: tuple(rng.normal(size=2) @ [1.0, 1j] for _ in range(2))
              for l in range(lmax + 1) for idx in enumerate_indices(d, l)}
    path = tmp_path / "c.json"
    with open(path, "w") as fp:
        formats.save_coefficients(fp, HarmonicExpansion(d, lmax, coeffs))
    built = []
    check = MultiIndex.__post_init__
    monkeypatch.setattr(MultiIndex, "__post_init__", lambda idx: built.append(idx) or check(idx))
    loaded = formats.load_coefficients(str(path))
    assert built == []
    assert len(loaded.labels) == len(coeffs)
    # a failing record, and only it, is built to word the error
    doc = json.loads(path.read_text())
    doc["coefficients"][40]["index"][1] = doc["coefficients"][40]["index"][0] + 1
    with pytest.raises(FormatError, match="chain violation"):
        formats.load_coefficients(_write(tmp_path / "bad.json", doc))
    assert [(idx.l, *idx.m) for idx in built] == [tuple(doc["coefficients"][40]["index"])]


def test_eval_and_solve_import_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma on its first call, about 11 ms of CPU in a
    # fresh process: more than the bulk readers save
    samples = _write(tmp_path / "s.json", {"values": [[1.0, 0.5]] * sphere_grid(3, 2).size})
    config = _write(tmp_path / "cfg.json", {
        "d": 3, "kind": "interior", "radii": [1.0], "lmax": 2,
        "boundary": [{"radius": 1.0, "samples-file": samples}]})
    points = _write(tmp_path / "p.json", {"points": [
        {"cartesian": [0.1, 0.2, 0.3]},
        {"ultraspherical": {"r": 0.5, "theta": [1.0], "phi": 2.0}}]})
    coeffs, values = str(tmp_path / "c.json"), str(tmp_path / "v.json")
    code = (
        "import sys\n"
        "from ultrasph.cli import main\n"
        f"assert main(['solve', {config!r}, '-o', {coeffs!r}]) == 0\n"
        f"assert main(['eval', {coeffs!r}, {points!r}, '-o', {values!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
    assert len(json.loads(Path(values).read_text())["values"]) == 2
