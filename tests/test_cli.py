import json
import math

import numpy as np
import pytest

from ultrasph import formats
from ultrasph.cli import main
from ultrasph.geometry import solid_angle
from ultrasph.harmonics import MultiIndex, enumerate_indices
from ultrasph.quadrature import sphere_grid
from ultrasph.solver import HarmonicExpansion, eval_expansion
from ultrasph.verify import run_verification


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

    def test_unsupported_dimension_rejected_up_front(self):
        for d_values in ([9], [3, 9]):
            with pytest.raises(ValueError, match=r"d = 3\.\.8"):
                run_verification(d_values, 4, 1e-8)


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

    def test_missing_params_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["tabulate", "poly", "--d", "3"])
        assert err.value.code == 2


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
        config = interior_config(tmp_path, d=9)
        rc = main(["solve", config])
        err = capsys.readouterr().err
        assert rc == 2
        assert "dimension out of range" in err

    def test_bad_harmonic_spec_exit_2(self, tmp_path, capsys):
        config = interior_config(tmp_path, data="harmonic:(1,0)")
        rc = main(["solve", config])
        assert rc == 2
        assert "harmonic" in capsys.readouterr().err


class TestEvalCommand:
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

    def test_batched_eval_matches_per_point(self, tmp_path, capsys):
        rng = np.random.default_rng(56)
        d, lmax = 5, 3
        truth = HarmonicExpansion(d, lmax, {
            idx: (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
            for l in range(lmax + 1) for idx in enumerate_indices(d, l)
        })
        coeffs = tmp_path / "coeffs.json"
        with open(coeffs, "w") as fp:
            formats.save_coefficients(fp, truth)
        entries = []
        for i in range(50):
            if i % 2:
                entries.append({"cartesian": list(rng.uniform(-1.5, 1.5, d))})
            else:
                entries.append({"ultraspherical": {
                    "r": rng.uniform(0.5, 2.0),
                    "theta": list(rng.uniform(0.0, math.pi, d - 2)),
                    "phi": rng.uniform(0.0, 2.0 * math.pi),
                }})
        points = write_json(tmp_path / "points.json", {"points": entries})
        out_path = tmp_path / "values.json"
        assert main(["eval", str(coeffs), points, "-o", str(out_path)]) == 0
        capsys.readouterr()
        values = json.loads(out_path.read_text())["values"]
        _, loaded = formats.load_points(points)
        expansion = formats.load_coefficients(str(coeffs))
        assert len(values) == 50
        for p, (re, im) in zip(loaded, values):
            want = eval_expansion(expansion, p.r, p)
            assert abs(complex(re, im) - want) <= 1e-14 * max(1.0, abs(want))

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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_samples_rejected(tmp_path, capsys, bad):
    n = math.prod(sphere_grid(3, 1).shape)
    values = [[1.0, 0.0]] * n
    values[n // 2] = [0.5, bad]
    samples = write_json(tmp_path / "s.json", {"values": values})
    config = _samples_config(tmp_path, samples)
    with pytest.raises(formats.FormatError, match="finite"):
        formats.build_problem(formats.load_config(config))
    assert main(["solve", config]) == 2
    assert "finite" in capsys.readouterr().err
