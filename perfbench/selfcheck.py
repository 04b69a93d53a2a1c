"""Self-check of the benchmark; run from the repository root:

    python3 perfbench/selfcheck.py

1. The generated functions are harmonic: a finite-difference Laplacian is
   at roundoff level, while a non-harmonic control is far from zero.
2. The oracle checks catch a wrong answer: real program outputs pass, and
   the same outputs altered by a relative 1e-6 are counted as failures.
3. Two seeds give different inputs but identical work counts in traced
   runs (every .calls metric and every exact count).
4. BENCHMARK.json lists exactly the metrics run.py reports.

Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402

LAPLACIAN_LIMIT = 1e-8
SEEDS = (1, 2)


def check_harmonic(report):
    worst, control = 0.0, np.inf
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for d, lmax in run.SolveSweep.CASES + ((run.EvalScatter.D, run.EvalScatter.LMAX),):
            f = oracle.boundary_function(rng, d, lmax)
            x = oracle.random_points(rng, d, 20, 0.5, 2.0)
            worst = max(worst, oracle.laplacian_residual(f, x, 3e-3))
            w = rng.normal(size=d) + 0j  # real direction: (w.x)^k is not harmonic
            control = min(control, oracle.laplacian_residual(oracle.Harmonic(d, [(2, w, 1.0, 0j)]), x, 3e-3))
    report("finite-difference Laplacian of generated data",
           worst <= LAPLACIAN_LIMIT < control,
           f"worst {worst:.2e} (limit {LAPLACIAN_LIMIT:g}), non-harmonic control {control:.2e}")


def scale_values(path, factor):
    doc = json.loads(path.read_text())
    doc["values"] = [[re * factor, im * factor] for re, im in doc["values"]]
    path.write_text(json.dumps(doc))


def scale_coefficients(path, factor):
    doc = json.loads(path.read_text())
    for rec in doc["coefficients"]:
        rec["A"] = [v * factor for v in rec["A"]]
        rec["B"] = [v * factor for v in rec["B"]]
    path.write_text(json.dumps(doc))


def check_perturbed(report, root, work):
    """Run each workload once, check, alter the outputs by 1e-6 and check again."""
    runner = run.Runner(root, work, time.perf_counter() + 600.0)
    n = run.VerifySuite.CHECKS
    alter = {
        "solve-sweep": lambda d: [scale_coefficients(p, 1 + 1e-6) for p in d.glob("coeffs*.json")],
        "eval-scatter": lambda d: scale_values(d / "values.json", 1 + 1e-6),
        "verify-suite": lambda d: (d / "verify.txt").write_text(
            (d / "verify.txt").read_text().replace(f"({n}/{n} checks)", f"({n - 1}/{n} checks)")),
    }
    for name, workload in run.WORKLOADS.items():
        d_in, pass_dir = work / f"{name}-in", work / f"{name}-out"
        d_in.mkdir()
        pass_dir.mkdir()
        state = workload.write_inputs(d_in, SEEDS[0])
        prep = workload.prepare(state, runner)
        ok = []
        for call in workload.calls(state, pass_dir):
            done = runner.run([call])["report"]
            ok.append(done is not None and done["results"][0]["rc"] == 0)
        clean = workload.check(state, pass_dir, ok, runner)
        alter[name](pass_dir)
        altered = workload.check(state, pass_dir, ok, runner)
        report(f"{name}: outputs pass, altered outputs fail",
               all(prep) and all(clean) and not any(altered),
               f"{sum(clean)}/{len(clean)} outputs pass, {altered.count(False)}/{len(altered)} altered outputs fail")


COUNTED = ("quadrature.grid_nodes", "solver.project_boundary.index_nodes",
           "solver.eval_expansion.index_points", "quadrature.theta_rule.repeat_ratio",
           "gegenbauer.norm_factor.repeat_ratio", "harmonics.eval_harmonic.values_per_call",
           "tracing.spans", "src.lines")


def traced_counts(root, workload, seed):
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=root, capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls") or k in COUNTED}, result["correct"]


def check_seeds(report, root, work):
    for name in ("solve-sweep", "eval-scatter"):
        workload = run.WORKLOADS[name]
        files = []
        for seed in SEEDS:
            d_in = work / f"seeds-{name}-{seed}"
            d_in.mkdir()
            workload.write_inputs(d_in, seed)
            files.append({p.name: p.read_bytes() for p in d_in.iterdir() if "samples" in p.name or "points" in p.name})
        differ = files[0].keys() == files[1].keys() and all(files[0][k] != files[1][k] for k in files[0])
        (a, ok_a), (b, ok_b) = (traced_counts(root, name, seed) for seed in SEEDS)
        diff = sorted(k for k in a if a[k] != b[k])
        report(f"{name}: seeds {SEEDS} give different inputs, same work counts",
               differ and ok_a and ok_b and not diff,
               f"{len(files[0])} input files all differ: {differ}; {len(a)} counts compared, "
               f"differing: {diff or 'none'}")


def check_benchmark_json(report, root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    workloads = sorted(w["name"] for w in spec["workloads"])
    report("BENCHMARK.json matches run.py",
           e2e == run.END_TO_END and layer == run.per_layer_specs() and workloads == sorted(run.WORKLOADS),
           f"{len(e2e)} end-to-end, {len(layer)} per-layer metrics, workloads {workloads}")


def main():
    root = Path.cwd()
    if not (root / "src" / "ultrasph" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    failures = []

    def report(name, passed, detail):
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}", flush=True)
        if not passed:
            failures.append(name)

    work = root / ".perfbench_work" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_benchmark_json(report, root)
        check_harmonic(report)
        check_perturbed(report, root, work)
        check_seeds(report, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("SELF-CHECK", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
