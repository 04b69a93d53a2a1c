"""Benchmark of the ultrasph command line: solve, eval and verify end to end.

Run from the repository root:

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 30 --trace 0

Each CLI call runs ``ultrasph.cli.main(argv)`` in a fresh worker process
(worker.py), as a shell command would, so no in-memory cache carries over
from one call to the next.  Inputs are generated from ``--seed`` with
closed-form harmonics (oracle.py) and every output is checked against
them.  ``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced passes with passes in which every public ultrasph
function is wrapped (spans.py) and reports per-layer metrics.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Details of the run go to stderr.
"""

import argparse
import hashlib
import itertools
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_ROUNDS = 7
RUN_BUDGET_S = 170.0  # every worker is stopped by then
PROBE_GAP_S = 0.025
PROBE_REF_S = 1.0e-3  # probe CPU time that defines one reference second
_PROBE_ARRAY = np.linspace(0.1, 3.0, 256)


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


# --------------------------------------------------------------------------
# workers and the speed probe

def probe():
    """CPU seconds this thread needs for a fixed mix of interpreter and numpy work.

    The host's CPU speed drifts by tens of percent over seconds (other
    tenants share the cores).  The benchmark runs this probe on the same CPU
    as the worker, between the worker's time slices, and divides the
    worker's CPU time by the probe's relative speed.
    """
    t0 = time.thread_time()
    acc = 0.0
    for i in range(5000):
        acc += i * 0.5
    a = _PROBE_ARRAY
    for _ in range(40):
        a = np.sin(a) * np.cos(a) + a
    return time.thread_time() - t0


class Runner:
    """Starts worker processes, runs CLI calls in them and probes the CPU meanwhile.

    The benchmark process and its workers share one CPU, so the probe
    samples the speed the worker sees.
    """

    def __init__(self, root, work, deadline):
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src, PERFBENCH_SRC=src,
                        PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.work = work
        self.deadline = deadline
        self.count = 0
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def run(self, calls, spans_path=None, call_id=0):
        """Run ``calls`` [(argv, stdout path or None)] in one new worker.

        Returns a dict: ``report`` (the worker's result line, or None if it
        crashed or ran past the deadline), ``import_cpu_s`` (worker CPU time
        until ``import ultrasph.cli`` finished) and the probe times taken
        while the worker imported (``import_probes``) and ran its calls
        (``call_probes``).
        """
        self.count += 1
        err_path = self.work / f"worker{self.count}.err"
        job = {"calls": [{"argv": [str(a) for a in argv], "stdout": out and str(out)}
                         for argv, out in calls],
               "spans": spans_path and str(spans_path), "call_id": call_id}
        with open(err_path, "w") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=self.work,
                                    env=self.env, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err)
        try:
            proc.stdin.write(json.dumps(job).encode() + b"\n")
            proc.stdin.close()
            lines, probes = self._watch(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if not lines:
            raise BenchError(f"worker did not start:\n{err_path.read_text()[-2000:]}")
        out = {"report": None, "import_cpu_s": json.loads(lines[0])["ready"],
               "import_probes": probes[0], "call_probes": probes[1] if len(probes) > 1 else []}
        if proc.returncode == 0 and len(lines) == 2:
            out["report"] = json.loads(lines[1])
        return out

    def _watch(self, proc):
        """Probe until the worker closes stdout or the deadline passes.

        Returns the worker's output lines and, for each line, the probe
        times taken while the worker was producing it.
        """
        fd = proc.stdout.fileno()
        lines, probes, current, buf = [], [], [], b""
        while time.perf_counter() < self.deadline:
            current.append(probe())
            if not select.select([fd], [], [], PROBE_GAP_S)[0]:
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            buf += data
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                lines.append(line.decode())
                probes.append(current)
                current = []
        return lines, probes


def speed(probe_times):
    """Relative CPU speed (1 = reference) from probe times; 1 if there are none."""
    return PROBE_REF_S / statistics.median(probe_times) if probe_times else 1.0


# --------------------------------------------------------------------------
# workloads

class SolveSweep:
    """Forward transform: one ``solve`` per (d, lmax) and kind, from samples files."""

    name = "solve-sweep"
    CASES = ((3, 8), (4, 8), (5, 6), (6, 4))
    CHECK_POINTS = 6

    def write_inputs(self, d_in, seed):
        cases, samples = [], 0
        dirs = {dl: oracle.grid_directions(*dl) for dl in self.CASES}
        for i, ((d, lmax), kind) in enumerate(itertools.product(self.CASES, oracle.KINDS)):
            rng = np.random.default_rng([seed, i])
            f = oracle.boundary_function(rng, d, lmax)
            radii = oracle.KINDS[kind]
            boundary = []
            for j, radius in enumerate(radii):
                path = d_in / f"case{i}_samples{j}.json"
                values = f(radius * dirs[d, lmax])
                oracle.write_json(path, {"values": oracle.pairs(values)})
                boundary.append({"radius": radius, "samples-file": str(path)})
                samples += values.size
            config = d_in / f"case{i}.json"
            oracle.write_json(config, {"d": d, "kind": kind, "radii": list(radii),
                                       "lmax": lmax, "boundary": boundary})
            x = oracle.random_points(rng, d, self.CHECK_POINTS, *oracle.CHECK_SHELL[kind])
            points = d_in / f"case{i}_points.json"
            oracle.write_json(points, oracle.points_doc(x))
            cases.append({"config": config, "points": points,
                          "ref": oracle.solution(f, kind, radii)(x)})
        return {"cases": cases, "items": samples, "verdicts": {}, "errors": []}

    def prepare(self, state, runner):
        return []

    def calls(self, state, pass_dir):
        return [(["solve", c["config"], "-o", pass_dir / f"coeffs{i}.json"], None)
                for i, c in enumerate(state["cases"])]

    def check(self, state, pass_dir, ok, runner):
        """Evaluate each new coefficient file at the case's check points (untimed)."""
        verdicts = state["verdicts"]  # by (case, output digest): identical bytes, same verdict
        keys = [None] * len(ok)
        for i in range(len(ok)):
            if ok[i]:
                keys[i] = (i, hashlib.sha256((pass_dir / f"coeffs{i}.json").read_bytes()).digest())
        todo = [(key, key[0]) for key in keys if key is not None and key not in verdicts]
        if todo:
            calls = [(["eval", pass_dir / f"coeffs{i}.json", state["cases"][i]["points"],
                       "-o", pass_dir / f"check{i}.json"], None) for _, i in todo]
            report = runner.run(calls)["report"]
            for n, (key, i) in enumerate(todo):
                got = oracle.read_values(pass_dir / f"check{i}.json") if report else None
                error = oracle.relative_error(got, state["cases"][i]["ref"])
                state["errors"].append(error)
                verdicts[key] = report is not None and report["results"][n]["rc"] == 0 and error <= oracle.TOL
        return [bool(ok[i] and verdicts[keys[i]]) for i in range(len(ok))]


class EvalScatter:
    """Inverse transform: one ``eval`` of annulus coefficients at scattered points."""

    name = "eval-scatter"
    D, LMAX, RADII, POINTS = 5, 6, (0.5, 2.0), 100

    def write_inputs(self, d_in, seed):
        rng = np.random.default_rng([seed, 0])
        f = oracle.boundary_function(rng, self.D, self.LMAX)
        dirs = oracle.grid_directions(self.D, self.LMAX)
        boundary = []
        for j, radius in enumerate(self.RADII):
            path = d_in / f"samples{j}.json"
            oracle.write_json(path, {"values": oracle.pairs(f(radius * dirs))})
            boundary.append({"radius": radius, "samples-file": str(path)})
        config = d_in / "annulus.json"
        oracle.write_json(config, {"d": self.D, "kind": "annulus", "radii": list(self.RADII),
                                   "lmax": self.LMAX, "boundary": boundary})
        doc = oracle.points_doc(oracle.random_points(rng, self.D, self.POINTS, *self.RADII),
                                ultraspherical_every=2)
        points = d_in / "points.json"
        oracle.write_json(points, doc)
        return {"config": config, "points": points, "coeffs": d_in / "coeffs.json",
                "ref": f(oracle.points_from_doc(doc)), "items": self.POINTS, "errors": []}

    def prepare(self, state, runner):
        """The coefficient file, from an untimed ``solve``; returns its pass/fail."""
        report = runner.run([(["solve", state["config"], "-o", state["coeffs"]], None)])["report"]
        return [report is not None and report["results"][0]["rc"] == 0]

    def calls(self, state, pass_dir):
        return [(["eval", state["coeffs"], state["points"], "-o", pass_dir / "values.json"], None)]

    def check(self, state, pass_dir, ok, runner):
        error = oracle.relative_error(oracle.read_values(pass_dir / "values.json"), state["ref"])
        state["errors"].append(error)
        return [ok[0] and error <= oracle.TOL]


class VerifySuite:
    """The identity suite: many small scalar calls and small quadrature rules."""

    name = "verify-suite"
    DIMS = range(3, 9)
    ARGV = ["verify", "--d", "3-8", "--lmax", "8"]
    # one solid-angle check, 13 per dimension, one more for each d >= 4
    CHECKS = 1 + sum(13 + (d >= 4) for d in DIMS)

    def write_inputs(self, d_in, seed):
        return {"items": self.CHECKS, "errors": []}

    def prepare(self, state, runner):
        return []

    def calls(self, state, pass_dir):
        return [(self.ARGV, pass_dir / "verify.txt")]

    def check(self, state, pass_dir, ok, runner):
        lines = (pass_dir / "verify.txt").read_text().splitlines() if ok[0] else []
        n = self.CHECKS
        passed = sum(line.startswith("PASS ") for line in lines)
        return [bool(lines) and lines[-1] == f"OVERALL PASS ({n}/{n} checks)" and passed == n]


WORKLOADS = {w.name: w for w in (SolveSweep(), EvalScatter(), VerifySuite())}


# --------------------------------------------------------------------------
# metrics

END_TO_END = {
    "cpu_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_ALL = ("calls", "s", "self_s")
TRACED = {
    "quadrature.theta_rule": _ALL,
    "quadrature.sphere_grid": _ALL,
    "solver.project_boundary": _ALL,
    "solver.eval_expansion": _ALL,
    "solver.radial_eval": ("calls", "self_s"),
    "solver.fit_interior": ("s",),
    "solver.fit_exterior": ("s",),
    "solver.fit_annulus": ("s",),
    "solver.green_expansion": ("s",),
    "harmonics.eval_harmonic": _ALL,
    "harmonics.eval_psi": ("self_s",),
    "harmonics.norm_coeff": ("self_s",),
    "harmonics.enumerate_indices": _ALL,
    "harmonics.addition_sum": _ALL,
    "gegenbauer.assoc": _ALL,
    "gegenbauer.norm_factor": _ALL,
    "gegenbauer.poly": _ALL,
    "gegenbauer.poly_deriv": _ALL,
    "geometry.to_ultraspherical": _ALL,
    "geometry.to_cartesian": _ALL,
    "geometry.cos_gamma": _ALL,
    "formats.load_config": ("s",),
    "formats.build_problem": ("s",),
    "formats.load_points": ("s",),
    "formats.load_coefficients": ("s",),
    "formats.save_coefficients": ("s",),
    "formats.save_values": ("s",),
    "cli.main": _ALL,
    "verify.run_verification": ("s",),
}
LAYERS = ("cli", "formats", "verify", "solver", "harmonics", "gegenbauer", "quadrature", "geometry")
WORK_COUNTS = ("quadrature.grid_nodes", "solver.project_boundary.index_nodes",
               "solver.eval_expansion.index_points")


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for fn, fields in TRACED.items():
        for f in fields:
            specs.append((f"{fn}.{f}", "count" if f == "calls" else "s", "lower"))
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [(name, "count", "lower") for name in WORK_COUNTS]
    specs += [
        ("quadrature.theta_rule.repeat_ratio", "ratio", "lower"),
        ("gegenbauer.norm_factor.repeat_ratio", "ratio", "lower"),
        ("harmonics.eval_harmonic.values_per_call", "values/call", "higher"),
        ("tracing.spans", "count", "lower"),
        ("run.wall_s", "s", "lower"),
        ("run.speed", "ratio", "higher"),
        ("tracing.overhead_s", "s", "lower"),
        ("src.lines", "lines", "lower"),
    ]
    return specs


def layer_metrics(span_files, pass_speed):
    """Per-layer values of one traced pass, summed over its CLI calls.

    Span times are scaled by the pass's probe speed, like ``cpu_s``.
    """
    funcs, counts, n_spans = {}, {}, 0
    for path in span_files:
        f, c, n = spans.summarize(path)
        n_spans += n
        for name, rec in f.items():
            acc = funcs.setdefault(name, dict.fromkeys(rec, 0))
            for k, v in rec.items():
                acc[k] += v
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for fn, fields in TRACED.items():
        for f in fields:
            scale = 1 if f == "calls" else pass_speed
            out[f"{fn}.{f}"] = funcs.get(fn, empty)[f] * scale
    for layer in LAYERS:
        out[f"{layer}.self_s"] = pass_speed * sum(
            r["self_s"] for n, r in funcs.items() if n.startswith(layer + "."))
    for name in WORK_COUNTS:
        out[name] = counts[name]

    def ratio(num, fn):
        calls = funcs.get(fn, empty)["calls"]
        return counts[num] / calls if calls else 0.0

    out["quadrature.theta_rule.repeat_ratio"] = ratio("quadrature.theta_rule.repeats", "quadrature.theta_rule")
    out["gegenbauer.norm_factor.repeat_ratio"] = ratio("gegenbauer.norm_factor.repeats", "gegenbauer.norm_factor")
    out["harmonics.eval_harmonic.values_per_call"] = ratio("harmonics.eval_harmonic.values", "harmonics.eval_harmonic")
    out["tracing.spans"] = n_spans
    return out


def src_lines(root):
    return sum(p.read_bytes().count(b"\n") for p in sorted((root / "src").rglob("*.py")))


# --------------------------------------------------------------------------
# the run

def run(workload, root, work, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_BUDGET_S
    runner = Runner(root, work, deadline)

    setup, setup_probes = [], []
    for k in range(SETUP_ROUNDS):
        d_in = work / f"inputs{k}"
        d_in.mkdir()
        t0 = time.thread_time()
        state = workload.write_inputs(d_in, seed)
        written = time.thread_time() - t0
        started = runner.run([])
        setup.append(written + started["import_cpu_s"])
        setup_probes += started["import_probes"]

    prep_ok = workload.prepare(state, runner)

    passes = []
    t_start = time.perf_counter()
    for n in itertools.count():
        t_pass = time.perf_counter()
        p = {"traced": trace and n % 2 == 1, "dir": work / f"pass{n}", "ok": [], "cpu": [],
             "wall": [], "rss": 0, "spans": [], "probes": []}
        p["dir"].mkdir()
        for call_id, call in enumerate(workload.calls(state, p["dir"])):
            span_file = p["dir"] / f"spans{call_id}.npz" if p["traced"] else None
            done = runner.run([call], span_file, call_id)
            p["probes"] += done["call_probes"]
            if done["report"] is None:
                p["ok"].append(False)
                continue
            result = done["report"]["results"][0]
            p["ok"].append(result["rc"] == 0)
            p["cpu"].append(result["cpu_s"])
            p["wall"].append(result["wall_s"])
            p["rss"] = max(p["rss"], done["report"]["maxrss_kb"])
            if span_file is not None:
                p["spans"].append(span_file)
        p["speed"] = speed(p["probes"])
        p["cpu_s"] = sum(p["cpu"]) * p["speed"]
        passes.append(p)
        now = time.perf_counter()
        if now > deadline - 20.0:
            break
        # stop where the run ends closest to ``seconds``; a traced run needs both kinds
        if now - t_start + (now - t_pass) / 2 >= seconds and (not trace or n >= 1):
            break
    measured = time.perf_counter() - t_start

    verdicts = list(prep_ok)
    for p in passes:
        verdicts += workload.check(state, p["dir"], p["ok"], runner)
    failed = verdicts.count(False)

    untraced = [p for p in passes if not p["traced"]]
    # the mean, not the median: passes fall into the host's fast and slow
    # phases, and the median of a few passes jumps between the two
    cpu = statistics.fmean(p["cpu_s"] for p in untraced)
    setup_s = statistics.median(setup) * speed(setup_probes)
    print(f"{workload.name}: {len(passes)} passes in {measured:.1f} s; per pass: "
          f"cpu_s {[round(p['cpu_s'], 4) for p in passes]}, "
          f"raw wall_s {[round(sum(p['wall']), 4) for p in passes]}, "
          f"speed {[round(p['speed'], 3) for p in passes]}; setup_s {setup_s:.4f} "
          f"(speed {speed(setup_probes):.3f}); {len(verdicts)} operations, {failed} failed, "
          f"worst oracle error {max(state['errors'], default=0.0):.2e}", file=sys.stderr)

    if not trace:
        values = {
            "cpu_s": cpu,
            "throughput_per_s": state["items"] / cpu if cpu else 0.0,
            "peak_rss_mb": statistics.median(p["rss"] for p in untraced) / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END
    else:
        traced = [layer_metrics(p["spans"], p["speed"]) for p in passes if p["traced"]]
        values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        values["tracing.overhead_s"] = statistics.fmean(p["cpu_s"] for p in passes if p["traced"]) - cpu
        values["run.wall_s"] = statistics.median(sum(p["wall"]) for p in untraced)
        values["run.speed"] = statistics.median(p["speed"] for p in passes)
        values["src.lines"] = src_lines(root)
        units = {name: unit for name, unit, _ in per_layer_specs()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": len(verdicts), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ultrasph" / "cli.py").is_file():
        print(f"error: {root} holds no src/ultrasph; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], root, work, args.seed, args.seconds,
                     bool(args.trace))
    except (BenchError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
