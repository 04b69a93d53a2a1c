"""Check that a parent checkout and this one write byte-identical benchmark outputs.

Run from the repository root, with a checkout of the parent commit beside it:

    python3 tools/same_outputs.py PARENT_CHECKOUT

The inputs are written once, by perfbench's own ``write_inputs`` with
seed 1 (the samples, configs and points).  Then each checkout, through
its own ``src/``, runs every call as a fresh ``ultrasph`` process with
one BLAS thread: the 12 ``solve-sweep`` solves, the ``eval-scatter``
solve and eval, ``verify --d 3-8 --lmax 8`` (stdout and ``--json``) and
the (8, 8) annulus harmonic-spec solve, which takes about 5 s of CPU and
1.6 GB per checkout.  Every output pair is compared byte for byte, as
``cmp`` does; one line per output says ``same`` or ``DIFFERENT`` (or the
exit statuses, when a call fails), and the exit status is 1 when any
pair differs."""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py)

_CLI = "import sys; from ultrasph.cli import main; sys.exit(main(sys.argv[1:]))"
# the (8, 8) annulus: a single harmonic on each sphere
_LARGE = {"d": 8, "kind": "annulus", "radii": [0.5, 2.0], "lmax": 8, "boundary": [
    {"radius": 0.5, "data": "harmonic:(2,1,1,0,0,0;0)"},
    {"radius": 2.0, "data": "harmonic:(8,5,3,2,1,1;-1)"},
]}


def calls(inputs):
    """(argv, stdout file or None, output files) of every call, in run order.

    "{out}" in an argv entry stands for the checkout's output directory.
    """
    todo = [(["solve", c["config"], "-o", f"{{out}}/coeffs{i}.json"], None, [f"coeffs{i}.json"])
            for i, c in enumerate(inputs["solve-sweep"]["cases"])]
    scatter = inputs["eval-scatter"]
    todo += [
        (["solve", scatter["config"], "-o", "{out}/scatter_coeffs.json"], None,
         ["scatter_coeffs.json"]),
        (["eval", "{out}/scatter_coeffs.json", scatter["points"], "-o", "{out}/values.json"], None,
         ["values.json"]),
        ([*run.VerifySuite.ARGV, "--json", "{out}/verify.json"], "verify.txt",
         ["verify.txt", "verify.json"]),
        (["solve", inputs["large"], "-o", "{out}/large.json"], None, ["large.json"]),
    ]
    return todo


def run_tree(tree, out_dir, todo):
    """Run every call against ``tree``'s src/; returns each call's exit status."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    status = []
    for argv, stdout, _ in todo:
        argv = [str(a).replace("{out}", str(out_dir)) for a in argv]
        with open(out_dir / stdout if stdout else os.devnull, "w") as fp:
            status.append(subprocess.run([sys.executable, "-c", _CLI, *argv], env=env,
                                         stdout=fp, cwd=out_dir).returncode)
    return status


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py PARENT_CHECKOUT", file=sys.stderr)
        return 2
    trees = {"parent": argv[0], "child": ROOT}
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        inputs = {}
        for name in ("solve-sweep", "eval-scatter"):
            (tmp / name).mkdir()
            inputs[name] = run.WORKLOADS[name].write_inputs(tmp / name, 1)
        inputs["large"] = tmp / "large.json"
        inputs["large"].write_text(json.dumps(_LARGE))
        todo = calls(inputs)
        status = {}
        for tree in trees:
            (tmp / tree).mkdir()
            status[tree] = run_tree(trees[tree], tmp / tree, todo)
        differ = 0
        for (_, _, files), a, b in zip(todo, status["parent"], status["child"]):
            for file in files:
                if a or b:
                    verdict = f"exit {a}/{b}"
                else:
                    same = filecmp.cmp(tmp / "parent" / file, tmp / "child" / file, shallow=False)
                    verdict = "same" if same else "DIFFERENT"
                differ += verdict != "same"
                print(f"{verdict:9}  {file}")
        print(f"{len(todo)} calls per checkout, {differ} output(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
