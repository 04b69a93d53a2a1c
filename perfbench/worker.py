"""One benchmark worker process: import ultrasph, then run CLI calls.

Protocol on stdin/stdout, one JSON line each way:

1. after ``import ultrasph.cli`` the worker prints ``{"ready": cpu_s}``, its
   CPU time so far (interpreter start and import: run.py's set-up);
2. it reads a job ``{"calls": [{"argv": [...], "stdout": path|null}, ...],
   "spans": path|null, "call_id": n}``; with ``spans`` set, every public
   ultrasph function is traced (spans.Tracer) and the spans are saved there;
3. it runs ``ultrasph.cli.main(argv)`` for each call, timing only that
   call, and prints ``{"results": [{"rc", "wall_s", "cpu_s"}, ...],
   "maxrss_kb"}``.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def run_call(main, argv, stdout_path):
    with open(stdout_path or os.devnull, "w") as fp, contextlib.redirect_stdout(fp):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"rc": rc, "wall_s": wall, "cpu_s": cpu}


def main():
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    import ultrasph.cli

    if not os.path.realpath(ultrasph.cli.__file__).startswith(src + os.sep):
        sys.exit(f"worker imported ultrasph from {ultrasph.cli.__file__}, not from {src}")
    out = sys.stdout
    out.write(json.dumps({"ready": time.process_time()}) + "\n")
    out.flush()
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job.get("spans"):
        import spans

        tracer = spans.Tracer()
        tracer.install(ultrasph)
    results = [run_call(ultrasph.cli.main, c["argv"], c["stdout"]) for c in job["calls"]]
    if tracer is not None:
        tracer.save(job["spans"], job["call_id"])
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"results": results, "maxrss_kb": maxrss}) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
