"""Benchmark worker: a fresh interpreter that imports ptdeform.cli, warms up
and runs one workload's operations in-process.

run.py starts it with PYTHONPATH pointing at the checkout's src/.  It reads
the job as one JSON line on stdin and prints one JSON line per step: a ready
line once the import and the warm-up are done, then, after the parent sends
"go", the results.  On "exit" it ends without running anything.
"""

import sys

import ptdeform.cli as cli  # first: the parent's set-up timing covers this import

import contextlib
import io
import json
import resource
import time
from pathlib import Path

from cycles import run_cycles
from spans import Tracer


def _config(op: dict, nu: float) -> cli.RunConfig:
    return cli.RunConfig(nu=nu, basis_size=op["basis_size"],
                         quadrature_order=op["quadrature_order"])


def run_op(op: dict):
    """Run one operation in-process; return (exit code, raw output, stderr text)."""
    kind = op["kind"]
    if kind == "verify":
        report = cli.run_verification(_config(op, op["nu"]))
        return (0 if report.overall_pass else 2), report, ""
    if kind == "point":
        scan = cli.cmd_scan_limit(_config(op, 1.0), [op["nu"]])
        ladder = cli.cmd_ladder(_config(op, op["nu"]), op["n_max"])
        return 0, {"scan": scan, "ladder": ladder}, ""
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        return code, out.getvalue(), err.getvalue()
    raise ValueError(f"unknown operation kind {kind!r}")


def timed(op: dict, runner=run_op) -> dict:
    """One timed operation.  Converting its output for the parent is not timed."""
    t0 = time.perf_counter()
    try:
        code, raw, err = runner(op)
    except Exception as exc:  # a raising operation is a measured failure, not a harness error
        return {"wall_s": time.perf_counter() - t0, "exit": None,
                "error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - t0
    if isinstance(raw, str):
        return {"wall_s": wall, "exit": code, "error": err, "stdout": raw}
    payload = raw if isinstance(raw, dict) else raw.to_dict()
    return {"wall_s": wall, "exit": code, "error": err, "payload": payload}


def traced_pair(op: dict, tracer: Tracer) -> dict:
    """The same operation untraced, then traced; the traced result carries both times."""
    plain = timed(op)
    tracer.install()
    try:
        traced = timed(op, lambda o: tracer.call(run_op, o))
    finally:
        tracer.uninstall()
    traced["untraced_wall_s"] = plain["wall_s"]
    return traced


def _send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    job = json.loads(sys.stdin.readline())
    warmup = timed(job["warmup"]) if job["warmup"] else None
    _send({"ready": True, "warmup": warmup})
    if sys.stdin.readline().strip() != "go":
        return 0
    summary = None
    if job["trace"]:
        tracer = Tracer()
        results, elapsed = run_cycles(job["ops"], job["cycle_len"], job["seconds"],
                                      lambda op: traced_pair(op, tracer))
        summary = tracer.summary()
        tracer.dump(Path(job["spans_path"]))
    else:
        results, elapsed = run_cycles(job["ops"], job["cycle_len"], job["seconds"], timed)
    _send({
        "results": results,
        "elapsed_s": elapsed,
        "summary": summary,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
