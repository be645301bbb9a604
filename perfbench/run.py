"""ptdeform benchmark: one closed-loop client runs a workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src and
reads the metric list from ./BENCHMARK.json.  Workloads:

  cli-default  back-to-back fresh `python -m ptdeform` subprocesses at N = 30
  verify-n480  in-process `run_verification` at N = 480
  scan-sweep   in-process `cmd_scan_limit` + `cmd_ladder` per model point, N = 60

Every operation's output is checked by checks.py.  With --trace 0 the last
stdout line carries the end-to-end metrics:

  setup_s               median over 5 fresh interpreters of the time until
                        `import ptdeform.cli` (and, in-process, the warm-up) is done
  op_ref.p50            median, and highest percentile with ten samples beyond
  op_ref.tail           it (the maximum below 21 samples), of the wall time of
                        one operation in units of a reference computation timed
                        just before and after it (see below)
  peak_rss_mb           peak resident memory of the process running the operations
  success_rate          operations that neither raised, nor exited 1 or 3,
                        nor failed the output check, over operations attempted
  relations_pass_share  battery relations passed over relations reported by
                        verify operations (1 when a workload runs no verify)

With --trace 1 it carries the per-layer metrics of a traced run (spans.py),
each as a mean per operation; each operation also runs untraced, so the
tracing overhead is reported.  The line before the last holds the run's
conditions and details: sample counts, raw wall-time median and tail,
throughput, failures.  Numbers are comparable only between runs on the same
machine.

Why operation times are reported against a reference: on a shared host the
speed of the machine drifts by up to 2x over minutes, which moved the
run-to-run spread of raw wall-time medians to 0.10-0.40 of the median across
seeds.  Dividing each operation by a reference that uses no ptdeform code
and has the same kind of work (cycles.reference_seconds in-process, a fresh
interpreter importing numpy for subprocess operations) brought it to
0.04-0.08.  A change to ptdeform moves the operation and not the reference.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from cycles import run_cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def quadrature_order(n_basis: int, nu: float) -> int:
    """The program's default order, raised to the floor its rule check enforces."""
    return max(2 * n_basis + 60, math.ceil(2 * n_basis + 2 * nu + 10))


# --------------------------------------------------------------------------
# workloads: each builds its inputs from the seeded generator only


def cli_default(rng: random.Random) -> dict:
    nus = ["1", "1.5", "2", "3.7", "10", "25", repr(round(rng.uniform(1.0, 25.0), 6))]
    cycle = [["verify", "--nu", nu] for nu in nus] + [
        ["ladder", "--nu", "3.7", "--n-max", "25"],
        ["spectrum", "--nu", "1.5", "--n-max", "5"],
        ["wavefunctions", "--nu", "2", "--n-max", "5", "--samples", "100"],
        ["scan-limit", "--nu-list", "1,1.01,1.1,1.5,2,3.7"],
        # exits 1 today: the default quadrature order ignores nu (a known defect
        # that must stay visible in success_rate)
        ["verify", "--nu", "50"],
    ]
    rng.shuffle(cycle)
    ops = [{"kind": "cli", "argv": argv} for argv in cycle]
    return {"ops": ops, "cycle_len": len(ops), "in_process": False,
            "warmup": {"kind": "cli", "argv": ["verify", "--nu", "2"]}}


def verify_n480(rng: random.Random) -> dict:
    # A golden-ratio sequence from a seeded start: any prefix of it spreads
    # evenly over [1, 50], so the few operations a run fits do not all land
    # at one end of the range.
    start = rng.random()
    ops = []
    for i in range(64):
        nu = 1.0 + 49.0 * ((start + i * GOLDEN) % 1.0)
        ops.append({"kind": "verify", "nu": nu, "basis_size": 480,
                    "quadrature_order": quadrature_order(480, nu)})
    return {"ops": ops, "cycle_len": 1, "in_process": True,
            "warmup": {"kind": "verify", "nu": 2.0, "basis_size": 30,
                       "quadrature_order": quadrature_order(30, 2.0)}}


def scan_sweep(rng: random.Random) -> dict:
    # nu = 1 plus one draw in each of 15 equal strata of [1, 50]
    nus = [1.0] + [1.0 + 49.0 * (j + rng.random()) / 15.0 for j in range(15)]
    rng.shuffle(nus)
    q = quadrature_order(60, max(nus))
    ops = [{"kind": "point", "nu": nu, "basis_size": 60, "quadrature_order": q, "n_max": 25}
           for nu in nus]
    return {"ops": ops, "cycle_len": len(ops), "in_process": True,
            "warmup": {"kind": "point", "nu": 1.0, "basis_size": 60, "quadrature_order": q,
                       "n_max": 25}}


WORKLOADS = {"cli-default": cli_default, "verify-n480": verify_n480, "scan-sweep": scan_sweep}


# --------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(job: dict, env: dict) -> tuple[subprocess.Popen, dict, float]:
    """Start a worker; return it, its ready message, and the seconds from
    starting the interpreter until its import and warm-up were done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        if not line:
            raise BenchError("the worker ended before it was ready (see its stderr)")
        return proc, json.loads(line), seconds
    except BaseException:
        stop(proc)
        raise


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish_worker(proc: subprocess.Popen, command: str, timeout: float) -> dict | None:
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1]) if out.strip() else None


def run_cli(op: dict, env: dict) -> dict:
    """One `python -m ptdeform` operation in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ptdeform", *op["argv"]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return {"wall_s": time.perf_counter() - t0, "exit": proc.returncode,
            "error": proc.stderr, "stdout": proc.stdout}


def start_numpy(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy: the reference
    for subprocess operations, which spend most of their time starting up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=env, check=True,
                   timeout=120)
    return time.perf_counter() - t0


def import_times(env: dict) -> dict:
    """Import cost of `ptdeform.cli` from `python -X importtime`, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ptdeform.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"importing ptdeform.cli failed:\n{proc.stderr[-2000:]}")
    total = scipy_s = own = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        seconds = int(self_us) * 1e-6
        total += seconds
        if name == "scipy" or name.startswith("scipy."):
            scipy_s += seconds
        if name == "ptdeform" or name.startswith("ptdeform."):
            own += seconds
    return {"import.total_s": total, "import.scipy_s": scipy_s, "import.ptdeform_self_s": own}


# --------------------------------------------------------------------------
# outcomes and metrics


def outcome(op: dict, res: dict) -> tuple[str | None, str | None, tuple[int, int] | None]:
    """(failure reason, check miss, (relations passed, relations)) of one result.

    An operation fails if it raises, exits with anything but 0 (or 2 for
    verify, whose relations then count in relations_pass_share), or its
    output fails the benchmark's check; the last is also a check miss.
    """
    code = res["exit"]
    is_verify = op["kind"] == "verify" or op.get("argv", [""])[0] == "verify"
    if code not in (0, 2) or (code == 2 and not is_verify):
        return f"exit {code}: {res['error'].strip()[-300:]}", None, None
    try:
        payload = res["payload"] if "payload" in res else json.loads(res["stdout"])
        miss = checks.check(op, code, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        miss = f"unreadable output: {type(exc).__name__}: {exc}"
    if miss:
        return miss, miss, None
    if not is_verify:
        return None, None, None
    passed = sum(r["pass"] for r in payload["relations"])
    return None, None, (passed, len(payload["relations"]))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank
    as a percentile.  With fewer than 21 samples that percentile would lie
    below the median, so the maximum is reported instead."""
    ordered = sorted(values)
    i = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def per_layer_value(name: str, summary: dict, imports: dict, overhead: float) -> float:
    if name in imports:
        return imports[name]
    if name == "trace.overhead_share":
        return overhead
    head, _, field = name.rpartition(".")
    if field == "self_s":
        return summary["self_s"].get(head, 0.0)
    if field in ("points", "flops"):
        return summary["work"].get(head, 0.0)
    return summary[field].get(head, 0.0)


def blas_threads() -> int | None:
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def conditions(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "note": "numbers are comparable only between runs on the same machine",
    }


# --------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "ptdeform" / "cli.py").is_file():
        raise BenchError(f"no ptdeform sources under {ROOT / 'src'}")
    work = WORKLOADS[workload](random.Random(seed))
    env = child_env()
    in_process = work["in_process"] or trace
    job = {"trace": trace, "ops": work["ops"], "cycle_len": work["cycle_len"],
           "seconds": seconds, "warmup": work["warmup"] if in_process else None,
           "spans_path": str(ROOT / ".perfbench" / f"spans-{workload}.npz")}

    setup, worker = [], None
    for i in range(1 if trace else SETUP_SAMPLES):
        proc, ready, took = start_worker(job, env)
        setup.append(took)
        if ready["warmup"] is not None:
            reason = outcome(work["warmup"], ready["warmup"])[0]
            if reason:
                stop(proc)
                raise BenchError(f"warm-up failed: {reason}")
        if in_process and i == (0 if trace else SETUP_SAMPLES - 1):
            worker = proc
        else:
            finish_worker(proc, "exit", 60)

    if worker is not None:
        done = finish_worker(worker, "go", 10 * seconds + 300)
        results, elapsed, peak = done["results"], done["elapsed_s"], done["peak_rss_mb"]
    else:
        results, elapsed = run_cycles(work["ops"], work["cycle_len"], seconds,
                                      lambda op: run_cli(op, env), lambda: start_numpy(env))
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    ops = [work["ops"][i % len(work["ops"])] for i in range(len(results))]
    outcomes = [outcome(op, res) for op, res in zip(ops, results)]
    failures = [o[0] for o in outcomes if o[0]]
    misses = [o[1] for o in outcomes if o[1]]
    relations = [o[2] for o in outcomes if o[2]]
    walls = [r["wall_s"] for r in results]
    ratios = [r["wall_s"] / r["ref_s"] for r in results]
    tail_s, tail_pct = tail(walls)
    attempted, failed = len(results), len(failures)
    rel_total = sum(t for _, t in relations)
    detail = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "conditions": conditions(seed),
        "samples": attempted, "elapsed_s": elapsed, "tail_percentile": tail_pct,
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_s,
        "ref_s_p50": statistics.median(r["ref_s"] for r in results),
        "ops_per_s": (attempted - failed) / sum(walls),
        "setup_samples_s": setup,
        "fail_rate": failed / attempted,
        "relations_failed_mean": (rel_total - sum(p for p, _ in relations)) / len(relations)
        if relations else 0.0,
        "failures": sorted(set(failures))[:10],
        "op_walls_s": [round(w, 6) for w in walls],
    }
    if trace:
        samples = [import_times(env) for _ in range(IMPORTTIME_SAMPLES)]
        imports = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        overhead = statistics.median(r["wall_s"] / r["untraced_wall_s"] for r in results) - 1.0
        detail["untraced_op_s_p50"] = statistics.median(r["untraced_wall_s"] for r in results)
        detail["spans_file"] = job["spans_path"]
        values = {m["name"]: per_layer_value(m["name"], done["summary"], imports, overhead)
                  for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_ref.p50": statistics.median(ratios),
            "op_ref.tail": tail(ratios)[0],
            "peak_rss_mb": peak,
            "success_rate": (attempted - failed) / attempted,
            "relations_pass_share": sum(p for p, _ in relations) / rel_total if relations else 1.0,
        }
        wanted = spec["end_to_end"]
    result = {
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
