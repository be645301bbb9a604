"""Time one in-process `ptdeform verify` layer by layer, at several sizes.

    python3 tools/layer_times.py LABEL=SRC_DIR [LABEL=SRC_DIR ...] [--reps R] > BENCH.json

Each SRC_DIR is the ``src`` directory of a checkout (the one that holds
``ptdeform/``), named by its LABEL.  For every size of ``SIZES``, N in
{30, 120, 480, 960, 1500} times nu in {1, 3.7, 49.9} at the order
max(2 max(N, 21) + 60, floor), each checkout runs in fresh interpreters
of its own, in 4 rounds with the checkouts in turn, the first checkout
changing from round to round, so that a drift of the machine's speed
falls on every checkout alike.  In each round `run_verification` runs
once to warm up and then R/4 times (R = 20 by default), its layers timed
by wrappers around the module-level names verify reaches:

  rule          `RunConfig.quadrature`, the rule as verify meets it (cached)
  scalar        the rest of verify up to `operator_set`: the scalar layer
  stream        inside the `basis_blocks` generator that `quadrature_XP` reads
  xp_reduce     the rest of `quadrature_XP`: images, band entries, defects
  b_assembly    `build_H` and `assemble_b`
  operators     from `operator_set`'s return to `closed_form_states`: the
                structure checks and every operator product
  wavefunction  from `closed_form_states` to the join of the grid thread:
                the ladder climb, the 21-state checks, the sampled states
  grid_wait     the main thread's wait at that join
  report        from the join to the report
  total         `run_verification`
  grid          `grid_spectrum` on its own thread, beside the layers above

and, outside verify, ``rule_cold``: the rule built once per repetition
with the Legendre cache cleared.  The output holds, per checkout and size,
the median and the quartiles of each layer in seconds over the R runs of
the 4 rounds, and
per checkout the median wall time of R fresh ``python -m ptdeform verify
--nu 2`` runs.  It records the machine, the Python and numpy versions and
``PYTHONDONTWRITEBYTECODE``, which puts the compilation of ptdeform's
sources into every fresh run.  Times are comparable only between runs on
one machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

SIZES = [(n, nu) for n in (30, 120, 480, 960, 1500) for nu in (1.0, 3.7, 49.9)]
ROUNDS = 4
LAYERS = ("rule", "scalar", "stream", "xp_reduce", "b_assembly", "operators", "wavefunction",
          "grid_wait", "report", "total", "grid", "rule_cold")


def _child(src: str, n_basis: int, nu: float, reps: int) -> dict:
    """The layer times, in seconds, of ``reps`` verifies at (N, nu) of the
    checkout at ``src``, one list per layer."""
    sys.path.insert(0, src)
    import ptdeform.cli as cli
    import ptdeform.opmat as opmat
    import ptdeform.specfun as specfun

    clock = time.perf_counter
    run: dict[str, float] = {}

    def add(name: str, seconds: float) -> None:
        run[name] = run.get(name, 0.0) + seconds

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, clock() - t0)
        return wrapper

    def marked(start, end, fn):
        def wrapper(*args, **kwargs):
            if start:
                run[start] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if end:
                    run[end] = clock()
        return wrapper

    in_xp = []
    blocks = opmat.basis_blocks

    def streamed(*args):
        stream = blocks(*args)
        while True:
            t0 = clock()
            item = next(stream, None)
            if in_xp:
                add("stream", clock() - t0)
            if item is None:
                return
            yield item

    xp = opmat.quadrature_XP

    def quadrature_xp(*args):
        in_xp.append(True)
        try:
            return xp(*args)
        finally:
            in_xp.pop()

    opmat.basis_blocks = streamed
    opmat.quadrature_XP = timed("xp", quadrature_xp)
    opmat.build_H = timed("b_assembly", opmat.build_H)
    opmat.assemble_b = timed("b_assembly", opmat.assemble_b)
    cli.RunConfig.quadrature = timed("rule", cli.RunConfig.quadrature)
    cli.operator_set = marked("ops_start", "ops_end", cli.operator_set)
    cli.closed_form_states = marked("wave_start", None, cli.closed_form_states)
    cli._Background.result = marked("join_start", "join_end", cli._Background.result)
    cli.grid_spectrum = timed("grid", cli.grid_spectrum)

    params = cli.ModelParams(nu=nu)
    levels = max(n_basis, opmat.WAVEFUNCTION_STATES)
    # written out, not read from `opmat.default_quadrature_order`: the tool
    # also times checkouts older than that function
    order = max(2 * levels + 60, opmat.quadrature_floor(params, n_basis))
    config = cli.RunConfig(nu=nu, basis_size=n_basis, quadrature_order=order)
    cli.run_verification(config)
    samples: dict[str, list[float]] = {name: [] for name in LAYERS}
    for _ in range(reps):
        specfun._legendre_rule.cache_clear()
        t0 = clock()
        config.quadrature(params)
        cold = clock() - t0
        run.clear()
        t0 = clock()
        cli.run_verification(config)
        end = clock()
        layers = {
            "rule": run["rule"],
            "scalar": run["ops_start"] - t0 - run["rule"],
            "stream": run["stream"],
            "xp_reduce": run["xp"] - run["stream"],
            "b_assembly": run["b_assembly"],
            "operators": run["wave_start"] - run["ops_end"],
            "wavefunction": run["join_start"] - run["wave_start"],
            "grid_wait": run["join_end"] - run["join_start"],
            "report": end - run["join_end"],
            "total": end - t0,
            "grid": run["grid"],
            "rule_cold": cold,
        }
        for name, seconds in layers.items():
            samples[name].append(seconds)
    return {"order": order, "samples": samples}


def _cli_seconds(src: str, reps: int) -> float:
    """The median wall time of ``reps`` fresh ``python -m ptdeform verify --nu 2``."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "ptdeform", "verify", "--nu", "2"], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _versions() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__}


def main(argv: list[str]) -> int:
    if len(argv) == 6 and argv[1] == "--child":
        print(json.dumps(_child(argv[2], int(argv[3]), float(argv[4]), int(argv[5]))))
        return 0
    args, reps = argv[1:], 20
    if "--reps" in args:
        at = args.index("--reps")
        reps = int(args[at + 1])
        del args[at:at + 2]
    trees = [arg.split("=", 1) for arg in args]
    if not trees or any(len(tree) != 2 for tree in trees) or reps < 4:
        print("usage: python3 tools/layer_times.py LABEL=SRC_DIR [LABEL=SRC_DIR ...] "
              "[--reps R >= 4]", file=sys.stderr)
        return 1
    trees = [(label, os.path.abspath(src)) for label, src in trees]
    results: dict[str, dict] = {label: {"sizes": []} for label, _ in trees}
    for i, (n_basis, nu) in enumerate(SIZES):
        samples: dict[str, dict[str, list[float]]] = {label: {} for label, _ in trees}
        for r in range(ROUNDS):
            shift = (i + r) % len(trees)
            for label, src in trees[shift:] + trees[:shift]:
                out = subprocess.run(
                    [sys.executable, __file__, "--child", src, str(n_basis), repr(nu),
                     str(-(-reps // ROUNDS))], check=True, capture_output=True, text=True).stdout
                child = json.loads(out)
                for name, values in child["samples"].items():
                    samples[label].setdefault(name, []).extend(values)
        for label, _ in trees:
            layers = {}
            for name, values in samples[label].items():
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                layers[name] = {"median_s": median, "q1_s": q1, "q3_s": q3}
            results[label]["sizes"].append({"n": n_basis, "nu": nu, "order": child["order"],
                                            "layers": layers})
    for label, src in trees:
        results[label]["cli_verify_nu2_s"] = _cli_seconds(src, reps)
    doc = {
        "tool": "tools/layer_times.py",
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "versions": _versions(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "reps": reps,
        "layers": list(LAYERS),
        "trees": results,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
