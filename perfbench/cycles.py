"""Closed-loop schedule shared by the benchmark parent and its worker."""

from __future__ import annotations

import time

import numpy as np

_POINTS = np.linspace(-0.999, 0.999, 1000)


def reference_seconds() -> float:
    """Wall time of a fixed computation that uses no ptdeform code.

    Its mix is the one ptdeform spends its time in: a three-term recurrence
    that fills a table of polynomial rows at quadrature points, plus a scalar
    Python loop.  So it slows down and speeds up with the host the way the
    operations do.
    """
    t0 = time.perf_counter()
    table = np.empty((240, _POINTS.size))
    for _ in range(4):
        table[0] = 1.0
        table[1] = 3.0 * _POINTS
        for n in range(2, table.shape[0]):
            table[n] = (2.0 * (n + 0.5) * _POINTS * table[n - 1] - (n + 1.0) * table[n - 2]) / n
        acc = 0.0
        for k in range(5000):
            acc += k * 0.5
    return time.perf_counter() - t0


def run_cycles(ops: list, cycle_len: int, seconds: float, call,
               reference=reference_seconds) -> tuple[list[dict], float]:
    """Run `call(op)` back to back as one closed-loop client.

    Each operation starts only after the previous one has finished.  Ops are
    taken in order, wrapping around.  The run stops only at a cycle boundary
    (every `cycle_len` ops), so a workload's mix is always complete, and it
    starts another cycle only while the mean cycle time so far still fits in
    `seconds`.  At least one cycle runs.  `reference()` runs before each
    operation and after the last, untimed by the run; each result gets the mean of
    the two that bracket it as `ref_s`.  Returns the results and the elapsed
    wall time.
    """
    results: list[dict] = []
    refs = [reference()]
    start = time.perf_counter()
    cycles = 0
    while True:
        for _ in range(cycle_len):
            results.append(call(ops[len(results) % len(ops)]))
            refs.append(reference())
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            break
    for i, res in enumerate(results):
        res["ref_s"] = 0.5 * (refs[i] + refs[i + 1])
    return results, elapsed
