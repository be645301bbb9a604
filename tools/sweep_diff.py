"""Tabulate how the residuals of two `tools/residual_sweep.py` outputs differ.

    python3 tools/sweep_diff.py BEFORE AFTER

BEFORE and AFTER are sweep outputs of two checkouts, parent first.  For
each relation with any difference, one row gives the lines whose residual
moved, the smallest and largest after/before ratio among them, the largest
moved residual after, the verdicts that went from pass to fail and from
fail to pass, and the configurations that went from ERROR to a result or
back.  Ratios and flips count only configurations both checkouts ran.  A
last line totals the lines compared, moved and flipped each way; under it
each flip is listed as ``N nu flags relation: before -> after``.
"""

from __future__ import annotations

import sys
from collections import defaultdict

COLUMNS = ("relation", "moved", "ratio_min", "ratio_max", "max_after", "to_fail", "to_pass",
           "error_to_result", "result_to_error")


def read_sweep(path: str) -> dict[tuple[str, str, str], dict[str, tuple[float, str]] | None]:
    """{(N, nu, flags): {relation: (residual, verdict)}}, or None for an ERROR line."""
    sweep: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            n, nu, flags, name, *rest = line.split()
            config = (n, nu, flags)
            if name == "ERROR":
                sweep[config] = None
            else:
                sweep.setdefault(config, {})[name] = (float.fromhex(rest[0]), rest[1])
    return sweep


def _ratio(after: float, before: float) -> float:
    if before == 0.0:
        return 1.0 if after == 0.0 else float("inf")
    return after / before


def compare(before: dict, after: dict) -> tuple[dict[str, dict], int, list[tuple]]:
    """Per-relation counts as in COLUMNS, the number of lines compared, and
    every flipped verdict as (N, nu, flags, relation, before, after)."""
    rows: dict[str, dict] = defaultdict(lambda: {"moved": 0, "ratios": [], "max_after": 0.0,
                                                 "to_fail": 0, "to_pass": 0, "error_to_result": 0,
                                                 "result_to_error": 0})
    compared = 0
    flips = []
    for config in [c for c in before if c in after]:  # in sweep order
        old, new = before[config], after[config]
        if old is None and new is not None:
            for name in new:
                rows[name]["error_to_result"] += 1
        elif old is not None and new is None:
            for name in old:
                rows[name]["result_to_error"] += 1
        elif old is not None:
            for name in [n for n in old if n in new]:
                compared += 1
                (r0, v0), (r1, v1) = old[name], new[name]
                row = rows[name]
                if r0 != r1:
                    row["moved"] += 1
                    row["ratios"].append(_ratio(r1, r0))
                    row["max_after"] = max(row["max_after"], r1)
                if v0 != v1:
                    row["to_pass" if v1 == "True" else "to_fail"] += 1
                    flips.append((*config, name, v0, v1))
    return rows, compared, flips


def format_table(rows: dict[str, dict], compared: int, flips: list[tuple], before: dict,
                 after: dict) -> str:
    widths = (28, 6, 10, 10, 10, 8, 8, 16, 16)
    lines = [" ".join(f"{c:<{w}}" for c, w in zip(COLUMNS, widths)).rstrip()]
    for name, row in rows.items():
        if not (row["moved"] or row["to_fail"] or row["to_pass"] or row["error_to_result"]
                or row["result_to_error"]):
            continue
        ratios = row["ratios"]
        lo, hi = (f"{min(ratios):.3g}", f"{max(ratios):.3g}") if ratios else ("-", "-")
        cells = (name, row["moved"], lo, hi, f"{row['max_after']:.3g}", row["to_fail"],
                 row["to_pass"], row["error_to_result"], row["result_to_error"])
        lines.append(" ".join(f"{c!s:<{w}}" for c, w in zip(cells, widths)).rstrip())
    moved = sum(row["moved"] for row in rows.values())
    to_fail = sum(row["to_fail"] for row in rows.values())
    to_pass = sum(row["to_pass"] for row in rows.values())
    lines.append(f"# {compared} lines compared, {moved} moved, {to_fail} pass -> fail, "
                 f"{to_pass} fail -> pass")
    verdict = {"True": "pass", "False": "fail"}
    lines += [f"# {n} {nu} {flags} {name}: {verdict[v0]} -> {verdict[v1]}"
              for n, nu, flags, name, v0, v1 in flips]
    for label, configs in (
        ("ERROR -> result", [c for c in before if c in after and before[c] is None
                             and after[c] is not None]),
        ("result -> ERROR", [c for c in before if c in after and before[c] is not None
                             and after[c] is None]),
        ("before only", [c for c in before if c not in after]),
        ("after only", [c for c in after if c not in before]),
    ):
        if configs:
            lines.append(f"# {label}: " + ", ".join(" ".join(c) for c in configs))
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/sweep_diff.py BEFORE AFTER", file=sys.stderr)
        return 1
    before, after = read_sweep(argv[1]), read_sweep(argv[2])
    rows, compared, flips = compare(before, after)
    sys.stdout.write(format_table(rows, compared, flips, before, after))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
