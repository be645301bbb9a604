"""Tabulate how the residuals of two `tools/residual_sweep.py` outputs differ.

    python3 tools/sweep_diff.py BEFORE AFTER

BEFORE and AFTER are sweep outputs of two checkouts, parent first.  For
each relation with any difference, one row gives the lines whose residual
moved, the smallest and largest after/before ratio among them, the largest
moved residual after, the verdicts that flipped, and the configurations
that went from ERROR to a result or back.  Ratios and flips count only
configurations both checkouts ran.  A last line totals the lines compared.
"""

from __future__ import annotations

import sys
from collections import defaultdict

COLUMNS = ("relation", "moved", "ratio_min", "ratio_max", "max_after", "flips",
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


def compare(before: dict, after: dict) -> tuple[dict[str, dict], int]:
    """Per-relation counts as in COLUMNS, and the number of lines compared."""
    rows: dict[str, dict] = defaultdict(lambda: {"moved": 0, "ratios": [], "max_after": 0.0,
                                                 "flips": 0, "error_to_result": 0,
                                                 "result_to_error": 0})
    compared = 0
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
                    row["flips"] += 1
    return rows, compared


def format_table(rows: dict[str, dict], compared: int, before: dict, after: dict) -> str:
    widths = (28, 6, 10, 10, 10, 6, 16, 16)
    lines = [" ".join(f"{c:<{w}}" for c, w in zip(COLUMNS, widths)).rstrip()]
    for name, row in rows.items():
        if not (row["moved"] or row["flips"] or row["error_to_result"] or row["result_to_error"]):
            continue
        ratios = row["ratios"]
        lo, hi = (f"{min(ratios):.3g}", f"{max(ratios):.3g}") if ratios else ("-", "-")
        cells = (name, row["moved"], lo, hi, f"{row['max_after']:.3g}", row["flips"],
                 row["error_to_result"], row["result_to_error"])
        lines.append(" ".join(f"{c!s:<{w}}" for c, w in zip(cells, widths)).rstrip())
    moved = sum(row["moved"] for row in rows.values())
    flips = sum(row["flips"] for row in rows.values())
    lines.append(f"# {compared} lines compared, {moved} moved, {flips} flipped")
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
    rows, compared = compare(before, after)
    sys.stdout.write(format_table(rows, compared, before, after))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
