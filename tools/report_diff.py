#!/usr/bin/env python3
"""Diff two mayo.run_report JSON documents phase by phase and counter by
counter.

A run report (core/run_report.hpp) holds the obs registry's phase timers
and counters plus the evaluation counts of one run.  This tool prints the
two runs side by side -- value before, value after, the difference and
the ratio -- so a change's effect on every layer reads off one table:

  python3 tools/report_diff.py before.json after.json

The inputs may be bare run-report files or any text that contains one
run-report object (e.g. the full output of examples/opamp_yield, which
prints its report last).  Rows whose values are equal are hidden.  Exit
status: 0 on success, 2 when an input holds no run report or the two
reports have different schemas.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA_PREFIX = "mayo.run_report/"


def extract_report(text: str) -> dict:
    """The last JSON object in `text` whose "schema" is a run report."""
    decoder = json.JSONDecoder()
    found = None
    pos = text.find("{")
    while pos >= 0:
        try:
            obj, end = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            pos = text.find("{", pos + 1)
            continue
        if isinstance(obj, dict) and \
                str(obj.get("schema", "")).startswith(SCHEMA_PREFIX):
            found = obj
        pos = text.find("{", end)
    if found is None:
        raise ValueError("no mayo.run_report object found")
    return found


def rows_of(report: dict) -> list[tuple[str, float]]:
    """(name, value) rows in report order: phases (seconds, calls), the
    evaluation counts, then every counter."""
    rows: list[tuple[str, float]] = []
    for name, phase in report.get("phases", {}).items():
        rows.append((f"phase.{name}.seconds", phase.get("seconds", 0.0)))
        rows.append((f"phase.{name}.calls", phase.get("calls", 0)))
    for name, value in report.get("evaluations", {}).items():
        rows.append((f"evaluations.{name}", value))
    for name, value in report.get("counters", {}).items():
        rows.append((f"counter.{name}", value))
    optimizer = report.get("optimizer")
    if isinstance(optimizer, dict):
        for name, value in optimizer.items():
            if isinstance(value, bool):
                value = int(value)
            rows.append((f"optimizer.{name}", value))
    return rows


def diff(before: dict, after: dict) -> list[tuple]:
    """(name, before, after, delta, ratio) per row whose values differ; a
    row missing on one side reads as None there.  Names keep first-seen
    order."""
    a = dict(rows_of(before))
    b = dict(rows_of(after))
    names = list(a)
    names += [n for n in b if n not in a]
    out = []
    for name in names:
        x, y = a.get(name), b.get(name)
        if x is not None and y is not None:
            if x == y:
                continue
            delta = y - x
            ratio = y / x if x else None
        else:
            delta = ratio = None
        out.append((name, x, y, delta, ratio))
    return out


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def fmt_ratio(ratio) -> str:
    return "-" if ratio is None else f"{ratio:.3f}x"


def render(rows: list[tuple]) -> str:
    header = ("name", "before", "after", "delta", "ratio")
    cells = [header] + [(r[0], fmt(r[1]), fmt(r[2]), fmt(r[3]),
                         fmt_ratio(r[4])) for r in rows]
    widths = [max(len(c[i]) for c in cells) for i in range(len(header))]
    lines = []
    for c in cells:
        parts = [c[0].ljust(widths[0])]
        parts += [c[i].rjust(widths[i]) for i in range(1, len(header))]
        lines.append("  ".join(parts).rstrip())
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two mayo.run_report JSON documents")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    try:
        before = extract_report(args.before.read_text(encoding="utf-8"))
        after = extract_report(args.after.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"report_diff: {e}", file=sys.stderr)
        return 2
    if before["schema"] != after["schema"]:
        print(f"report_diff: schemas differ ({before['schema']} vs "
              f"{after['schema']})", file=sys.stderr)
        return 2
    sys.stdout.write(render(diff(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
