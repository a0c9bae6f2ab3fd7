#!/usr/bin/env python3
"""Tests for the bench gate table in check_bench_regression.py.

1. Every committed baseline passes unmodified, with the baseline rows
   on (against itself, the derived default) and with --ratio-only.
2. Every gate row fails on a seeded copy of its bench's baseline that
   pushes the row past its threshold, and the failure names the row.
   An `each` or baseline row gets exactly one record pushed past; a
   max/min row gets its selected records pushed so the aggregate
   crosses; a relational row gets one record that breaks its
   predicate.
3. Every gate row fails, naming itself, once the records it selects
   are removed: a bench that stops measuring a gated quantity cannot
   pass.

Usage: scripts/test_bench_gates.py   (exit 1 on any failure)
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_bench_regression as cbr  # noqa: E402

CHECKER = Path(cbr.__file__).resolve()
BASELINES = cbr.REPO / "bench" / "baselines"


def run_checker(path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(CHECKER), str(path), *args],
                          capture_output=True, text=True, cwd=cbr.REPO)


def past(threshold: float, cmp: str) -> float:
    """A value on the failing side of `cmp threshold`."""
    margin = max(abs(threshold) * 0.05, 1e-6)
    return {">=": threshold - margin, ">": threshold,
            "<=": threshold + margin, "|x|<=": threshold + margin,
            "==": threshold + 1}[cmp]


def seed(gate: cbr.Gate, data: dict, defaults) -> None:
    """Push `data` (the bench's baseline) past `gate`, in place."""
    selected = gate.select(data["records"])
    if gate.check is cbr.dispatch_path:
        selected[0]["value"] = "seeded"
    elif gate.check is cbr.p99_priority_order:
        rank = {r["subject"]: r["value"] for r in data["records"]
                if r["metric"] == "priority"}
        first = min(selected, key=lambda r: rank[r["subject"]])
        first["value"] = max(r["value"] for r in selected) + 1.0
    elif gate.baseline:
        selected[0]["value"] *= 1.0 + gate.threshold + 0.01
    else:
        threshold = (getattr(defaults, gate.threshold)
                     if isinstance(gate.threshold, str) else gate.threshold)
        bad = past(threshold, gate.cmp)
        if gate.agg == "each":
            selected[0]["value"] = bad
        else:  # push every record so the max/min lands past
            for r in selected:
                r["value"] = bad


def main() -> int:
    failures: list[str] = []
    defaults = cbr.build_parser().parse_args(["unused"])
    baselines = {p.stem.removeprefix("BENCH_"): p
                 for p in sorted(BASELINES.glob("BENCH_*.json"))}

    for bench, path in baselines.items():
        for args in ([], ["--ratio-only"]):
            result = run_checker(path, *args)
            if result.returncode != 0:
                failures.append(f"baseline {path.name} {' '.join(args)} "
                                f"fails:\n{result.stdout}")

    with tempfile.TemporaryDirectory() as tmp:
        for i, gate in enumerate(cbr.GATES):
            if gate.bench not in baselines:
                failures.append(f"{gate.name}: no committed baseline for "
                                f"bench {gate.bench!r}")
                continue
            data = json.loads(baselines[gate.bench].read_text())
            run = cbr.Run(data["bench"], data["provenance"], data["records"])
            if gate.when and not cbr.CONDITIONS[gate.when](run):
                failures.append(f"{gate.name}: its baseline does not meet "
                                f"condition {gate.when!r}, row untested")
                continue
            selected = gate.select(data["records"])
            if not selected:
                failures.append(f"{gate.name}: selects nothing in its "
                                "baseline")
                continue
            seeded = copy.deepcopy(data)
            seed(gate, seeded, defaults)
            dropped = dict(data, records=[r for r in data["records"]
                                          if r not in selected])
            for label, bad in (("seeded violation", seeded),
                               ("missing records", dropped)):
                path = Path(tmp) / f"{i}.json"
                path.write_text(json.dumps(bad))
                result = run_checker(path)
                if (result.returncode != 1
                        or f"[{gate.name}]" not in result.stdout):
                    failures.append(f"{gate.name}: {label} not caught "
                                    f"(exit {result.returncode}):\n"
                                    f"{result.stdout}{result.stderr}")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"test_bench_gates: {len(cbr.GATES)} rows, {len(baselines)} "
          f"baselines, {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
