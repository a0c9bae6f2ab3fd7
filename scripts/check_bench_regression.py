#!/usr/bin/env python3
"""Gate a bench result file against the one gate table.

Every gated bench (bench_engine_kernels, bench_multi_model,
bench_conv_planner, bench_precision_sweep, bench_fusion, bench_fault)
writes the same file shape, BENCH_<bench>.json:

  {"bench": ..., "provenance": {simd, hardware_threads, cpu, compiler,
   build, alloc_counting}, "records": [{subject, variant, metric,
   value, unit}]}

GATES below holds every gate. A row names its bench and selects
records by subject, variant and metric (regular expressions, matched
whole). It then aggregates them (each, max or min) and compares the
result with a threshold. A row may apply only when SIMD is active,
only when the build counts heap allocations, or only when the run
trained detectors. A baseline row compares each record with the
baseline record of the same subject, variant and metric: it fails
above the baseline value plus the row's fractional tolerance. A row
that selects no record fails, so a bench that stops measuring a gated
quantity cannot pass. Every failure names its row. To move a
threshold, for example the fusion floor to 1.25 on a bandwidth-bound
Jetson-class host (EXPERIMENTS.md), edit the row.

Absolute ns/frame is only comparable on the machine that produced the
baseline. On shared CI runners pass --ratio-only, which skips the
baseline rows and keeps the machine-relative ones. The baseline
defaults to the committed bench/baselines/BENCH_<bench>.json.

Usage:
  scripts/check_bench_regression.py BENCH_kernels.json [--ratio-only]
  scripts/check_bench_regression.py BENCH_kernels.json --ratio-only \\
      --min-gemm-speedup 1.5 --min-int8-speedup 1.5
  scripts/check_bench_regression.py BENCH_fusion.json \\
      --baseline path/to/BENCH_fusion.json
"""

from __future__ import annotations

import argparse
import json
import operator
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent

# Allowed fractional slowdown: over the baseline for ns/frame rows, and
# below 1.0 for the speedups that must not turn into slowdowns.
TOLERANCE = 0.15
NOT_SLOWER = 1.0 - TOLERANCE
# Gated variants of the compression frontier (bench_precision_sweep's
# pareto_variants): the "shippable" points held to the accuracy budget.
ACCURACY_GATED = "fp16|nm25|nm50|nm50-fp16"

COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "==": operator.eq,
    "|x|<=": lambda v, t: abs(v) <= t,
}

CONDITIONS: dict[str, Callable[["Run"], bool]] = {
    "simd": lambda run: run.provenance.get("simd", "scalar") != "scalar",
    "alloc_counting": lambda run: bool(
        run.provenance.get("alloc_counting", False)),
    # bench_precision_sweep without --skip-training: its trained
    # detectors leave per-precision `accuracy` records.
    "trained": lambda run: any(r["metric"] == "accuracy"
                               for r in run.records),
}


@dataclass
class Run:
    bench: str
    provenance: dict
    records: list[dict]


def load(path: str | Path) -> Run:
    with open(path) as f:
        data = json.load(f)
    return Run(data.get("bench", ""), data.get("provenance", {}),
               data.get("records", []))


def key(record: dict) -> tuple[str, str, str]:
    return record["subject"], record["variant"], record["metric"]


def describe(record: dict) -> str:
    where = " ".join(p for p in (record["subject"], record["variant"]) if p)
    value = record["value"]
    shown = f"{value:.4g}" if isinstance(value, (int, float)) else repr(value)
    return f"{where}: {record['metric']} {shown} {record['unit']}"


def p99_priority_order(records: list[dict], run: Run) -> list[str]:
    """Batched p99 serve latency must rise strictly with priority rank
    (critical < high < normal)."""
    rank = {r["subject"]: r["value"] for r in run.records
            if r["metric"] == "priority"}
    ranked = sorted(records, key=lambda r: rank.get(r["subject"], 99))
    return [
        f"{hi['subject']} (rank {rank.get(hi['subject'])}, "
        f"{hi['value']:.1f} ms) not faster than {lo['subject']} "
        f"(rank {rank.get(lo['subject'])}, {lo['value']:.1f} ms)"
        for hi, lo in zip(ranked, ranked[1:])
        if hi["value"] >= lo["value"]
    ]


def dispatch_path(records: list[dict], run: Run) -> list[str]:
    """With SIMD active every shape must take the advertised path, and
    the forced-scalar measurement the scalar one: a SIMD number from
    the scalar kernel means the dispatcher silently fell back."""
    level = run.provenance.get("simd", "scalar")
    failures = []
    for r in records:
        expected = "scalar" if r["variant"] == "scalar" else level
        if r["value"] != expected:
            failures.append(f"{describe(r)}, expected {expected!r}")
    return failures


@dataclass(frozen=True, kw_only=True)
class Gate:
    name: str
    bench: str
    what: str
    metric: str
    subject: str = ".*"
    variant: str = ".*"
    agg: str = "each"
    cmp: str = ">="
    # A number, or the name of the command-line option holding it.
    threshold: float | str = 0.0
    when: str | None = None
    baseline: bool = False
    check: Callable[[list[dict], Run], list[str]] | None = None

    def select(self, records: list[dict]) -> list[dict]:
        return [r for r in records
                if re.fullmatch(self.subject, r["subject"])
                and re.fullmatch(self.variant, r["variant"])
                and re.fullmatch(self.metric, r["metric"])]


GATES = [
    # --- bench_engine_kernels: packed SIMD GEMM vs the scalar fallback.
    Gate(name="kernels.ns_frame", bench="kernels", baseline=True,
         what="SIMD ns/frame regressed over the baseline",
         variant="simd", metric="ns_frame", cmp="<=", threshold=TOLERANCE),
    Gate(name="kernels.frame_speedup", bench="kernels", when="simd",
         what="SIMD path slower than scalar",
         variant="simd", metric="frame_speedup", threshold=NOT_SLOWER),
    Gate(name="kernels.gemm_speedup", bench="kernels", when="simd",
         what="best SIMD-vs-scalar GEMM speedup below the floor",
         variant="simd", metric="gemm_speedup", agg="max",
         threshold="min_gemm_speedup"),
    Gate(name="kernels.int8_speedup", bench="kernels", when="simd",
         what="best INT8-vs-FP32-SIMD GEMM speedup below the floor",
         variant="int8", metric="gemm_speedup", agg="max",
         threshold="min_int8_speedup"),
    Gate(name="kernels.dispatch", bench="kernels", when="simd",
         what="a kernel dispatched to another path than the active level",
         metric="path", check=dispatch_path),
    # --- bench_multi_model: modelled stream clock, machine-relative.
    Gate(name="multi_model.batch_speedup", bench="multi_model",
         what="micro-batching throughput speedup below the floor",
         variant="batched", metric="throughput_speedup", threshold=1.5),
    Gate(name="multi_model.batching", bench="multi_model",
         what="scheduler formed no batches",
         variant="batched", metric="mean_batch", cmp=">", threshold=1.0),
    Gate(name="multi_model.p99_order", bench="multi_model",
         what="per-model p99 violates the priority ordering",
         variant="batched", metric="p99_serve_ms",
         check=p99_priority_order),
    # --- bench_conv_planner: the cost model must pick faster kernels.
    Gate(name="planner.winograd_speedup", bench="planner", when="simd",
         what="no winograd-planned layer, or the best one below the floor",
         variant="winograd", metric="layer_speedup", agg="max",
         threshold=1.5),
    Gate(name="planner.mischoice", bench="planner",
         what="planner chose a kernel that measures slower than im2col",
         variant="(?!im2col$).*", metric="layer_speedup",
         threshold=NOT_SLOWER),
    Gate(name="planner.equivalence", bench="planner",
         what="planned engine diverges from the legacy im2col engine",
         variant="planned", metric="max_abs_diff", cmp="<=",
         threshold=1e-4),
    Gate(name="planner.frame_speedup", bench="planner",
         what="planned engine slower than the legacy im2col engine",
         variant="planned", metric="frame_speedup", threshold=NOT_SLOWER),
    Gate(name="planner.ns_frame", bench="planner", baseline=True,
         what="planned ns/frame regressed over the baseline",
         variant="planned", metric="ns_frame", cmp="<=",
         threshold=TOLERANCE),
    # --- bench_precision_sweep: the compression Pareto frontier.
    Gate(name="pareto.sparse_speedup", bench="pareto", when="simd",
         what="no 50% N:M kernel point, or its sparse GEMM speedup below "
              "the floor",
         variant="nm50", metric="kernel_speedup", agg="max", threshold=1.3),
    Gate(name="pareto.fp16_speedup", bench="pareto", when="simd",
         what="no fp16-storage kernel point, or the best one below the "
              "floor",
         variant="fp16", metric="kernel_speedup", agg="max", threshold=1.2),
    Gate(name="pareto.sparse_planned", bench="pareto", when="simd",
         what="no frontier N:M variant ran any sparse-planned node",
         variant="nm.*", metric="sparse_nodes", agg="max", threshold=1),
    Gate(name="pareto.fp16_planned", bench="pareto", when="simd",
         what="no frontier fp16 variant ran any half-stored node",
         variant=".*fp16.*", metric="fp16_nodes", agg="max", threshold=1),
    Gate(name="pareto.nm50_speedup", bench="pareto", when="simd",
         what="nm50 engine slower than fp32",
         variant="nm50", metric="speedup_vs_fp32", threshold=NOT_SLOWER),
    Gate(name="pareto.equivalence", bench="pareto",
         what="sparse engine diverges from its masked-dense twin",
         variant="masked-twin", metric="max_abs_diff", cmp="<=",
         threshold=1e-4),
    Gate(name="pareto.equivalence_planned", bench="pareto", when="simd",
         what="equivalence run planned no sparse nodes (nothing compared)",
         variant="masked-twin", metric="sparse_nodes", threshold=1),
    Gate(name="pareto.accuracy", bench="pareto", when="trained",
         what="gated variant's trained-detector accuracy moved past the "
              "budget (pt vs fp32)",
         variant=ACCURACY_GATED, metric="delta_accuracy_pt", cmp="|x|<=",
         threshold=1.5),
    Gate(name="pareto.ns_frame", bench="pareto", baseline=True,
         what="frontier ns/frame regressed over the baseline",
         metric="ns_frame", cmp="<=", threshold=TOLERANCE),
    # --- bench_fusion: YOLOv8-x, the largest conv-heavy model, is the
    # gate model. 0.95 is a mispick-regression catcher under +/-8%
    # shared-runner noise, not the 1.25 Jetson-class target.
    Gate(name="fusion.equivalence", bench="fusion",
         what="fused engine diverges from the unfused baseline",
         variant="fused", metric="max_abs_diff", cmp="<=", threshold=1e-5),
    Gate(name="fusion.warm_allocs", bench="fusion", when="alloc_counting",
         what="warmed fused frame performed heap allocations",
         variant="fused", metric="warm_allocs", cmp="==", threshold=0),
    Gate(name="fusion.frame_speedup", bench="fusion",
         what="fused engine slower than the pre-fusion baseline",
         variant="fused", metric="frame_speedup", threshold=NOT_SLOWER),
    Gate(name="fusion.gate_speedup", bench="fusion",
         what="gate model's fusion speedup below the floor",
         subject="YOLOv8-x", variant="fused", metric="frame_speedup",
         threshold=0.95),
    Gate(name="fusion.gate_arena", bench="fusion",
         what="gate model's peak activation arena shrank less than 30%",
         subject="YOLOv8-x", variant="fused", metric="arena_reduction",
         threshold=0.30),
    Gate(name="fusion.gate_residual", bench="fusion",
         what="fusion pass folded no residual add on the gate model",
         subject="YOLOv8-x", variant="fused", metric="residual_fused",
         threshold=1),
    Gate(name="fusion.gate_concat", bench="fusion",
         what="fusion pass elided no concat on the gate model",
         subject="YOLOv8-x", variant="fused", metric="concat_elided",
         threshold=1),
    Gate(name="fusion.ns_frame", bench="fusion", baseline=True,
         what="fused ns/frame regressed over the baseline",
         variant="fused", metric="ns_frame", cmp="<=", threshold=TOLERANCE),
    # --- bench_fault: machine-relative resilience (DESIGN.md §14).
    Gate(name="fault.verify_overhead", bench="fault",
         what="checksum verify overhead (% of the median clean frame) "
              "over budget",
         variant="verify", metric="verify_overhead_pct", agg="max",
         cmp="<=", threshold=2.0),
    Gate(name="fault.warm_allocs", bench="fault", when="alloc_counting",
         what="warmed verify-enabled frame performed heap allocations",
         variant="verify", metric="warm_allocs", cmp="==", threshold=0),
    Gate(name="fault.flips_landed", bench="fault",
         what="injection landed no bit flips",
         variant="recovery", metric="flips", cmp=">", threshold=0),
    Gate(name="fault.detected", bench="fault",
         what="injected weight corruption went undetected",
         variant="recovery", metric="detected", cmp="==", threshold=1),
    Gate(name="fault.recovery_exact", bench="fault",
         what="recovery did not restore bit-exact outputs",
         variant="recovery", metric="max_abs_diff_after", cmp="==",
         threshold=0),
    Gate(name="fault.quarantine_frames", bench="fault",
         what="corrupted model not quarantined within 4 frames",
         variant="quarantine", metric="frames_to_quarantine", cmp="<=",
         threshold=4),
    Gate(name="fault.quarantined", bench="fault",
         what="corrupted model never quarantined",
         variant="quarantine", metric="frames_to_quarantine", threshold=0),
    Gate(name="fault.readmitted", bench="fault",
         what="quarantined model never re-admitted after reload",
         variant="quarantine", metric="readmitted", cmp="==", threshold=1),
    Gate(name="fault.devsim_slowdown", bench="fault",
         what="devsim degradation mode does not slow the modelled device",
         variant="thermal|bandwidth", metric="slowdown", cmp=">",
         threshold=1.0),
]


def number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_gate(gate: Gate, run: Run, baseline: Run | None,
               options: argparse.Namespace) -> list[str]:
    selected = gate.select(run.records)
    if not selected:
        return [f"selects no record (subject {gate.subject!r}, variant "
                f"{gate.variant!r}, metric {gate.metric!r})"]
    if gate.check is not None:
        return gate.check(selected, run)
    not_numbers = [f"{describe(r)} is not a number" for r in selected
                   if not number(r["value"])]
    if not_numbers:
        return not_numbers
    threshold = (getattr(options, gate.threshold)
                 if isinstance(gate.threshold, str) else gate.threshold)
    compare = COMPARATORS[gate.cmp]
    if gate.baseline:
        base = {key(r): r["value"] for r in baseline.records}
        return [f"{describe(r)} exceeds baseline {base[key(r)]:.4g} "
                f"+{threshold:.0%}"
                for r in selected
                if key(r) in base
                and not compare(r["value"], base[key(r)] * (1.0 + threshold))]
    if gate.agg != "each":
        pick = max if gate.agg == "max" else min
        best = pick(selected, key=lambda r: r["value"])
        if compare(best["value"], threshold):
            return []
        return [f"{gate.agg} of {len(selected)}: {describe(best)}, "
                f"required {gate.cmp} {threshold:g}"]
    return [f"{describe(r)}, required {gate.cmp} {threshold:g}"
            for r in selected if not compare(r["value"], threshold)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n\n".join(__doc__.split("\n\n")[1:]))
    parser.add_argument("current", help="bench record file to gate")
    parser.add_argument(
        "--baseline",
        help="committed reference records "
             "(default: bench/baselines/BENCH_<bench>.json)")
    parser.add_argument(
        "--min-gemm-speedup", type=float, default=2.0,
        help="minimum SIMD-vs-scalar GEMM speedup when SIMD is active")
    parser.add_argument(
        "--min-int8-speedup", type=float, default=1.0,
        help="minimum INT8-vs-FP32-SIMD GEMM throughput ratio on the "
             "best shape when SIMD is active")
    parser.add_argument(
        "--ratio-only", action="store_true",
        help="skip the baseline rows (cross-machine CI runners)")
    return parser


def main() -> int:
    args = build_parser().parse_args()

    run = load(args.current)
    gates = [g for g in GATES if g.bench == run.bench]
    if not gates:
        print(f"bench regression check FAILED: no gate for bench "
              f"{run.bench!r} in {args.current}")
        return 1
    applied = [g for g in gates
               if not (g.baseline and args.ratio_only)
               and (g.when is None or CONDITIONS[g.when](run))]

    baseline = None
    if any(g.baseline for g in applied):
        path = args.baseline or REPO / "bench" / "baselines" / \
            f"BENCH_{run.bench}.json"
        try:
            baseline = load(path)
        except OSError as err:
            print(f"bench regression check FAILED: baseline {path}: "
                  f"{err.strerror} (pass --ratio-only to skip the "
                  "baseline rows)")
            return 1

    failures = [f"[{g.name}] {g.what}: {detail}"
                for g in applied
                for detail in check_gate(g, run, baseline, args)]
    if failures:
        print("bench regression check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench regression check passed ({run.bench}: {len(applied)} of "
          f"{len(gates)} gates applied over {len(run.records)} records, "
          f"simd={run.provenance.get('simd')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
