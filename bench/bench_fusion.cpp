// Memory-traffic elimination benchmark: the fused execution stack
// (im2col-free conv packing + residual/concat graph fusion + the
// liveness-planned activation arena, PlanRequest::fusion) against the
// pre-fusion planner path (PR 7 candidate set: materialized im2col /
// direct / Winograd, one activation buffer per node).
//
// Walks the registry's conv-heavy VIP models that carry residual adds
// and channel concats (YOLOv8-n, Monodepth2) at a CPU-friendly input
// scale, checks the fused engine is numerically equivalent to the
// baseline (max |diff| <= 1e-5), verifies the warmed fused frame path
// stays off the allocator, and measures whole-model frame latency for
// both. Writes the BENCH_fusion.json record file (bench "fusion") that
// scripts/check_bench_regression.py gates in CI: the gate model
// (YOLOv8-x, the largest conv-heavy model) must hold the gate table's
// frame-speedup floor and a >= 30% peak-arena reduction.
// The floor is host-dependent (see EXPERIMENTS.md): on a single
// AVX2 core the whole model is compute-bound and fusion buys
// 1.05-1.12x end to end (individual streamed-im2col layers gain
// 1.3-1.9x), but a shared runner draws +/-8% run-to-run noise even
// with the interleaved-pair median below, so CI's default floor
// (0.95x) is a mispick-regression catcher — the planner-bug class it
// exists for measures <= 0.90x — while the 1.25x whole-model target
// applies to bandwidth-bound Jetson-class deployments and the
// stronger per-layer claim is gated by bench_conv_planner.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/alloc_guard.hpp"
#include "core/rng.hpp"
#include "models/registry.hpp"
#include "nn/engine.hpp"

using namespace ocb;

namespace {

using Clock = std::chrono::steady_clock;

template <typename F>
double seconds_once(F&& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct FusionResult {
  std::string name;
  double base_ns_frame = 0.0;   ///< planner path, fusion off
  double fused_ns_frame = 0.0;  ///< fused kernels + graph fusion + arena
  double pair_speedup = 0.0;    ///< median of per-pair base/fused ratios
  double max_abs_diff = 0.0;
  int fused_nodes = 0;
  int residual_fused = 0;
  int concat_elided = 0;
  std::size_t arena_before = 0;  ///< one-buffer-per-node bytes
  std::size_t arena_after = 0;   ///< liveness-planned arena bytes
  std::uint64_t warm_allocs = 0;

  double speedup() const noexcept { return pair_speedup; }
  double arena_reduction() const noexcept {
    return arena_before > 0
               ? 1.0 - static_cast<double>(arena_after) /
                           static_cast<double>(arena_before)
               : 0.0;
  }
};

FusionResult bench_model(models::ModelId id, double input_scale,
                         double min_seconds) {
  const nn::Graph graph = models::build_model(id, input_scale);

  // Baseline: the planner as of the pre-fusion candidate set —
  // materialized im2col / direct 1x1 / Winograd, no graph fusion, one
  // activation buffer per node.
  nn::Engine base(graph, 5);
  nn::PlanRequest base_req;
  base_req.planner.enable_fused = false;
  base.prepare(base_req);

  // Fused: full candidate set plus residual folding, concat placement
  // and the liveness-planned arena.
  nn::Engine fused(graph, 5);
  nn::PlanRequest fused_req;
  fused_req.fusion = nn::FusionConfig{true, true, true};
  const nn::ExecutionPlan& plan = fused.prepare(fused_req);

  FusionResult result;
  result.name = models::model_info(id).name;
  result.fused_nodes = plan.fused_nodes;
  result.residual_fused = plan.residual_fused;
  result.concat_elided = plan.concat_elided;
  result.arena_before = plan.arena_peak_bytes_before;
  result.arena_after = plan.arena_peak_bytes_after;

  const nn::FeatShape in = graph.input_shape();
  Tensor input({1, in.c, in.h, in.w});
  Rng rng(3);
  input.init_uniform(rng, 0.0f, 1.0f);

  const auto ref = base.run(input);  // also warms both engines
  const auto got = fused.run(input);
  for (std::size_t o = 0; o < ref.size(); ++o)
    for (std::size_t i = 0; i < ref[o].numel(); ++i)
      result.max_abs_diff = std::max(
          result.max_abs_diff,
          static_cast<double>(std::fabs(ref[o][i] - got[o][i])));

  {
    // The warmed fused frame path must stay off the allocator (the
    // AllocGuard contract, DESIGN.md §10). Counts 0 trivially when the
    // hooks are compiled out; the JSON records which it was.
    AllocGuard guard;
    (void)fused.run(input);
    result.warm_allocs = guard.allocations();
  }

  // Interleaved sampling: shared hosts drift by tens of percent over
  // a bench's lifetime (frequency scaling, noisy neighbours), and the
  // large models run >1 s/frame, so measuring a base block then a
  // fused block would time the drift, not the code. Instead each
  // sample is an adjacent base/fused frame *pair* — the within-pair
  // ratio is drift-free — and the gated speedup is the median of the
  // pair ratios, which single outlier frames cannot move.
  double base_s = 0.0;
  double fused_s = 0.0;
  std::vector<double> ratios;
  while (base_s + fused_s < 2.0 * min_seconds ||
         ratios.size() < 7) {
    const double b = seconds_once([&] { base.run(input); });
    const double f = seconds_once([&] { fused.run(input); });
    base_s += b;
    fused_s += f;
    ratios.push_back(f > 0.0 ? b / f : 0.0);
  }
  const auto mid = ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  result.pair_speedup = *mid;
  result.base_ns_frame = base_s / static_cast<double>(ratios.size()) * 1e9;
  result.fused_ns_frame =
      fused_s / static_cast<double>(ratios.size()) * 1e9;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_fusion",
          "fused conv packing + graph fusion + arena planning vs the "
          "pre-fusion planner path");
  bench::add_common_flags(cli);
  cli.add_double("min-seconds", 0.2,
                 "minimum sampling time per measurement point");
  cli.add_double("input-scale", 0.3,
                 "registry model input scale (1.0 = deployment resolution); "
                 "0.3 keeps the CI run short while the streamed-im2col "
                 "layers the fused path targets stay past cache residency");
  cli.add_string("out", "BENCH_fusion.json",
                 "machine-readable output path (empty disables)");
  if (!cli.parse(argc, argv)) return 0;
  bench::apply_common_flags(cli);
  const double min_seconds = cli.real("min-seconds");
  const double input_scale = cli.real("input-scale");

  // The residual/concat-carrying VIP models: YOLOv8-n (C2f blocks —
  // both bottleneck adds and split/merge concats), YOLOv8-x (the same
  // topology at the registry's largest width/depth) and Monodepth2
  // (ResNet-18 residual encoder + skip-concat decoder).
  const std::vector<models::ModelId> ids = {models::ModelId::kYoloV8n,
                                            models::ModelId::kYoloV8x,
                                            models::ModelId::kMonodepth2};

  std::vector<FusionResult> results;
  for (models::ModelId id : ids)
    results.push_back(bench_model(id, input_scale, min_seconds));

  ResultTable table(
      "Whole model: fused engine vs pre-fusion planner engine",
      {"model", "base ms", "fused ms", "speedup", "res", "concat",
       "arena red.", "warm allocs", "max |diff|"});
  bench::Records records;
  for (const FusionResult& r : results) {
    records.add(r.name, "base", "ns_frame", r.base_ns_frame, "ns");
    records.add(r.name, "base", "arena_bytes", r.arena_before, "bytes");
    records.add(r.name, "fused", "ns_frame", r.fused_ns_frame, "ns");
    records.add(r.name, "fused", "frame_speedup", r.speedup(), "x");
    records.add(r.name, "fused", "fused_nodes", r.fused_nodes, "count");
    records.add(r.name, "fused", "residual_fused", r.residual_fused, "count");
    records.add(r.name, "fused", "concat_elided", r.concat_elided, "count");
    records.add(r.name, "fused", "arena_bytes", r.arena_after, "bytes");
    records.add(r.name, "fused", "arena_reduction", r.arena_reduction(),
                "ratio");
    records.add(r.name, "fused", "warm_allocs", r.warm_allocs, "count");
    records.add(r.name, "fused", "max_abs_diff", r.max_abs_diff, "abs");
    table.row()
        .cell(r.name)
        .cell(r.base_ns_frame * 1e-6, 3)
        .cell(r.fused_ns_frame * 1e-6, 3)
        .cell(r.speedup(), 2)
        .cell(static_cast<double>(r.residual_fused), 0)
        .cell(static_cast<double>(r.concat_elided), 0)
        .cell(r.arena_reduction(), 3)
        .cell(static_cast<double>(r.warm_allocs), 0)
        .cell(r.max_abs_diff, 7);
  }
  bench::emit(cli, {table});
  records.write(cli.string("out"), "fusion");
  return 0;
}
