// Fault-injection resilience benchmark (DESIGN.md §14): sweeps seeded
// bit-flip rates across packed weight panels of two model sizes and
// measures (a) the checksum layer's verify-cadence overhead on the
// clean frame path, (b) accuracy degradation (output divergence) per
// fault rate, (c) detection + bit-exact recovery through
// Engine::verify_weights, (d) the ModelServer quarantine/reload/
// re-admit state machine's latency in frames, and (e) devsim
// degradation modes (thermal throttle, bandwidth collapse) priced by
// the roofline model. Writes the BENCH_fault.json record file (bench
// "fault") that scripts/check_bench_regression.py gates in CI: verify
// overhead <= 2% median frame latency,
// recovery restores bit-exact clean outputs, quarantine engages within
// the configured frame budget and the model is re-admitted, and the
// warmed verify-enabled frame path stays off the allocator.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/alloc_guard.hpp"
#include "core/rng.hpp"
#include "devsim/device.hpp"
#include "devsim/roofline.hpp"
#include "fault/fault.hpp"
#include "models/registry.hpp"
#include "nn/engine.hpp"
#include "nn/profile.hpp"
#include "runtime/model_server.hpp"
#include "tensor/fault_hook.hpp"

using namespace ocb;

namespace {

using Clock = std::chrono::steady_clock;

template <typename F>
double seconds_once(F&& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SweepPoint {
  double flip_prob = 0.0;
  std::size_t flips = 0;
  double max_abs_diff = 0.0;
  double rel_err = 0.0;
};

struct RecoveryResult {
  std::size_t flips = 0;
  int mismatch_nodes = 0;
  bool detected = false;
  double max_abs_diff_corrupt = 0.0;
  double max_abs_diff_after = -1.0;  ///< must land exactly at 0.0
};

struct QuarantineResult {
  int frames_to_quarantine = -1;  ///< first kDegraded answer (request idx)
  int readmit_frame = -1;         ///< first kOk after the quarantine
  bool readmitted = false;
  std::uint64_t quarantines = 0;
  std::uint64_t reloads = 0;
  std::uint64_t unhealthy_batches = 0;
};

struct ModelFaultResult {
  std::string name;
  double clean_ns_frame = 0.0;
  double verify_ns_frame = 0.0;
  double verify_overhead_pct = 0.0;  ///< median pair ratio - 1, floored at 0
  std::uint64_t warm_allocs = 0;     ///< verify-enabled warmed frame
  std::vector<SweepPoint> sweep;
  RecoveryResult recovery;
  QuarantineResult quarantine;
};

/// max |a-b| and sum|a-b| / sum|a| across all outputs.
void output_divergence(const std::vector<Tensor>& ref,
                       const std::vector<Tensor>& got, double& max_abs,
                       double& rel) {
  max_abs = 0.0;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t o = 0; o < ref.size(); ++o) {
    for (std::size_t i = 0; i < ref[o].numel(); ++i) {
      const double a = ref[o][i];
      const double b = got[o][i];
      const double d = std::fabs(a - b);
      if (std::isfinite(d)) max_abs = std::max(max_abs, d);
      num += std::isfinite(d) ? d : 1.0;
      den += std::fabs(a);
    }
  }
  rel = den > 0.0 ? num / den : num;
}

ModelFaultResult bench_model(models::ModelId id, double input_scale,
                             double min_seconds, int verify_cadence) {
  const nn::Graph graph = models::build_model(id, input_scale);
  ModelFaultResult result;
  result.name = models::model_info(id).name;

  const nn::FeatShape in = graph.input_shape();
  Tensor input({1, in.c, in.h, in.w});
  Rng rng(3);
  input.init_uniform(rng, 0.0f, 1.0f);

  // --- (a) verify-cadence overhead: clean engine vs twin with the
  // round-robin checksum tick enabled. Interleaved pair sampling (see
  // bench_fusion.cpp) keeps the ratio drift-free on shared hosts.
  nn::Engine clean(graph, 5);
  clean.prepare(nn::PlanRequest{});
  nn::Engine verified(graph, 5);
  {
    nn::PlanRequest req;
    req.integrity.verify_every = verify_cadence;
    verified.prepare(req);
  }
  const std::vector<Tensor> ref = clean.run(input);  // copy: snapshot
  (void)verified.run(input);                         // warm

  {
    // The warmed verify-enabled frame path must stay off the allocator:
    // the CRC sweep is table-driven and heap-free (core/crc32.hpp).
    AllocGuard guard;
    (void)verified.run(input);
    result.warm_allocs = guard.allocations();
  }

  double clean_s = 0.0;
  double verify_s = 0.0;
  std::vector<double> ratios;
  while (clean_s + verify_s < 2.0 * min_seconds || ratios.size() < 9) {
    // Alternate which twin runs first so clock drift / turbo decay
    // cancels out of the pair ratio instead of biasing it.
    double c, v;
    if (ratios.size() % 2 == 0) {
      c = seconds_once([&] { clean.run(input); });
      v = seconds_once([&] { verified.run(input); });
    } else {
      v = seconds_once([&] { verified.run(input); });
      c = seconds_once([&] { clean.run(input); });
    }
    clean_s += c;
    verify_s += v;
    ratios.push_back(c > 0.0 ? v / c : 1.0);
  }
  const auto mid =
      ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  result.verify_overhead_pct = std::max(0.0, (*mid - 1.0) * 100.0);
  result.clean_ns_frame = clean_s / static_cast<double>(ratios.size()) * 1e9;
  result.verify_ns_frame =
      verify_s / static_cast<double>(ratios.size()) * 1e9;

  // --- (b) fault-rate sweep: corrupt, measure divergence, recover.
  for (const double prob : {1e-7, 1e-6, 1e-5}) {
    fault::FaultPlan plan;
    plan.seed = 0xFA017;
    plan.weight_flip_prob = prob;
    fault::FaultInjector injector(plan);
    SweepPoint point;
    point.flip_prob = prob;
    point.flips = injector.corrupt_engine(clean);
    const std::vector<Tensor> got = clean.run(input);
    output_divergence(ref, got, point.max_abs_diff, point.rel_err);
    result.sweep.push_back(point);
    clean.verify_weights(/*recover=*/true);  // restore between points
  }

  // --- (c) detection + bit-exact recovery at the heaviest rate. Walk
  // seeds until the Bernoulli draw actually lands flips (tiny models
  // at low rates can draw zero).
  {
    fault::FaultPlan plan;
    plan.weight_flip_prob = 1e-5;
    for (std::uint64_t seed = 1;; ++seed) {
      plan.seed = seed;
      fault::FaultInjector injector(plan);
      result.recovery.flips = injector.corrupt_engine(clean);
      if (result.recovery.flips > 0) break;
    }
    result.recovery.mismatch_nodes = clean.verify_weights(/*recover=*/false);
    result.recovery.detected = result.recovery.mismatch_nodes > 0;
    const std::vector<Tensor> corrupt = clean.run(input);
    double rel = 0.0;
    output_divergence(ref, corrupt, result.recovery.max_abs_diff_corrupt,
                      rel);
    clean.verify_weights(/*recover=*/true);
    const std::vector<Tensor> after = clean.run(input);
    output_divergence(ref, after, result.recovery.max_abs_diff_after, rel);
  }

  // --- (d) quarantine state machine: a served model whose checksum
  // sweep fails is quarantined, cooled down, reloaded and re-admitted.
  {
    nn::Engine served(graph, 5);
    served.prepare(nn::PlanRequest{});
    runtime::ModelServer server(runtime::ServerConfig{});
    runtime::ServedModelConfig cfg;
    cfg.name = result.name;
    cfg.max_batch = 1;
    cfg.batch_window_ms = 0.0;
    cfg.degraded_cooldown = 2;
    cfg.quarantine_after = 1;
    nn::IntegrityConfig integrity;
    integrity.verify_every = 1;
    const int handle = server.add_model(
        cfg, std::make_unique<runtime::EngineBatchRunner>(
                 served, cfg.max_batch, nn::FusionConfig{}, integrity));

    fault::FaultPlan plan;
    plan.seed = 7;
    plan.weight_flip_prob = 1e-4;
    fault::FaultInjector injector(plan);
    while (injector.corrupt_engine(served) == 0) {
    }

    const auto shared_input = std::make_shared<const Tensor>(input);
    for (int frame = 0; frame < 8; ++frame) {
      runtime::ServeRequest request;
      request.frame = frame;
      request.input = shared_input;
      const runtime::ServeResult r = server.serve(handle, request);
      if (r.outcome == runtime::ServeOutcome::kDegraded &&
          result.quarantine.frames_to_quarantine < 0)
        result.quarantine.frames_to_quarantine = frame;
      if (r.outcome == runtime::ServeOutcome::kOk &&
          result.quarantine.frames_to_quarantine >= 0 &&
          result.quarantine.readmit_frame < 0) {
        result.quarantine.readmit_frame = frame;
        result.quarantine.readmitted = true;
      }
    }
    const runtime::ServerReport report = server.report();
    result.quarantine.quarantines = report.models[0].quarantines;
    result.quarantine.reloads = report.models[0].reloads;
    result.quarantine.unhealthy_batches = report.models[0].unhealthy_batches;
    server.shutdown();
  }

  return result;
}

struct DevsimResult {
  std::string device;
  std::string model;
  double healthy_ms = 0.0;
  double thermal_ms = 0.0;    ///< compute_scale 0.5
  double bandwidth_ms = 0.0;  ///< bandwidth_scale 0.3
};

DevsimResult bench_devsim(models::ModelId id) {
  DevsimResult r;
  const models::ModelInfo& info = models::model_info(id);
  const nn::Graph graph = models::build_model(id);
  const nn::ModelProfile profile = nn::profile_graph(graph, info.name);
  const devsim::DeviceSpec& device = devsim::device_by_short_name("o-nano");
  r.device = device.short_name;
  r.model = info.name;
  r.healthy_ms = devsim::model_latency_ms(profile, device);
  devsim::Degradation thermal;
  thermal.compute_scale = 0.5;
  r.thermal_ms =
      devsim::model_latency_ms(profile, devsim::degraded(device, thermal));
  devsim::Degradation collapse;
  collapse.bandwidth_scale = 0.3;
  r.bandwidth_ms =
      devsim::model_latency_ms(profile, devsim::degraded(device, collapse));
  return r;
}

/// Stuck-lane demonstration: arm lane 3 at 0.0f, run a small packed
/// GEMM, count the elements the hook overwrote. No-op (0 corrupted)
/// when OCB_FAULT_HOOKS is compiled out.
std::uint64_t lane_fault_demo() {
  if (!fault_hook::compiled()) return 0;
  const std::size_t m = 8, k = 8, n = 32;
  std::vector<float> a(m * k, 1.0f), b(k * n, 1.0f), c(m * n, 0.0f);
  PackedA packed(a.data(), m, k);
  fault::FaultPlan plan;
  plan.stuck_lane = 3;
  plan.stuck_value = 0.0f;
  fault::FaultInjector injector(plan);
  const std::uint64_t before = fault_hook::corrupted_elements();
  injector.arm_lane_fault();
  gemm_packed(packed, b.data(), c.data(), n);
  fault::FaultInjector::disarm_lane_fault();
  return fault_hook::corrupted_elements() - before;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_fault",
          "fault-injection sweep: checksum verify overhead, bit-flip "
          "degradation curves, detection/recovery and the serving "
          "quarantine state machine");
  bench::add_common_flags(cli);
  cli.add_double("min-seconds", 0.2,
                 "minimum sampling time per measurement point");
  cli.add_double("input-scale", 0.3,
                 "registry model input scale (1.0 = deployment resolution)");
  cli.add_int("verify-cadence", 4,
              "frames between round-robin panel checksum verifications");
  cli.add_string("out", "BENCH_fault.json",
                 "machine-readable output path (empty disables)");
  if (!cli.parse(argc, argv)) return 0;
  bench::apply_common_flags(cli);
  const double min_seconds = cli.real("min-seconds");
  const double input_scale = cli.real("input-scale");
  const int verify_cadence = static_cast<int>(cli.integer("verify-cadence"));

  // Two model sizes so the fault-rate x model-size interaction is on
  // the curve: more weights at the same per-element rate mean more
  // absolute flips and faster accuracy collapse.
  const std::vector<models::ModelId> ids = {models::ModelId::kYoloV8n,
                                            models::ModelId::kYoloV8m};

  std::vector<ModelFaultResult> results;
  for (models::ModelId id : ids)
    results.push_back(
        bench_model(id, input_scale, min_seconds, verify_cadence));

  const DevsimResult devsim_result = bench_devsim(models::ModelId::kYoloV8n);
  const std::uint64_t lane_corrupted = lane_fault_demo();

  bench::Records records;
  ResultTable table("Fault injection: verify overhead, detection, recovery",
                    {"model", "clean ms", "verify ms", "overhead %",
                     "warm allocs", "flips", "detected", "|diff| after",
                     "quarantine@", "readmit@"});
  for (const ModelFaultResult& r : results) {
    records.add(r.name, "clean", "ns_frame", r.clean_ns_frame, "ns");
    records.add(r.name, "verify", "ns_frame", r.verify_ns_frame, "ns");
    records.add(r.name, "verify", "verify_cadence", verify_cadence, "frames");
    records.add(r.name, "verify", "verify_overhead_pct", r.verify_overhead_pct,
                "%");
    records.add(r.name, "verify", "warm_allocs", r.warm_allocs, "count");
    for (const SweepPoint& p : r.sweep) {
      std::ostringstream variant;
      variant << "flip_prob=" << p.flip_prob;
      records.add(r.name, variant.str(), "flips", p.flips, "count");
      records.add(r.name, variant.str(), "max_abs_diff", p.max_abs_diff,
                  "abs");
      records.add(r.name, variant.str(), "rel_err", p.rel_err, "ratio");
    }
    const RecoveryResult& rec = r.recovery;
    records.add(r.name, "recovery", "flips", rec.flips, "count");
    records.add(r.name, "recovery", "mismatch_nodes", rec.mismatch_nodes,
                "count");
    records.add(r.name, "recovery", "detected", rec.detected, "bool");
    records.add(r.name, "recovery", "max_abs_diff_corrupt",
                rec.max_abs_diff_corrupt, "abs");
    records.add(r.name, "recovery", "max_abs_diff_after",
                rec.max_abs_diff_after, "abs");
    const QuarantineResult& q = r.quarantine;
    records.add(r.name, "quarantine", "frames_to_quarantine",
                q.frames_to_quarantine, "frames");
    records.add(r.name, "quarantine", "readmit_frame", q.readmit_frame,
                "frames");
    records.add(r.name, "quarantine", "readmitted", q.readmitted, "bool");
    records.add(r.name, "quarantine", "quarantines", q.quarantines, "count");
    records.add(r.name, "quarantine", "reloads", q.reloads, "count");
    records.add(r.name, "quarantine", "unhealthy_batches",
                q.unhealthy_batches, "count");
    table.row()
        .cell(r.name)
        .cell(r.clean_ns_frame * 1e-6, 3)
        .cell(r.verify_ns_frame * 1e-6, 3)
        .cell(r.verify_overhead_pct, 2)
        .cell(static_cast<double>(r.warm_allocs), 0)
        .cell(static_cast<double>(r.recovery.flips), 0)
        .cell(r.recovery.detected ? "yes" : "NO")
        .cell(r.recovery.max_abs_diff_after, 7)
        .cell(static_cast<double>(r.quarantine.frames_to_quarantine), 0)
        .cell(static_cast<double>(r.quarantine.readmit_frame), 0);
  }
  ResultTable degr("Devsim degradation modes (o-nano, YOLOv8-n)",
                   {"mode", "latency ms", "slowdown"});
  degr.row().cell("healthy").cell(devsim_result.healthy_ms, 2).cell(1.0, 2);
  degr.row()
      .cell("thermal x0.5")
      .cell(devsim_result.thermal_ms, 2)
      .cell(devsim_result.thermal_ms / devsim_result.healthy_ms, 2);
  degr.row()
      .cell("bandwidth x0.3")
      .cell(devsim_result.bandwidth_ms, 2)
      .cell(devsim_result.bandwidth_ms / devsim_result.healthy_ms, 2);
  bench::emit(cli, {table, degr});

  const std::string devsim_subject =
      devsim_result.device + "/" + devsim_result.model;
  records.add(devsim_subject, "healthy", "latency_ms", devsim_result.healthy_ms,
              "ms");
  records.add(devsim_subject, "thermal", "latency_ms", devsim_result.thermal_ms,
              "ms");
  records.add(devsim_subject, "thermal", "slowdown",
              devsim_result.thermal_ms / devsim_result.healthy_ms, "x");
  records.add(devsim_subject, "bandwidth", "latency_ms",
              devsim_result.bandwidth_ms, "ms");
  records.add(devsim_subject, "bandwidth", "slowdown",
              devsim_result.bandwidth_ms / devsim_result.healthy_ms, "x");
  records.add("stuck-lane", "lane3", "corrupted_elements", lane_corrupted,
              "count");
  records.write(cli.string("out"), "fault");
  return 0;
}
