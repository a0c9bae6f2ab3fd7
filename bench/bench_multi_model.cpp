// Multi-model serving: dynamic micro-batching vs frame-at-a-time.
//
// The paper's concurrent-execution measurements (Table 3) run the VIP
// model suite — vest detection, body pose, depth — against one GPU and
// watch per-model latency degrade. This bench reproduces that setup on
// the ModelServer scheduler: three clients flood their models through
// one worker slot (one accelerator) with roofline-modelled batch
// latencies for the chosen device, once with micro-batching disabled
// (max_batch 1) and once enabled (max_batch 8 + coalescing window).
//
// Reported: aggregate throughput in both modes and the batched/
// unbatched speedup (expected >= 1.5x on devices with meaningful
// per-launch overhead), plus per-model p99 serve latency, which must
// order by priority class: detection (critical) < pose (high) <
// depth (normal).
//
// The modelled timeline replays at `time-scale` real seconds per
// stream second; all reported numbers are stream-clock ms. Writes the
// BENCH_multi_model.json record file that
// scripts/check_bench_regression.py gates.
#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "devsim/device.hpp"
#include "models/registry.hpp"
#include "runtime/model_server.hpp"

using namespace ocb;
using namespace ocb::runtime;

namespace {

using Clock = std::chrono::steady_clock;

struct ServedModel {
  models::ModelId id;
  const char* role;
  ServePriority priority;
};

// The Ocularone hazard hierarchy (§IV): vest detection outranks pose,
// pose outranks depth.
constexpr ServedModel kSuite[] = {
    {models::ModelId::kYoloV8n, "detection", ServePriority::kCritical},
    {models::ModelId::kTrtPose, "pose", ServePriority::kHigh},
    {models::ModelId::kMonodepth2, "depth", ServePriority::kNormal},
};

struct ScenarioResult {
  double makespan_ms = 0.0;      ///< stream-clock, first submit -> last resolve
  double aggregate_fps = 0.0;    ///< all models' completed frames / makespan
  ServerReport report;
};

ScenarioResult run_scenario(const devsim::DeviceSpec& device, int frames,
                            int max_batch, double window_ms,
                            double time_scale) {
  ServerConfig server_config;
  server_config.workers = 1;  // one accelerator: batches serialise
  server_config.time_scale = time_scale;
  ModelServer server(server_config);

  std::vector<int> handles;
  for (const ServedModel& m : kSuite) {
    SimulatedBatchModel sim;
    sim.profile = models::profile_model(m.id);
    sim.device = device;
    sim.occupancy_time_scale = time_scale;  // occupy the worker slot
    ServedModelConfig config;
    config.name = m.role;
    config.priority = m.priority;
    config.max_batch = max_batch;
    config.batch_window_ms = window_ms;
    config.queue_capacity = 16;
    config.admission = DropPolicy::kBlock;  // lossless: compare throughput
    handles.push_back(server.add_model(
        config, std::make_unique<SimulatedBatchRunner>(sim)));
  }

  const auto t0 = Clock::now();
  // One flooding client per model: each offers its whole frame budget
  // as fast as admission lets it, the contention regime of Table 3.
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<ServeResult>>> futures(handles.size());
  for (std::size_t m = 0; m < handles.size(); ++m) {
    futures[m].reserve(static_cast<std::size_t>(frames));
    clients.emplace_back([&, m] {
      for (int f = 0; f < frames; ++f) {
        ServeRequest request;
        request.frame = f;
        futures[m].push_back(server.submit(handles[m], request));
      }
    });
  }
  for (std::thread& c : clients) c.join();

  std::uint64_t completed = 0;
  for (auto& model_futures : futures)
    for (auto& future : model_futures)
      if (future.get().outcome == ServeOutcome::kOk) ++completed;
  const double real_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  ScenarioResult result;
  result.makespan_ms = real_ms / time_scale;
  result.aggregate_fps =
      static_cast<double>(completed) / (result.makespan_ms / 1000.0);
  result.report = server.report();
  server.shutdown();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_multi_model",
          "multi-model serving scheduler: micro-batching vs frame-at-a-time "
          "under single-accelerator contention");
  bench::add_common_flags(cli);
  cli.add_int("frames", 240, "frames each client offers its model");
  cli.add_int("max-batch", 8, "micro-batch ceiling in the batched run");
  cli.add_double("window-ms", 4.0,
                 "batch coalescing window, stream-clock ms (batched run)");
  cli.add_double("time-scale", 0.02,
                 "real seconds per stream second (smaller = faster replay)");
  cli.add_string("device", "rtx4090", "devsim device for the latency model");
  cli.add_string("out", "BENCH_multi_model.json",
                 "machine-readable output path (empty disables)");
  if (!cli.parse(argc, argv)) return 0;
  bench::apply_common_flags(cli);

  const devsim::DeviceSpec& device =
      devsim::device_by_short_name(cli.string("device"));
  const int frames = static_cast<int>(cli.integer("frames"));
  const double time_scale = cli.real("time-scale");

  const ScenarioResult unbatched =
      run_scenario(device, frames, /*max_batch=*/1, /*window_ms=*/0.0,
                   time_scale);
  const ScenarioResult batched = run_scenario(
      device, frames, static_cast<int>(cli.integer("max-batch")),
      cli.real("window-ms"), time_scale);
  const double speedup = unbatched.aggregate_fps > 0.0
                             ? batched.aggregate_fps / unbatched.aggregate_fps
                             : 0.0;

  ResultTable summary(
      "Aggregate throughput, 3 models on one " + std::string(device.name) +
          " slot (" + std::to_string(frames) + " frames/model)",
      {"mode", "makespan ms", "aggregate fps", "speedup"});
  summary.row()
      .cell("frame-at-a-time")
      .cell(unbatched.makespan_ms, 1)
      .cell(unbatched.aggregate_fps, 1)
      .cell(1.0, 2);
  summary.row()
      .cell("micro-batched")
      .cell(batched.makespan_ms, 1)
      .cell(batched.aggregate_fps, 1)
      .cell(speedup, 2);

  ResultTable per_model(
      "Per-model serving telemetry (batched run)",
      {"model", "priority", "mean batch", "max batch", "q-hwm",
       "p99 serve ms", "p99 unbatched"});
  for (std::size_t i = 0; i < batched.report.models.size(); ++i) {
    const ModelServeTelemetry& b = batched.report.models[i];
    per_model.row()
        .cell(b.name)
        .cell(serve_priority_name(b.priority))
        .cell(b.mean_batch(), 2)
        .cell(static_cast<double>(b.largest_batch), 0)
        .cell(static_cast<double>(b.queue_high_water), 0)
        .cell(b.serve_ms.p99(), 2)
        .cell(unbatched.report.models[i].serve_ms.p99(), 2);
  }

  bench::emit(cli, {summary, per_model});
  std::cout << batched.report.to_text() << '\n';

  // The suite's aggregate records carry the device as their subject;
  // each model's `priority` record is its class rank (0 = critical).
  bench::Records records;
  const std::string suite = device.name;
  records.add(suite, "", "frames_per_model", frames, "frames");
  for (const auto& [mode, result] :
       {std::pair{"unbatched", &unbatched}, std::pair{"batched", &batched}}) {
    records.add(suite, mode, "makespan_ms", result->makespan_ms, "ms");
    records.add(suite, mode, "aggregate_fps", result->aggregate_fps, "1/s");
  }
  records.add(suite, "batched", "throughput_speedup", speedup, "x");
  for (std::size_t i = 0; i < batched.report.models.size(); ++i) {
    const ModelServeTelemetry& b = batched.report.models[i];
    records.add(b.name, "", "priority", static_cast<int>(b.priority),
                "rank");
    records.add(b.name, "batched", "mean_batch", b.mean_batch(), "frames");
    records.add(b.name, "batched", "largest_batch", b.largest_batch,
                "frames");
    records.add(b.name, "batched", "p99_serve_ms", b.serve_ms.p99(), "ms");
    records.add(b.name, "unbatched", "p99_serve_ms",
                unbatched.report.models[i].serve_ms.p99(), "ms");
  }
  records.write(cli.string("out"), "multi_model");
  return 0;
}
