// Pixels-to-alert benchmark.
//
//   ocb_perfbench --workload <deploy_closed|feed_5fps|replay_batched>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir DIR] [--cache-dir DIR]
//                 [--git-sha SHA] [--source-digest HEX]
//
// Order of a run: generate inputs from --seed (no timer running), set
// the engines up several times (setup_s is the median), measure for
// --seconds, run the correctness gate, write a result file stamped
// with provenance, print every metric by name and unit, and print one
// JSON object as the last line. With --trace 1 the run first measures
// untraced, then measures again with spans on, reports the per-layer
// metrics and the tracing overhead, and writes a Chrome trace-event
// file. Exit code 1 when the gate or a per-frame check failed, 2 on a
// usage error.
#include <malloc.h>
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "gate.hpp"
#include "nn/conv_plan.hpp"
#include "nn/profile.hpp"
#include "tensor/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ocb;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  std::string cache_dir = ".bench_build/cache";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ocb_perfbench: " << why
            << "\nusage: ocb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--cache-dir DIR] "
               "[--git-sha SHA] [--source-digest HEX]\nworkloads:";
  for (const WorkloadSpec& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      const auto r = std::from_chars(value.data(), value.data() + value.size(), a.seed);
      if (r.ec != std::errc() || r.ptr != value.data() + value.size())
        usage("bad --seed " + value);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value.c_str());
      if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("bad --seconds " + value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else if (key == "--cache-dir") {
      a.cache_dir = value;
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (find_workload(a.workload) == nullptr)
    usage("unknown --workload '" + a.workload + "'");
  return a;
}

// --- process memory ----------------------------------------------------

/// Resets the kernel's resident-set high-water mark to the current RSS;
/// false where /proc does not support it.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM in bytes; the process-lifetime getrusage peak where /proc has
/// no VmHWM.
double peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) * 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

// --- JSON --------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream s;
  s << std::setprecision(15) << v;
  return s.str();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + quote(ms[i].name) + ": {\"value\": " +
           number(ms[i].value) + ", \"unit\": " + quote(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string provenance_json(const Args& a, const WorkloadSpec& spec) {
  std::ostringstream s;
  s << "{\"git_sha\": " << quote(a.git_sha)
    << ", \"source_digest\": " << quote(a.source_digest)
    << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
    << ", \"flags\": " << quote(PERFBENCH_FLAGS)
    << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
    << ", \"ocb_options\": " << quote(PERFBENCH_OCB_OPTIONS)
    << ", \"simd\": " << quote(simd::level_name(simd::active()))
    << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": " << quote(cpu_model())
    << ", \"workload\": " << quote(spec.name)
    << ", \"input_scale\": " << number(spec.scale)
    << ", \"frame\": " << quote(std::to_string(spec.frame_w) + "x" +
                                std::to_string(spec.frame_h))
    << ", \"seed\": " << a.seed << ", \"seconds\": " << number(a.seconds)
    << ", \"trace\": " << (a.trace ? 1 : 0) << "}";
  return s.str();
}

// --- per-layer metrics from spans ----------------------------------------

struct SpanStats {
  std::map<std::string, std::vector<double>> duration_ms;  ///< by span name
  /// Per-frame self time summed by layer: layer → frame → ms.
  std::map<std::string, std::map<int, double>> self_ms;
};

SpanStats span_stats(const std::vector<SpanRecord>& recs) {
  SpanStats s;
  const std::vector<double> self = self_times_ms(recs);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const SpanRecord& r = recs[i];
    if (r.end_ns < 0) continue;
    s.duration_ms[r.name].push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    s.self_ms[layer_of(r.name)][r.frame] += self[i];
  }
  return s;
}

double median_of_frames(const std::map<int, double>& per_frame) {
  std::vector<double> v;
  for (const auto& [frame, ms] : per_frame) v.push_back(ms);
  return median(v);
}

/// Per-layer metrics of a traced measurement (perfbench/README.md).
std::vector<Metric> per_layer_metrics(const Measurement& m,
                                      const Tracer& tracer,
                                      const Engines& engines,
                                      const SetupReport& setup,
                                      double prepare_s,
                                      double untraced_p50) {
  std::vector<Metric> out;
  const SpanStats ss = span_stats(tracer.records());
  const auto dur = [&](const std::string& name) {
    const auto it = ss.duration_ms.find(name);
    return it == ss.duration_ms.end() ? 0.0 : median(it->second);
  };
  const auto self = [&](const std::string& layer_name) {
    const auto it = ss.self_ms.find(layer_name);
    return it == ss.self_ms.end() ? 0.0 : median_of_frames(it->second);
  };
  const double frames = std::max(1.0, static_cast<double>(m.frames.size()));
  const double traced_p50 = median(m.latencies());
  out.push_back({"image.prep_ms", self("image"), "ms"});
  std::vector<double> model_ms(kModelCount);
  for (int model = 0; model < kModelCount; ++model) {
    const std::string key = model_key(model);
    const double run_ms = dur("nn.run." + key);
    const double batch_ms = dur("nn.run_batch." + key);
    out.push_back({"nn." + key + "_ms", run_ms, "ms"});
    out.push_back({"nn.batch." + key + "_ms", batch_ms, "ms"});
    // Per-frame engine time: a run, or a batch shared by its frames.
    const auto mb = static_cast<std::size_t>(model);
    model_ms[mb] = run_ms > 0.0 ? run_ms
                   : mb < m.model_mean_batch.size() && m.model_mean_batch[mb] > 0
                       ? batch_ms / m.model_mean_batch[mb]
                       : 0.0;
  }
  out.push_back({"nn.prepare_s", prepare_s, "s"});
  const double lookups = static_cast<double>(setup.cache_hits + setup.cache_misses);
  out.push_back({"nn.plan_cache_hit_ratio",
                   lookups > 0 ? static_cast<double>(setup.cache_hits) / lookups : 0.0,
                   "ratio"});
  out.push_back({"nn.arena_mb", static_cast<double>(setup.arena_bytes) / 1e6, "MB"});
  for (int model = 0; model < kModelCount; ++model) {
    const nn::ModelProfile prof = nn::profile_graph(
        engines.at(model).graph(), model_key(model));
    double bytes = 0.0;
    for (const nn::LayerProfile& l : prof.layers)
      bytes += static_cast<double>(l.in_bytes + l.out_bytes + l.weight_bytes);
    const double gflop = prof.total_flops() / 1e9;
    const double ms = model_ms[static_cast<std::size_t>(model)];
    const std::string key = std::string("tensor.") + model_key(model);
    out.push_back({key + ".gflop", gflop, "GFLOP"});
    out.push_back({key + ".mb_moved", bytes / 1e6, "MB"});
    out.push_back({key + ".gflops", ms > 0 ? gflop / (ms / 1e3) : 0.0, "GFLOP/s"});
  }
  out.push_back({"detect.post_ms", self("detect"), "ms"});
  out.push_back({"detect.kept_ratio",
                   m.decoded ? static_cast<double>(m.kept) / static_cast<double>(m.decoded) : 0.0,
                   "ratio"});
  out.push_back({"vip.post_ms", self("vip"), "ms"});
  const double vip_frames = std::max<double>(1.0, static_cast<double>(m.vip.frames()));
  out.push_back({"vip.track_locked_pct",
                   100.0 * static_cast<double>(m.vip.locked_frames()) / vip_frames, "%"});
  out.push_back({"vip.alerts_raised", static_cast<double>(m.vip.alerts().size()), "count"});
  out.push_back({"vip.alerts_suppressed", static_cast<double>(m.vip.suppressed()), "count"});
  out.push_back({"vip.implausible_frames", static_cast<double>(m.vip.implausible_frames()), "count"});
  out.push_back({"runtime.queue_wait_ms", median(m.queue_wait_ms), "ms"});
  out.push_back({"runtime.queue_hwm", static_cast<double>(m.queue_hwm), "count"});
  out.push_back({"runtime.dropped", static_cast<double>(m.runtime_dropped), "count"});
  out.push_back({"runtime.server_queue_ms", median(m.server_queue_ms), "ms"});
  out.push_back({"runtime.mean_batch", m.mean_batch, "count"});
  out.push_back({"runtime.degraded", static_cast<double>(m.runtime_degraded), "count"});
  out.push_back({"parallel.tasks_per_frame", m.pool_tasks / frames, "count"});
  out.push_back({"load.lag_p95_ms", quantile(m.lag_ms, 0.95), "ms"});
  out.push_back({"trace.overhead_ms", traced_p50 - untraced_p50, "ms"});
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec& spec = *find_workload(args.workload);
  const std::string prov = provenance_json(args, spec);
  std::cout << "# perfbench " << spec.name << ": " << spec.why << '\n'
            << "# provenance " << prov << '\n';

  // 1. Inputs: a pure function of --seed; no timer runs yet.
  const auto gen0 = std::chrono::steady_clock::now();
  const Inputs inputs =
      generate_inputs(args.seed, spec.frame_w, spec.frame_h, spec.pool_frames,
                      args.cache_dir, args.source_digest.substr(0, 12));
  std::cout << "# inputs: " << inputs.pool.size() << " frames "
            << spec.frame_w << "x" << spec.frame_h << ", detector "
            << (inputs.detector_from_cache ? "from cache" : "trained")
            << ", generated in "
            << std::chrono::duration<double>(std::chrono::steady_clock::now() - gen0).count()
            << " s\n";
  malloc_trim(0);
  const bool rss_reset = reset_peak_rss();

  // 2. Set-up, several times from a cold plan cache; setup_s is the median.
  std::unique_ptr<Engines> engines;
  std::vector<double> setup_s, prepare_s;
  SetupReport setup;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    engines.reset();
    nn::PlanCache::global().clear();
    const auto t0 = std::chrono::steady_clock::now();
    engines = std::make_unique<Engines>(*inputs.detector, spec.scale, spec.max_batch);
    VipState warm_vip;
    ModelInputs warm_in;
    run_chain(*engines, inputs, warm_vip, inputs.pool[0].image, 0, warm_in);
    setup_s.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    setup = engines->setup();
    prepare_s.push_back(setup.prepare_s);
  }

  // 3. Measure untraced: the end-to-end metrics come from this phase.
  Measurement m = measure(spec, *engines, inputs, args.seconds);
  const double peak_rss = peak_rss_bytes();
  const double untraced_p50 = median(m.latencies());

  // 3b. Traced run: measure again with spans on.
  std::unique_ptr<Tracer> tracer;
  if (args.trace) {
    tracer = std::make_unique<Tracer>(std::size_t{1} << 18);
    Tracer::install(tracer.get());
    m = measure(spec, *engines, inputs, args.seconds);
    Tracer::install(nullptr);
  }

  // 4. Correctness gate (never timed); its failures count per frame.
  const auto gate0 = std::chrono::steady_clock::now();
  const GateResult gate = run_gate(spec, *engines, inputs, m);
  const double gate_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - gate0).count();
  for (const int f : gate.failed_frames)
    if (f >= 0 && static_cast<std::size_t>(f) < m.frames.size())
      m.frames[static_cast<std::size_t>(f)].check_failed = true;
  const FailureCount fc = count_failures(m.frames, kDeadlineMs);
  const bool correct = gate.ok() && fc.check_failed == 0;

  // 5. Metrics.
  const std::vector<double> lat = m.latencies();
  const double completed = static_cast<double>(fc.completed);
  const double p50 = median(lat);
  const std::optional<double> p95 = tail_quantile(lat, 0.95);
  std::vector<Metric> e2e = {
      {"alert_latency_p50_ms", p50, "ms"},
      {"frames_per_s", completed / m.wall_s, "1/s"},
      {"cpu_ms_per_frame", completed > 0 ? 1e3 * m.cpu_s / completed : 0.0, "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb",
       (peak_rss - static_cast<double>(inputs.pool_bytes)) / 1e6, "MB"},
  };

  const std::vector<Metric> layer =
      args.trace ? per_layer_metrics(m, *tracer, *engines, setup,
                                     median(prepare_s), untraced_p50)
                 : std::vector<Metric>{};

  // 6. Result file, trace file, human-readable report.
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + spec.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::vector<Metric> reported = e2e;
  reported.push_back({"frames_failed_pct", fc.failed_pct(), "%"});
  if (p95) reported.push_back({"alert_latency_p95_ms", *p95, "ms"});
  {
    std::ofstream out(stem + ".json");
    out << "{\"provenance\": " << prov << ", \"correct\": "
        << (correct ? "true" : "false") << ", \"offered\": " << fc.offered
        << ", \"completed\": " << fc.completed << ", \"dropped\": " << fc.dropped
        << ", \"degraded\": " << fc.degraded
        << ", \"deadline_missed\": " << fc.deadline_missed
        << ", \"check_failed\": " << fc.check_failed
        << ", \"peak_rss_reset\": " << (rss_reset ? "true" : "false")
        << ", \"gate_worst_rel_err\": " << number(gate.worst_rel_err)
        << ", \"latencies_ms\": [";
    for (std::size_t i = 0; i < lat.size(); ++i) out << (i ? ", " : "") << number(lat[i]);
    out << "], \"setup_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) out << (i ? ", " : "") << number(setup_s[i]);
    out << "], \"end_to_end\": " << metrics_json(reported)
        << ", \"per_layer\": " << metrics_json(layer) << "}\n";
  }
  if (args.trace) {
    std::ofstream out(stem + ".trace.json");
    tracer->write_chrome_json(out, prov);
    std::cout << "# trace: " << stem << ".trace.json ("
              << tracer->records().size() << " spans, "
              << tracer->overflow() << " over capacity)\n";
  }

  std::cout << "# frames offered " << fc.offered << ", completed "
            << fc.completed << ", dropped " << fc.dropped << ", degraded "
            << fc.degraded << ", over " << kDeadlineMs << " ms "
            << fc.deadline_missed << ", check failures " << fc.check_failed
            << "\n# gate: engines vs default plan worst rel err "
            << gate.worst_rel_err << ", detector frames " << gate.detector_frames
            << ", alert replay " << (gate.alerts_replayed ? "checked" : "not run")
            << ", " << gate_s << " s\n";
  for (const std::string& f : gate.failures) std::cout << "# GATE FAILED: " << f << '\n';
  for (const Metric& x : reported)
    std::cout << x.name << " " << number(x.value) << " " << x.unit << '\n';
  if (!p95)
    std::cout << "alert_latency_p95_ms n/a (" << lat.size()
              << " completed frames; reported from " << kTailMinSamples
              << " with " << kTailMinBeyond << " beyond it)\n";
  for (const Metric& x : layer)
    std::cout << x.name << " " << number(x.value) << " " << x.unit << '\n';
  std::cout << "# result: " << stem << ".json\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << fc.offered << ", \"failed\": "
            << fc.op_failed << ", \"metrics\": "
            << metrics_json(args.trace ? layer : e2e) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ocb_perfbench: " << e.what() << '\n';
    return 3;
  }
}
