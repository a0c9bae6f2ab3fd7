// Kernel-layer benchmark: packed SIMD GEMM vs the scalar fallback.
//
// Measures (a) GFLOP/s on conv-representative GEMM shapes — tall-skinny
// [out_c × in_c·k·k] by wide [in_c·k·k × oh·ow] matrices like the ones
// im2col produces — and (b) end-to-end Engine::run ns/frame for the
// Ocularone VIP models at a reduced input scale, with the SIMD
// dispatcher forced off and on. Emits the aligned tables plus the
// BENCH_kernels.json record file that scripts/check_bench_regression.py
// gates in CI.
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "models/registry.hpp"
#include "nn/engine.hpp"
#include "nn/quantize.hpp"
#include "tensor/gemm.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/simd.hpp"

using namespace ocb;

namespace {

using Clock = std::chrono::steady_clock;

/// Run `body` repeatedly until `min_seconds` of wall time accumulates
/// (at least twice), returning the best per-iteration seconds observed.
template <typename F>
double best_seconds(F&& body, double min_seconds) {
  double best = 1e300;
  double total = 0.0;
  int iters = 0;
  while (total < min_seconds || iters < 2) {
    const auto t0 = Clock::now();
    body();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, dt);
    total += dt;
    ++iters;
  }
  return best;
}

struct GemmShape {
  const char* label;  ///< which conv family the shape stands in for
  std::size_t m, k, n;
};

struct GemmResult {
  GemmShape shape;
  double scalar_gflops = 0.0;
  double simd_gflops = 0.0;
  double int8_gops = 0.0;  ///< packed u8×s8 GEMM, same shape
  // Dispatch level the kernel actually took (gemm_last_level()), so CI
  // can catch silent fallbacks to the scalar path.
  std::string scalar_path;
  std::string simd_path;
  std::string int8_path;
  double speedup() const noexcept {
    return scalar_gflops > 0.0 ? simd_gflops / scalar_gflops : 0.0;
  }
  double int8_speedup() const noexcept {
    return simd_gflops > 0.0 ? int8_gops / simd_gflops : 0.0;
  }
};

GemmResult bench_gemm_shape(const GemmShape& shape, double min_seconds) {
  Rng rng(41);
  std::vector<float> a(shape.m * shape.k), b(shape.k * shape.n);
  std::vector<float> c(shape.m * shape.n);
  std::vector<float> bias(shape.m, 0.1f);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.k) *
                       static_cast<double>(shape.n);
  const GemmEpilogue epi{bias.data(), EpiAct::kSilu};
  PackedA packed(a.data(), shape.m, shape.k);

  GemmConfig scalar;
  scalar.path = GemmPath::kScalar;
  GemmConfig auto_path;  // SIMD when the dispatcher allows it

  GemmResult result{shape};
  const double scalar_s = best_seconds(
      [&] { gemm_packed(packed, b.data(), c.data(), shape.n, false, epi,
                        scalar); },
      min_seconds);
  result.scalar_path = simd::level_name(gemm_last_level());
  const double simd_s = best_seconds(
      [&] { gemm_packed(packed, b.data(), c.data(), shape.n, false, epi,
                        auto_path); },
      min_seconds);
  result.simd_path = simd::level_name(gemm_last_level());
  result.scalar_gflops = flops / scalar_s * 1e-9;
  result.simd_gflops = flops / simd_s * 1e-9;

  // Same shape through the quantized kernel: per-channel s8 weights ×
  // u8 activation quads with the fused dequant+bias+SiLU epilogue, so
  // the ratio to simd_gflops is the honest int8 win on this shape.
  std::vector<std::int8_t> aq(shape.m * shape.k);
  std::vector<std::uint8_t> bq(shape.k * shape.n);
  for (auto& v : aq) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : bq) v = static_cast<std::uint8_t>(rng.uniform_int(0, 127));
  PackedQuantA qpacked;
  qpacked.pack(aq.data(), shape.m, shape.k);
  std::vector<std::uint8_t> quads(quad_buffer_bytes(shape.k, shape.n));
  pack_u8_quads(bq.data(), shape.k, shape.n, quads.data());
  std::vector<float> row_scale(shape.m, 1.0f / 127.0f);
  QGemmEpilogue qepi;
  qepi.scale = row_scale.data();
  qepi.bias = bias.data();
  qepi.act = EpiAct::kSilu;
  const double int8_s = best_seconds(
      [&] { qgemm_packed(qpacked, quads.data(), c.data(), shape.n, qepi); },
      min_seconds);
  result.int8_path = simd::level_name(gemm_last_level());
  result.int8_gops = flops / int8_s * 1e-9;
  return result;
}

struct ModelResult {
  std::string name;
  double input_scale = 0.0;
  double scalar_ns_frame = 0.0;
  double simd_ns_frame = 0.0;
  double speedup() const noexcept {
    return simd_ns_frame > 0.0 ? scalar_ns_frame / simd_ns_frame : 0.0;
  }
};

ModelResult bench_model(models::ModelId id, double input_scale,
                        double min_seconds) {
  const nn::Graph graph = models::build_model(id, input_scale);
  nn::Engine engine(graph, 1);
  const nn::FeatShape in = graph.input_shape();
  Tensor input({1, in.c, in.h, in.w});
  Rng rng(5);
  input.init_uniform(rng, 0.0f, 1.0f);
  engine.run(input);  // warm-up: arena plan + packed panels settled

  ModelResult result;
  result.name = models::model_info(id).name;
  result.input_scale = input_scale;

  simd::set_simd_enabled(false);
  result.scalar_ns_frame =
      best_seconds([&] { engine.run(input); }, min_seconds) * 1e9;
  simd::set_simd_enabled(true);
  result.simd_ns_frame =
      best_seconds([&] { engine.run(input); }, min_seconds) * 1e9;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_engine_kernels",
          "packed SIMD GEMM + fused epilogues vs the scalar fallback");
  bench::add_common_flags(cli);
  cli.add_double("min-seconds", 0.2,
                 "minimum sampling time per measurement point");
  cli.add_double("input-scale", 0.25,
                 "model input scale for the ns/frame measurements");
  cli.add_string("out", "BENCH_kernels.json",
                 "machine-readable output path (empty disables)");
  if (!cli.parse(argc, argv)) return 0;
  bench::apply_common_flags(cli);

  const double min_seconds = cli.real("min-seconds");

  // im2col shapes from the VIP models' conv families: m = out channels,
  // k = in_c·kh·kw, n = output pixels. Early layers are wide (large n),
  // late layers deep (large k); the square shape is the GEMM headline.
  const std::vector<GemmShape> shapes = {
      {"stem 3x3", 16, 27, 4096},    {"stage2 3x3", 32, 144, 1024},
      {"stage3 3x3", 64, 288, 256},  {"stage4 3x3", 128, 576, 64},
      {"head 1x1", 64, 128, 400},    {"square", 192, 192, 192},
  };

  bench::Records records;
  ResultTable gemm_table(
      std::string("Packed GEMM, fused SiLU epilogue (simd: ") +
          simd::level_name(simd::active()) + ")",
      {"shape", "m", "k", "n", "scalar GF/s", "simd GF/s", "speedup",
       "int8 GOP/s", "int8/simd", "path"});
  for (const GemmShape& shape : shapes) {
    const GemmResult g = bench_gemm_shape(shape, min_seconds);
    const std::string label = g.shape.label;
    records.add(label, "", "m", g.shape.m, "count");
    records.add(label, "", "k", g.shape.k, "count");
    records.add(label, "", "n", g.shape.n, "count");
    records.add(label, "scalar", "gflops", g.scalar_gflops, "GFLOP/s");
    records.add(label, "scalar", "path", g.scalar_path, "dispatch");
    records.add(label, "simd", "gflops", g.simd_gflops, "GFLOP/s");
    records.add(label, "simd", "path", g.simd_path, "dispatch");
    records.add(label, "simd", "gemm_speedup", g.speedup(), "x");
    records.add(label, "int8", "gops", g.int8_gops, "GOP/s");
    records.add(label, "int8", "path", g.int8_path, "dispatch");
    records.add(label, "int8", "gemm_speedup", g.int8_speedup(), "x");
    gemm_table.row()
        .cell(g.shape.label)
        .cell(static_cast<double>(g.shape.m), 0)
        .cell(static_cast<double>(g.shape.k), 0)
        .cell(static_cast<double>(g.shape.n), 0)
        .cell(g.scalar_gflops, 2)
        .cell(g.simd_gflops, 2)
        .cell(g.speedup(), 2)
        .cell(g.int8_gops, 2)
        .cell(g.int8_speedup(), 2)
        .cell(g.simd_path);
  }

  const std::vector<models::ModelId> model_ids = {
      models::ModelId::kYoloV8n, models::ModelId::kTrtPose,
      models::ModelId::kMonodepth2};
  ResultTable model_table("Engine::run per frame (input scale " +
                              format_fixed(cli.real("input-scale"), 2) + ")",
                          {"model", "scalar ms", "simd ms", "speedup"});
  for (models::ModelId id : model_ids) {
    const ModelResult m =
        bench_model(id, cli.real("input-scale"), min_seconds);
    records.add(m.name, "", "input_scale", m.input_scale, "x");
    records.add(m.name, "scalar", "ns_frame", m.scalar_ns_frame, "ns");
    records.add(m.name, "simd", "ns_frame", m.simd_ns_frame, "ns");
    records.add(m.name, "simd", "frame_speedup", m.speedup(), "x");
    model_table.row()
        .cell(m.name)
        .cell(m.scalar_ns_frame * 1e-6, 2)
        .cell(m.simd_ns_frame * 1e-6, 2)
        .cell(m.speedup(), 2);
  }

  bench::emit(cli, {gemm_table, model_table});
  records.write(cli.string("out"), "kernels");
  return 0;
}
