// Precision-vs-accuracy sweep: the compressed inference paths vs FP32.
//
// Three views, mirroring how the paper trades accuracy for latency on
// edge GPUs (§4.3's TensorRT builds quantize the same way):
//   1. Roofline projections of the Ocularone VIP models on the paper's
//      Jetson devices with the per-device INT8 speedup applied to GEMM
//      ops.
//   2. Trained MiniYolo variants evaluated through the Engine in FP32
//      and INT8 on the diverse test set — precision / recall / F1 /
//      accuracy and their INT8 deltas.
//   3. The accuracy-vs-speed Pareto frontier over the full compression
//      grid (fp16 storage, N:M structured sparsity at 25/50/75%, INT8,
//      and their combinations): micro-kernel gate points (sparse vs
//      dense packed GEMM, fp16 vs fp32 GEMV), sparse-vs-masked-dense
//      numeric equivalence at engine level, and per-model latency (+
//      trained-detector accuracy) for every PlanRequest variant. Its
//      fp32 and int8 rows are the measured host FP32-vs-INT8 latency.
// Writes all three into the BENCH_pareto.json record file (bench
// "pareto") that scripts/check_bench_regression.py gates.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_accuracy_common.hpp"
#include "bench_common.hpp"
#include "core/rng.hpp"
#include "devsim/roofline.hpp"
#include "eval/matcher.hpp"
#include "eval/report.hpp"
#include "models/registry.hpp"
#include "nn/engine.hpp"
#include "nn/prune.hpp"
#include "tensor/gemm.hpp"
#include "tensor/sgemm_sparse.hpp"
#include "tensor/simd.hpp"
#include "trainer/detector_trainer.hpp"

using namespace ocb;

namespace {

using Clock = std::chrono::steady_clock;

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

// --- 1. devsim roofline projection ------------------------------------

struct ProjectionResult {
  std::string device;
  std::string model;
  double fp32_ms = 0.0;
  double int8_ms = 0.0;
  double speedup() const noexcept {
    return int8_ms > 0.0 ? fp32_ms / int8_ms : 0.0;
  }
};

// --- 2. trained-detector accuracy in both precisions ------------------

struct AccuracyPair {
  std::string variant;
  eval::Metrics fp32;
  eval::Metrics int8;
};

eval::Metrics evaluate_engine(const models::MiniYolo& model,
                              nn::Engine& engine,
                              const dataset::DatasetGenerator& generator,
                              const std::vector<dataset::Sample>& samples,
                              const char* title) {
  eval::Report report(title);
  for (const dataset::Sample& sample : samples) {
    const dataset::RenderedFrame frame = generator.render(sample);
    std::vector<Annotation> truth;
    if (frame.vest_visible) truth.push_back(frame.vest);
    const auto detections = model.detect_with_engine(engine, frame.image);
    const eval::MatchResult result =
        eval::match_detections(detections, truth, 0.5f);
    const bool correct =
        result.false_positives == 0 && result.false_negatives == 0;
    report.add(dataset::category_name(sample.category), result, correct);
  }
  return report.overall();
}

// --- 3. Pareto frontier: kernel gates, equivalence, variant sweep -----

/// One sparse-vs-dense packed-GEMM measurement on a conv-heavy shape.
/// `dense_ns` times gemm_packed over the *masked* weights, so both
/// kernels compute the identical output and the speedup isolates the
/// skipped inner-loop work.
struct SparseGatePoint {
  std::string label;
  int sparsity_pct = 0;        ///< nominal pruned percent (N:M)
  double mask_density = 0.0;   ///< measured surviving fraction
  double dense_ns = 0.0;
  double sparse_ns = 0.0;
  double speedup() const noexcept {
    return sparse_ns > 0.0 ? dense_ns / sparse_ns : 0.0;
  }
};

/// One fp16-storage-vs-fp32 packed-GEMM measurement on a
/// bandwidth-bound (GEMV-like) shape.
struct HalfGatePoint {
  std::string label;
  double dense_ns = 0.0;
  double half_ns = 0.0;
  double speedup() const noexcept {
    return half_ns > 0.0 ? dense_ns / half_ns : 0.0;
  }
};

/// Sparse engine vs hand-masked dense twin (same seed): the sparse
/// kernels are defined to reproduce a dense run over magnitude-masked
/// weights, so max|diff| is pure summation-order noise.
struct EquivalenceResult {
  std::string model;
  double max_abs_diff = 0.0;
  int sparse_nodes = 0;
};

/// One (model, PlanRequest variant) point on the frontier. Accuracy is
/// attached only for the trained-detector rows.
struct FrontierPoint {
  std::string model;
  std::string variant;
  double ns_frame = 0.0;
  double speedup_vs_fp32 = 1.0;
  int sparse_nodes = 0;
  int fp16_nodes = 0;
  int quant_nodes = 0;
  bool has_accuracy = false;
  double accuracy = 0.0;
  double delta_accuracy_pt = 0.0;
};

nn::SparsityConfig nm_config(int keep, int of) {
  nn::SparsityConfig cfg;
  cfg.scheme = nn::SparsityScheme::kNm;
  cfg.nm_n = keep;
  cfg.nm_m = of;
  cfg.budget = static_cast<float>(of - keep) / static_cast<float>(of);
  return cfg;
}

struct Variant {
  const char* name;
  nn::PlanRequest request;
};

/// The compression grid every frontier model runs: plain precisions,
/// the three N:M sparsity levels, and the combined storage formats.
/// fp16, nm25, nm50 and nm50-fp16 are the "shippable" points the
/// accuracy gate (scripts/check_bench_regression.py) holds to ±1.5 pt;
/// nm75 and the int8 rows chart the rest of the frontier.
std::vector<Variant> pareto_variants() {
  std::vector<Variant> variants;
  variants.push_back({"fp32", nn::PlanRequest{}});

  nn::PlanRequest fp16;
  fp16.precision = nn::Precision::kFp16;
  variants.push_back({"fp16", fp16});

  nn::PlanRequest nm25;
  nm25.sparsity = nm_config(3, 4);
  variants.push_back({"nm25", nm25});

  nn::PlanRequest nm50;
  nm50.sparsity = nm_config(2, 4);
  variants.push_back({"nm50", nm50});

  nn::PlanRequest nm75;
  nm75.sparsity = nm_config(1, 4);
  variants.push_back({"nm75", nm75});

  nn::PlanRequest nm50_fp16;
  nm50_fp16.precision = nn::Precision::kFp16;
  nm50_fp16.sparsity = nm_config(2, 4);
  variants.push_back({"nm50-fp16", nm50_fp16});

  nn::PlanRequest int8;
  int8.precision = nn::Precision::kInt8;
  variants.push_back({"int8", int8});

  nn::PlanRequest nm50_int8;
  nm50_int8.precision = nn::Precision::kInt8;
  nm50_int8.sparsity = nm_config(2, 4);
  variants.push_back({"nm50-int8", nm50_int8});
  return variants;
}

std::vector<float> random_values(std::size_t count, Rng& rng) {
  std::vector<float> values(count);
  for (float& v : values) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return values;
}

SparseGatePoint bench_sparse_gate(std::size_t m, std::size_t k,
                                  std::size_t n, int keep, int of,
                                  double min_seconds) {
  Rng rng(hash_combine(m * 1315423911u + k, n * 4u + keep));
  const std::vector<float> a = random_values(m * k, rng);
  const std::vector<float> b = random_values(k * n, rng);
  std::vector<float> c(m * n, 0.0f);

  const nn::SparsityConfig cfg = nm_config(keep, of);
  const auto mask = nn::magnitude_mask(a.data(), m, k, cfg);
  std::vector<float> masked = a;
  nn::apply_mask(masked.data(), mask.data(), masked.size());

  const PackedA dense(masked.data(), m, k);
  PackedSparseA sparse;
  sparse.pack(a.data(), m, k, mask.data());

  SparseGatePoint point;
  std::ostringstream label;
  label << "conv " << m << "x" << k << "x" << n << " " << keep << ":" << of;
  point.label = label.str();
  point.sparsity_pct = 100 * (of - keep) / of;
  point.mask_density = nn::mask_density(mask.data(), mask.size());
  point.dense_ns =
      best_seconds([&] { gemm_packed(dense, b.data(), c.data(), n); },
                   min_seconds) *
      1e9;
  point.sparse_ns =
      best_seconds([&] { gemm_packed_sparse(sparse, b.data(), c.data(), n); },
                   min_seconds) *
      1e9;
  return point;
}

HalfGatePoint bench_half_gate(std::size_t m, std::size_t k, std::size_t n,
                              double min_seconds) {
  Rng rng(hash_combine(m, k * 8u + n));
  const std::vector<float> a = random_values(m * k, rng);
  const std::vector<float> b = random_values(k * n, rng);
  std::vector<float> c(m * n, 0.0f);

  const PackedA dense(a.data(), m, k);
  PackedHalfA half;
  half.pack(a.data(), m, k, HalfFormat::kFp16);

  HalfGatePoint point;
  std::ostringstream label;
  label << (n == 1 ? "gemv " : "conv ") << m << "x" << k << "x" << n;
  point.label = label.str();
  point.dense_ns =
      best_seconds([&] { gemm_packed(dense, b.data(), c.data(), n); },
                   min_seconds) *
      1e9;
  point.half_ns =
      best_seconds([&] { gemm_packed_half(half, b.data(), c.data(), n); },
                   min_seconds) *
      1e9;
  return point;
}

EquivalenceResult measure_equivalence(models::ModelId id,
                                      double input_scale) {
  const nn::Graph graph = models::build_model(id, input_scale);
  nn::Engine sparse(graph, 7);
  nn::PlanRequest request;
  request.sparsity = nm_config(2, 4);
  const nn::ExecutionPlan& plan = sparse.prepare(request);

  // Twin with the same seed, hand-masked the way the sparse packs are.
  nn::Engine masked(graph, 7);
  for (int node = 0; node < graph.node_count(); ++node) {
    const nn::Node& nd = graph.node(node);
    if (nd.kind != nn::OpKind::kConv && nd.kind != nn::OpKind::kLinear)
      continue;
    Tensor& w = masked.weight(node);
    const std::size_t rows = static_cast<std::size_t>(nd.out_c);
    const std::size_t cols = w.numel() / rows;
    const auto mask = nn::magnitude_mask(w.data(), rows, cols,
                                         request.sparsity);
    nn::apply_mask(w.data(), mask.data(), w.numel());
  }
  masked.prepare({});

  const nn::FeatShape in = graph.input_shape();
  Tensor input({1, in.c, in.h, in.w});
  Rng rng(29);
  input.init_uniform(rng, 0.0f, 1.0f);

  const auto& got = sparse.run(input);
  const auto& want = masked.run(input);
  EquivalenceResult result;
  result.model = models::model_info(id).name;
  result.sparse_nodes = plan.sparse_nodes;
  for (std::size_t o = 0; o < want.size() && o < got.size(); ++o) {
    const float* g = got[o].data();
    const float* w = want[o].data();
    for (std::size_t i = 0; i < want[o].numel(); ++i)
      result.max_abs_diff = std::max(
          result.max_abs_diff, static_cast<double>(std::fabs(g[i] - w[i])));
  }
  return result;
}

/// Synthetic GEMV-headed model: a conv stage large enough to prune
/// plus the 4096→512 linear head whose weight panel is firmly
/// bandwidth-bound — the shape the planner must move to half storage.
/// Guarantees the frontier always has observable sparse AND fp16 rows
/// even when the VIP detector bodies are conv-only.
nn::Graph mlp_head_graph() {
  nn::Graph g;
  const int in = g.input(64, 8, 8);
  const int c1 = g.conv(in, 256, 3, 1, 1, nn::Act::kLeakyRelu, "c1");
  const int pool = g.global_avg_pool(c1, "gap");
  const int fc1 = g.linear(pool, 4096, nn::Act::kRelu, "fc1");
  const int fc2 = g.linear(fc1, 512, nn::Act::kNone, "fc2");
  g.mark_output(fc2);
  return g;
}

/// Latency of every variant on one engine; the fp32 variant anchors
/// the speedup column. Calibrates up front so INT8 variants plan from
/// realistic ranges.
void bench_frontier_latency(const std::string& name, const nn::Graph& graph,
                            const std::vector<Variant>& variants,
                            double min_seconds,
                            std::vector<FrontierPoint>& out,
                            ResultTable& table) {
  nn::Engine engine(graph, 1);
  const nn::FeatShape in = graph.input_shape();
  Rng rng(11);
  std::vector<Tensor> frames;
  for (int i = 0; i < 3; ++i) {
    Tensor t({1, in.c, in.h, in.w});
    t.init_uniform(rng, 0.0f, 1.0f);
    frames.push_back(std::move(t));
  }
  Tensor input({1, in.c, in.h, in.w});
  input.init_uniform(rng, 0.0f, 1.0f);
  engine.calibrate(frames);

  double fp32_ns = 0.0;
  for (const Variant& variant : variants) {
    const nn::ExecutionPlan& plan = engine.prepare(variant.request);
    FrontierPoint point;
    point.model = name;
    point.variant = variant.name;
    point.sparse_nodes = plan.sparse_nodes;
    point.fp16_nodes = plan.fp16_nodes;
    point.quant_nodes = plan.quant_nodes;
    engine.run(input);  // warm-up: packs + arena settled
    point.ns_frame =
        best_seconds([&] { engine.run(input); }, min_seconds) * 1e9;
    if (std::string(variant.name) == "fp32") fp32_ns = point.ns_frame;
    point.speedup_vs_fp32 =
        point.ns_frame > 0.0 && fp32_ns > 0.0 ? fp32_ns / point.ns_frame
                                              : 1.0;
    table.row()
        .cell(name)
        .cell(variant.name)
        .cell(point.ns_frame * 1e-6, 3)
        .cell(point.speedup_vs_fp32, 2)
        .cell(static_cast<std::int64_t>(point.sparse_nodes))
        .cell(static_cast<std::int64_t>(point.fp16_nodes))
        .cell(static_cast<std::int64_t>(point.quant_nodes))
        .cell("-")
        .cell("-");
    out.push_back(std::move(point));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_precision_sweep",
          "compressed inference vs FP32: device projections, trained "
          "detector accuracy and the accuracy-vs-speed Pareto frontier");
  bench::add_accuracy_flags(cli);
  cli.add_double("min-seconds", 0.2,
                 "minimum sampling time per measurement point");
  cli.add_double("input-scale", 0.25,
                 "model input scale for the ns/frame measurements");
  cli.add_flag("skip-training",
               "skip the trained-detector accuracy sweep (latency only)");
  cli.add_string("out", "BENCH_pareto.json",
                 "machine-readable output path (empty disables)");
  if (!cli.parse(argc, argv)) return 0;
  bench::apply_common_flags(cli);
  const double min_seconds = cli.real("min-seconds");

  const std::vector<models::ModelId> model_ids = {
      models::ModelId::kYoloV8n, models::ModelId::kYoloV11n,
      models::ModelId::kTrtPose, models::ModelId::kMonodepth2};
  bench::Records records;

  // 1. Roofline projection on the paper's devices.
  ResultTable devsim_table("Roofline projection FP32 vs INT8 (full-scale "
                           "inputs, batch 1)",
                           {"device", "model", "fp32 ms", "int8 ms",
                            "speedup"});
  devsim::RooflineOptions fp32_opts;
  devsim::RooflineOptions int8_opts;
  int8_opts.precision = devsim::Precision::kInt8;
  for (devsim::DeviceId device : devsim::edge_devices()) {
    const devsim::DeviceSpec& spec = devsim::device_spec(device);
    for (models::ModelId id : model_ids) {
      const nn::ModelProfile profile = models::profile_model(id);
      ProjectionResult p;
      p.device = spec.name;
      p.model = models::model_info(id).name;
      p.fp32_ms = devsim::model_latency_ms(profile, spec, fp32_opts);
      p.int8_ms = devsim::model_latency_ms(profile, spec, int8_opts);
      const std::string subject = p.device + "/" + p.model;
      records.add(subject, "fp32", "latency_ms", p.fp32_ms, "ms");
      records.add(subject, "int8", "latency_ms", p.int8_ms, "ms");
      records.add(subject, "int8", "speedup_vs_fp32", p.speedup(), "x");
      devsim_table.row()
          .cell(p.device)
          .cell(p.model)
          .cell(p.fp32_ms, 2)
          .cell(p.int8_ms, 2)
          .cell(p.speedup(), 2);
    }
  }

  // 3a. Pareto kernel gates: the micro-kernel speedups the compressed
  // formats must sustain (machine-relative, gated when SIMD is active).
  const std::vector<Variant> variants = pareto_variants();
  ResultTable sparse_gate_table(
      std::string("Pareto gate: sparse vs masked-dense packed GEMM "
                  "(simd: ") +
          simd::level_name(simd::active()) + ")",
      {"shape", "density", "dense ms", "sparse ms", "speedup"});
  for (const auto [keep, of] :
       {std::pair{3, 4}, std::pair{2, 4}, std::pair{1, 4}}) {
    const SparseGatePoint p =
        bench_sparse_gate(128, 1152, 196, keep, of, min_seconds);
    const std::string nm = "nm" + std::to_string(p.sparsity_pct);
    records.add(p.label, nm, "sparsity_pct", p.sparsity_pct, "%");
    records.add(p.label, nm, "mask_density", p.mask_density, "ratio");
    records.add(p.label, nm, "dense_ns", p.dense_ns, "ns");
    records.add(p.label, nm, "sparse_ns", p.sparse_ns, "ns");
    records.add(p.label, nm, "kernel_speedup", p.speedup(), "x");
    sparse_gate_table.row()
        .cell(p.label)
        .cell(p.mask_density, 2)
        .cell(p.dense_ns * 1e-6, 3)
        .cell(p.sparse_ns * 1e-6, 3)
        .cell(p.speedup(), 2);
  }
  ResultTable half_gate_table(
      "Pareto gate: fp16-storage vs fp32 packed GEMM (bandwidth-bound "
      "shapes)",
      {"shape", "fp32 ms", "fp16 ms", "speedup"});
  for (const HalfGatePoint& p : {bench_half_gate(512, 4096, 1, min_seconds),
                                 bench_half_gate(256, 2304, 8, min_seconds)}) {
    records.add(p.label, "fp16", "dense_ns", p.dense_ns, "ns");
    records.add(p.label, "fp16", "half_ns", p.half_ns, "ns");
    records.add(p.label, "fp16", "kernel_speedup", p.speedup(), "x");
    half_gate_table.row()
        .cell(p.label)
        .cell(p.dense_ns * 1e-6, 3)
        .cell(p.half_ns * 1e-6, 3)
        .cell(p.speedup(), 2);
  }

  // 3b. Sparse engine vs hand-masked dense twin.
  const EquivalenceResult equivalence =
      measure_equivalence(models::ModelId::kYoloV8n, cli.real("input-scale"));
  ResultTable equivalence_table(
      "Pareto: sparse engine vs masked-dense twin (nm50)",
      {"model", "sparse nodes", "max |diff|"});
  records.add(equivalence.model, "masked-twin", "max_abs_diff",
              equivalence.max_abs_diff, "abs");
  records.add(equivalence.model, "masked-twin", "sparse_nodes",
              equivalence.sparse_nodes, "count");
  equivalence_table.row()
      .cell(equivalence.model)
      .cell(static_cast<std::int64_t>(equivalence.sparse_nodes))
      .cell(equivalence.max_abs_diff, 8);

  // 3c. Latency frontier: every variant on the VIP models plus the
  // GEMV-headed synthetic (the guaranteed-observable sparse/fp16 rows).
  std::vector<FrontierPoint> frontier;
  ResultTable frontier_table(
      "Pareto frontier: Engine::run across compression variants",
      {"model", "variant", "ms/frame", "speedup", "sparse", "fp16",
       "int8", "acc", "Δacc pt"});
  for (models::ModelId id : model_ids)
    bench_frontier_latency(models::model_info(id).name,
                           models::build_model(id, cli.real("input-scale")),
                           variants, min_seconds, frontier, frontier_table);
  bench_frontier_latency("mlp-head", mlp_head_graph(), variants,
                         min_seconds, frontier, frontier_table);

  // 2. Trained detectors through the engine in both precisions.
  ResultTable accuracy_table(
      "Trained MiniYolo via Engine: FP32 vs INT8 (diverse test set)",
      {"variant", "prec fp32", "prec int8", "rec fp32", "rec int8",
       "F1 fp32", "F1 int8", "acc fp32", "acc int8", "Δacc"});
  if (!cli.flag("skip-training")) {
    const trainer::AccuracyExperimentConfig config =
        bench::accuracy_config(cli);
    dataset::DatasetConfig dcfg;
    dcfg.scale = config.dataset_scale;
    dcfg.image_width = config.image_width;
    dcfg.image_height = config.image_height;
    dcfg.seed = config.seed;
    const dataset::DatasetGenerator generator(dcfg);
    Rng rng(hash_combine(config.seed, 0x18A7ULL));
    const dataset::SplitResult split =
        dataset::curated_split(generator, config.curated_fraction, rng);
    std::vector<dataset::Sample> test = split.test_diverse;
    if (config.eval_cap > 0 &&
        test.size() > static_cast<std::size_t>(config.eval_cap))
      test = dataset::subsample(
          test, static_cast<std::size_t>(config.eval_cap), rng);

    // Calibration frames: letterboxed renders of training samples, the
    // same distribution the detector sees at deployment.
    const std::vector<dataset::Sample> calib_samples = dataset::subsample(
        split.train, std::min<std::size_t>(split.train.size(), 8), rng);
    const trainer::TrainCorpus calib_corpus(generator, calib_samples,
                                            config.train.input_size);
    std::vector<Tensor> calib_frames;
    for (std::size_t i = 0; i < calib_corpus.size(); ++i)
      calib_frames.push_back(calib_corpus.image(i));

    const trainer::DetectorTrainer trainer(generator, config.train);
    for (models::YoloFamily family :
         {models::YoloFamily::kV8, models::YoloFamily::kV11}) {
      for (models::YoloSize size :
           {models::YoloSize::kNano, models::YoloSize::kMedium}) {
        models::MiniYolo model =
            trainer.train(family, size, split.train, split.val);
        nn::Engine engine(model.export_graph(), 1);
        model.export_weights(engine);
        engine.calibrate(calib_frames);

        AccuracyPair pair;
        pair.variant = bench::variant_name(family, size);
        pair.fp32 =
            evaluate_engine(model, engine, generator, test, "fp32");
        engine.prepare({.precision = nn::Precision::kInt8});
        pair.int8 =
            evaluate_engine(model, engine, generator, test, "int8");
        for (const auto& [precision, m] :
             {std::pair{"fp32", &pair.fp32}, std::pair{"int8", &pair.int8}}) {
          records.add(pair.variant, precision, "precision", m->precision,
                      "ratio");
          records.add(pair.variant, precision, "recall", m->recall, "ratio");
          records.add(pair.variant, precision, "f1", m->f1, "ratio");
          records.add(pair.variant, precision, "accuracy", m->accuracy,
                      "ratio");
          records.add(pair.variant, precision, "images", m->images, "count");
        }
        records.add(pair.variant, "int8", "delta_accuracy",
                    pair.int8.accuracy - pair.fp32.accuracy, "ratio");
        records.add(pair.variant, "int8", "delta_f1",
                    pair.int8.f1 - pair.fp32.f1, "ratio");
        accuracy_table.row()
            .cell(pair.variant)
            .cell(pair.fp32.precision, 3)
            .cell(pair.int8.precision, 3)
            .cell(pair.fp32.recall, 3)
            .cell(pair.int8.recall, 3)
            .cell(pair.fp32.f1, 3)
            .cell(pair.int8.f1, 3)
            .cell(pair.fp32.accuracy, 3)
            .cell(pair.int8.accuracy, 3)
            .cell(pair.int8.accuracy - pair.fp32.accuracy, 3);

        // 3d. Trained-detector Pareto rows: the same detector swept
        // through the full compression grid, so every frontier variant
        // carries a measured accuracy next to its measured latency.
        // The medium variant is the one whose conv stages clear the
        // pruner's min_params floor — on nano every layer stays dense
        // and the accuracy deltas would be vacuously zero. Sparse
        // variants are prune-then-fine-tuned from the dense weights
        // (post-training magnitude pruning alone craters a detector
        // this small); nm50 and its fp16/int8 composites share one
        // fine-tune since the mask config is identical.
        if (family == models::YoloFamily::kV8 &&
            size == models::YoloSize::kMedium) {
          const std::string row_name = pair.variant + " (trained)";
          const nn::FeatShape in = engine.graph().input_shape();
          Tensor input({1, in.c, in.h, in.w});
          Rng in_rng(31);
          input.init_uniform(in_rng, 0.0f, 1.0f);

          const std::vector<ag::Var> params = model.parameters();
          std::vector<Tensor> dense_weights;
          dense_weights.reserve(params.size());
          for (const ag::Var& p : params) dense_weights.push_back(p->value);
          const auto load_weights = [&](const std::vector<Tensor>& weights) {
            for (std::size_t i = 0; i < params.size(); ++i)
              params[i]->value = weights[i];
          };
          std::vector<std::pair<nn::SparsityConfig, std::vector<Tensor>>>
              tuned;
          const int tune_epochs = std::max(4, config.train.epochs / 2);

          double fp32_ns = 0.0;
          double fp32_acc = 0.0;
          for (const Variant& variant : variants) {
            const nn::SparsityConfig& sparsity = variant.request.sparsity;
            if (sparsity.enabled()) {
              const auto it = std::find_if(
                  tuned.begin(), tuned.end(),
                  [&](const auto& entry) { return entry.first == sparsity; });
              if (it == tuned.end()) {
                load_weights(dense_weights);
                trainer.fine_tune_pruned(model, sparsity, tune_epochs,
                                         split.train);
                std::vector<Tensor> weights;
                weights.reserve(params.size());
                for (const ag::Var& p : params) weights.push_back(p->value);
                tuned.emplace_back(sparsity, std::move(weights));
              } else {
                load_weights(it->second);
              }
            } else {
              load_weights(dense_weights);
            }
            model.export_weights(engine);
            engine.prepare({});  // calibrate() requires fp32 active
            engine.calibrate(calib_frames);
            const nn::ExecutionPlan& vplan = engine.prepare(variant.request);
            FrontierPoint point;
            point.model = row_name;
            point.variant = variant.name;
            point.sparse_nodes = vplan.sparse_nodes;
            point.fp16_nodes = vplan.fp16_nodes;
            point.quant_nodes = vplan.quant_nodes;
            engine.run(input);  // warm-up
            point.ns_frame =
                best_seconds([&] { engine.run(input); }, min_seconds) * 1e9;
            const eval::Metrics metrics = evaluate_engine(
                model, engine, generator, test, variant.name);
            point.has_accuracy = true;
            point.accuracy = metrics.accuracy;
            if (std::string(variant.name) == "fp32") {
              fp32_ns = point.ns_frame;
              fp32_acc = metrics.accuracy;
            }
            point.speedup_vs_fp32 = point.ns_frame > 0.0 && fp32_ns > 0.0
                                        ? fp32_ns / point.ns_frame
                                        : 1.0;
            point.delta_accuracy_pt =
                (metrics.accuracy - fp32_acc) * 100.0;
            frontier_table.row()
                .cell(point.model)
                .cell(point.variant)
                .cell(point.ns_frame * 1e-6, 3)
                .cell(point.speedup_vs_fp32, 2)
                .cell(static_cast<std::int64_t>(point.sparse_nodes))
                .cell(static_cast<std::int64_t>(point.fp16_nodes))
                .cell(static_cast<std::int64_t>(point.quant_nodes))
                .cell(point.accuracy, 3)
                .cell(point.delta_accuracy_pt, 2);
            frontier.push_back(std::move(point));
          }
        }
      }
    }
  }

  bench::emit(cli, {devsim_table, sparse_gate_table, half_gate_table,
                    equivalence_table, frontier_table, accuracy_table});

  for (const FrontierPoint& p : frontier) {
    records.add(p.model, p.variant, "ns_frame", p.ns_frame, "ns");
    records.add(p.model, p.variant, "speedup_vs_fp32", p.speedup_vs_fp32,
                "x");
    records.add(p.model, p.variant, "sparse_nodes", p.sparse_nodes, "count");
    records.add(p.model, p.variant, "fp16_nodes", p.fp16_nodes, "count");
    records.add(p.model, p.variant, "quant_nodes", p.quant_nodes, "count");
    if (p.has_accuracy) {
      records.add(p.model, p.variant, "accuracy", p.accuracy, "ratio");
      records.add(p.model, p.variant, "delta_accuracy_pt",
                  p.delta_accuracy_pt, "pt");
    }
  }
  records.write(cli.string("out"), "pareto");
  return 0;
}
