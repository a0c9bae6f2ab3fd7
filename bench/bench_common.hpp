// Shared plumbing for the bench binaries: CLI wiring, table output and
// the one machine-readable result format.
#pragma once

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/alloc_guard.hpp"
#include "core/cli.hpp"
#include "core/log.hpp"
#include "core/table.hpp"
#include "tensor/simd.hpp"

#ifndef OCB_BENCH_BUILD
#define OCB_BENCH_BUILD "unknown"
#endif

namespace ocb::bench {

/// Print tables as text (default) or markdown (--markdown), with an
/// optional CSV dump (--csv).
inline void emit(const Cli& cli, const std::vector<ResultTable>& tables) {
  for (const ResultTable& table : tables) {
    if (cli.flag("markdown"))
      std::cout << table.to_markdown() << '\n';
    else
      std::cout << table.to_text() << '\n';
    if (cli.flag("csv")) std::cout << table.to_csv() << '\n';
  }
}

/// Register the output flags every bench shares.
inline void add_common_flags(Cli& cli) {
  cli.add_flag("markdown", "emit GitHub-flavoured markdown tables");
  cli.add_flag("csv", "additionally emit CSV");
  cli.add_flag("quiet", "suppress informational logging");
}

inline void apply_common_flags(const Cli& cli) {
  if (cli.flag("quiet")) set_log_level(LogLevel::kError);
}

inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

inline std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// The result file every gated bench writes:
///   {"bench", "provenance", "records": [{subject, variant, metric,
///    value, unit}]}
/// `subject` is what was measured (a model, a GEMM shape, a layer),
/// `variant` the configuration it ran in. Values are numbers; only the
/// dispatch-path audit records a string. The provenance stamp names
/// the host and build that produced the numbers.
/// scripts/check_bench_regression.py holds the gates over these records.
class Records {
 public:
  void add(std::string subject, std::string variant, std::string metric,
           double value, std::string unit) {
    records_.push_back({std::move(subject), std::move(variant),
                        std::move(metric), value, std::move(unit)});
  }
  void add(std::string subject, std::string variant, std::string metric,
           std::string value, std::string unit) {
    records_.push_back({std::move(subject), std::move(variant),
                        std::move(metric), std::move(value),
                        std::move(unit)});
  }

  /// Write the file to `path` (empty disables).
  void write(const std::string& path, const std::string& bench) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << "{\n  \"bench\": " << json_quote(bench) << ",\n"
        << "  \"provenance\": {\"simd\": "
        << json_quote(simd::level_name(simd::active()))
        << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ", \"cpu\": " << json_quote(cpu_model()) << ", \"compiler\": "
        << json_quote(
#if defined(__clang__)
               "clang "
#elif defined(__GNUC__)
               "gcc "
#endif
               __VERSION__)
        << ", \"build\": " << json_quote(OCB_BENCH_BUILD)
        << ", \"alloc_counting\": "
        << (alloc_counting_active() ? "true" : "false") << "},\n"
        << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"subject\": " << json_quote(r.subject)
          << ", \"variant\": " << json_quote(r.variant)
          << ", \"metric\": " << json_quote(r.metric) << ", \"value\": ";
      if (const auto* text = std::get_if<std::string>(&r.value))
        out << json_quote(*text);
      else if (std::isfinite(std::get<double>(r.value)))
        out << std::get<double>(r.value);
      else
        out << "null";  // JSON has no inf/nan; the checker fails on null
      out << ", \"unit\": " << json_quote(r.unit) << "}"
          << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path << '\n';
  }

 private:
  struct Record {
    std::string subject, variant, metric;
    std::variant<double, std::string> value;
    std::string unit;
  };
  std::vector<Record> records_;
};

}  // namespace ocb::bench
