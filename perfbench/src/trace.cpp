#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

namespace perfbench {
namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<int> g_next_tid{0};
thread_local int tl_current = -1;
thread_local int tl_tid = -1;

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void write_json_string(std::ostream& out, const char* s) {
  out << '"';
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out << '\\';
    out << *s;
  }
  out << '"';
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : slots_(capacity), origin_ns_(steady_ns()) {}

void Tracer::install(Tracer* tracer) noexcept {
  g_active.store(tracer, std::memory_order_release);
}

Tracer* Tracer::active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

std::int64_t Tracer::now_ns() const noexcept {
  return steady_ns() - origin_ns_;
}

int Tracer::open(const char* name, int frame) noexcept {
  const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= slots_.size()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  if (tl_tid < 0) tl_tid = g_next_tid.fetch_add(1);
  SpanRecord& r = slots_[index];
  r.name = name;
  r.frame = frame;
  r.parent = tl_current;
  r.tid = tl_tid;
  r.start_ns = now_ns();
  tl_current = static_cast<int>(index);
  return static_cast<int>(index);
}

void Tracer::close(int index) noexcept {
  SpanRecord& r = slots_[static_cast<std::size_t>(index)];
  r.end_ns = now_ns();
  tl_current = r.parent;
}

std::vector<SpanRecord> Tracer::records() const {
  const std::size_t n = std::min(next_.load(), slots_.size());
  return {slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(n)};
}

void Tracer::write_chrome_json(std::ostream& out,
                               const std::string& metadata) const {
  const std::vector<SpanRecord> recs = records();
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
      << ",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const SpanRecord& r = recs[i];
    if (r.end_ns < 0) continue;
    out << (first ? "\n" : ",\n") << "{\"name\":";
    write_json_string(out, r.name);
    out << ",\"cat\":";
    write_json_string(out, layer_of(r.name).c_str());
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
        << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ",\"args\":{\"frame\":" << r.frame << ",\"span\":" << i
        << ",\"parent\":" << r.parent << "}}";
    first = false;
  }
  out << "\n]}\n";
}

std::vector<double> self_times_ms(const std::vector<SpanRecord>& records) {
  // Children of each record, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      records.size());
  for (const SpanRecord& r : records) {
    if (r.parent < 0 || r.end_ns < 0) continue;
    const auto p = static_cast<std::size_t>(r.parent);
    if (p >= records.size()) continue;
    kids[p].emplace_back(r.start_ns, r.end_ns);
  }
  std::vector<double> self(records.size(), 0.0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    if (r.end_ns < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cursor = r.start_ns;
    for (auto [s, e] : iv) {
      s = std::max(s, cursor);
      e = std::min(e, r.end_ns);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self[i] = static_cast<double>(r.end_ns - r.start_ns - covered) / 1e6;
  }
  return self;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace perfbench
