#include "trace.h"

#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

const char* span_name(SpanName name) {
  static constexpr const char* kNames[] = {
      "engine.call",      "replay",           "kv.prepare",
      "kv.commit",        "kv.abort",         "wal.flush",
      "wal.seal",         "wal.replay",       "protocol.setup",
      "protocol.round",   "transport.setup",  "transport.decide",
      "transport.teardown", "recovery.reopen", "recovery.survey",
      "recovery.resolve",
  };
  static_assert(std::size(kNames) == static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

int32_t SpanLog::open(SpanName name, int32_t parent, int64_t id) {
  // Store first, then stamp: the vector's growth stays outside the span.
  spans_.push_back(Span{name, 0, 0, parent, id});
  spans_.back().start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  return static_cast<int32_t>(spans_.size() - 1);
}

double SpanLog::close(int32_t index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin_)
                    .count();
  return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
}

std::vector<double> durations_us(const std::vector<const SpanLog*>& logs,
                                 SpanName name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.name == name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return out;
}

double total_us(const std::vector<const SpanLog*>& logs,
                const std::vector<SpanName>& names) {
  double total = 0.0;
  for (const SpanName name : names) {
    const auto d = durations_us(logs, name);
    total = std::accumulate(d.begin(), d.end(), total);
  }
  return total;
}

void write_spans(const std::filesystem::path& path,
                 const std::vector<const SpanLog*>& logs) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  out << "thread,index,name,start_ns,end_ns,parent,id\n";
  for (size_t thread = 0; thread < logs.size(); ++thread) {
    const auto& spans = logs[thread]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << thread << ',' << i << ',' << span_name(s.name) << ',' << s.start_ns
          << ',' << s.end_ns << ',' << s.parent << ',' << s.id << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path.string());
}

}  // namespace perfbench
