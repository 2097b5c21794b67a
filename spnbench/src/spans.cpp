#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace spnbench {

void SpanRecorder::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {spans_.begin(), spans_.end()};
}

bool write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(file,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    if (child.parent == 0) continue;
    const auto it = index_of.find(child.parent);
    if (it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, cursor);
      if (hi > from) {
        union_ns += hi - from;
        cursor = hi;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = layers[spans[i].name];
    ++layer.spans;
    layer.self_ns += self[i];
  }
  return layers;
}

void apply_links(std::vector<Span>& spans,
                 const std::unordered_map<std::uint64_t, SpanLink>& links) {
  std::unordered_map<std::uint64_t, std::uint64_t> request_of;
  for (Span& span : spans) {
    const auto it = links.find(span.id);
    if (it != links.end()) {
      span.parent = it->second.parent;
      span.request = it->second.request;
    }
    request_of[span.id] = span.request;
  }
  for (Span& span : spans) {
    if (span.request != 0 || span.parent == 0) continue;
    const auto it = request_of.find(span.parent);
    if (it != request_of.end()) span.request = it->second;
  }
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace spnbench
