// In-memory spans recorded by the benchmark's own wrappers around each
// layer call, and the self-time arithmetic over them.
//
// A span is one timed interval at a layer boundary: a client request, a
// service request, an engine batch. It names its parent (the span that
// caused it) and the request it belongs to. Spans stay in memory while the
// run measures and are written out when it ends. A layer's self time is
// its span's duration minus the part of that interval its child spans
// cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace spnbench {

struct Span {
  std::uint64_t id = 0;
  /// 0 = a root span.
  std::uint64_t parent = 0;
  /// Request the span belongs to; 0 = none.
  std::uint64_t request = 0;
  /// Static string (a layer name): spans never own their name.
  const char* name = "";
  /// steady_clock nanoseconds.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe span sink. Ids are non-zero and unique per recorder.
class SpanRecorder {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);
  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  /// A deque never relocates what it holds, so recording stays O(1)
  /// under the lock however many spans a run makes.
  std::deque<Span> spans_;
};

/// Writes one JSON object per span and line; false when the file could
/// not be written.
bool write_jsonl(const std::string& path, const std::vector<Span>& spans);

/// Self time of all spans of one name.
struct LayerTime {
  std::uint64_t spans = 0;
  std::int64_t self_ns = 0;

  double mean_self_us() const {
    return spans > 0 ? static_cast<double>(self_ns) / 1e3 /
                           static_cast<double>(spans)
                     : 0.0;
  }
};

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-name totals of self time.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

/// Parent and request of a span, known only once both ends of a request
/// have been matched (after the run).
struct SpanLink {
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// Applies `links` (keyed by span id), then gives every span that still
/// has no request the request of its parent.
void apply_links(std::vector<Span>& spans,
                 const std::unordered_map<std::uint64_t, SpanLink>& links);

/// steady_clock now, in nanoseconds.
std::int64_t now_ns();

}  // namespace spnbench
