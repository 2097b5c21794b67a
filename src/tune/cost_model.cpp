#include "spnhbm/tune/cost_model.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <span>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/util/error.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::tune {
namespace {

constexpr double kPsPerUs = 1e6;

/// Deterministic CSR evidence stream for sparse request `index`: every
/// sample activates round(density * features) distinct features chosen by
/// a per-request fork of the workload seed.
std::vector<std::uint8_t> make_sparse_stream(const WorkloadSpec& spec,
                                             std::size_t index,
                                             std::size_t samples,
                                             std::size_t features) {
  Rng rng = Rng(spec.seed).fork(0x5AB5ull + index);
  const auto active = std::clamp<std::size_t>(
      static_cast<std::size_t>(spec.sparse_density *
                               static_cast<double>(features)),
      1, features);
  std::vector<std::uint16_t> universe(features);
  std::iota(universe.begin(), universe.end(), std::uint16_t{0});
  compiler::SparseBatch batch;
  batch.features = features;
  std::vector<std::uint16_t> indices(active);
  std::vector<std::uint8_t> values(active);
  for (std::size_t s = 0; s < samples; ++s) {
    // Partial Fisher-Yates: the first `active` entries become a uniform
    // distinct subset, then sort for the strictly-increasing CSR order.
    for (std::size_t j = 0; j < active; ++j) {
      const auto pick = j + rng.next_below(features - j);
      std::swap(universe[j], universe[pick]);
      indices[j] = universe[j];
      values[j] = static_cast<std::uint8_t>(rng.next_below(250));
    }
    std::sort(indices.begin(), indices.begin() + static_cast<long>(active));
    batch.add_sample(indices, values);
  }
  return compiler::encode_sparse(batch);
}

/// One request still waiting in the replayed dispatcher queue.
struct PendingRequest {
  std::size_t index = 0;
  double arrival_us = 0.0;
  std::size_t remaining = 0;
  bool sparse = false;
  /// Sparse only: the request's CSR stream and the byte position of its
  /// first sample not yet batched.
  std::vector<std::uint8_t> stream;
  std::size_t byte_cursor = 0;
};

}  // namespace

std::string CandidateScore::describe() const {
  if (!feasible) return "infeasible: " + rejection;
  return strformat("thr=%.1f samples/s mean_lat=%.1fus batches=%llu",
                   samples_per_second, mean_latency_us,
                   static_cast<unsigned long long>(batches));
}

bool CandidateScore::better_than(const CandidateScore& other) const {
  if (!feasible) return false;
  if (!other.feasible) return true;
  if (samples_per_second != other.samples_per_second) {
    return samples_per_second > other.samples_per_second;
  }
  return mean_latency_us < other.mean_latency_us;
}

CandidateScore score_candidate(const model::ModelHandle& model,
                               const model::TunedConfig& config,
                               const WorkloadSpec& spec,
                               const std::vector<WorkloadRequest>& trace,
                               fpga::Platform platform) {
  CandidateScore score;
  if (trace.empty()) {
    score.rejection = "empty workload trace";
    return score;
  }
  try {
    config.validate();

    engine::FpgaEngineConfig ec;
    ec.platform = platform;
    ec.pe_count = config.pe_count;
    ec.block_samples = config.block_samples;
    ec.hbm_pes_per_channel = config.hbm_pes_per_channel;
    ec.hbm_crossbar = config.hbm_crossbar;
    // Timing-only compositions are much cheaper to replay; sparse streams
    // need the functional path (infer_sparse evaluates for real).
    const bool any_sparse = spec.sparse_fraction > 0.0;
    ec.compute_results = any_sparse;
    engine::FpgaSimEngine engine(model, ec);
    auto& runtime = engine.runtime();
    const std::size_t features = model->input_features();

    // Service-time oracles, all in virtual microseconds. Dense batches
    // ride the block-pipelined timing path and are memoised per size (the
    // simulated card is stateless between runs, so the time is a pure
    // function of the batch size).
    std::map<std::size_t, double> dense_service;
    auto dense_service_us = [&](std::size_t samples) {
      auto it = dense_service.find(samples);
      if (it != dense_service.end()) return it->second;
      const auto stats = runtime.run(samples);
      const double us = static_cast<double>(stats.elapsed) / kPsPerUs;
      dense_service.emplace(samples, us);
      return us;
    };
    auto sparse_service_us = [&](const std::vector<std::uint8_t>& stream,
                                 std::size_t samples) {
      const auto before = engine.virtual_now();
      runtime.infer_sparse(stream, samples);
      const auto after = engine.virtual_now();
      return static_cast<double>(after - before) / kPsPerUs;
    };

    // --- Open-loop replay of the server dispatcher -----------------------
    const std::size_t target = config.batch_samples;
    const double flush_us = static_cast<double>(config.flush_deadline_us);
    std::deque<PendingRequest> queue;
    std::size_t queued_samples = 0;
    std::size_t next_arrival = 0;
    double engine_free = 0.0;
    double last_completion = 0.0;
    std::vector<double> latency(trace.size(), 0.0);

    auto admit_until = [&](double now) {
      while (next_arrival < trace.size() &&
             static_cast<double>(trace[next_arrival].arrival_us) <= now) {
        const auto& request = trace[next_arrival];
        queue.push_back({next_arrival,
                         static_cast<double>(request.arrival_us),
                         request.samples, request.sparse,
                         request.sparse
                             ? make_sparse_stream(spec, next_arrival,
                                                  request.samples, features)
                             : std::vector<std::uint8_t>{}});
        queued_samples += request.samples;
        ++next_arrival;
      }
    };

    while (next_arrival < trace.size() || !queue.empty()) {
      if (queue.empty()) {
        admit_until(static_cast<double>(trace[next_arrival].arrival_us));
      }
      // Earliest instant the dispatcher could act on the current front.
      double ready = std::max(engine_free, queue.front().arrival_us);
      admit_until(ready);
      if (queued_samples < target) {
        // Partial batch: wait until arrivals fill it or the oldest
        // request's flush deadline expires, whichever comes first.
        const double flush_at = queue.front().arrival_us + flush_us;
        double fill_at = std::numeric_limits<double>::infinity();
        std::size_t cumulative = queued_samples;
        for (std::size_t j = next_arrival; j < trace.size(); ++j) {
          cumulative += trace[j].samples;
          if (cumulative >= target) {
            fill_at = static_cast<double>(trace[j].arrival_us);
            break;
          }
        }
        double dispatch_at = std::min(fill_at, flush_at);
        if (!std::isfinite(dispatch_at)) dispatch_at = flush_at;
        ready = std::max(ready, dispatch_at);
        admit_until(ready);
      }

      // One batch of the front request's encoding, as the live dispatcher
      // forms it: requests of that encoding in FIFO order up to the
      // target, the one that overflows it sliced at a sample boundary. A
      // sparse batch is timed as its slices' samples joined into one
      // stream.
      const bool sparse = queue.front().sparse;
      std::vector<std::uint8_t> joined;
      std::size_t batch = 0;
      std::vector<std::size_t> completed;
      while (batch < target && !queue.empty() &&
             queue.front().sparse == sparse) {
        auto& request = queue.front();
        const auto take = std::min(target - batch, request.remaining);
        if (sparse) {
          const auto rest =
              std::span<const std::uint8_t>(request.stream)
                  .subspan(request.byte_cursor);
          const std::size_t length = compiler::sparse_prefix_bytes(rest, take);
          joined.insert(joined.end(), rest.begin(), rest.begin() + length);
          request.byte_cursor += length;
        }
        request.remaining -= take;
        batch += take;
        queued_samples -= take;
        if (request.remaining == 0) {
          completed.push_back(request.index);
          queue.pop_front();
        }
      }
      const double service =
          sparse ? sparse_service_us(joined, batch) : dense_service_us(batch);
      const double start = std::max(ready, engine_free);
      const double done = start + service;
      engine_free = done;
      last_completion = std::max(last_completion, done);
      for (const auto index : completed) {
        latency[index] = done - static_cast<double>(trace[index].arrival_us);
      }
      ++score.batches;
    }

    const double first_arrival = static_cast<double>(trace.front().arrival_us);
    const double makespan = std::max(last_completion - first_arrival, 1e-9);
    std::size_t total_samples = 0;
    for (const auto& request : trace) total_samples += request.samples;
    score.feasible = true;
    score.samples_per_second =
        static_cast<double>(total_samples) * 1e6 / makespan;
    score.mean_latency_us =
        std::accumulate(latency.begin(), latency.end(), 0.0) /
        static_cast<double>(latency.size());
    score.makespan_us = static_cast<std::uint64_t>(makespan);
  } catch (const ConfigError& error) {
    score = CandidateScore{};
    score.rejection = error.what();
  } catch (const PlacementError& error) {
    score = CandidateScore{};
    score.rejection = error.what();
  } catch (const DeviceMemoryError& error) {
    score = CandidateScore{};
    score.rejection = error.what();
  }
  return score;
}

}  // namespace spnhbm::tune
