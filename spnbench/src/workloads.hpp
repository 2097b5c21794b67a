// The benchmark's workloads. Each builds its own inputs from the seed,
// sets the stack up through the public entry points, measures, checks
// every output and returns a RunReport.
//
//   batch-dense   NIPS80 CFP marginal queries (8 observed words each) as
//                 dense rows through InferenceServer to one 8-PE
//                 FpgaSimEngine: loads the bit-accurate evaluator and the
//                 virtual-time runtime, no RPC.
//   batch-sparse  the same queries as CSR evidence streams through
//                 try_submit_sparse: same work, the sparse lookup path
//                 and fewer PCIe/HBM bytes; sparse requests ride alone.
//   rpc-small     one-sample NIPS10 CFP joint requests over loopback RPC
//                 at an open-loop Poisson rate, plus a rate ladder: loads
//                 the per-request and per-batch path.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace spnbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time of one run, in seconds.
  double seconds = 10.0;
  /// Traced run: report per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
  /// Directory holding result digests per (seed, workload), so dense and
  /// sparse runs of one seed can be compared; empty = no cross-check.
  std::string digest_dir;
};

RunReport run_batch(const Options& options, bool sparse);
RunReport run_rpc_small(const Options& options);

}  // namespace spnbench
