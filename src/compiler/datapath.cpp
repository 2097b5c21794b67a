#include "spnhbm/compiler/datapath.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "spnhbm/compiler/op_program.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/validate.hpp"
#include "spnhbm/util/error.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::compiler {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kHistogramLookup: return "hist";
    case OpKind::kMul: return "mul";
    case OpKind::kConstMul: return "cmul";
    case OpKind::kAdd: return "add";
    case OpKind::kMax: return "max";
  }
  return "?";
}

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kJoint: return "joint";
    case QueryKind::kMarginal: return "marginal";
    case QueryKind::kMpe: return "mpe";
  }
  return "?";
}

QueryKind parse_query_kind(const std::string& name) {
  if (name == "joint") return QueryKind::kJoint;
  if (name == "marginal") return QueryKind::kMarginal;
  if (name == "mpe") return QueryKind::kMpe;
  throw ParseError("unknown query kind '" + name +
                   "' (expected joint, marginal or mpe)");
}

DatapathModule::DatapathModule(std::vector<DatapathOp> ops,
                               std::vector<LookupTable> tables, OpId result_op,
                               std::size_t input_features,
                               std::uint32_t pipeline_depth, QueryKind query,
                               std::vector<std::uint8_t> default_evidence)
    : ops_(std::move(ops)),
      tables_(std::move(tables)),
      result_op_(result_op),
      input_features_(input_features),
      pipeline_depth_(pipeline_depth),
      query_(query),
      default_evidence_(std::move(default_evidence)),
      programs_(std::make_shared<ProgramCache>()) {
  SPNHBM_REQUIRE(result_op_ < ops_.size(), "result op out of range");
  if (default_evidence_.empty()) {
    default_evidence_.assign(
        input_features_, query_ == QueryKind::kJoint ? std::uint8_t{0}
                                                     : kMissingByte);
  }
  SPNHBM_REQUIRE(default_evidence_.size() == input_features_,
                 "default evidence must span every input feature");
}

std::size_t DatapathModule::count_ops(OpKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(),
                    [kind](const DatapathOp& op) { return op.kind == kind; }));
}

std::uint64_t DatapathModule::balance_register_stages() const {
  std::uint64_t total = 0;
  for (const auto& op : ops_) total += op.lhs_delay + op.rhs_delay;
  return total;
}

double DatapathModule::evaluate(const arith::ArithBackend& backend,
                                std::span<const std::uint8_t> sample) const {
  SPNHBM_REQUIRE(sample.size() >= input_features_,
                 "sample narrower than the datapath input");
  return evaluate(backend, SampleView::dense(sample));
}

double DatapathModule::evaluate(const arith::ArithBackend& backend,
                                const SampleView& sample) const {
  std::vector<std::uint64_t> values(ops_.size());
  for (OpId id = 0; id < ops_.size(); ++id) {
    const auto& op = ops_[id];
    switch (op.kind) {
      case OpKind::kHistogramLookup: {
        const auto& table = tables_[op.table_index];
        const std::uint8_t byte = sample[op.variable];
        SPNHBM_REQUIRE(byte < table.probability_by_byte.size(),
                       "feature byte outside lookup table");
        values[id] = backend.encode(table.probability_by_byte[byte]);
        break;
      }
      case OpKind::kMul:
        values[id] = backend.mul(values[op.lhs], values[op.rhs]);
        break;
      case OpKind::kConstMul:
        values[id] = backend.mul(values[op.lhs], backend.encode(op.constant));
        break;
      case OpKind::kAdd:
        values[id] = backend.add(values[op.lhs], values[op.rhs]);
        break;
      case OpKind::kMax:
        values[id] = backend.max(values[op.lhs], values[op.rhs]);
        break;
    }
  }
  return backend.decode(values[result_op_]);
}

struct DatapathModule::ProgramCache {
  std::mutex mutex;
  std::vector<std::pair<arith::NumberFormat, std::unique_ptr<const OpProgram>>>
      programs;
};

const OpProgram& DatapathModule::program(
    const arith::ArithBackend& backend) const {
  const arith::NumberFormat format = backend.format();
  const std::lock_guard<std::mutex> lock(programs_->mutex);
  for (const auto& [built_for, program] : programs_->programs) {
    if (built_for == format) return *program;
  }
  programs_->programs.emplace_back(
      format, std::make_unique<const OpProgram>(*this, backend));
  return *programs_->programs.back().second;
}

std::string DatapathModule::report() const {
  std::string text = strformat(
      "datapath: %zu ops (%zu hist, %zu mul, %zu cmul, %zu add), %zu lookup "
      "tables, %zu input bytes, pipeline depth %u, II=%u, %llu balance "
      "register stages",
      ops_.size(), count_ops(OpKind::kHistogramLookup),
      count_ops(OpKind::kMul), count_ops(OpKind::kConstMul),
      count_ops(OpKind::kAdd), tables_.size(), input_features_,
      pipeline_depth_, initiation_interval(),
      static_cast<unsigned long long>(balance_register_stages()));
  // Joint datapaths keep the historical report byte-identical; non-joint
  // ones carry their query (and the max-tree ops MPE lowers to).
  if (query_ != QueryKind::kJoint) {
    text += strformat(", query %s", query_kind_name(query_));
    if (const std::size_t maxes = count_ops(OpKind::kMax); maxes > 0) {
      text += strformat(" (%zu max)", maxes);
    }
  }
  return text;
}

namespace {

class Lowering {
 public:
  Lowering(const spn::Spn& spn, const arith::ArithBackend& backend,
           const CompileOptions& options)
      : spn_(spn), backend_(backend), options_(options) {}

  DatapathModule run() {
    spn::validate_or_throw(spn_);
    std::vector<OpId> op_of_node(spn_.node_count(), kNoOp);
    for (const spn::NodeId id : spn_.reachable_topological()) {
      op_of_node[id] = lower_node(id, op_of_node);
    }
    const OpId result = op_of_node[spn_.root()];
    schedule();
    const auto depth = ops_[result].stage + ops_[result].latency;
    return DatapathModule(std::move(ops_), std::move(tables_), result,
                          spn_.variable_count(), depth, options_.query);
  }

 private:
  std::uint32_t op_latency(OpKind kind) const {
    switch (kind) {
      case OpKind::kHistogramLookup: return 2;  // BRAM read + register
      case OpKind::kMul:
      case OpKind::kConstMul:
        return static_cast<std::uint32_t>(backend_.mul_latency_cycles());
      case OpKind::kAdd:
        return static_cast<std::uint32_t>(backend_.add_latency_cycles());
      case OpKind::kMax:
        return static_cast<std::uint32_t>(backend_.max_latency_cycles());
    }
    return 1;
  }

  OpId push(DatapathOp op) {
    op.latency = op_latency(op.kind);
    ops_.push_back(op);
    return static_cast<OpId>(ops_.size() - 1);
  }

  std::uint32_t make_table(const spn::HistogramLeaf& leaf) {
    LookupTable table;
    table.variable = leaf.variable;
    table.probability_by_byte.resize(options_.input_domain, 0.0);
    for (std::size_t byte = 0; byte < options_.input_domain; ++byte) {
      table.probability_by_byte[byte] =
          spn::leaf_density(spn::NodePayload(leaf), static_cast<double>(byte));
    }
    if (options_.query != QueryKind::kJoint) {
      // The reserved "marginalised" slot: a missing variable contributes
      // 1 under sum-out semantics (log-space 0), and its best completion
      // under max-product — the most probable bucket's density.
      table.probability_by_byte.resize(kMissingByte + 1, 0.0);
      if (options_.query == QueryKind::kMarginal) {
        table.probability_by_byte[kMissingByte] = 1.0;
      } else {
        double best = 0.0;
        for (std::size_t byte = 0; byte < options_.input_domain; ++byte) {
          best = std::max(best, table.probability_by_byte[byte]);
        }
        table.probability_by_byte[kMissingByte] = best;
      }
    }
    if (options_.deduplicate_tables) {
      const auto key = std::make_pair(leaf.variable, table.probability_by_byte);
      const auto it = table_cache_.find(key);
      if (it != table_cache_.end()) return it->second;
      const auto index = static_cast<std::uint32_t>(tables_.size());
      table_cache_.emplace(key, index);
      tables_.push_back(std::move(table));
      return index;
    }
    tables_.push_back(std::move(table));
    return static_cast<std::uint32_t>(tables_.size() - 1);
  }

  /// Balanced binary reduction tree over `operands` with `kind` operators.
  OpId reduce_tree(std::vector<OpId> operands, OpKind kind) {
    SPNHBM_REQUIRE(!operands.empty(), "empty reduction");
    while (operands.size() > 1) {
      std::vector<OpId> next;
      next.reserve((operands.size() + 1) / 2);
      for (std::size_t i = 0; i + 1 < operands.size(); i += 2) {
        DatapathOp op;
        op.kind = kind;
        op.lhs = operands[i];
        op.rhs = operands[i + 1];
        next.push_back(push(op));
      }
      if (operands.size() % 2 == 1) next.push_back(operands.back());
      operands = std::move(next);
    }
    return operands.front();
  }

  OpId lower_node(spn::NodeId id, const std::vector<OpId>& op_of_node) {
    const auto& payload = spn_.node(id);
    if (const auto* histogram = std::get_if<spn::HistogramLeaf>(&payload)) {
      DatapathOp op;
      op.kind = OpKind::kHistogramLookup;
      op.variable = histogram->variable;
      op.table_index = make_table(*histogram);
      return push(op);
    }
    if (const auto* product = std::get_if<spn::ProductNode>(&payload)) {
      std::vector<OpId> operands;
      operands.reserve(product->children.size());
      for (const spn::NodeId child : product->children) {
        operands.push_back(op_of_node[child]);
      }
      return reduce_tree(std::move(operands), OpKind::kMul);
    }
    if (const auto* sum = std::get_if<spn::SumNode>(&payload)) {
      std::vector<OpId> operands;
      operands.reserve(sum->children.size());
      for (std::size_t c = 0; c < sum->children.size(); ++c) {
        DatapathOp weighted;
        weighted.kind = OpKind::kConstMul;
        weighted.lhs = op_of_node[sum->children[c]];
        weighted.constant = sum->weights[c];
        operands.push_back(push(weighted));
      }
      // Max-product: the sum node picks its best weighted child instead
      // of mixing them — same operand fan-in, comparator tree instead of
      // adder tree.
      return reduce_tree(std::move(operands),
                         options_.query == QueryKind::kMpe ? OpKind::kMax
                                                           : OpKind::kAdd);
    }
    throw Error(strformat(
        "node %u: %s leaves are not supported by the byte-input hardware "
        "flow (only histogram leaves map to lookup tables)",
        id, spn::node_kind_name(spn::node_kind(payload))));
  }

  /// ASAP pipeline scheduling + balance-register insertion.
  void schedule() {
    for (auto& op : ops_) {
      if (op.kind == OpKind::kHistogramLookup) {
        op.stage = 0;  // all lookups fire when the sample enters
        continue;
      }
      const auto ready = [this](OpId producer) {
        return ops_[producer].stage + ops_[producer].latency;
      };
      const std::uint32_t lhs_ready = ready(op.lhs);
      const std::uint32_t rhs_ready =
          (op.rhs != kNoOp) ? ready(op.rhs) : lhs_ready;
      op.stage = std::max(lhs_ready, rhs_ready);
      op.lhs_delay = op.stage - lhs_ready;
      if (op.rhs != kNoOp) op.rhs_delay = op.stage - rhs_ready;
    }
  }

  const spn::Spn& spn_;
  const arith::ArithBackend& backend_;
  CompileOptions options_;
  std::vector<DatapathOp> ops_;
  std::vector<LookupTable> tables_;
  std::map<std::pair<spn::VariableId, std::vector<double>>, std::uint32_t>
      table_cache_;
};

}  // namespace

DatapathModule compile_spn(const spn::Spn& spn,
                           const arith::ArithBackend& backend,
                           const CompileOptions& options) {
  SPNHBM_REQUIRE(options.input_domain >= 1 && options.input_domain <= 256,
                 "input domain must fit a byte");
  SPNHBM_REQUIRE(options.query == QueryKind::kJoint ||
                     options.input_domain <= kMissingByte,
                 "non-joint queries reserve byte 255 as the marginalised "
                 "slot; input domain must be <= 255");
  return Lowering(spn, backend, options).run();
}

}  // namespace spnhbm::compiler
