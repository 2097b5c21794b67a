#include "spnhbm/compiler/serialize.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "spnhbm/util/strings.hpp"

namespace spnhbm::compiler {

namespace {

constexpr std::uint32_t kMagic = 0x53504E44;  // "SPND"
// The one layout: after the version word come the query-kind word and the
// default-evidence vector, then the datapath.
constexpr std::uint32_t kVersion = 2;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("truncated design file (u32)");
  return v;
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("truncated design file (u64)");
  return v;
}
double read_f64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("truncated design file (f64)");
  return v;
}

}  // namespace

void save_design(const DatapathModule& module, std::ostream& out) {
  write_u32(out, kMagic);
  write_u32(out, kVersion);
  write_u32(out, static_cast<std::uint32_t>(module.query()));
  write_u64(out, module.default_evidence().size());
  out.write(reinterpret_cast<const char*>(module.default_evidence().data()),
            static_cast<std::streamsize>(module.default_evidence().size()));
  write_u64(out, module.input_features());
  write_u32(out, module.pipeline_depth());
  write_u32(out, module.result_op());

  write_u64(out, module.ops().size());
  for (const auto& op : module.ops()) {
    write_u32(out, static_cast<std::uint32_t>(op.kind));
    write_u32(out, op.lhs);
    write_u32(out, op.rhs);
    write_u32(out, op.variable);
    write_u32(out, op.table_index);
    write_f64(out, op.constant);
    write_u32(out, op.stage);
    write_u32(out, op.latency);
    write_u32(out, op.lhs_delay);
    write_u32(out, op.rhs_delay);
  }

  write_u64(out, module.tables().size());
  for (const auto& table : module.tables()) {
    write_u32(out, table.variable);
    write_u64(out, table.probability_by_byte.size());
    for (const double p : table.probability_by_byte) write_f64(out, p);
  }
  SPNHBM_REQUIRE(out.good(), "design serialisation stream failure");
}

DatapathModule load_design(std::istream& in) {
  if (read_u32(in) != kMagic) {
    throw ParseError("not a spnhbm design file (bad magic)");
  }
  const std::uint32_t version = read_u32(in);
  if (version != kVersion) {
    throw ParseError(strformat("unsupported design file version %u (this "
                               "build reads only version %u)",
                               version, kVersion));
  }
  const std::uint32_t raw_query = read_u32(in);
  if (raw_query > static_cast<std::uint32_t>(QueryKind::kMpe)) {
    throw ParseError("invalid query kind in design file");
  }
  const auto query = static_cast<QueryKind>(raw_query);
  const std::uint64_t evidence_bytes = read_u64(in);
  if (evidence_bytes > 65536) {
    throw ParseError("implausible default-evidence size");
  }
  std::vector<std::uint8_t> default_evidence(evidence_bytes);
  in.read(reinterpret_cast<char*>(default_evidence.data()),
          static_cast<std::streamsize>(evidence_bytes));
  if (!in) throw ParseError("truncated design file (default evidence)");
  const std::uint64_t features = read_u64(in);
  if (default_evidence.size() != features) {
    throw ParseError("default evidence does not span the input features");
  }
  const std::uint32_t pipeline_depth = read_u32(in);
  const std::uint32_t result_op = read_u32(in);

  const std::uint64_t op_count = read_u64(in);
  if (op_count > (1ull << 28)) throw ParseError("implausible op count");
  std::vector<DatapathOp> ops;
  ops.reserve(op_count);
  for (std::uint64_t i = 0; i < op_count; ++i) {
    DatapathOp op;
    const std::uint32_t kind = read_u32(in);
    if (kind > static_cast<std::uint32_t>(OpKind::kMax)) {
      throw ParseError("invalid op kind in design file");
    }
    op.kind = static_cast<OpKind>(kind);
    op.lhs = read_u32(in);
    op.rhs = read_u32(in);
    op.variable = read_u32(in);
    op.table_index = read_u32(in);
    op.constant = read_f64(in);
    op.stage = read_u32(in);
    op.latency = read_u32(in);
    op.lhs_delay = read_u32(in);
    op.rhs_delay = read_u32(in);
    // Producers must precede consumers (the evaluator relies on it).
    if (op.kind != OpKind::kHistogramLookup) {
      if (op.lhs >= i || (op.rhs != kNoOp && op.rhs >= i)) {
        throw ParseError("design file violates topological op order");
      }
    }
    ops.push_back(op);
  }

  const std::uint64_t table_count = read_u64(in);
  if (table_count > op_count) throw ParseError("implausible table count");
  std::vector<LookupTable> tables;
  tables.reserve(table_count);
  for (std::uint64_t t = 0; t < table_count; ++t) {
    LookupTable table;
    table.variable = read_u32(in);
    const std::uint64_t entries = read_u64(in);
    if (entries == 0 || entries > 65536) {
      throw ParseError("implausible lookup table size");
    }
    table.probability_by_byte.resize(entries);
    for (auto& p : table.probability_by_byte) p = read_f64(in);
    tables.push_back(std::move(table));
  }
  for (const auto& op : ops) {
    if (op.kind == OpKind::kHistogramLookup &&
        op.table_index >= tables.size()) {
      throw ParseError("op references a missing lookup table");
    }
  }
  if (result_op >= ops.size()) {
    throw ParseError("result op out of range in design file");
  }
  return DatapathModule(std::move(ops), std::move(tables), result_op,
                        features, pipeline_depth, query,
                        std::move(default_evidence));
}

void save_design_file(const DatapathModule& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open design file for writing: " + path);
  save_design(module, out);
}

DatapathModule load_design_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open design file: " + path);
  return load_design(in);
}

bool is_design_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open file: " + path);
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic == kMagic;
}

}  // namespace spnhbm::compiler
