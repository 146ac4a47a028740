#include "fuzz_drivers.hpp"

#include <sstream>
#include <string>
#include <vector>

#include "api/cli_options.hpp"
#include "api/status.hpp"
#include "edge_list_oracle.hpp"
#include "graph/io.hpp"
#include "mpc/faults.hpp"
#include "mpc/shard_format.hpp"
#include "obs/events.hpp"
#include "support/options.hpp"
#include "support/parse_error.hpp"

namespace dmpc::fuzz {
namespace {

// Small caps so the fuzzer explores the limit checks instead of timing out
// on genuinely huge (but well-formed) inputs.
graph::EdgeListLimits fuzz_limits(graph::DuplicatePolicy policy) {
  graph::EdgeListLimits limits;
  limits.max_nodes = 1u << 16;
  limits.max_edges = 1u << 16;
  limits.max_line_bytes = 1u << 12;
  limits.duplicates = policy;
  return limits;
}

void read_one(const std::string& text, graph::DuplicatePolicy policy) {
  // The block scanner and the line-at-a-time oracle must agree exactly:
  // the same graph, or the same typed error at the same place.
  if (!edge_list_difference(text, fuzz_limits(policy)).empty()) {
    __builtin_trap();
  }
  try {
    std::istringstream in(text);
    const graph::Graph g = graph::read_edge_list(in, fuzz_limits(policy));
    // Accepted input must survive a write/re-read round trip unchanged in
    // shape. The re-read uses kReject: the writer never emits duplicates.
    std::ostringstream out;
    graph::write_edge_list(g, out);
    std::istringstream back(out.str());
    const graph::Graph g2 =
        graph::read_edge_list(back, fuzz_limits(graph::DuplicatePolicy::kReject));
    if (g2.num_nodes() != g.num_nodes() || g2.num_edges() != g.num_edges()) {
      __builtin_trap();
    }
  } catch (const ParseError&) {
    // Typed rejection: the expected outcome for malformed input.
  }
}

}  // namespace

int drive_edge_list(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  read_one(text, graph::DuplicatePolicy::kReject);
  read_one(text, graph::DuplicatePolicy::kDedupe);
  return 0;
}

int drive_fault_plan(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const mpc::FaultPlan plan = mpc::FaultPlan::parse(text);
    // An accepted plan must be internally consistent, and its printed form
    // must re-parse to the same plan (print/parse is the identity on
    // admissible plans — the CLI round-trips --fault-plan files).
    if (!plan.check().empty()) __builtin_trap();
    const std::string printed = plan.to_string();
    const mpc::FaultPlan back = mpc::FaultPlan::parse(printed);
    if (back.events().size() != plan.events().size() ||
        back.io_events().size() != plan.io_events().size()) {
      __builtin_trap();
    }
    if (back.to_string() != printed) __builtin_trap();
  } catch (const ParseError&) {
  }
  return 0;
}

int drive_cli_args(const std::uint8_t* data, std::size_t size) {
  // One argument per line, capped so a pathological input cannot allocate
  // an unbounded argv.
  constexpr std::size_t kMaxArgs = 64;
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::vector<std::string> argv_storage;
  std::istringstream lines(text);
  std::string line;
  while (argv_storage.size() < kMaxArgs && std::getline(lines, line)) {
    argv_storage.push_back(line);
  }
  std::vector<const char*> argv;
  argv.reserve(argv_storage.size() + 1);
  argv.push_back("dmpc");  // ArgParser skips argv[0]
  for (const std::string& arg : argv_storage) argv.push_back(arg.c_str());
  try {
    const ArgParser args(static_cast<int>(argv.size()), argv.data());
    (void)parse_solve_options(args);
  } catch (const ParseError&) {
  } catch (const OptionsError&) {
  }
  return 0;
}

int drive_shard_header(const std::uint8_t* data, std::size_t size) {
  // Same cap philosophy as fuzz_limits: small n/m ceilings steer the fuzzer
  // into the limit checks rather than huge well-formed declarations (the
  // parser's allocation is bounded by `size` regardless).
  graph::EdgeListLimits limits;
  limits.max_nodes = 1u << 16;
  limits.max_edges = 1u << 16;
  try {
    const mpc::ShardManifest manifest =
        mpc::parse_shard_manifest(data, size, limits);
    // An accepted manifest must survive an encode/re-parse round trip with
    // its totals and shard checksums intact and a freshly stamped digest.
    const auto bytes = mpc::encode_shard_manifest(manifest);
    const mpc::ShardManifest back =
        mpc::parse_shard_manifest(bytes.data(), bytes.size(), limits);
    if (back.n != manifest.n || back.m != manifest.m ||
        back.shards.size() != manifest.shards.size()) {
      __builtin_trap();
    }
    if (back.digest != mpc::manifest_digest(bytes.data(), bytes.size())) {
      __builtin_trap();
    }
    for (std::size_t i = 0; i < back.shards.size(); ++i) {
      if (back.shards[i].crc64 != manifest.shards[i].crc64) __builtin_trap();
    }
  } catch (const ParseError&) {
  }
  return 0;
}

int drive_event_filter(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const obs::EventFilter filter = obs::parse_event_filter(text);
    // An accepted filter must be non-empty (the grammar rejects empty
    // lists) and survive the canonical print/re-parse round trip — the
    // contract event_filter_to_string documents.
    if (filter.mask() == 0) __builtin_trap();
    const std::string printed = obs::event_filter_to_string(filter);
    const obs::EventFilter back = obs::parse_event_filter(printed);
    if (back.mask() != filter.mask()) __builtin_trap();
    if (obs::event_filter_to_string(back) != printed) __builtin_trap();
  } catch (const OptionsError& e) {
    // Typed rejection: must carry the matching status code.
    if (e.status().code() != StatusCode::kInvalidEventFilter) __builtin_trap();
  }
  return 0;
}

}  // namespace dmpc::fuzz
