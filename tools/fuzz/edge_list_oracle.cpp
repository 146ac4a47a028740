#include "edge_list_oracle.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <functional>
#include <istream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "support/parse_error.hpp"

namespace dmpc::fuzz {
namespace {

using graph::DuplicatePolicy;
using graph::Edge;
using graph::EdgeListHeader;
using graph::EdgeListLimits;
using graph::Graph;
using graph::kNoNode;
using graph::NodeId;
using parse::clip;
using parse::require_u64;
using parse::Token;
using parse::tokenize;

std::string errno_detail() {
  const int err = errno;
  return err != 0 ? std::strerror(err) : "unknown error";
}

void scan_edge_list_oracle(
    std::istream& in, const EdgeListLimits& limits,
    const std::function<void(const EdgeListHeader&)>& on_header,
    const std::function<void(NodeId, NodeId, std::uint64_t, std::uint64_t)>&
        on_edge) {
  std::string line;
  std::uint64_t line_no = 0;
  bool header_seen = false;
  NodeId n = 0;
  std::uint64_t declared_m = 0;
  std::uint64_t data_lines = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.size() > limits.max_line_bytes) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "line exceeds " + std::to_string(limits.max_line_bytes) +
                           " byte limit",
                       line_no);
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<Token> toks = tokenize(line);
    if (toks.empty()) continue;  // blank/comment line
    if (toks.size() != 2) {
      throw ParseError(
          ParseErrorCode::kMalformedLine,
          "expected exactly two tokens, found " + std::to_string(toks.size()),
          line_no, toks.size() > 2 ? toks[2].column : toks[0].column,
          clip(toks.size() > 2 ? toks[2].text : toks[0].text));
    }
    const std::uint64_t a = require_u64(toks[0], line_no);
    const std::uint64_t b = require_u64(toks[1], line_no);
    if (!header_seen) {
      header_seen = true;
      // First data line is the "n m" header.
      if (a == 0 || a >= kNoNode) {
        throw ParseError(ParseErrorCode::kBadHeader,
                         "node count must be in [1, 2^32 - 2]", line_no,
                         toks[0].column, clip(toks[0].text));
      }
      if (a > limits.max_nodes) {
        throw ParseError(ParseErrorCode::kLimitExceeded,
                         "declared node count exceeds cap of " +
                             std::to_string(limits.max_nodes),
                         line_no, toks[0].column, clip(toks[0].text));
      }
      if (b > limits.max_edges) {
        throw ParseError(ParseErrorCode::kLimitExceeded,
                         "declared edge count exceeds cap of " +
                             std::to_string(limits.max_edges),
                         line_no, toks[1].column, clip(toks[1].text));
      }
      n = static_cast<NodeId>(a);
      declared_m = b;
      on_header(EdgeListHeader{n, declared_m});
      continue;
    }
    ++data_lines;
    if (data_lines > limits.max_edges) {
      throw ParseError(
          ParseErrorCode::kLimitExceeded,
          "edge count exceeds cap of " + std::to_string(limits.max_edges),
          line_no);
    }
    if (a >= n) {
      throw ParseError(ParseErrorCode::kOutOfRange,
                       "edge endpoint out of declared range [0, " +
                           std::to_string(n) + ")",
                       line_no, toks[0].column, clip(toks[0].text));
    }
    if (b >= n) {
      throw ParseError(ParseErrorCode::kOutOfRange,
                       "edge endpoint out of declared range [0, " +
                           std::to_string(n) + ")",
                       line_no, toks[1].column, clip(toks[1].text));
    }
    if (a == b) {
      if (limits.duplicates == DuplicatePolicy::kDedupe) continue;
      throw ParseError(ParseErrorCode::kSelfLoop, "self-loop edge", line_no,
                       toks[0].column, clip(toks[0].text));
    }
    on_edge(static_cast<NodeId>(a), static_cast<NodeId>(b), line_no,
            toks[0].column);
  }
  if (in.bad()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "read failure: " + errno_detail(), line_no);
  }
  if (!header_seen) {
    throw ParseError(ParseErrorCode::kBadHeader, "empty edge list input");
  }
  if (limits.check_edge_count && data_lines != declared_m) {
    throw ParseError(ParseErrorCode::kCountMismatch,
                     "header declares " + std::to_string(declared_m) +
                         " edges but input contains " +
                         std::to_string(data_lines),
                     line_no);
  }
}

}  // namespace

Graph oracle_read_edge_list(std::istream& in, const EdgeListLimits& limits) {
  NodeId n = 0;
  std::vector<Edge> edges;
  std::unordered_set<std::uint64_t> seen;
  scan_edge_list_oracle(
      in, limits,
      [&](const EdgeListHeader& header) {
        n = header.n;
        // Reserve only a bounded prefix: allocation must track bytes
        // actually read, never an adversarial header.
        edges.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(header.declared_m, 1ull << 20)));
      },
      [&](NodeId a, NodeId b, std::uint64_t line_no, std::uint64_t column) {
        const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
        if (!seen.insert((lo << 32) | hi).second) {
          if (limits.duplicates == DuplicatePolicy::kDedupe) return;
          throw ParseError(ParseErrorCode::kDuplicateEdge,
                           "duplicate edge {" + std::to_string(lo) + ", " +
                               std::to_string(hi) + "}",
                           line_no, column);
        }
        edges.push_back({a, b});
      });
  return Graph::from_edges(n, std::move(edges));
}

namespace {

/// What one reader returned: a graph, or the typed error it threw.
struct Outcome {
  std::optional<Graph> graph;
  std::optional<ParseError> error;
};

template <typename Reader>
Outcome run_reader(const std::string& text, Reader read) {
  std::istringstream in(text);
  Outcome out;
  try {
    out.graph.emplace(read(in));
  } catch (const ParseError& e) {
    out.error.emplace(e);
  }
  return out;
}

std::string describe(const Outcome& o) {
  if (o.error) return std::string("error: ") + o.error->what();
  return "graph with n=" + std::to_string(o.graph->num_nodes()) +
         ", m=" + std::to_string(o.graph->num_edges());
}

}  // namespace

std::string edge_list_difference(const std::string& text,
                                 const EdgeListLimits& limits) {
  const Outcome fast = run_reader(text, [&](std::istream& in) {
    return graph::read_edge_list(in, limits);
  });
  const Outcome oracle = run_reader(text, [&](std::istream& in) {
    return oracle_read_edge_list(in, limits);
  });
  bool same = false;
  if (fast.graph && oracle.graph) {
    same = fast.graph->num_nodes() == oracle.graph->num_nodes() &&
           fast.graph->edges() == oracle.graph->edges();
  } else if (fast.error && oracle.error) {
    const ParseError& a = *fast.error;
    const ParseError& b = *oracle.error;
    same = a.code() == b.code() && a.line() == b.line() &&
           a.column() == b.column() && a.token() == b.token() &&
           a.message() == b.message();
  }
  if (same) return "";
  return "read_edge_list gave " + describe(fast) + "; the oracle gave " +
         describe(oracle);
}

}  // namespace dmpc::fuzz
