#include "graph/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/parse_error.hpp"

namespace dmpc::graph {
namespace {

using parse::clip;

std::string errno_detail() {
  const int err = errno;
  return err != 0 ? std::strerror(err) : "unknown error";
}

/// A token of a line and its value, parsed in place.
struct Field {
  const char* begin = nullptr;
  const char* end = nullptr;
  std::uint64_t value = 0;
};

/// Splits a line (already cut at '\r' and '#') on spaces and tabs, parsing
/// each token with parse::parse_u64's digit and overflow rule. Returns the
/// token count (0: blank) if there are at most two and both are u64s, else 3.
int split_two_u64(const char* p, const char* end, Field* fields) {
  for (int count = 0;; ++count) {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
    if (p == end) return count;
    if (count == 2) return 3;
    Field& f = fields[count];
    for (f.begin = p; p < end && *p != ' ' && *p != '\t'; ++p) {
      const std::uint64_t digit = static_cast<unsigned char>(*p) - 0x30u;
      if (digit > 9 || f.value > (UINT64_MAX - digit) / 10) return 3;
      f.value = f.value * 10 + digit;
    }
    f.end = p;
  }
}

/// The error for a line split_two_u64 refused, from the token-vector parse.
[[noreturn]] void throw_line_error(const char* begin, const char* end,
                                   std::uint64_t line_no) {
  const auto toks = parse::tokenize(std::string(begin, end));
  if (toks.size() != 2) {
    throw ParseError(
        ParseErrorCode::kMalformedLine,
        "expected exactly two tokens, found " + std::to_string(toks.size()),
        line_no, toks.size() > 2 ? toks[2].column : toks[0].column,
        clip(toks.size() > 2 ? toks[2].text : toks[0].text));
  }
  parse::require_u64(toks[0], line_no);
  parse::require_u64(toks[1], line_no);
  DMPC_CHECK_MSG(false, "split_two_u64 refused a well-formed line");
}

}  // namespace

void scan_edge_list(
    std::istream& in, const EdgeListLimits& limits,
    const std::function<void(const EdgeListHeader&)>& on_header,
    const std::function<void(NodeId, NodeId, std::uint64_t, std::uint64_t)>&
        on_edge) {
  std::uint64_t line_no = 0;
  bool header_seen = false;
  NodeId n = 0;
  std::uint64_t declared_m = 0;
  std::uint64_t data_lines = 0;
  // Token text, columns and messages are built only on the error path.
  const auto on_line = [&](const char* begin, const char* end) {
    ++line_no;
    if (static_cast<std::uint64_t>(end - begin) > limits.max_line_bytes) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "line exceeds " + std::to_string(limits.max_line_bytes) +
                           " byte limit",
                       line_no);
    }
    if (begin < end && end[-1] == '\r') --end;
    if (const void* hash = std::memchr(begin, '#', end - begin)) {
      end = static_cast<const char*>(hash);
    }
    Field f[2];
    const int count = split_two_u64(begin, end, f);
    if (count == 0) return;  // blank/comment line
    if (count != 2) throw_line_error(begin, end, line_no);
    const auto fail = [&](ParseErrorCode code, const std::string& message,
                          const Field& at) {
      throw ParseError(code, message, line_no,
                       static_cast<std::uint64_t>(at.begin - begin) + 1,
                       clip(std::string(at.begin, at.end)));
    };
    if (!header_seen) {
      // First data line is the "n m" header.
      if (f[0].value == 0 || f[0].value >= kNoNode) {
        fail(ParseErrorCode::kBadHeader, "node count must be in [1, 2^32 - 2]",
             f[0]);
      }
      if (f[0].value > limits.max_nodes) {
        fail(ParseErrorCode::kLimitExceeded,
             "declared node count exceeds cap of " +
                 std::to_string(limits.max_nodes),
             f[0]);
      }
      if (f[1].value > limits.max_edges) {
        fail(ParseErrorCode::kLimitExceeded,
             "declared edge count exceeds cap of " +
                 std::to_string(limits.max_edges),
             f[1]);
      }
      header_seen = true;
      n = static_cast<NodeId>(f[0].value);
      declared_m = f[1].value;
      on_header(EdgeListHeader{n, declared_m});
      return;
    }
    if (++data_lines > limits.max_edges) {
      throw ParseError(
          ParseErrorCode::kLimitExceeded,
          "edge count exceeds cap of " + std::to_string(limits.max_edges),
          line_no);
    }
    for (const Field& at : f) {
      if (at.value >= n) {
        fail(ParseErrorCode::kOutOfRange,
             "edge endpoint out of declared range [0, " + std::to_string(n) +
                 ")",
             at);
      }
    }
    if (f[0].value == f[1].value) {
      if (limits.duplicates == DuplicatePolicy::kDedupe) return;
      fail(ParseErrorCode::kSelfLoop, "self-loop edge", f[0]);
    }
    on_edge(static_cast<NodeId>(f[0].value), static_cast<NodeId>(f[1].value),
            line_no, static_cast<std::uint64_t>(f[0].begin - begin) + 1);
  };

  // Fixed-size blocks; buf[0, carry) holds the unfinished line of the last
  // block, which has no '\n' and never exceeds max_line_bytes.
  std::vector<char> buf;
  std::size_t carry = 0;
  for (;;) {
    buf.resize(std::max(buf.size(), carry + kEdgeListBlockBytes));
    in.read(buf.data() + carry, kEdgeListBlockBytes);
    const auto got = static_cast<std::size_t>(in.gcount());
    const char* line = buf.data();
    const char* const end = line + carry + got;
    const char* scan = line + carry;
    while (const void* nl = std::memchr(scan, '\n', end - scan)) {
      on_line(line, static_cast<const char*>(nl));
      line = scan = static_cast<const char*>(nl) + 1;
    }
    carry = static_cast<std::size_t>(end - line);
    if (got < kEdgeListBlockBytes) {
      if (carry > 0 && !in.bad()) on_line(line, end);  // no final '\n'
      break;
    }
    // Over the cap before its '\n' arrives: on_line throws for it.
    if (carry > limits.max_line_bytes) on_line(line, end);
    std::memmove(buf.data(), line, carry);
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

Graph read_edge_list(std::istream& in, const EdgeListLimits& limits) {
  // Canonical (u < v) edges in input order. Diagnostics alone need an
  // edge's line and column: a mark records them where the line is not one
  // past the previous edge's or the column is not 1.
  struct Mark {
    std::uint64_t edge, line, column;
  };
  NodeId n = 0;
  std::vector<Edge> edges;
  std::vector<Mark> marks;
  std::uint64_t last_line = 0;
  // Under kReject, sorts unsorted input (so from_edges skips its sort) and
  // reports the duplicate whose second occurrence comes first, as a reader
  // checking each edge on arrival would. Every scanned edge precedes a scan
  // error, so running this before rethrowing one keeps the first error in
  // file order. Under kDedupe, from_edges sorts and keeps one copy.
  const auto sort_and_check = [&] {
    if (limits.duplicates == DuplicatePolicy::kDedupe) return;
    std::vector<Edge> sorted;
    if (!std::is_sorted(edges.begin(), edges.end())) {
      sorted = edges;
      std::sort(sorted.begin(), sorted.end());
    }
    const std::vector<Edge>& order = sorted.empty() ? edges : sorted;
    if (std::adjacent_find(order.begin(), order.end()) == order.end()) {
      if (!sorted.empty()) edges.swap(sorted);
      return;
    }
    std::vector<bool> seen(order.size());
    std::uint64_t second = 0;
    for (;; ++second) {
      const auto at = std::lower_bound(order.begin(), order.end(),
                                       edges[second]) - order.begin();
      if (seen[at]) break;
      seen[at] = true;
    }
    const Mark& mark = *std::prev(std::upper_bound(
        marks.begin(), marks.end(), second,
        [](std::uint64_t edge, const Mark& m) { return edge < m.edge; }));
    throw ParseError(ParseErrorCode::kDuplicateEdge,
                     "duplicate edge {" + std::to_string(edges[second].u) +
                         ", " + std::to_string(edges[second].v) + "}",
                     mark.line + (second - mark.edge),
                     mark.edge == second ? mark.column : 1);
  };
  try {
    scan_edge_list(
        in, limits,
        [&](const EdgeListHeader& header) {
          n = header.n;
          // Reserve only a bounded prefix: allocation must track bytes
          // actually read, never an adversarial header.
          edges.reserve(static_cast<std::size_t>(
              std::min<std::uint64_t>(header.declared_m, 1ull << 20)));
        },
        [&](NodeId a, NodeId b, std::uint64_t line_no, std::uint64_t column) {
          if (line_no != last_line + 1 || column != 1) {
            marks.push_back({edges.size(), line_no, column});
          }
          last_line = line_no;
          edges.push_back({std::min(a, b), std::max(a, b)});
        });
  } catch (const ParseError&) {
    sort_and_check();
    throw;
  }
  sort_and_check();
  return Graph::from_edges(n, std::move(edges));
}

Graph read_edge_list_file(const std::string& path,
                          const EdgeListLimits& limits) {
  errno = 0;
  std::ifstream in(path);
  if (!in.good()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "cannot open '" + path + "' for reading: " +
                         errno_detail());
  }
  return read_edge_list(in, limits);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) out << e.u << ' ' << e.v << '\n';
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  errno = 0;
  std::ofstream out(path);
  if (!out.good()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "cannot open '" + path + "' for writing: " +
                         errno_detail());
  }
  write_edge_list(g, out);
  out.flush();
  if (!out.good()) {
    throw ParseError(ParseErrorCode::kIoError,
                     "write failure on '" + path + "': " + errno_detail());
  }
}

}  // namespace dmpc::graph
