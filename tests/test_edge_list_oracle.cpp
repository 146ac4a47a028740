// Differential test of graph::read_edge_list (the block scanner) against the
// line-at-a-time oracle in tools/fuzz/edge_list_oracle.hpp: on the edge_list
// fuzz corpus, on seeded mutations of it, and on inputs larger than two read
// blocks, both readers must return equal graphs or equal typed errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "edge_list_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "support/rng.hpp"

namespace dmpc {
namespace {

using graph::DuplicatePolicy;
using graph::EdgeListLimits;

std::vector<std::string> corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(DMPC_EDGE_LIST_CORPUS_DIR)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> out;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out.push_back(bytes.str());
  }
  return out;
}

/// The fuzz driver's caps, a tight line cap, and a lenient count check,
/// each under both duplicate policies.
std::vector<EdgeListLimits> limit_variants() {
  EdgeListLimits fuzz;
  fuzz.max_nodes = 1u << 16;
  fuzz.max_edges = 1u << 16;
  fuzz.max_line_bytes = 1u << 12;
  EdgeListLimits tight_line = fuzz;
  tight_line.max_line_bytes = 12;
  EdgeListLimits lenient = fuzz;
  lenient.check_edge_count = false;
  lenient.max_edges = 6;
  std::vector<EdgeListLimits> out;
  for (EdgeListLimits limits : {fuzz, tight_line, lenient}) {
    for (DuplicatePolicy policy :
         {DuplicatePolicy::kReject, DuplicatePolicy::kDedupe}) {
      limits.duplicates = policy;
      out.push_back(limits);
    }
  }
  return out;
}

void expect_agree(const std::string& text, const EdgeListLimits& limits,
                  const std::string& label) {
  const std::string diff = fuzz::edge_list_difference(text, limits);
  EXPECT_TRUE(diff.empty())
      << label << " (max_line_bytes=" << limits.max_line_bytes
      << ", dedupe=" << (limits.duplicates == DuplicatePolicy::kDedupe)
      << "): " << diff;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t nl = text.find('\n', begin);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return lines;
}

/// One random edit: a byte flip, a line swap, a '#' or '\r' insertion, a
/// long token, a repeated line, or a deleted byte.
std::string mutate(std::string text, Rng& rng) {
  const auto at = [&] {
    return static_cast<std::size_t>(rng.next_below(text.size() + 1));
  };
  switch (rng.next_below(7)) {
    case 0:
      if (!text.empty()) {
        text[rng.next_below(text.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      }
      break;
    case 1: {
      std::vector<std::string> lines = split_lines(text);
      if (lines.size() >= 2) {
        std::swap(lines[rng.next_below(lines.size())],
                  lines[rng.next_below(lines.size())]);
      }
      text.clear();
      for (const std::string& line : lines) text += line;
      break;
    }
    case 2:
      text.insert(at(), 1, '#');
      break;
    case 3:
      text.insert(at(), 1, '\r');
      break;
    case 4: {
      const char fill = rng.next_bool(0.5) ? '9' : 'x';
      text.insert(at(), static_cast<std::size_t>(8 + rng.next_below(120)),
                  fill);
      break;
    }
    case 5: {
      const std::vector<std::string> lines = split_lines(text);
      if (!lines.empty()) {
        std::string line = lines[rng.next_below(lines.size())];
        if (line.empty() || line.back() != '\n') line += '\n';
        const std::size_t pos = at();
        const std::size_t nl = text.find('\n', pos);
        text.insert(nl == std::string::npos ? text.size() : nl + 1, line);
      }
      break;
    }
    default:
      if (!text.empty()) text.erase(rng.next_below(text.size()), 1);
      break;
  }
  return text;
}

TEST(EdgeListOracle, CorpusAgrees) {
  const std::vector<std::string> inputs = corpus();
  ASSERT_GE(inputs.size(), 18u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (const EdgeListLimits& limits : limit_variants()) {
      expect_agree(inputs[i], limits, "corpus input " + std::to_string(i));
    }
  }
}

TEST(EdgeListOracle, SeededMutationsAgree) {
  const std::vector<std::string> inputs = corpus();
  const std::vector<EdgeListLimits> limits = limit_variants();
  Rng rng(20260417);
  for (int round = 0; round < 4000; ++round) {
    std::string text = inputs[rng.next_below(inputs.size())];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) text = mutate(std::move(text), rng);
    expect_agree(text, limits[rng.next_below(limits.size())],
                 "mutation round " + std::to_string(round));
    if (HasFailure()) return;
  }
}

/// A gnm edge list of > 2 read blocks with CRLF endings, indented and
/// tab-separated lines, and trailing and full-line comments.
std::string large_input() {
  const graph::Graph g = graph::gnm(3000, 15000, 9);
  std::string text = "# large\r\n3000 15000\r\n";
  std::uint64_t i = 0;
  for (const graph::Edge& e : g.edges()) {
    ++i;
    if (i % 11 == 0) text += "# comment line " + std::to_string(i) + "\r\n";
    text += (i % 5 == 0 ? "  " : "") + std::to_string(e.v) +
            (i % 3 == 0 ? "\t" : " ") + std::to_string(e.u);
    text += i % 7 == 0 ? " # trailing\r\n" : "\r\n";
  }
  return text;
}

TEST(EdgeListOracle, BlockEdgesAgree) {
  const std::string base = large_input();
  ASSERT_GT(base.size(), 2 * graph::kEdgeListBlockBytes);
  EdgeListLimits wide;
  EdgeListLimits narrow;
  narrow.max_line_bytes = 40;
  EdgeListLimits dedupe;
  dedupe.duplicates = DuplicatePolicy::kDedupe;
  const std::size_t edge = graph::kEdgeListBlockBytes;
  // A prefix comment of every length from 1 to 24 bytes shifts each line,
  // CRLF pair and comment of the input across both block edges.
  for (std::size_t shift = 1; shift <= 24; ++shift) {
    std::string text(shift, '-');
    text.front() = '#';
    text += '\n';
    text += base;
    const std::string label = "shift " + std::to_string(shift);
    expect_agree(text, wide, label);
    // An early data line repeated just after the first block edge, then a
    // bad token just after the second: kReject must report the duplicate,
    // kDedupe the bad token.
    std::string bad = text;
    bad.insert(bad.find('\n', edge) + 1, split_lines(text)[5]);
    bad.insert(bad.find('\n', 2 * edge - 8) + 1, "7 x\r\n");
    expect_agree(bad, wide, label + " duplicate, then bad token");
    expect_agree(bad, dedupe, label + " bad token under dedupe");
    if (HasFailure()) return;
  }
  // Comment lines of exactly the narrow cap and one byte over (the '\r'
  // counts) whose '\n' lands around the first block edge: a carried line
  // reaches the cap only when it fills the end of its block. Blank lines
  // pad the input so the line starts exactly where it must.
  for (std::uint64_t over = 0; over < 2; ++over) {
    const std::uint64_t bytes = narrow.max_line_bytes + over;
    for (std::size_t newline_at = edge - 2; newline_at <= edge + 2;
         ++newline_at) {
      std::string line(bytes - 1, 'c');
      line.front() = '#';
      line += "\r\n";
      std::string text = base;
      const std::size_t pad_from = text.find('\n', edge - 3 * bytes) + 1;
      text.insert(pad_from, std::string(newline_at - bytes - pad_from, '\n') +
                                line);
      ASSERT_EQ(text[newline_at], '\n');
      const std::string label = "cap line ending at " +
                                std::to_string(newline_at) + ", " +
                                std::to_string(bytes) + " bytes";
      expect_agree(text, narrow, label);
      expect_agree(text, wide, label + ", wide limits");
    }
  }
  dedupe.check_edge_count = false;
  const std::size_t data = base.find('\n', base.find('\n') + 1) + 1;
  expect_agree(base + base.substr(data), dedupe, "doubled input under dedupe");
}

}  // namespace
}  // namespace dmpc
