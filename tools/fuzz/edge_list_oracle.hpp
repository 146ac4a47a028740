// The line-at-a-time edge-list reader that graph::read_edge_list replaced,
// kept verbatim as a differential oracle: std::getline per line, a
// parse::tokenize into a token vector, and an unordered_set that reports a
// duplicate edge at its second occurrence. It is slow and allocates per
// line, which is why it lives here and not in src/. The fuzz driver and the
// mutation test run both readers and require equal graphs or equal typed
// errors.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/io.hpp"

namespace dmpc::fuzz {

/// The previous graph::read_edge_list, byte for byte in its behavior.
graph::Graph oracle_read_edge_list(std::istream& in,
                                   const graph::EdgeListLimits& limits);

/// Reads `text` with graph::read_edge_list and with the oracle under
/// `limits`. Returns "" when both return equal edges() (and node count) or
/// both throw a ParseError with equal (code, line, column, token, message);
/// otherwise a one-line description of the difference.
std::string edge_list_difference(const std::string& text,
                                 const graph::EdgeListLimits& limits);

}  // namespace dmpc::fuzz
