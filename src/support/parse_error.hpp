// Typed, recoverable errors for every untrusted parse surface.
//
// The edge-list reader, the fault-plan parser, and the CLI option parser all
// consume bytes a user (or an adversary) controls. Historically a malformed
// input surfaced as a DMPC_CHECK failure — correct but hostile (a file:line
// assertion for the *caller's* data) and indistinguishable from a genuine
// internal bug. ParseError is the recoverable path: a stable error code, the
// 1-based line/column of the offending byte, and the offending token, so
// front ends can print a precise diagnostic and exit cleanly, and fuzzers can
// separate "typed rejection" (fine) from "anything else escaped" (a finding).
//
// ParseError derives from CheckFailure so pre-existing catch sites keep
// working; new code should catch ParseError first and inspect code().
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace dmpc {

/// Stable identifier for each class of input defect.
enum class ParseErrorCode : std::uint8_t {
  kIoError = 1,       ///< Cannot open/read/write the underlying stream.
  kMalformedLine,     ///< A line does not match the expected shape.
  kBadToken,          ///< A token is not of the expected type (e.g. numeric).
  kOverflow,          ///< A numeric token exceeds the representable range.
  kBadHeader,         ///< The "n m" header is out of the accepted range.
  kLimitExceeded,     ///< Input exceeds a configured hard cap (n, m, line).
  kOutOfRange,        ///< A value violates a declared bound (edge endpoint).
  kSelfLoop,          ///< An edge with identical endpoints.
  kDuplicateEdge,     ///< An edge listed more than once.
  kCountMismatch,     ///< Declared count disagrees with the data.
  kShardLimitExceeded,  ///< A binary shard manifest exceeds EdgeListLimits.
};

/// Short stable name for a code ("bad_token", ...), for logs and tests.
const char* parse_error_code_name(ParseErrorCode code);

/// Thrown by hardened parsers on malformed untrusted input. Recoverable by
/// construction: parsers throwing ParseError leave no partial global state
/// behind, so callers can report and continue.
class ParseError : public CheckFailure {
 public:
  ParseError(ParseErrorCode code, std::string message, std::uint64_t line = 0,
             std::uint64_t column = 0, std::string token = {})
      : CheckFailure(format(code, message, line, column, token)),
        code_(code),
        line_(line),
        column_(column),
        token_(std::move(token)),
        message_(std::move(message)) {}

  ParseErrorCode code() const { return code_; }
  /// 1-based line of the offending token; 0 when not line-oriented (CLI
  /// options, file-open failures).
  std::uint64_t line() const { return line_; }
  /// 1-based column of the offending token; 0 when unknown.
  std::uint64_t column() const { return column_; }
  /// The offending token verbatim (possibly truncated), empty when unknown.
  const std::string& token() const { return token_; }
  /// The human-readable description without the location prefix.
  const std::string& message() const { return message_; }

 private:
  static std::string format(ParseErrorCode code, const std::string& message,
                            std::uint64_t line, std::uint64_t column,
                            const std::string& token);

  ParseErrorCode code_;
  std::uint64_t line_;
  std::uint64_t column_;
  std::string token_;
  std::string message_;
};

namespace parse {

/// Strict base-10 u64 parse with overflow detection: the whole token must be
/// digits and the value must fit. Returns false (leaving *value untouched)
/// otherwise; `overflow` (optional) distinguishes the overflow case.
bool parse_u64(const std::string& token, std::uint64_t* value,
               bool* overflow = nullptr);

/// A whitespace-delimited token with its 1-based column.
struct Token {
  std::string text;
  std::uint64_t column = 0;
};

/// Split a line on spaces/tabs, recording each token's 1-based column.
std::vector<Token> tokenize(const std::string& line);

/// A token as shown in a diagnostic, truncated so a pathological input line
/// cannot balloon the error message.
std::string clip(const std::string& token);

/// parse_u64 or throw ParseError (kBadToken / kOverflow) locating `tok`.
std::uint64_t require_u64(const Token& tok, std::uint64_t line);

}  // namespace parse

}  // namespace dmpc
