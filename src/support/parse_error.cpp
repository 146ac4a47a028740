#include "support/parse_error.hpp"

#include <cstddef>
#include <sstream>

namespace dmpc {

const char* parse_error_code_name(ParseErrorCode code) {
  switch (code) {
    case ParseErrorCode::kIoError:
      return "io_error";
    case ParseErrorCode::kMalformedLine:
      return "malformed_line";
    case ParseErrorCode::kBadToken:
      return "bad_token";
    case ParseErrorCode::kOverflow:
      return "overflow";
    case ParseErrorCode::kBadHeader:
      return "bad_header";
    case ParseErrorCode::kLimitExceeded:
      return "limit_exceeded";
    case ParseErrorCode::kOutOfRange:
      return "out_of_range";
    case ParseErrorCode::kSelfLoop:
      return "self_loop";
    case ParseErrorCode::kDuplicateEdge:
      return "duplicate_edge";
    case ParseErrorCode::kCountMismatch:
      return "count_mismatch";
    case ParseErrorCode::kShardLimitExceeded:
      return "shard_limit_exceeded";
  }
  return "unknown";
}

std::string ParseError::format(ParseErrorCode code, const std::string& message,
                               std::uint64_t line, std::uint64_t column,
                               const std::string& token) {
  std::ostringstream os;
  os << "parse error [" << parse_error_code_name(code) << "]";
  if (line > 0) {
    os << " at line " << line;
    if (column > 0) os << ", column " << column;
  }
  os << ": " << message;
  if (!token.empty()) os << " (got '" << token << "')";
  return os.str();
}

namespace parse {

bool parse_u64(const std::string& token, std::uint64_t* value, bool* overflow) {
  if (overflow != nullptr) *overflow = false;
  if (token.empty()) return false;
  std::uint64_t out = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (out > (UINT64_MAX - digit) / 10) {
      if (overflow != nullptr) *overflow = true;
      return false;
    }
    out = out * 10 + digit;
  }
  *value = out;
  return true;
}

std::vector<Token> tokenize(const std::string& line) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) {
      out.push_back({line.substr(start, i - start),
                     static_cast<std::uint64_t>(start) + 1});
    }
  }
  return out;
}

std::string clip(const std::string& token) {
  constexpr std::size_t kMax = 64;
  if (token.size() <= kMax) return token;
  return token.substr(0, kMax) + "...";
}

std::uint64_t require_u64(const Token& tok, std::uint64_t line) {
  std::uint64_t value = 0;
  bool overflow = false;
  if (!parse_u64(tok.text, &value, &overflow)) {
    if (overflow) {
      throw ParseError(ParseErrorCode::kOverflow,
                       "numeric token exceeds 64-bit range", line, tok.column,
                       clip(tok.text));
    }
    throw ParseError(ParseErrorCode::kBadToken, "expected unsigned integer",
                     line, tok.column, clip(tok.text));
  }
  return value;
}

void scan_plan(
    const std::string& text, const PlanGrammar& grammar,
    const std::function<bool(const std::string& kind)>& kind,
    const std::function<bool(const std::string& key, const Token& value,
                             std::uint64_t line)>& field,
    const std::function<void()>& add) {
  std::istringstream lines(text);
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t events = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.size() > grammar.max_line_bytes) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "line exceeds " +
                           std::to_string(grammar.max_line_bytes) +
                           " byte limit",
                       line_no);
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const std::vector<Token> toks = tokenize(line);
    if (toks.empty()) continue;  // blank / comment-only line
    if (!kind(toks[0].text)) {
      throw ParseError(ParseErrorCode::kBadToken, grammar.kind_error, line_no,
                       toks[0].column, clip(toks[0].text));
    }
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const Token& tok = toks[i];
      const auto eq = tok.text.find('=');
      if (eq == std::string::npos) {
        throw ParseError(ParseErrorCode::kMalformedLine, "expected key=value",
                         line_no, tok.column, clip(tok.text));
      }
      const std::string key = tok.text.substr(0, eq);
      // Locate the value token precisely: its column is just past the '='.
      const Token value{tok.text.substr(eq + 1), tok.column + eq + 1};
      if (key == "attempts" &&
          require_u64(value, line_no) > grammar.retry_cap + 1) {
        throw ParseError(ParseErrorCode::kOutOfRange,
                         "attempts exceeds retry cap of " +
                             std::to_string(grammar.retry_cap),
                         line_no, value.column, clip(value.text));
      }
      if (!field(key, value, line_no)) {
        throw ParseError(ParseErrorCode::kBadToken, grammar.key_error, line_no,
                         tok.column, clip(key));
      }
    }
    if (events >= grammar.max_events) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "plan exceeds " + std::to_string(grammar.max_events) +
                           " event limit",
                       line_no);
    }
    ++events;
    add();
  }
}

}  // namespace parse

}  // namespace dmpc
