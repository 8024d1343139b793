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

bool parse_u64(std::string_view token, std::uint64_t* value, bool* overflow) {
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

std::string clip(std::string_view token) {
  constexpr std::size_t kMax = 64;
  if (token.size() <= kMax) return std::string(token);
  return std::string(token.substr(0, kMax)) + "...";
}

std::uint64_t require_u64(std::string_view text, std::uint64_t column,
                          std::uint64_t line) {
  std::uint64_t value = 0;
  bool overflow = false;
  if (!parse_u64(text, &value, &overflow)) {
    if (overflow) {
      throw ParseError(ParseErrorCode::kOverflow,
                       "numeric token exceeds 64-bit range", line, column,
                       clip(text));
    }
    throw ParseError(ParseErrorCode::kBadToken, "expected unsigned integer",
                     line, column, clip(text));
  }
  return value;
}

}  // namespace parse

}  // namespace dmpc
