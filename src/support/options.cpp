#include "support/options.hpp"

#include <cstdint>
#include <cstdlib>

#include "support/parse_error.hpp"

namespace dmpc {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

void ArgParser::reject_unread() const {
  for (const auto& entry : values_) {
    if (read_.count(entry.first) == 0) {
      throw ParseError(ParseErrorCode::kBadToken,
                       "unknown option --" + entry.first);
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  read_.insert(key);
  return values_.count(key) > 0;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& key,
                                std::int64_t fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::int64_t ArgParser::require_int(const std::string& key,
                                    std::int64_t fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const bool negative = !text.empty() && text[0] == '-';
  std::uint64_t magnitude = 0;
  bool overflow = false;
  if (!parse::parse_u64(negative ? text.substr(1) : text, &magnitude,
                        &overflow)) {
    if (overflow) {
      throw ParseError(ParseErrorCode::kOverflow,
                       "value of --" + key + " exceeds 64-bit range", 0, 0,
                       parse::clip(text));
    }
    throw ParseError(ParseErrorCode::kBadToken,
                     "value of --" + key + " must be an integer", 0, 0,
                     parse::clip(text));
  }
  const std::uint64_t limit =
      negative ? (1ull << 63) : static_cast<std::uint64_t>(INT64_MAX);
  if (magnitude > limit) {
    throw ParseError(ParseErrorCode::kOverflow,
                     "value of --" + key + " exceeds 64-bit range", 0, 0,
                     parse::clip(text));
  }
  if (negative) {
    // Negate in unsigned space: well-defined even for INT64_MIN's magnitude.
    return static_cast<std::int64_t>(~magnitude + 1);
  }
  return static_cast<std::int64_t>(magnitude);
}

double ArgParser::require_double(const std::string& key,
                                 double fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw ParseError(ParseErrorCode::kBadToken,
                     "value of --" + key + " must be a number", 0, 0,
                     parse::clip(text));
  }
  return value;
}

}  // namespace dmpc
