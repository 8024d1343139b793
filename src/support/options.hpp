// Tiny command-line option parser for examples and benchmark drivers.
//
// Accepts --key=value and --flag forms; anything else is a positional
// argument. Deliberately minimal — examples should read like scripts.
//
// The lenient get_int/get_double accessors keep their historical
// garbage-tolerant behavior (strtoll/strtod prefix parse) for benchmark
// scripts; front ends handling untrusted argv should use the require_*
// accessors, which throw a typed dmpc::ParseError naming the option and the
// offending token instead of silently misreading it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dmpc {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Strict variants: the whole value must parse (optional leading '-' for
  /// the int form, strtod consuming every byte for the double form), else a
  /// dmpc::ParseError with code kBadToken / kOverflow and the option name in
  /// the message. Absent keys still yield the fallback.
  std::int64_t require_int(const std::string& key, std::int64_t fallback) const;
  double require_double(const std::string& key, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws a dmpc::ParseError naming the first passed option no accessor
  /// has read: strict front ends call it once they have read all theirs.
  void reject_unread() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;  ///< Keys the accessors looked up.
};

}  // namespace dmpc
