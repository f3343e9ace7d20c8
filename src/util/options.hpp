#pragma once
/// \file options.hpp
/// Minimal command-line option parser shared by benches and examples.
///
/// Accepted syntax:  --key=value | --key value | --flag
/// Unknown positional arguments are collected separately. Typed getters
/// return a default when the key is absent and abort with a clear message
/// on malformed values, so every bench gets consistent CLI behaviour
/// without pulling in an external dependency.

#include <map>
#include <string>
#include <vector>

namespace hxsp {

/// Parsed command line. Construct once in main() and query by key.
class Options {
 public:
  Options() = default;

  /// Parses argv; aborts on syntactically invalid input ("--" alone).
  Options(int argc, const char* const* argv);

  /// True when --key was given (with or without a value).
  bool has(const std::string& key) const;

  /// String value of --key, or \p def when absent.
  std::string get(const std::string& key, const std::string& def) const;

  /// Integer value of --key, or \p def when absent.
  long get_int(const std::string& key, long def) const;

  /// Floating-point value of --key, or \p def when absent.
  double get_double(const std::string& key, double def) const;

  /// Boolean: present with no value or value in {1,true,yes,on} => true.
  bool get_bool(const std::string& key, bool def) const;

  /// Comma-separated list of doubles, e.g. --loads=0.1,0.2,0.3.
  std::vector<double> get_double_list(const std::string& key,
                                      const std::vector<double>& def) const;

  /// Comma-separated list of strings.
  std::vector<std::string> get_list(const std::string& key,
                                    const std::vector<std::string>& def) const;

  /// Positional (non --key) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Name of the program (argv[0]), for usage messages.
  const std::string& program() const { return program_; }

  /// Records a key as recognised; unrecognised keys trigger a warning via
  /// warn_unknown(). Getters register keys automatically.
  void warn_unknown() const;

  /// Usage text listing every key queried so far (first-query order,
  /// without "help"): after a program has read all its options this is
  /// exactly the option set it accepts.
  std::string usage() const;

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> seen_;
};

/// Splits \p s on \p sep, trimming nothing; empty fields preserved.
std::vector<std::string> split(const std::string& s, char sep);

} // namespace hxsp
