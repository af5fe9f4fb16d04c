#pragma once

// Tiny key=value configuration used by the examples to take scenario
// parameters from the command line ("key=value" arguments) or from a file.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ff {

class Config {
 public:
  Config() = default;

  /// Parses argv-style "key=value" tokens; tokens without '=' are ignored
  /// and returned for the caller to handle.
  static Config from_args(int argc, const char* const* argv,
                          std::vector<std::string>* leftover = nullptr);

  /// Parses a file of "key = value" lines; '#' starts a comment.
  /// Throws std::runtime_error on I/O failure.
  static Config from_file(const std::string& path);

  void set(const std::string& key, std::string value);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// `fallback` when the key is missing or its value does not parse;
  /// throws std::invalid_argument naming the key when it parses to NaN
  /// or an infinity.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace ff
