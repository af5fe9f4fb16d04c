#include "ff/util/config.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace ff {
namespace {

[[nodiscard]] std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv,
                         std::vector<std::string>* leftover) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (leftover) leftover->push_back(arg);
      continue;
    }
    // GNU-style `--key=value` and plain `key=value` are equivalent.
    std::string key = arg.substr(0, eq);
    const auto first = key.find_first_not_of('-');
    if (first == std::string::npos) {
      if (leftover) leftover->push_back(arg);
      continue;
    }
    key.erase(0, first);
    cfg.set(key, arg.substr(eq + 1));
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open " + path);
  Config cfg;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

bool Config::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  double value = 0;
  try {
    value = std::stod(*v);
  } catch (const std::exception&) {
    return fallback;
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("Config: " + key + "=" + *v +
                                " is not a finite number");
  }
  return value;
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    return fallback;
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) {
                   return static_cast<char>(std::tolower(c));
                 });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  return fallback;
}

}  // namespace ff
