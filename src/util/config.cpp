#include "util/config.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace p2p::util {

bool Config::parse_ini(std::string_view text, std::string* error) {
  int lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++lineno;

    line = trim(line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || line.front() == '[') {
      if (error != nullptr) {
        std::ostringstream os;
        os << "line " << lineno << ": expected key=value";
        *error = os.str();
      }
      return false;
    }
    const std::string_view key = trim(line.substr(0, eq));
    if (key.empty()) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "line " << lineno << ": empty key";
        *error = os.str();
      }
      return false;
    }
    set(std::string(key), std::string(trim(line.substr(eq + 1))));
  }
  return true;
}

bool Config::parse_override(std::string_view kv, std::string* error) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string_view::npos || trim(kv.substr(0, eq)).empty()) {
    if (error != nullptr) *error = "override must be key=value";
    return false;
  }
  set(std::string(trim(kv.substr(0, eq))), std::string(trim(kv.substr(eq + 1))));
  return true;
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

std::optional<std::string> Config::get_string(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace p2p::util
