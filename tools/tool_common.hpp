// Shared flag parsing for the command-line tools (same syntax as the bench
// binaries: --name value / --name=value).
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace prodigy::tools {

[[noreturn]] inline void usage(const char* text) {
  std::fputs(text, stderr);
  std::exit(2);
}

/// `text` as a count: a negative, non-numeric or out-of-range value exits
/// through usage() naming `--flag`.
inline std::size_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t parsed = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, parsed);
  if (error != std::errc() || end != last) {
    const std::string message =
        "--" + flag + " expects a non-negative integer, got '" + text + "'\n";
    usage(message.c_str());
  }
  return parsed;
}

/// A comma-separated node index list such as `--anomalous-nodes 1,3`.
/// Empty tokens are skipped; every other token must be a count.
inline std::vector<std::size_t> parse_node_list(const std::string& flag,
                                                const std::string& csv) {
  std::vector<std::size_t> nodes;
  std::size_t start = 0;
  while (start < csv.size()) {
    const auto comma = csv.find(',', start);
    const auto token = csv.substr(start, comma - start);
    if (!token.empty()) nodes.push_back(parse_count(flag, token));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return nodes;
}

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = std::nullopt;  // bare: a boolean flag
      }
    }
  }

  // The value readers exit through usage() naming the flag when it was
  // given bare (`--epochs` with no value); has() serves boolean flags.
  double get(const std::string& name, double fallback) const {
    const std::string* text = value(name);
    return text == nullptr ? fallback : std::atof(text->c_str());
  }
  long long get(const std::string& name, long long fallback) const {
    const std::string* text = value(name);
    return text == nullptr ? fallback : std::atoll(text->c_str());
  }
  std::string get(const std::string& name, const std::string& fallback) const {
    const std::string* text = value(name);
    return text == nullptr ? fallback : *text;
  }
  /// A count (rows, nodes, epochs, ...): a negative, non-numeric or
  /// out-of-range value exits through usage() naming the flag.
  std::size_t count(const std::string& name, std::size_t fallback) const {
    const std::string* text = value(name);
    return text == nullptr ? fallback : parse_count(name, *text);
  }
  bool has(const std::string& name) const { return values_.contains(name); }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The flag's value, nullptr when absent.
  const std::string* value(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return nullptr;
    if (!it->second) usage(("--" + name + " expects a value\n").c_str());
    return &*it->second;
  }

  std::map<std::string, std::optional<std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace prodigy::tools
