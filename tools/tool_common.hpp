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
    if (text == nullptr) return fallback;
    std::size_t parsed = 0;
    const char* last = text->data() + text->size();
    const auto [end, error] = std::from_chars(text->data(), last, parsed);
    if (error != std::errc() || end != last) {
      usage(("--" + name + " expects a non-negative integer, got '" + *text +
             "'\n").c_str());
    }
    return parsed;
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
