// Event and metric catalog drift: every trace event name and every metric
// name that src/ emits must have its row in docs/observability.md. The names
// are read from the source tree itself (HERE_SOURCE_DIR), so a new emission
// without a doc row fails here instead of silently going undocumented.
//
// Event names are the string literals of the name argument of
// Tracer::instant/complete/counter calls — both arms of a ternary such as
// `deny ? "resume.deny" : "resume.grant"` count. Metric names are the
// literal first argument of MetricsRegistry::counter/histogram/gauge calls;
// names built at run time (net.arb.<flow>.*) are documented by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// True when a string or char literal opens at `i` (a quote after a digit is
// a digit separator, as in 100'000).
bool opens_literal(const std::string& s, std::size_t i) {
  if (s[i] == '"') return true;
  return s[i] == '\'' &&
         (i == 0 || !std::isalnum(static_cast<unsigned char>(s[i - 1])));
}

// Index one past the literal that opens at `i`.
std::size_t skip_literal(const std::string& s, std::size_t i) {
  const char quote = s[i++];
  while (i < s.size() && s[i] != quote) i += s[i] == '\\' ? 2 : 1;
  return i + 1;
}

// `s` with comments blanked out; literals are kept intact.
std::string strip_comments(const std::string& s) {
  std::string out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (opens_literal(s, i)) {
      const std::size_t end = std::min(skip_literal(s, i), s.size());
      out.append(s, i, end - i);
      i = end;
    } else if (s.compare(i, 2, "//") == 0) {
      i = s.find('\n', i);
      if (i == std::string::npos) break;
    } else if (s.compare(i, 2, "/*") == 0) {
      i = s.find("*/", i);
      if (i == std::string::npos) break;
      i += 2;
      out.push_back(' ');
    } else {
      out.push_back(s[i++]);
    }
  }
  return out;
}

// The top-level arguments of the call whose '(' is at `open`.
std::vector<std::string> call_args(const std::string& s, std::size_t open) {
  std::vector<std::string> args(1);
  int depth = 0;
  for (std::size_t i = open + 1; i < s.size();) {
    const char c = s[i];
    if (opens_literal(s, i)) {
      const std::size_t end = std::min(skip_literal(s, i), s.size());
      args.back().append(s, i, end - i);
      i = end;
      continue;
    }
    if (c == '(' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == ']') {
      if (depth == 0) break;
      --depth;
    }
    if (c == ',' && depth == 0) {
      args.emplace_back();
    } else {
      args.back().push_back(c);
    }
    ++i;
  }
  return args;
}

// The contents of the string literals in `arg` (escapes left as written).
std::vector<std::string> literals(const std::string& arg) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < arg.size();) {
    if (!opens_literal(arg, i)) {
      ++i;
      continue;
    }
    const std::size_t end = std::min(skip_literal(arg, i), arg.size());
    if (arg[i] == '"') out.push_back(arg.substr(i + 1, end - i - 2));
    i = end;
  }
  return out;
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  return s.substr(first, s.find_last_not_of(" \t\r\n") - first + 1);
}

bool is_single_literal(const std::string& arg) {
  const std::string t = trim(arg);
  return t.size() >= 2 && t.front() == '"' &&
         std::min(skip_literal(t, 0), t.size()) == t.size();
}

struct Catalog {
  std::set<std::string> events;
  std::set<std::string> metrics;
};

void scan_calls(const std::string& code, Catalog& catalog) {
  static const std::vector<std::string> kCallees = {
      "instant", "complete", "counter", "histogram", "gauge"};
  for (const std::string& callee : kCallees) {
    const bool event = callee == "instant" || callee == "complete" ||
                       callee == "counter";
    const bool metric = callee == "counter" || callee == "histogram" ||
                        callee == "gauge";
    for (std::size_t at = code.find(callee); at != std::string::npos;
         at = code.find(callee, at + 1)) {
      if (at > 0 && (std::isalnum(static_cast<unsigned char>(code[at - 1])) ||
                     code[at - 1] == '_')) {
        continue;
      }
      std::size_t open = at + callee.size();
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open]))) {
        ++open;
      }
      if (open >= code.size() || code[open] != '(') continue;
      const std::vector<std::string> args = call_args(code, open);
      if (metric && is_single_literal(args.front())) {
        catalog.metrics.insert(literals(args.front()).front());
        continue;
      }
      // Tracer calls: (time, [duration,] name, category, ...). The name is
      // the first argument that carries a literal; the category follows it.
      if (!event || args.size() < 3) continue;
      for (const std::string& arg : args) {
        const std::vector<std::string> names = literals(arg);
        if (names.empty()) continue;
        catalog.events.insert(names.begin(), names.end());
        break;
      }
    }
  }
}

Catalog scan_tree(const fs::path& root) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".cc" || ext == ".h")) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  Catalog catalog;
  for (const fs::path& file : files) {
    scan_calls(strip_comments(read_file(file)), catalog);
  }
  return catalog;
}

const fs::path kSourceDir = HERE_SOURCE_DIR;

TEST(ObsCatalog, ScannerFindsEveryNameForm) {
  Catalog catalog;
  scan_calls(strip_comments(R"cc(
    // tracer_.instant(now, "commented.out", "x");
    std::uint64_t n = 100'000;  // a digit separator is not a char literal
    tracer_.instant(sim_.now(), flag ? "a.yes" : "a.no", "cat",
                    {{"k", "not.a.name"}});
    tracer_.complete(start, sim::Duration{d}, "b.span", "cat", 1, {});
    m.counter("m.count");
    m.histogram(
        "m.hist", {1, 2});
    m.gauge(prefix + "dynamic");
    void instant(sim::TimePoint t, std::string_view name);
  )cc"),
             catalog);
  EXPECT_EQ(catalog.events,
            (std::set<std::string>{"a.yes", "a.no", "b.span"}));
  EXPECT_EQ(catalog.metrics,
            (std::set<std::string>{"m.count", "m.hist"}));
}

TEST(ObsCatalog, EveryEmittedNameHasADocRow) {
  const Catalog catalog = scan_tree(kSourceDir / "src");
  // Sanity floor: the scan sees the engine's own emissions.
  EXPECT_TRUE(catalog.events.contains("epoch.commit"));
  EXPECT_TRUE(catalog.events.contains("resume.grant"));
  EXPECT_TRUE(catalog.metrics.contains("rep.epochs_committed"));
  EXPECT_TRUE(catalog.metrics.contains("faults.injected"));

  const std::string doc =
      read_file(kSourceDir / "docs" / "observability.md");
  for (const std::string& name : catalog.events) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "event " << name << " has no row in docs/observability.md";
  }
  for (const std::string& name : catalog.metrics) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "metric " << name << " has no row in docs/observability.md";
  }
}

}  // namespace
