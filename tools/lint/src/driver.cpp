#include "ff/lint/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ff/lint/callgraph.h"
#include "ff/lint/concurrency.h"
#include "ff/lint/contracts.h"
#include "ff/lint/dataflow.h"
#include "ff/lint/graph.h"
#include "ff/lint/tree.h"

namespace ff::lint {
namespace {

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("ff-lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void scan_dir(const std::filesystem::path& root,
              const std::filesystem::path& dir,
              std::vector<std::pair<std::string, std::string>>* files) {
  namespace fs = std::filesystem;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file() || !lintable(entry.path())) continue;
    const std::string rel =
        fs::relative(entry.path(), root).generic_string();
    files->emplace_back(rel, slurp(entry.path()));
  }
}

void json_escape(const std::string& s, std::ostream& os) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

LintResult lint_files(
    const std::vector<std::pair<std::string, std::string>>& files) {
  const SourceTree tree(files);
  LintResult result;
  // Findings an allow() directive dropped, collected across every rule
  // family so the stale-allow pass below can tell load-bearing
  // directives from leftovers.
  std::vector<Finding> suppressed;
  result.files_scanned = tree.files().size();
  for (const SourceFile& file : tree.files()) {
    const std::vector<Finding> det =
        check_determinism(tree, file, &suppressed);
    result.findings.insert(result.findings.end(), det.begin(), det.end());
  }
  for (const auto& check : {check_architecture, check_concurrency,
                            check_reachability, check_container_invalidation,
                            check_fingerprint_completeness, check_nodiscard}) {
    const std::vector<Finding> found = check(tree, &suppressed);
    result.findings.insert(result.findings.end(), found.begin(), found.end());
  }
  // stale-allow: a directive is load-bearing iff some suppressed
  // finding of the named rule falls within its statement extent. The
  // rule has no escape hatch -- a stale directive is deleted, not
  // allowed.
  for (const SourceFile& file : tree.files()) {
    for (const AllowDirective& d : allow_directives(file)) {
      bool used = false;
      for (const Finding& s : suppressed) {
        if (s.file != file.rel || s.rule != d.rule) continue;
        if (!directive_covers(file, d.line, s.line)) continue;
        used = true;
        break;
      }
      if (used) continue;
      result.findings.push_back(
          {file.rel, d.line, "stale-allow",
           "directive 'allow(" + d.rule +
               ")' suppresses no finding; delete it"});
    }
  }
  std::sort(result.findings.begin(), result.findings.end());
  return result;
}

LintResult lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path base(root);
  const fs::path src = base / "src";
  if (!fs::is_directory(src)) {
    throw std::runtime_error("ff-lint: no src/ directory under " + root);
  }
  std::vector<std::pair<std::string, std::string>> files;
  scan_dir(base, src, &files);
  for (const char* extra : {"bench", "examples", "tools/lint"}) {
    const fs::path dir = base / extra;
    if (fs::is_directory(dir)) scan_dir(base, dir, &files);
  }
  return lint_files(files);
}

void write_findings_sarif(const LintResult& result, std::ostream& os) {
  os << "{\"$schema\":"
        "\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"ff-lint\",\"rules\":[";
  bool first = true;
  for (const std::string& rule : rule_registry()) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":\"";
    json_escape(rule, os);
    os << "\"}";
  }
  os << "]}},\"results\":[";
  first = true;
  for (const Finding& f : result.findings) {
    if (!first) os << ",";
    first = false;
    os << "{\"ruleId\":\"";
    json_escape(f.rule, os);
    os << "\",\"level\":\"error\",\"message\":{\"text\":\"";
    json_escape(f.message, os);
    os << "\"},\"locations\":[{\"physicalLocation\":{"
          "\"artifactLocation\":{\"uri\":\"";
    json_escape(f.file, os);
    os << "\"},\"region\":{\"startLine\":" << f.line << "}}}]}";
  }
  os << "]}]}\n";
}

const std::vector<std::string>& rule_registry() {
  static const std::vector<std::string> kRules = {
      // determinism family
      "wall-clock", "ambient-entropy", "unordered-pointer-key",
      "unordered-iteration", "raw-allocation",
      // architecture family
      "layering", "header-hygiene",
      // concurrency
      "unguarded-shared-state",
      // call-graph family
      "determinism-reachability",
      // dataflow family
      "container-invalidation",
      // repo-contract family
      "fingerprint-completeness", "nodiscard-contract",
      // meta
      "stale-allow"};
  return kRules;
}

}  // namespace ff::lint
