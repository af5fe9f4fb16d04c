#pragma once

// ff-lint driver: loads the source tree (from disk or from in-memory
// fixtures), runs every rule family, writes the SARIF report, and hosts
// the embedded self-test corpus that seeds at least one violation per
// rule -- including the macro-wrapped and cross-file cases the retired
// regex linter (tools/determinism_lint.py) provably missed.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "ff/lint/rules.h"

namespace ff::lint {

struct LintResult {
  std::vector<Finding> findings;
  std::size_t files_scanned{0};
};

/// Lints an in-memory tree of (repo-relative path, content) pairs.
[[nodiscard]] LintResult lint_files(
    const std::vector<std::pair<std::string, std::string>>& files);

/// Lints `<root>/src` plus, when present, `<root>/bench`,
/// `<root>/examples` (whose helpers the determinism-reachability rule
/// can trace into simulator dispatch) and `<root>/tools/lint` (the
/// linter lints itself). Throws std::runtime_error if the root has no
/// src/ directory.
[[nodiscard]] LintResult lint_tree(const std::string& root);

/// Writes the findings as a SARIF 2.1.0 document (one run, one result
/// per finding, rule metadata from rule_registry()) so CI can upload
/// them to GitHub code scanning; the text output on stdout feeds the
/// GitHub problem matcher.
void write_findings_sarif(const LintResult& result, std::ostream& os);

/// Every rule id ff-lint can emit, in documentation order. The
/// self-test asserts each one is covered by at least one seeded corpus
/// finding; the SARIF writer publishes the same list as rule metadata.
[[nodiscard]] const std::vector<std::string>& rule_registry();

/// Runs the embedded fixture corpus -- the one corpus that seeds every
/// rule -- through the linter and reports PASS/FAIL per expected
/// finding plus any false positives. Returns 0 on success.
int self_test(std::ostream& os);

}  // namespace ff::lint
