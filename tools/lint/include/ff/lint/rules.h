#pragma once

// Determinism rules for ff-lint, ported from the retired regex linter
// onto the token stream and strengthened with the two capabilities the
// regexes provably lacked: macros (a banned construct wrapped in an
// object- or function-like macro is flagged at every expansion site, by
// classifying each macro's fully-expanded replacement list) and
// cross-file visibility (unordered-container declarations recorded in
// headers make range-for iteration over them fire in any file that
// includes the header).
//
// Rules and scopes (directories are repo-relative):
//   wall-clock             src/{sim,net,control,core,device,server,rt,sweep}
//   ambient-entropy        same
//   unordered-pointer-key  same
//   unordered-iteration    src/{sim,server,device}  (scheduling paths)
//   raw-allocation         src/sim                  (event dispatch)
//
// Escape hatch: `// ff-lint: allow(<rule>) <reason>` on the offending
// line or the contiguous //-comment block directly above it.

#include <string>
#include <vector>

#include "ff/lint/tree.h"

namespace ff::lint {

struct Finding {
  std::string file;
  int line{1};
  std::string rule;
  std::string message;

  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  }
  friend bool operator==(const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule &&
           a.message == b.message;
  }
};

/// True if `rel` lies under any of the listed directories.
[[nodiscard]] bool in_dirs(const std::string& rel,
                           const std::vector<std::string>& dirs);

/// Directory scopes, exposed for the self-test and tests.
[[nodiscard]] const std::vector<std::string>& deterministic_dirs();
[[nodiscard]] const std::vector<std::string>& scheduling_dirs();
[[nodiscard]] const std::vector<std::string>& dispatch_dirs();

/// Runs every determinism rule over one file of `tree`, consulting the
/// tree for macro classification and cross-file container declarations.
/// allow() directives are already applied; returned findings are real.
/// Findings dropped by an allow() directive are appended to
/// `suppressed` (when non-null) so the driver's stale-allow rule can
/// tell live suppressions from dead ones.
[[nodiscard]] std::vector<Finding> check_determinism(
    const SourceTree& tree, const SourceFile& file,
    std::vector<Finding>* suppressed = nullptr);

/// Raw token-stream scan for the stateless determinism rules
/// (wall-clock, ambient-entropy, unordered-pointer-key,
/// raw-allocation). No scope filtering, no allow() handling; `file` in
/// the findings is empty. Building block for check_determinism and the
/// call-graph reachability rule, which applies it to function bodies
/// outside the directory scopes.
[[nodiscard]] std::vector<Finding> scan_determinism_tokens(
    const std::vector<Token>& toks);

/// Raw scan for range-for iteration over any container named in
/// `decls`; same contract as scan_determinism_tokens.
[[nodiscard]] std::vector<Finding> scan_unordered_iteration_tokens(
    const std::vector<Token>& toks, const std::set<std::string>& decls);

/// Rules whose patterns appear in the macro's replacement list after
/// expanding nested macros (depth-capped). Used to flag expansion sites.
[[nodiscard]] std::vector<std::string> macro_hazards(const SourceTree& tree,
                                                     const MacroDef& def);

}  // namespace ff::lint
