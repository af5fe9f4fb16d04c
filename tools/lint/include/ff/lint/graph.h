#pragma once

// Architecture rules for ff-lint: the include graph of src/ must match
// the module layering DAG documented in DESIGN.md (which mirrors the
// CMake link graph -- a module may include headers only of modules it
// transitively links), and every public header must be hygienic (a
// #pragma once guard and canonical "ff/<module>/<name>.h" include paths
// only). Include cycles need no rule of their own: `layering` rules out
// cross-module cycles, and a cycle in which one header needs the
// other's definitions fails the ff_header_smoke compile.
//
// Rules:
//   layering        include edge src/<a> -> ff/<b>/... not permitted by
//                   the layering DAG
//   header-hygiene  public header without #pragma once, or with a
//                   non-canonical (relative / angled-ff) include

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ff/lint/rules.h"
#include "ff/lint/tree.h"

namespace ff::lint {

/// Module layering DAG: for each module, the set of other modules whose
/// headers it may include (its own are always permitted). Transitive
/// closure of the CMake link graph; see DESIGN.md section 6.
[[nodiscard]] const std::map<std::string, std::set<std::string>>& layering();

/// Runs layering and header-hygiene over the whole tree.
/// allow() directives are already applied; returned findings are real.
/// Findings dropped by an allow() directive are appended to
/// `suppressed` (when non-null) for the stale-allow rule.
[[nodiscard]] std::vector<Finding> check_architecture(
    const SourceTree& tree, std::vector<Finding>* suppressed = nullptr);

}  // namespace ff::lint
