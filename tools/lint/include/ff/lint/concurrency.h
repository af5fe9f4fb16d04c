#pragma once

// Class model for ff-lint, and the concurrency rule built on it. The
// lexer's token stream is parsed just far enough to recover class
// bodies and their data-member declarations -- no full C++ parse, but
// real brace/paren balancing, so multi-line declarations and nested
// classes are handled. Two rules read the model: unguarded-shared-state
// here and fingerprint-completeness (contracts.h).
//
// Rule (scope: src/ and tools/lint/):
//   unguarded-shared-state  a class that owns a mutex has a member that
//                           is neither FF_GUARDED_BY/FF_PT_GUARDED_BY,
//                           a synchronization primitive, atomic, const,
//                           nor static
//
// Clang's -Wthread-safety (the CI `thread-safety` job) verifies the
// annotations against actual lock usage, including re-acquiring a held
// lock and unbalanced acquire/release; this rule only demands that
// they exist.
//
// Escape hatch: `// ff-lint: allow(<rule>) <reason>` on the offending
// statement (any of its physical lines) or the comment block above it.

#include <string>
#include <vector>

#include "ff/lint/rules.h"
#include "ff/lint/tree.h"

namespace ff::lint {

/// One data-member declaration recovered from a class body.
struct MemberDecl {
  std::string name;
  int line{1};
  bool guarded{false};  ///< carries FF_GUARDED_BY / FF_PT_GUARDED_BY
  bool exempt{false};   ///< primitive, atomic, const, static, reference
  bool numeric{false};  ///< arithmetic type (incl. SimTime/SimDuration)
};

/// One class (or struct) recovered from a file.
struct ClassInfo {
  std::string name;  ///< "Outer::Inner" for nested classes
  bool scoped_capability{false};  ///< declared FF_SCOPED_CAPABILITY
  bool owns_mutex{false};         ///< has a mutex-typed data member
  std::vector<MemberDecl> members;
};

/// Parses every class body in `file` (token-level; see file comment).
/// Exposed for tests.
[[nodiscard]] std::vector<ClassInfo> parse_classes(const SourceFile& file);

/// Runs unguarded-shared-state over the whole tree. allow() directives
/// are already applied; findings they dropped are appended to
/// `suppressed` (when non-null) for the stale-allow rule.
[[nodiscard]] std::vector<Finding> check_concurrency(
    const SourceTree& tree, std::vector<Finding>* suppressed = nullptr);

}  // namespace ff::lint
