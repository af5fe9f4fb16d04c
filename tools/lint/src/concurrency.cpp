#include "ff/lint/concurrency.h"

#include <algorithm>
#include <cstddef>
#include <set>

namespace ff::lint {
namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

bool is_class_kw(const Token& t) {
  return is_ident(t, "class") || is_ident(t, "struct");
}

/// Annotation macros whose parenthesized arguments are attribute text,
/// not code: their '(' must not make a declaration look like a function.
bool is_annotation_macro(const std::string& s) {
  static const std::set<std::string> kMacros = {
      "FF_CAPABILITY", "FF_SCOPED_CAPABILITY", "FF_GUARDED_BY",
      "FF_PT_GUARDED_BY", "FF_REQUIRES", "FF_ACQUIRE", "FF_RELEASE",
      "FF_EXCLUDES", "FF_THREAD_ANNOTATION"};
  return kMacros.count(s) > 0;
}

/// Type tokens that make a member exempt from unguarded-shared-state:
/// synchronization primitives guard themselves, atomics carry their own
/// ordering, and guard objects are stack-pattern types.
bool is_sync_type_token(const std::string& s) {
  if (s.rfind("atomic", 0) == 0) return true;              // atomic, atomic_*
  if (s.rfind("condition_variable", 0) == 0) return true;  // + _any
  static const std::set<std::string> kTypes = {
      "mutex",    "shared_mutex", "recursive_mutex",    "timed_mutex",
      "Mutex",    "CondVar",      "MutexLock",          "once_flag",
      "lock_guard", "unique_lock", "scoped_lock",       "counting_semaphore",
      "binary_semaphore", "barrier", "latch"};
  return kTypes.count(s) > 0;
}

/// Mutex-like type tokens: owning one of these makes a class subject to
/// the unguarded-shared-state rule.
bool is_mutex_type_token(const std::string& s) {
  static const std::set<std::string> kTypes = {
      "mutex", "shared_mutex", "recursive_mutex", "timed_mutex", "Mutex"};
  return kTypes.count(s) > 0;
}

/// Arithmetic type tokens (the repo's sim-time aliases included):
/// fields of these types must be mixed into the result fingerprint.
bool is_numeric_type_token(const std::string& s) {
  static const std::set<std::string> kTypes = {
      "double", "float", "int", "long", "short", "signed", "unsigned",
      "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
      "uint32_t", "uint64_t", "size_t", "ptrdiff_t", "intptr_t",
      "uintptr_t", "SimTime", "SimDuration"};
  return kTypes.count(s) > 0;
}

std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open,
                          const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == opener) ++depth;
    if (toks[j].text == closer && --depth == 0) return j;
  }
  return toks.size() - 1;
}

/// Recursive-descent class parser over the token stream. Tracks just
/// enough structure (statement boundaries, balanced groups, ctor-init
/// lists) to classify each class-body statement as a nested class, a
/// function, or a member declaration.
class ClassParser {
 public:
  ClassParser(const SourceFile& file, std::vector<ClassInfo>* out)
      : toks_(file.lex.tokens), out_(out) {}

  void run() {
    std::size_t i = 0;
    while (i < toks_.size()) i = maybe_class(i);
  }

 private:
  /// If `i` starts a class definition, parses it (and everything nested)
  /// and returns the index past it; otherwise returns i + 1.
  std::size_t maybe_class(std::size_t i) {
    if (!is_class_kw(toks_[i]) ||
        (i > 0 && is_ident(toks_[i - 1], "enum"))) {
      return i + 1;
    }
    // Head: everything to the opening '{' (definition) or ';' (forward
    // declaration / template parameter swallowed up to the next ';').
    std::string name;
    bool scoped = false;
    std::size_t j = i + 1;
    int paren = 0;
    for (; j < toks_.size(); ++j) {
      const Token& t = toks_[j];
      if (t.text == "(") ++paren;
      if (t.text == ")" && paren > 0) --paren;
      if (paren > 0) continue;
      if (t.text == ";") return j + 1;
      if (t.text == "{") break;
      if (t.text == ":" ) continue;  // base clause: name already captured
      if (is_ident(t, "FF_SCOPED_CAPABILITY")) scoped = true;
      if (t.kind == TokKind::kIdentifier && !is_class_kw(t) &&
          t.text != "final" && !is_annotation_macro(t.text) &&
          // Base-clause names come after ':'; stop capturing there.
          !seen_base_colon(i + 1, j)) {
        name = t.text;
      }
    }
    if (j >= toks_.size() || name.empty()) return j + 1;
    return parse_body(j, name, scoped);
  }

  bool seen_base_colon(std::size_t from, std::size_t to) const {
    int paren = 0;
    for (std::size_t k = from; k < to; ++k) {
      if (toks_[k].text == "(") ++paren;
      if (toks_[k].text == ")" && paren > 0) --paren;
      if (paren == 0 && toks_[k].text == ":") return true;
    }
    return false;
  }

  /// Parses a class body starting at the '{' at `open`; returns the
  /// index past the closing '}' (and its ';' if present).
  std::size_t parse_body(std::size_t open, const std::string& name,
                         bool scoped) {
    ClassInfo info;
    info.name = prefix_.empty() ? name : prefix_ + "::" + name;
    info.scoped_capability = scoped;

    const std::string saved_prefix = prefix_;
    prefix_ = info.name;

    std::size_t i = open + 1;
    const std::size_t end = skip_balanced(toks_, open, "{", "}");
    while (i < end) i = parse_statement(i, end, &info);

    prefix_ = saved_prefix;
    out_->push_back(std::move(info));
    std::size_t after = end + 1;
    if (after < toks_.size() && toks_[after].text == ";") ++after;
    return after;
  }

  /// Parses one class-body statement starting at `i`; returns the index
  /// past it. Never returns <= i.
  std::size_t parse_statement(std::size_t i, std::size_t end,
                              ClassInfo* info) {
    const Token& t = toks_[i];
    if (t.text == ";") return i + 1;
    // Access specifiers.
    if ((is_ident(t, "public") || is_ident(t, "private") ||
         is_ident(t, "protected")) &&
        i + 1 < end && toks_[i + 1].text == ":") {
      return i + 2;
    }
    // Nested class definition (possibly after `template <...>`).
    std::size_t head = i;
    if (is_ident(t, "template") && i + 1 < end && toks_[i + 1].text == "<") {
      head = angle_match(i + 1, end) + 1;
    }
    if (head < end && is_class_kw(toks_[head]) &&
        !(head > 0 && is_ident(toks_[head - 1], "enum"))) {
      const std::size_t after = maybe_class(head);
      return after > i ? after : i + 1;
    }
    // Statements with no member-declaration content: skip to ';',
    // balancing any braces (enum bodies, etc).
    if (is_ident(t, "friend") || is_ident(t, "using") ||
        is_ident(t, "typedef") || is_ident(t, "static_assert") ||
        is_ident(t, "enum")) {
      return skip_to_semi(i, end);
    }

    // Walk the statement, classifying as function or member.
    bool saw_paren = false;   // a top-level '(' that starts a signature
    bool saw_assign = false;
    bool saw_operator = false;
    std::vector<std::size_t> stmt;  // token indices, annotation args incl.
    std::size_t j = i;
    int angle = 0;
    while (j < end) {
      const Token& u = toks_[j];
      if (u.kind == TokKind::kIdentifier && is_annotation_macro(u.text) &&
          j + 1 < end && toks_[j + 1].text == "(") {
        const std::size_t close = skip_balanced(toks_, j + 1, "(", ")");
        for (std::size_t k = j; k <= close; ++k) stmt.push_back(k);
        j = close + 1;
        continue;
      }
      if (u.kind == TokKind::kIdentifier &&
          (u.text == "decltype" || u.text == "alignas" ||
           u.text == "noexcept" || u.text == "sizeof") &&
          j + 1 < end && toks_[j + 1].text == "(") {
        j = skip_balanced(toks_, j + 1, "(", ")") + 1;
        continue;
      }
      if (is_ident(u, "operator")) saw_operator = true;
      // '<' counts as a template bracket only left of any '='; in an
      // initializer it is a comparison and must not unbalance the scan.
      if (u.text == "<" && j > i && !saw_assign &&
          toks_[j - 1].kind == TokKind::kIdentifier) {
        ++angle;
      } else if (u.text == ">" && angle > 0) {
        --angle;
      } else if (u.text == "=" && angle == 0 && !saw_operator) {
        saw_assign = true;
      } else if (u.text == "(" && angle == 0) {
        if (!saw_assign) saw_paren = true;
        j = skip_balanced(toks_, j, "(", ")") + 1;
        continue;
      } else if (u.text == "[" && j + 1 < end &&
                 toks_[j + 1].text == "[") {
        j = skip_balanced(toks_, j, "[", "]") + 1;  // [[attribute]]
        continue;
      } else if (u.text == ";" && angle == 0) {
        break;
      } else if (u.text == ":" && angle == 0 && saw_paren) {
        // Ctor-init list: skip initializers up to the body '{'.
        j = skip_init_list(j + 1, end);
        continue;
      } else if (u.text == "{" && angle == 0) {
        if (saw_paren || saw_operator) {
          // Function body: skip it.
          std::size_t after = skip_balanced(toks_, j, "{", "}") + 1;
          if (after < end && toks_[after].text == ";") ++after;
          return after;
        }
        // Member brace-or-equal initializer: skip the group.
        j = skip_balanced(toks_, j, "{", "}") + 1;
        continue;
      }
      stmt.push_back(j);
      ++j;
    }
    // Statement ended at ';' (or ran to the class end). Function
    // declarations carry no member state.
    if (!saw_paren && !saw_operator && !stmt.empty()) {
      harvest_member(stmt, info);
    }
    return j < end ? j + 1 : end;
  }

  /// From the token after a ctor-init ':', returns the index of the
  /// function-body '{'. Each initializer is `name (args)` or
  /// `name {args}`, comma-separated; the brace that is not directly
  /// consumed as an initializer group is the body.
  std::size_t skip_init_list(std::size_t i, std::size_t end) {
    std::size_t j = i;
    while (j < end) {
      // Initializer name (possibly qualified / templated).
      while (j < end &&
             (toks_[j].kind == TokKind::kIdentifier ||
              toks_[j].text == "::" || toks_[j].text == "<" ||
              toks_[j].text == ">" || toks_[j].text == ",")) {
        if (toks_[j].text == ",") { /* between initializers */ }
        ++j;
      }
      if (j >= end) return end;
      if (toks_[j].text == "(") {
        j = skip_balanced(toks_, j, "(", ")") + 1;
        if (j < end && toks_[j].text == ",") continue;
        return j;  // next token should be the body '{'
      }
      if (toks_[j].text == "{") {
        // Either a member brace-init or the body. A brace-init is
        // followed by ',' (more initializers) or the body '{'.
        const std::size_t close = skip_balanced(toks_, j, "{", "}");
        if (close + 1 < end && (toks_[close + 1].text == "," ||
                                toks_[close + 1].text == "{")) {
          j = close + 1;
          continue;
        }
        return j;  // this '{' is the body itself (empty init unlikely)
      }
      ++j;
    }
    return end;
  }

  std::size_t skip_to_semi(std::size_t i, std::size_t end) {
    std::size_t j = i;
    while (j < end) {
      if (toks_[j].text == "{") {
        j = skip_balanced(toks_, j, "{", "}") + 1;
        continue;
      }
      if (toks_[j].text == ";") return j + 1;
      ++j;
    }
    return end;
  }

  std::size_t angle_match(std::size_t open, std::size_t end) const {
    int depth = 0;
    for (std::size_t j = open; j < end; ++j) {
      if (toks_[j].text == "<") ++depth;
      if (toks_[j].text == ">" && --depth == 0) return j;
    }
    return end - 1;
  }

  /// Records the members one statement declares. `int a_, b_;` declares
  /// two: the statement is split on commas outside <>, () and {}, the
  /// type specifiers of the first declarator apply to every name, and
  /// each declarator carries its own name and annotation.
  void harvest_member(const std::vector<std::size_t>& stmt,
                      ClassInfo* info) {
    std::vector<std::vector<std::size_t>> declarators(1);
    int angle = 0;
    int nesting = 0;  // () and {}
    bool in_init = false;
    for (std::size_t n = 0; n < stmt.size(); ++n) {
      const Token& t = toks_[stmt[n]];
      if (t.text == "(" || t.text == "{") {
        ++nesting;
      } else if (t.text == ")" || t.text == "}") {
        --nesting;
      } else if (t.text == "<" && !in_init && n > 0 &&
                 toks_[stmt[n - 1]].kind == TokKind::kIdentifier) {
        ++angle;
      } else if (t.text == ">" && angle > 0) {
        --angle;
      } else if (nesting == 0 && angle == 0 && t.text == "=") {
        in_init = true;
      } else if (nesting == 0 && angle == 0 && t.text == ",") {
        declarators.emplace_back();
        in_init = false;
        continue;
      }
      declarators.back().push_back(stmt[n]);
    }

    bool is_static = false;
    bool is_const = false;
    bool is_sync = false;
    bool is_mutex = false;
    bool numeric = false;
    int type_angle = 0;
    const std::vector<std::size_t>& first = declarators.front();
    for (std::size_t n = 0; n < first.size(); ++n) {
      const Token& t = toks_[first[n]];
      if (t.text == "<" && n > 0 &&
          toks_[first[n - 1]].kind == TokKind::kIdentifier) {
        ++type_angle;
      } else if (t.text == ">" && type_angle > 0) {
        --type_angle;
      }
      if (t.kind != TokKind::kIdentifier || type_angle > 0) continue;
      if (t.text == "static" || t.text == "constexpr" ||
          t.text == "inline") {
        is_static = true;
      }
      if (t.text == "const") is_const = true;
      if (is_sync_type_token(t.text)) is_sync = true;
      if (is_mutex_type_token(t.text)) is_mutex = true;
      if (is_numeric_type_token(t.text)) numeric = true;
    }

    for (const std::vector<std::size_t>& decl_toks : declarators) {
      // Member name: the identifier directly before the first annotation
      // macro, or failing that the last identifier of the declarator.
      std::string member;
      int line = 0;
      bool guarded = false;
      bool named = false;
      for (const std::size_t k : decl_toks) {
        const Token& t = toks_[k];
        if (t.kind == TokKind::kIdentifier &&
            (t.text == "FF_GUARDED_BY" || t.text == "FF_PT_GUARDED_BY")) {
          guarded = true;
        }
        if (named) continue;
        if (t.kind == TokKind::kIdentifier && is_annotation_macro(t.text)) {
          named = true;
        } else if (t.text == "=" || t.text == "[") {
          named = true;
        } else if (t.kind == TokKind::kIdentifier) {
          member = t.text;
          line = t.line;
        }
      }
      if (member.empty()) continue;

      if (is_mutex) info->owns_mutex = true;
      MemberDecl decl;
      decl.name = member;
      decl.line = line;
      decl.guarded = guarded;
      decl.exempt = is_static || is_const || is_sync;
      decl.numeric = numeric && !is_static;
      info->members.push_back(decl);
    }
  }

  const std::vector<Token>& toks_;
  std::vector<ClassInfo>* out_;
  std::string prefix_;
};

}  // namespace

std::vector<ClassInfo> parse_classes(const SourceFile& file) {
  std::vector<ClassInfo> out;
  ClassParser(file, &out).run();
  return out;
}

std::vector<Finding> check_concurrency(const SourceTree& tree,
                                       std::vector<Finding>* suppressed) {
  std::vector<Finding> out;
  for (const SourceFile& file : tree.files()) {
    if (file.rel.compare(0, 4, "src/") != 0 &&
        file.rel.compare(0, 11, "tools/lint/") != 0) {
      continue;
    }
    for (const ClassInfo& info : parse_classes(file)) {
      if (!info.owns_mutex || info.scoped_capability) continue;
      for (const MemberDecl& m : info.members) {
        if (m.guarded || m.exempt) continue;
        Finding found{
            file.rel, m.line, "unguarded-shared-state",
            "member '" + m.name + "' of mutex-owning class '" + info.name +
                "' has no FF_GUARDED_BY and is not atomic/const; annotate "
                "it, or explain with "
                "'// ff-lint: allow(unguarded-shared-state) <reason>'"};
        if (allowed_rules_for(file, m.line).count("unguarded-shared-state") >
            0) {
          if (suppressed != nullptr) suppressed->push_back(std::move(found));
          continue;
        }
        out.push_back(std::move(found));
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace ff::lint
