// ff-lint rule engine tests: in-memory single-rule checks, and the
// small on-disk trees under tests/lint/fixtures that the disk loader and
// the real CLI binary (exit codes, SARIF) run on. The rule corpus itself
// is the embedded one, run by the lint.self_test ctest entry.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ff/lint/driver.h"
#include "ff/lint/graph.h"

namespace ff::lint {
namespace {

using FileRule = std::pair<std::string, std::string>;

std::set<FileRule> rules_of(const LintResult& r) {
  std::set<FileRule> out;
  for (const Finding& f : r.findings) out.insert({f.file, f.rule});
  return out;
}

LintResult lint_one(const std::string& rel, const std::string& content) {
  return lint_files({{rel, content}});
}

// ---------------------------------------------------------------------
// Determinism rules, in memory.

TEST(Rules, WallClockInDeterministicDirs) {
  const auto r = lint_one("src/control/src/x.cpp",
                          "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(rules_of(r),
            (std::set<FileRule>{{"src/control/src/x.cpp", "wall-clock"}}));
  // Same content outside the deterministic directories: clean.
  EXPECT_TRUE(lint_one("src/util/src/x.cpp",
                       "auto t = std::chrono::steady_clock::now();\n")
                  .findings.empty());
}

TEST(Rules, AmbientEntropyMemberCallsExcluded) {
  // rng.rand() is a member call on the seeded generator, not ::rand.
  EXPECT_TRUE(
      lint_one("src/core/src/x.cpp", "int a = rng.rand();\n")
          .findings.empty());
  EXPECT_TRUE(
      lint_one("src/core/src/x.cpp", "int a = my::ns::rand();\n")
          .findings.empty());
  EXPECT_FALSE(
      lint_one("src/core/src/x.cpp", "int a = std::rand();\n")
          .findings.empty());
  EXPECT_FALSE(
      lint_one("src/core/src/x.cpp", "long t = time(nullptr);\n")
          .findings.empty());
  // A member named time is fine.
  EXPECT_TRUE(
      lint_one("src/core/src/x.cpp",
               "struct S { double time; S(double t) : time(t) {} };\n")
          .findings.empty());
}

TEST(Rules, PointerKeyAcrossLinesAndNestedTemplates) {
  const auto r = lint_one("src/net/src/x.cpp",
                          "#include <unordered_map>\n"
                          "std::unordered_map<\n"
                          "    const Flow*,\n"
                          "    std::vector<int>>\n"
                          "    m_;\n");
  EXPECT_EQ(rules_of(r), (std::set<FileRule>{
                             {"src/net/src/x.cpp", "unordered-pointer-key"}}));
  // Pointer in the mapped type (not the key) is fine.
  EXPECT_TRUE(lint_one("src/net/src/x.cpp",
                       "std::unordered_map<int, Flow*> m_;\n")
                  .findings.empty());
}

TEST(Rules, UnorderedIterationSameFileAndAllow) {
  const std::string decl = "std::unordered_map<int, int> q_;\n";
  EXPECT_FALSE(lint_one("src/server/src/x.cpp",
                        decl + "int f() { int s = 0;\n"
                               "for (auto& kv : q_) s += kv.second;\n"
                               "return s; }\n")
                   .findings.empty());
  EXPECT_TRUE(lint_one("src/server/src/x.cpp",
                       decl + "int f() { int s = 0;\n"
                              "// ff-lint: allow(unordered-iteration) sum\n"
                              "for (auto& kv : q_) s += kv.second;\n"
                              "return s; }\n")
                  .findings.empty());
  // Outside the scheduling directories the rule does not apply.
  EXPECT_TRUE(lint_one("src/net/src/x.cpp",
                       decl + "int f() { int s = 0;\n"
                              "for (auto& kv : q_) s += kv.second;\n"
                              "return s; }\n")
                  .findings.empty());
}

TEST(Rules, CrossFileUnorderedIteration) {
  const std::vector<std::pair<std::string, std::string>> files = {
      {"src/device/include/ff/device/t.h",
       "#pragma once\n#include <unordered_map>\n"
       "struct T { int f() const; std::unordered_map<int, int> m_; };\n"},
      {"src/device/src/t.cpp",
       "#include \"ff/device/t.h\"\n"
       "int T::f() const { int s = 0;\n"
       "for (auto& kv : m_) s += kv.second;\n"
       "return s; }\n"},
  };
  EXPECT_EQ(rules_of(lint_files(files)),
            (std::set<FileRule>{
                {"src/device/src/t.cpp", "unordered-iteration"}}));
}

TEST(Rules, MacroExpansionCarriesHazard) {
  const std::vector<std::pair<std::string, std::string>> files = {
      {"src/util/include/ff/util/m.h",
       "#pragma once\n#include <chrono>\n"
       "#define FF_NOW_NS() "
       "std::chrono::steady_clock::now().time_since_epoch().count()\n"},
      {"src/sim/src/u.cpp",
       "#include \"ff/util/m.h\"\nlong f() { return FF_NOW_NS(); }\n"},
  };
  EXPECT_EQ(rules_of(lint_files(files)),
            (std::set<FileRule>{{"src/sim/src/u.cpp", "wall-clock"}}));
}

TEST(Rules, HazardousMacroBodyFlaggedAtDefinition) {
  const auto r = lint_one(
      "src/sim/src/m.cpp",
      "#include <cstdlib>\n#define JITTER() (rand() % 7)\nint x;\n");
  EXPECT_EQ(rules_of(r),
            (std::set<FileRule>{{"src/sim/src/m.cpp", "ambient-entropy"}}));
}

TEST(Rules, RawAllocationOnlyInDispatchDirs) {
  EXPECT_FALSE(
      lint_one("src/sim/src/x.cpp", "int* p = new int[4];\n")
          .findings.empty());
  EXPECT_TRUE(
      lint_one("src/server/src/x.cpp", "int* p = new int[4];\n")
          .findings.empty());
  // Placement new is not an allocation.
  EXPECT_TRUE(
      lint_one("src/sim/src/x.cpp",
               "void* f(void* s) { return ::new (s) int(0); }\n")
          .findings.empty());
}

TEST(Rules, FalsePositiveTraps) {
  // Comments, strings and raw strings full of banned constructs.
  const auto r = lint_one(
      "src/sim/src/x.cpp",
      "// std::chrono::system_clock::now() in prose\n"
      "const char* a = \"rand() time(NULL) malloc(4) new Event\";\n"
      "const char* b = R\"x(\nsteady_clock rand( new Q{}\n)x\";\n");
  EXPECT_TRUE(r.findings.empty()) << r.findings.front().message;
}

TEST(Rules, MultiLineStatementAllowSuppresses) {
  // The allow() sits two lines below the line the finding lands on, but
  // inside the same statement; statement-extent suppression covers it.
  const std::string body =
      "#include <unordered_map>\n"
      "struct Flow;\n"
      "std::unordered_map<\n"
      "    Flow*,\n"
      "    // ff-lint: allow(unordered-pointer-key) diagnostics index\n"
      "    int>\n"
      "    by_ptr_;\n";
  EXPECT_TRUE(lint_one("src/server/src/x.cpp", body).findings.empty());
  // Without the allow, the same statement fires.
  const std::string stripped =
      "#include <unordered_map>\n"
      "struct Flow;\n"
      "std::unordered_map<\n"
      "    Flow*,\n"
      "    int>\n"
      "    by_ptr_;\n";
  EXPECT_EQ(rules_of(lint_one("src/server/src/x.cpp", stripped)),
            (std::set<FileRule>{
                {"src/server/src/x.cpp", "unordered-pointer-key"}}));
}

// ---------------------------------------------------------------------
// Concurrency rules, in memory.

TEST(Concurrency, UnguardedSharedState) {
  // One statement declaring two members yields a finding for each.
  const auto r = lint_one("src/util/src/c.cpp",
                          "class Cache {\n"
                          " private:\n"
                          "  ff::Mutex mutex_;\n"
                          "  int hits_, misses_;\n"
                          "};\n");
  EXPECT_EQ(rules_of(r), (std::set<FileRule>{
                             {"src/util/src/c.cpp",
                              "unguarded-shared-state"}}));
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_NE(r.findings[0].message.find("'hits_'"), std::string::npos);
  EXPECT_NE(r.findings[1].message.find("'misses_'"), std::string::npos);
  // Annotated, atomic, const and allow()ed members are all fine; commas
  // inside a template argument list do not split a declaration.
  EXPECT_TRUE(
      lint_one("src/util/src/c.cpp",
               "class Cache {\n"
               "  ff::Mutex mutex_;\n"
               "  int hits_ FF_GUARDED_BY(mutex_) = 0,\n"
               "      evictions_ FF_GUARDED_BY(mutex_) = 0;\n"
               "  std::map<int, int> index_ FF_GUARDED_BY(mutex_);\n"
               "  std::atomic<int> misses_{0};\n"
               "  const int capacity_ = 8;\n"
               "  // ff-lint: allow(unguarded-shared-state) set before\n"
               "  // worker threads start.\n"
               "  int config_;\n"
               "};\n")
          .findings.empty());
  // A class without a mutex member is out of scope entirely.
  EXPECT_TRUE(lint_one("src/util/src/c.cpp",
                       "class Plain { int hits_; };\n")
                  .findings.empty());
}

// ---------------------------------------------------------------------
// Call-graph determinism reachability, in memory.

TEST(Reachability, ScheduledLambdaReachesWallClockHelper) {
  // bench/ is outside the determinism dirs; only the call-graph rule
  // connects the scheduled lambda to the wall-clock helper it calls.
  const std::string body =
      "#include <chrono>\n"
      "double now_ms() {\n"
      "  return std::chrono::steady_clock::now()\n"
      "      .time_since_epoch().count() / 1e6;\n"
      "}\n"
      "template <class Sim>\n"
      "void install(Sim& sim) {\n"
      "  sim.schedule_in(1000, [&] { sim.record(now_ms()); });\n"
      "}\n";
  const auto r = lint_one("bench/probe.cpp", body);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "determinism-reachability");
  EXPECT_NE(r.findings[0].message.find("now_ms"), std::string::npos);
  // The same helper called only from main(): not a dispatch root.
  EXPECT_TRUE(lint_one("bench/probe.cpp",
                       "#include <chrono>\n"
                       "double now_ms() {\n"
                       "  return std::chrono::steady_clock::now()\n"
                       "      .time_since_epoch().count() / 1e6;\n"
                       "}\n"
                       "int main() { return now_ms() > 0 ? 0 : 1; }\n")
                  .findings.empty());
}

// ---------------------------------------------------------------------
// Architecture rules, in memory.

TEST(Architecture, LayeringMatrixIsAcyclicAndComplete) {
  const auto& layers = layering();
  for (const auto& [mod, deps] : layers) {
    for (const std::string& dep : deps) {
      ASSERT_TRUE(layers.count(dep) > 0) << mod << " -> " << dep;
      // DAG: a dependency may never (transitively, via the closure
      // property of the matrix) include its dependent.
      EXPECT_EQ(layers.at(dep).count(mod), 0u) << mod << " <-> " << dep;
    }
  }
}

TEST(Architecture, LayeringViolationAndAllow) {
  EXPECT_EQ(
      rules_of(lint_one("src/sim/src/x.cpp",
                        "#include \"ff/core/experiment.h\"\n")),
      (std::set<FileRule>{{"src/sim/src/x.cpp", "layering"}}));
  EXPECT_TRUE(
      lint_one("src/sim/src/x.cpp",
               "// ff-lint: allow(layering) documented bootstrap shim\n"
               "#include \"ff/core/experiment.h\"\n")
          .findings.empty());
}

TEST(Architecture, UnknownModuleIsReported) {
  const auto r = lint_one("src/newmod/src/x.cpp",
                          "#include \"ff/util/rng.h\"\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "layering");
}

TEST(Architecture, HeaderHygiene) {
  EXPECT_EQ(rules_of(lint_one("src/net/include/ff/net/h.h",
                              "#pragma once\n#include \"link_impl.h\"\n")),
            (std::set<FileRule>{
                {"src/net/include/ff/net/h.h", "header-hygiene"}}));
  EXPECT_EQ(rules_of(lint_one("src/net/include/ff/net/h.h",
                              "#include <vector>\nstruct H {};\n")),
            (std::set<FileRule>{
                {"src/net/include/ff/net/h.h", "header-hygiene"}}));
  EXPECT_TRUE(lint_one("src/net/include/ff/net/h.h",
                       "#pragma once\n#include <vector>\n"
                       "#include \"ff/util/rng.h\"\nstruct H {};\n")
                  .findings.empty());
}

// ---------------------------------------------------------------------
// The on-disk trees, loaded from disk with repo-relative paths.

TEST(Fixtures, ViolationTreeFindsExactlyTheSeededRules) {
  const LintResult r = lint_tree(std::string(FF_LINT_FIXTURES) +
                                 "/violations");
  const std::set<FileRule> expected = {
      {"src/core/invalidate.cpp", "container-invalidation"},
      {"src/sim/wall_clock.cpp", "wall-clock"},
  };
  EXPECT_EQ(rules_of(r), expected);
}

TEST(Fixtures, CleanTreeIsClean) {
  // Its one file carries a load-bearing allow(), so stale-allow stays
  // quiet too.
  const LintResult r = lint_tree(std::string(FF_LINT_FIXTURES) + "/clean");
  EXPECT_TRUE(r.findings.empty())
      << r.findings.front().file << ": " << r.findings.front().message;
  EXPECT_EQ(r.files_scanned, 1u);
}

// The annotated production tree is lint-clean, and not vacuously so:
// stripping a single FF_GUARDED_BY from a real header must produce
// exactly one unguarded-shared-state finding.
TEST(Fixtures, RealAnnotationsAreLoadBearing) {
  const std::string path = std::string(FF_LINT_REPO_ROOT) +
                           "/src/util/include/ff/util/mpmc_queue.h";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string content = ss.str();

  const std::string rel = "src/util/include/ff/util/mpmc_queue.h";
  EXPECT_TRUE(lint_files({{rel, content}}).findings.empty());

  const std::string annotation = " FF_GUARDED_BY(mutex_)";
  const std::size_t pos = content.find(annotation);
  ASSERT_NE(pos, std::string::npos) << "annotation gone from " << path;
  content.erase(pos, annotation.size());
  const LintResult r = lint_files({{rel, content}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "unguarded-shared-state");
}

// ---------------------------------------------------------------------
// The CLI binary itself, end to end.

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(FF_LINT_BIN) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());  // NOLINT
  return status < 0 ? status : WEXITSTATUS(status);
}

TEST(Cli, ViolationFixtureExitsOne) {
  EXPECT_EQ(run_cli("--root " + std::string(FF_LINT_FIXTURES) +
                    "/violations"),
            1);
}

TEST(Cli, CleanFixtureExitsZero) {
  EXPECT_EQ(run_cli("--root " + std::string(FF_LINT_FIXTURES) + "/clean"),
            0);
}

TEST(Cli, MissingTreeExitsTwo) {
  EXPECT_EQ(run_cli("--root /nonexistent-ff-lint-root"), 2);
}

TEST(Cli, SarifOutputListsRulesAndResults) {
  const std::string path = testing::TempDir() + "ff_lint_findings.sarif";
  EXPECT_EQ(run_cli("--root " + std::string(FF_LINT_FIXTURES) +
                    "/violations --sarif=" + path),
            1);
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string sarif = ss.str();
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"ff-lint\""), std::string::npos);
  // Rule metadata covers the whole registry, not just fired rules.
  for (const std::string& rule : rule_registry()) {
    EXPECT_NE(sarif.find("{\"id\":\"" + rule + "\"}"), std::string::npos)
        << rule;
  }
  EXPECT_NE(sarif.find("\"ruleId\":\"wall-clock\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"container-invalidation\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"src/core/invalidate.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, SarifOutputOnCleanTreeHasNoResults) {
  const std::string path = testing::TempDir() + "ff_lint_clean.sarif";
  EXPECT_EQ(run_cli("--root " + std::string(FF_LINT_FIXTURES) +
                    "/clean --sarif=" + path),
            0);
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"results\":[]"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, UnknownFlagExitsTwo) {
  EXPECT_EQ(run_cli("--bogus"), 2);
  // SARIF is the one machine-readable report: --json is an unknown
  // argument, rejected before any scan even on a clean tree.
  EXPECT_EQ(run_cli("--root " + std::string(FF_LINT_FIXTURES) +
                    "/clean --json=findings.json"),
            2);
}

}  // namespace
}  // namespace ff::lint
