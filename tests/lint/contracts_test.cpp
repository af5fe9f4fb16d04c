// Repo-contract rule tests: fingerprint-completeness and
// nodiscard-contract in memory, plus non-vacuity checks against the
// real tree -- stripping one fingerprint mix line or one [[nodiscard]]
// from production sources must produce exactly one finding.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ff/lint/contracts.h"
#include "ff/lint/driver.h"

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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------
// fingerprint-completeness, in memory.

const char kFingerprintGap[] =
    "#include <cstdint>\n"
    "struct TelemetryTotals {\n"
    "  uint64_t frames_offered = 0;\n"
    "  uint64_t frames_completed = 0;\n"
    "  double mean_latency_ms = 0.0, p99_latency_ms = 0.0;\n"
    "};\n"
    "uint64_t result_fingerprint(const TelemetryTotals& t) {\n"
    "  uint64_t h = 0;\n"
    "  h ^= t.frames_offered;\n"
    "  h ^= t.frames_completed;\n"
    "  return h;\n"
    "}\n";

TEST(Fingerprint, UnmixedNumericFieldFires) {
  // One statement declaring two fields yields a finding for each.
  const auto r = lint_one("src/sweep/src/x.cpp", kFingerprintGap);
  ASSERT_EQ(r.findings.size(), 2u);
  for (const Finding& f : r.findings) {
    EXPECT_EQ(f.rule, "fingerprint-completeness");
    EXPECT_NE(f.message.find("TelemetryTotals"), std::string::npos);
  }
  EXPECT_NE(r.findings[0].message.find("mean_latency_ms"),
            std::string::npos);
  EXPECT_NE(r.findings[1].message.find("p99_latency_ms"),
            std::string::npos);
}

TEST(Fingerprint, ConservationIdentityCountsAsAccounted) {
  EXPECT_TRUE(lint_one("src/sweep/src/x.cpp",
                       "#include <cstdint>\n"
                       "struct TelemetryTotals {\n"
                       "  uint64_t frames_offered = 0;\n"
                       "  uint64_t frames_dropped = 0;\n"
                       "  uint64_t accounted() const {\n"
                       "    return frames_dropped;\n"
                       "  }\n"
                       "};\n"
                       "uint64_t result_fingerprint(\n"
                       "    const TelemetryTotals& t) {\n"
                       "  return t.frames_offered;\n"
                       "}\n")
                  .findings.empty());
}

TEST(Fingerprint, ExemptionRequiresRationale) {
  // Bare directive: still a finding, asking for the rationale.
  const std::string bare =
      "#include <cstdint>\n"
      "struct TelemetryTotals {\n"
      "  uint64_t frames_offered = 0;\n"
      "  // ff-lint: allow(fingerprint-exempt)\n"
      "  double slo_threshold = 0.0;\n"
      "};\n"
      "uint64_t result_fingerprint(const TelemetryTotals& t) {\n"
      "  return t.frames_offered;\n"
      "}\n";
  const auto r = lint_one("src/sweep/src/x.cpp", bare);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "fingerprint-completeness");
  EXPECT_NE(r.findings[0].message.find("rationale"), std::string::npos);
  // With a rationale the field is exempt (and the directive is
  // load-bearing, so stale-allow stays quiet).
  const std::string justified =
      "#include <cstdint>\n"
      "struct TelemetryTotals {\n"
      "  uint64_t frames_offered = 0;\n"
      "  // ff-lint: allow(fingerprint-exempt) config echo, not output.\n"
      "  double slo_threshold = 0.0;\n"
      "};\n"
      "uint64_t result_fingerprint(const TelemetryTotals& t) {\n"
      "  return t.frames_offered;\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/sweep/src/x.cpp", justified).findings.empty());
}

TEST(Fingerprint, InertWithoutFingerprintDefinition) {
  // No result_fingerprint in the tree: the rule stays quiet so fixture
  // trees for other rules do not need fingerprint plumbing.
  EXPECT_TRUE(lint_one("src/sweep/src/x.cpp",
                       "#include <cstdint>\n"
                       "struct TelemetryTotals {\n"
                       "  uint64_t frames_offered = 0;\n"
                       "  double mean_latency_ms = 0.0;\n"
                       "};\n")
                  .findings.empty());
}

TEST(Fingerprint, NonCuratedStructIsIgnored) {
  EXPECT_TRUE(lint_one("src/sweep/src/x.cpp",
                       "#include <cstdint>\n"
                       "struct ScratchPad {\n"
                       "  double unmixed = 0.0;\n"
                       "};\n"
                       "struct TelemetryTotals {\n"
                       "  uint64_t frames_offered = 0;\n"
                       "};\n"
                       "uint64_t result_fingerprint(\n"
                       "    const TelemetryTotals& t) {\n"
                       "  return t.frames_offered;\n"
                       "}\n")
                  .findings.empty());
}

// ---------------------------------------------------------------------
// nodiscard-contract, in memory.

TEST(Nodiscard, CuratedApiNames) {
  EXPECT_TRUE(nodiscard_api_name("try_push"));
  EXPECT_TRUE(nodiscard_api_name("try_reserve_batch"));
  EXPECT_TRUE(nodiscard_api_name("submit"));
  EXPECT_TRUE(nodiscard_api_name("place"));
  EXPECT_TRUE(nodiscard_api_name("admit"));
  EXPECT_TRUE(nodiscard_api_name("evaluate_invariants"));
  EXPECT_FALSE(nodiscard_api_name("push"));
  EXPECT_FALSE(nodiscard_api_name("trying"));
  EXPECT_FALSE(nodiscard_api_name("submission"));
}

TEST(Nodiscard, StatusDeclarationMustBeNodiscard) {
  const auto r = lint_one("src/net/src/x.cpp",
                          "class SlotTable {\n"
                          " public:\n"
                          "  bool try_claim(int id);\n"
                          "};\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "nodiscard-contract");
  EXPECT_NE(r.findings[0].message.find("try_claim"), std::string::npos);
  // Annotated: clean. Void-returning curated names are out of scope.
  EXPECT_TRUE(lint_one("src/net/src/x.cpp",
                       "class SlotTable {\n"
                       " public:\n"
                       "  [[nodiscard]] bool try_claim(int id);\n"
                       "  void submit(int id);\n"
                       "};\n")
                  .findings.empty());
}

TEST(Nodiscard, DiscardedCallFires) {
  const auto r = lint_one("src/net/src/x.cpp",
                          "struct Q {\n"
                          "  [[nodiscard]] bool try_push(int v);\n"
                          "};\n"
                          "void f(Q& q) {\n"
                          "  q.try_push(1);\n"
                          "}\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "nodiscard-contract");
  EXPECT_NE(r.findings[0].message.find("discard"), std::string::npos);

  // A bench/ call into a src/ API. bench/ and examples/ do not link
  // ff_warnings, so the compiler's unused-result diagnostic stays a
  // warning there even with FF_WARNINGS_AS_ERRORS; only this rule
  // rejects the discard.
  const LintResult b = lint_files(
      {{"src/util/include/ff/util/q.h",
        "#pragma once\n"
        "struct Q {\n"
        "  [[nodiscard]] bool try_push(int v);\n"
        "};\n"},
       {"bench/x.cpp",
        "#include \"ff/util/q.h\"\n"
        "void f(Q& q) {\n"
        "  q.try_push(1);\n"
        "}\n"}});
  ASSERT_EQ(b.findings.size(), 1u);
  EXPECT_EQ(rules_of(b),
            (std::set<FileRule>{{"bench/x.cpp", "nodiscard-contract"}}));
}

TEST(Nodiscard, ConsumedAndVoidCastAreClean) {
  EXPECT_TRUE(lint_one("src/net/src/x.cpp",
                       "struct Q {\n"
                       "  [[nodiscard]] bool try_push(int v);\n"
                       "};\n"
                       "bool f(Q& q) {\n"
                       "  if (q.try_push(1)) return true;\n"
                       "  (void)q.try_push(2);\n"
                       "  return q.try_push(3);\n"
                       "}\n")
                  .findings.empty());
}

TEST(Nodiscard, VoidOverloadSilencesDiscardedCall) {
  // EventQueue::place / EdgeServer::submit pattern: a void-returning
  // overload of a curated name makes expression-statement calls fine.
  const std::vector<std::pair<std::string, std::string>> files = {
      {"src/sim/include/ff/sim/sink.h",
       "#pragma once\n"
       "struct Sink {\n"
       "  void submit(int v);\n"
       "};\n"},
      {"src/sim/src/sink.cpp",
       "#include \"ff/sim/sink.h\"\n"
       "void drive(Sink& s) {\n"
       "  s.submit(1);\n"
       "}\n"},
  };
  EXPECT_TRUE(lint_files(files).findings.empty());
}

TEST(Nodiscard, OutsideScopedDirsIsIgnored) {
  EXPECT_TRUE(lint_one("bench/x.cpp",
                       "struct Q { bool try_push(int v); };\n"
                       "void f(Q& q) { q.try_push(1); }\n")
                  .findings.empty());
}

// ---------------------------------------------------------------------
// Non-vacuity against the real tree: the production sources are clean,
// and removing a single accounted-for line brings exactly one finding.

TEST(RealTree, FingerprintMixIsLoadBearing) {
  const std::string root(FF_LINT_REPO_ROOT);
  const std::string stats_rel =
      "src/device/include/ff/device/offload_client.h";
  const std::string sweep_rel = "src/sweep/src/sweep.cpp";
  const std::string stats = slurp(root + "/" + stats_rel);
  std::string sweep = slurp(root + "/" + sweep_rel);

  EXPECT_TRUE(
      lint_files({{stats_rel, stats}, {sweep_rel, sweep}}).findings.empty());

  const std::string mix = "    f.mix(d.offload.probes_ok);\n";
  const std::size_t pos = sweep.find(mix);
  ASSERT_NE(pos, std::string::npos) << "mix line gone from " << sweep_rel;
  sweep.erase(pos, mix.size());
  const LintResult r =
      lint_files({{stats_rel, stats}, {sweep_rel, sweep}});
  ASSERT_EQ(r.findings.size(), 1u) << r.findings[0].message;
  EXPECT_EQ(r.findings[0].rule, "fingerprint-completeness");
  EXPECT_NE(r.findings[0].message.find("probes_ok"), std::string::npos);
}

TEST(RealTree, NodiscardAnnotationIsLoadBearing) {
  const std::string rel = "src/util/include/ff/util/mpmc_queue.h";
  std::string content = slurp(std::string(FF_LINT_REPO_ROOT) + "/" + rel);

  EXPECT_TRUE(lint_files({{rel, content}}).findings.empty());

  const std::string attr = "[[nodiscard]] ";
  const std::size_t pos = content.find(attr + "bool try_push");
  ASSERT_NE(pos, std::string::npos) << "annotation gone from " << rel;
  content.erase(pos, attr.size());
  const LintResult r = lint_files({{rel, content}});
  ASSERT_EQ(r.findings.size(), 1u) << r.findings[0].message;
  EXPECT_EQ(r.findings[0].rule, "nodiscard-contract");
  EXPECT_NE(r.findings[0].message.find("try_push"), std::string::npos);
}

}  // namespace
}  // namespace ff::lint
