#include <map>
#include <ostream>
#include <set>

#include "ff/lint/driver.h"

namespace ff::lint {
namespace {

// One violation per rule, plus the two classes of case the retired
// regex linter (tools/determinism_lint.py) provably missed -- a banned
// construct reaching linted code only through a macro defined in
// another (unlinted) module, and iteration over an unordered container
// declared in a header included from another file -- plus clean decoys
// for its false-positive classes (comments, string literals, multi-line
// raw strings, placement new, keyed lookups, member names).
const std::vector<std::pair<std::string, std::string>> kCorpus = {
    // wall-clock: direct use.
    {"src/sim/bad_clock.cpp", R"corpus(#include <chrono>
double wall_now() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}
)corpus"},

    // wall-clock and ambient-entropy: via macro. The definitions live in
    // src/util, which the determinism rules do not cover, and the use
    // sites contain no banned substring -- invisible to a regex, caught
    // by the macro table. FF_SQUARE is the benign control.
    {"src/util/include/ff/util/wall_macro.h", R"corpus(#pragma once
#include <chrono>
#include <ctime>
#define FF_WALL_NOW() \
  std::chrono::steady_clock::now().time_since_epoch().count()
#define FF_EPOCH_SECONDS() static_cast<long>(time(nullptr))
#define FF_SQUARE(x) ((x) * (x))
)corpus"},
    {"src/sim/macro_clock.cpp", R"corpus(#include "ff/util/wall_macro.h"
double stamp() { return FF_WALL_NOW(); }
long epoch() { return FF_EPOCH_SECONDS(); }
)corpus"},
    {"src/server/good_macro.cpp", R"corpus(#include "ff/util/wall_macro.h"
int nine() { return FF_SQUARE(3); }
)corpus"},

    // ambient-entropy: all three banned sources.
    {"src/net/bad_entropy.cpp", R"corpus(#include <cstdlib>
#include <ctime>
#include <random>
int jitter() { return std::rand(); }
long stamp() { return time(nullptr); }
unsigned seed() { std::random_device rd; return rd(); }
)corpus"},

    // unordered-pointer-key: declaration split across lines, which a
    // line-oriented regex cannot match.
    {"src/server/bad_ptr_key.cpp", R"corpus(#include <unordered_map>
struct Flow;
std::unordered_map<
    Flow*, int>
    by_flow_;
)corpus"},

    // unordered-iteration: container declared in a header, iterated in
    // the .cpp that includes it -- the cross-file case the regex linter
    // (same-file declarations only) missed. session_lookup.cpp is the
    // decoy: the same container, only looked up by key.
    {"src/device/include/ff/device/session_table.h", R"corpus(#pragma once
#include <unordered_map>
struct SessionTable {
  int total() const;
  int depth(int id) const { return sessions_.at(id); }
  std::unordered_map<int, int> sessions_;
};
)corpus"},
    {"src/device/src/session_table.cpp",
     R"corpus(#include "ff/device/session_table.h"
int SessionTable::total() const {
  int n = 0;
  for (const auto& kv : sessions_) n += kv.second;
  return n;
}
)corpus"},
    {"src/device/src/session_lookup.cpp",
     R"corpus(#include "ff/device/session_table.h"
int lookup(const SessionTable& t, int id) {
  const auto it = t.sessions_.find(id);
  return it == t.sessions_.end() ? 0 : it->second;
}
)corpus"},

    // raw-allocation in event-dispatch code.
    {"src/sim/bad_alloc.cpp", R"corpus(struct Event { int id; };
Event* dispatch() { return new Event{1}; }
)corpus"},

    // layering: models may not reach up into core.
    {"src/models/src/bad_layer.cpp",
     R"corpus(#include "ff/core/experiment.h"
int answer() { return 42; }
)corpus"},

    // header-hygiene: no #pragma once, relative include.
    {"src/control/include/ff/control/loose.h",
     R"corpus(#include "../detail/impl.h"
struct Loose {};
)corpus"},

    // Clean decoys: none of these may produce a finding.
    {"src/core/good_clean.cpp",
     R"corpus(// steady_clock in a comment must not trip the lint
#include <unordered_map>
const char* kDoc = "std::rand(), malloc() and new Event are banned";
const char* kRaw = R"lint(
  std::chrono::steady_clock::now();
  time(NULL); malloc(4);
  for (auto& kv : table_) {}
)lint";
struct Stamp {
  double time;
  explicit Stamp(double t) : time(t) {}
};
std::unordered_map<int, int> table_;
int lookup(int k) { return table_.at(k); }
)corpus"},
    {"src/sim/good_sim.cpp", R"corpus(#include <new>
struct Stamp {
  double t;
};
void* emplace(void* slot) { return ::new (slot) Stamp{0.0}; }
char* grow() {
  // ff-lint: allow(raw-allocation) slab growth, amortized out of the
  // steady state.
  return new char[512];
}
)corpus"},
    {"src/rt/good_allowed.cpp", R"corpus(#include <chrono>
double pace() {
  // ff-lint: allow(wall-clock) realtime pacing measures wall time.
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
)corpus"},

    // unguarded-shared-state: a mutex-owning class with one plain member
    // next to annotated, atomic and const ones. Only last_key_ fires.
    {"src/util/include/ff/util/bad_guard.h", R"corpus(#pragma once
#include <atomic>
#include "ff/util/sync.h"
#include "ff/util/thread_annotations.h"
class BadCache {
 public:
  int get(int key);
 private:
  ff::Mutex mutex_;
  int last_key_ = 0;
  int hits_ FF_GUARDED_BY(mutex_) = 0;
  std::atomic<int> misses_{0};
  const int capacity_ = 64;
};
)corpus"},

    // determinism-reachability: the wall clock hides behind FF_WALL_NOW
    // (defined in the unlinted util module above) inside a helper that a
    // scheduled lambda calls. bench/ is outside the determinism dirs, so
    // only the call-graph rule can see this.
    {"bench/bad_reach.cpp", R"corpus(#include "ff/util/wall_macro.h"
double now_ms() { return FF_WALL_NOW() / 1e6; }
template <class Sim>
void install_probe(Sim& sim) {
  sim.schedule_in(1000, [&] { sim.record(now_ms()); });
}
)corpus"},

    // Reachability decoy: the same hazard in a helper only main() calls
    // is fine -- main is not a dispatch root.
    {"bench/good_unreached.cpp", R"corpus(#include <chrono>
double wall_probe() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
int main() { return wall_probe() > 0.0 ? 0 : 1; }
)corpus"},

    // Multi-line allow decoy: the allow() sits mid-statement, two lines
    // below the line the finding lands on. Statement-extent suppression
    // must still cover it (the old per-line matcher did not).
    {"src/server/good_multiline_allow.cpp",
     R"corpus(#include <unordered_map>
struct Flow;
std::unordered_map<
    Flow*,
    // ff-lint: allow(unordered-pointer-key) diagnostics-only index,
    // never iterated.
    int>
    by_ptr_;
)corpus"},

    // Concurrency decoy: a fully annotated mutex-owning class.
    {"src/net/good_sync.cpp", R"corpus(#include "ff/util/sync.h"
#include "ff/util/thread_annotations.h"
class Counter {
 public:
  void add(int n) {
    ff::MutexLock lock(mutex_);
    total_ += n;
  }
 private:
  ff::Mutex mutex_;
  int total_ FF_GUARDED_BY(mutex_) = 0;
};
)corpus"},

    // container-invalidation: a reference into a vector used after a
    // growing push_back without an intervening reserve.
    {"src/core/bad_invalidation.cpp", R"corpus(#include <vector>
int last_after_grow() {
  std::vector<int> v;
  v.push_back(1);
  const int& tail = v.back();
  v.push_back(2);
  return tail;
}
)corpus"},

    // container-invalidation decoys: reserve-preceded growth, deque
    // push stability, and a reference re-taken after the mutation.
    {"src/core/good_invalidation.cpp", R"corpus(#include <deque>
#include <vector>
int stable_patterns() {
  std::vector<int> v;
  v.reserve(8);
  v.push_back(1);
  int& first = v.front();
  v.push_back(2);
  std::deque<int> d;
  d.push_back(1);
  int& head = d.front();
  d.push_back(2);
  int& fresh = v.back();
  return first + head + fresh;
}
)corpus"},

    // fingerprint-completeness: a curated result struct whose double
    // field never reaches result_fingerprint. The exempted sibling
    // (with a rationale) is the clean decoy and keeps its directive
    // load-bearing for stale-allow.
    {"src/sweep/bad_fingerprint.cpp", R"corpus(#include <cstdint>
struct TelemetryTotals {
  uint64_t frames_offered = 0;
  uint64_t frames_completed = 0;
  uint64_t frames_dropped = 0;
  double mean_latency_ms = 0.0;
  // ff-lint: allow(fingerprint-exempt) config echo, not a result.
  double debug_echo = 0.0;
};
uint64_t result_fingerprint(const TelemetryTotals& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  h ^= t.frames_offered;
  h ^= t.frames_completed;
  h ^= t.frames_dropped;
  return h;
}
)corpus"},

    // nodiscard-contract (declaration): a curated try_* API that is not
    // [[nodiscard]].
    {"src/net/bad_nodiscard_decl.cpp", R"corpus(class SlotTable {
 public:
  bool try_claim(int id);
};
)corpus"},

    // nodiscard-contract (call): a curated call whose result is
    // discarded in expression-statement position.
    {"src/device/bad_nodiscard_call.cpp", R"corpus(struct Queue {
  [[nodiscard]] bool try_push(int v);
};
void feed(Queue& q) {
  q.try_push(7);
}
)corpus"},

    // nodiscard decoys: consumed result, explicit (void) discard, and a
    // curated name with a visible void-returning overload.
    {"src/device/good_nodiscard.cpp", R"corpus(struct Queue2 {
  [[nodiscard]] bool try_pop(int* out);
};
struct Sink {
  void submit(int v);
};
void drain_all(Queue2& q, Sink& s) {
  int v = 0;
  if (q.try_pop(&v)) s.submit(v);
  (void)q.try_pop(&v);
  s.submit(3);
}
)corpus"},

    // stale-allow: a directive whose statement extent produces no
    // finding for the named rule.
    {"src/net/bad_stale_allow.cpp", R"corpus(unsigned checksum(unsigned x) {
  // ff-lint: allow(ambient-entropy) legacy seed path, removed in v3.
  return x * 2654435761u;
}
)corpus"},
};

const std::vector<std::pair<std::string, std::string>> kExpected = {
    {"bench/bad_reach.cpp", "determinism-reachability"},
    {"src/control/include/ff/control/loose.h", "header-hygiene"},
    {"src/core/bad_invalidation.cpp", "container-invalidation"},
    {"src/device/bad_nodiscard_call.cpp", "nodiscard-contract"},
    {"src/device/src/session_table.cpp", "unordered-iteration"},
    {"src/models/src/bad_layer.cpp", "layering"},
    {"src/net/bad_entropy.cpp", "ambient-entropy"},
    {"src/net/bad_nodiscard_decl.cpp", "nodiscard-contract"},
    {"src/net/bad_stale_allow.cpp", "stale-allow"},
    {"src/server/bad_ptr_key.cpp", "unordered-pointer-key"},
    {"src/sim/bad_alloc.cpp", "raw-allocation"},
    {"src/sim/bad_clock.cpp", "wall-clock"},
    {"src/sim/macro_clock.cpp", "ambient-entropy"},
    {"src/sim/macro_clock.cpp", "wall-clock"},
    {"src/sweep/bad_fingerprint.cpp", "fingerprint-completeness"},
    {"src/util/include/ff/util/bad_guard.h", "unguarded-shared-state"},
};

}  // namespace

int self_test(std::ostream& os) {
  const LintResult result = lint_files(kCorpus);

  std::set<std::pair<std::string, std::string>> got;
  for (const Finding& f : result.findings) got.insert({f.file, f.rule});

  bool ok = true;
  for (const auto& want : kExpected) {
    if (got.count(want) > 0) {
      os << "self-test: PASS caught " << want.second << " in " << want.first
         << "\n";
    } else {
      os << "self-test: FAIL missed " << want.second << " in " << want.first
         << "\n";
      ok = false;
    }
  }
  const std::set<std::pair<std::string, std::string>> expected(
      kExpected.begin(), kExpected.end());
  for (const auto& extra : got) {
    if (expected.count(extra) == 0) {
      os << "self-test: FAIL false positive " << extra.second << " in "
         << extra.first << "\n";
      ok = false;
    }
  }
  // Every rule the linter can emit must have at least one seeded corpus
  // finding, so a rule can never silently rot into a no-op. CI greps
  // for the coverage line.
  std::set<std::string> seeded;
  for (const auto& want : kExpected) seeded.insert(want.second);
  std::size_t covered = 0;
  for (const std::string& rule : rule_registry()) {
    if (seeded.count(rule) > 0) {
      ++covered;
    } else {
      os << "self-test: FAIL rule '" << rule
         << "' has no seeded corpus finding\n";
      ok = false;
    }
  }
  os << "self-test: coverage " << covered << "/" << rule_registry().size()
     << " rules seeded\n";
  os << "self-test: " << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace ff::lint
