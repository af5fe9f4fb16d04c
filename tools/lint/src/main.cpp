// ff-lint CLI: self-hosted static analysis for the FrameFeedback tree.
// Replaces tools/determinism_lint.py behind the same contract:
//
//   ff-lint [--root DIR]   lint <DIR>/src (plus bench/, examples/ and
//                          tools/lint/ when present; default root:
//                          cwd); exit 1 on findings
//   ff-lint --sarif=PATH   additionally write the findings as SARIF
//                          2.1.0 (GitHub code-scanning upload)
//   ff-lint --self-test    run the embedded fixture corpus and verify
//                          every rule fires (and nothing else does)
//
// Rules: wall-clock, ambient-entropy, unordered-pointer-key,
// unordered-iteration, raw-allocation (determinism family); layering,
// header-hygiene (architecture family); unguarded-shared-state
// (concurrency); determinism-reachability (call-graph family);
// container-invalidation (dataflow family); fingerprint-completeness,
// nodiscard-contract (repo-contract family); stale-allow (meta).
// Escape hatch: `// ff-lint: allow(<rule>) <reason>`; stale-allow has
// none (delete the dead directive instead).

#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "ff/lint/driver.h"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: ff-lint [--root DIR] [--sarif=PATH] [--self-test]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarif_path;
  bool run_self_test = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      run_self_test = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else {
      std::cerr << "ff-lint: unknown argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (run_self_test) return ff::lint::self_test(std::cout);

  try {
    const ff::lint::LintResult result = ff::lint::lint_tree(root);
    for (const ff::lint::Finding& f : result.findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path);
      if (!out) {
        std::cerr << "ff-lint: cannot write " << sarif_path << "\n";
        return 2;
      }
      ff::lint::write_findings_sarif(result, out);
    }
    if (!result.findings.empty()) {
      std::cerr << "ff-lint: FAILED (" << result.findings.size()
                << " finding(s)); fix or annotate with "
                   "'// ff-lint: allow(<rule>) <reason>'\n";
      return 1;
    }
    std::cout << "ff-lint: OK (" << result.files_scanned
              << " files scanned)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
