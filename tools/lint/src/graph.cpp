#include "ff/lint/graph.h"

#include <algorithm>
#include <cstddef>

namespace ff::lint {
namespace {

bool is_ff_path(const std::string& path) {
  return path.compare(0, 3, "ff/") == 0;
}

/// Module component of "ff/<module>/<name>.h", or "".
std::string ff_module(const std::string& path) {
  if (!is_ff_path(path)) return "";
  const std::size_t end = path.find('/', 3);
  if (end == std::string::npos) return "";
  return path.substr(3, end - 3);
}

/// Real findings land in `out`; findings dropped by an allow()
/// directive land in `suppressed` (when non-null) for stale-allow.
struct Sink {
  std::vector<Finding>* out{nullptr};
  std::vector<Finding>* suppressed{nullptr};
};

void add_finding(const SourceFile& file, int line, const char* rule,
                 std::string message, const Sink& sink) {
  Finding f{file.rel, line, rule, std::move(message)};
  if (allowed_rules_for(file, line).count(rule) > 0) {
    if (sink.suppressed != nullptr) sink.suppressed->push_back(std::move(f));
    return;
  }
  sink.out->push_back(std::move(f));
}

}  // namespace

const std::map<std::string, std::set<std::string>>& layering() {
  // Transitive closure of the PUBLIC link graph in src/*/CMakeLists.txt.
  // A module new to the tree must be added here AND to DESIGN.md; the
  // unknown-module finding below makes that impossible to forget.
  static const std::map<std::string, std::set<std::string>> kLayers = {
      {"util", {}},
      {"obs", {"util"}},
      {"sim", {"util"}},
      {"models", {"util"}},
      {"rt", {"sim", "util"}},
      {"net", {"sim", "obs", "util"}},
      {"server", {"sim", "models", "obs", "util"}},
      {"control", {"server", "sim", "models", "obs", "util"}},
      {"device", {"control", "server", "sim", "models", "obs", "util"}},
      {"core",
       {"device", "server", "net", "control", "models", "sim", "rt", "obs",
        "util"}},
      {"fleet",
       {"core", "device", "server", "net", "control", "models", "sim", "rt",
        "obs", "util"}},
      {"sweep",
       {"core", "device", "server", "net", "control", "models", "sim", "rt",
        "obs", "util"}},
      {"invariants",
       {"fleet", "sweep", "core", "device", "server", "net", "control",
        "models", "sim", "rt", "obs", "util"}},
      // The linter's own tree (tools/lint/) is scanned too and depends
      // on no src/ module.
      {"lint", {}},
  };
  return kLayers;
}

std::vector<Finding> check_architecture(const SourceTree& tree,
                                        std::vector<Finding>* suppressed) {
  std::vector<Finding> out;
  const Sink sink{&out, suppressed};
  const auto& layers = layering();

  for (const SourceFile& file : tree.files()) {
    if (file.module.empty()) continue;
    const auto own = layers.find(file.module);

    for (const IncludeDirective& inc : file.lex.includes) {
      const std::string target = ff_module(inc.path);

      if (!target.empty()) {
        if (own == layers.end()) {
          add_finding(file, inc.line, "layering",
                      "module 'src/" + file.module +
                          "' is not in the DESIGN.md layering DAG; add it "
                          "to ff::lint::layering() and DESIGN.md section 6",
                      sink);
        } else if (target != file.module &&
                   own->second.count(target) == 0) {
          add_finding(
              file, inc.line, "layering",
              "src/" + file.module + " may not include \"" + inc.path +
                  "\": the layering DAG (DESIGN.md section 6) does not "
                  "permit " +
                  file.module + " -> " + target,
              sink);
        }
        if (file.public_header && inc.angled) {
          add_finding(file, inc.line, "header-hygiene",
                      "ff headers must be included as \"" + inc.path +
                          "\", not <" + inc.path + ">",
                      sink);
        }
      } else if (file.public_header && !inc.angled) {
        add_finding(file, inc.line, "header-hygiene",
                    "non-canonical include \"" + inc.path +
                        "\": public headers may include only other public "
                        "\"ff/...\" headers and system <...> headers",
                    sink);
      }
    }

    if (file.public_header && !file.lex.pragma_once) {
      add_finding(file, 1, "header-hygiene",
                  "public header is missing #pragma once", sink);
    }
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace ff::lint
