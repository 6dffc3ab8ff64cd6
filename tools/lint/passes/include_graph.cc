// Include-graph pass: file-level include cycles and module layering.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "tools/lint/passes/passes.h"

namespace alicoco::lint {
namespace {

/// "src/kg/concept_net.h" -> "kg"; "" when the file sits directly under
/// src/ or outside it (such files still join the file-level graph).
std::string ModuleOf(const std::string& path) {
  std::string rest = path;
  if (StartsWith(rest, "src/")) rest = rest.substr(4);
  size_t slash = rest.find('/');
  if (slash == std::string::npos) return "";
  return rest.substr(0, slash);
}

/// Maps an include as written to an indexed project path, mirroring the
/// build's include directories (repo root and src/). Empty when the
/// include is not first-party.
std::string Resolve(const ProjectIndex& index, const IncludeSite& inc) {
  if (inc.angled) return "";  // system / third-party headers
  if (index.Find(inc.path) != nullptr) return inc.path;
  std::string under_src = "src/" + inc.path;
  if (index.Find(under_src) != nullptr) return under_src;
  return "";
}

}  // namespace

std::vector<Finding> RunIncludeGraphPass(const ProjectIndex& index,
                                         const Layers& layers) {
  Digraph file_graph;
  Digraph module_graph;
  // module -> first file of the module, for placing module-scoped findings.
  std::map<std::string, std::string> module_home;

  for (const FileSummary& file : index.files()) {
    file_graph.AddNode(file.path);
    std::string from_module = ModuleOf(file.path);
    if (!from_module.empty()) {
      module_graph.AddNode(from_module);
      auto it = module_home.find(from_module);
      if (it == module_home.end() || file.path < it->second) {
        module_home[from_module] = file.path;
      }
    }
    for (const IncludeSite& inc : file.includes) {
      std::string target = Resolve(index, inc);
      if (target.empty()) continue;
      EdgeSite site{file.path, inc.line};
      file_graph.AddEdge(file.path, target, site);
      std::string to_module = ModuleOf(target);
      if (!from_module.empty() && !to_module.empty() &&
          from_module != to_module) {
        module_graph.AddEdge(from_module, to_module, site);
      }
    }
  }

  std::vector<Finding> findings;

  for (const std::vector<std::string>& cycle : file_graph.Cycles()) {
    const EdgeSite* site = file_graph.FindSite(cycle[0], cycle[1]);
    Finding f;
    f.file = site != nullptr ? site->file : cycle[0];
    f.line = site != nullptr ? site->line : 1;
    f.rule = "include-cycle";
    f.message = "include cycle: " + JoinStrings(cycle, " -> ");
    findings.push_back(std::move(f));
  }

  // Undeclared modules are reported once each, anchored to the module's
  // lexicographically first file so the finding is stable.
  for (const std::string& module : module_graph.Nodes()) {
    if (layers.RankOf(module) >= 0) continue;
    Finding f;
    f.file = module_home[module];
    f.line = 1;
    f.rule = "layer-violation";
    f.message = "module '" + module +
                "' is not declared in tools/lint/layers.txt";
    findings.push_back(std::move(f));
  }

  for (const std::string& from : module_graph.Nodes()) {
    int from_rank = layers.RankOf(from);
    if (from_rank < 0) continue;
    for (const std::string& to : module_graph.Successors(from)) {
      int to_rank = layers.RankOf(to);
      if (to_rank < 0 || to_rank < from_rank) continue;  // legal or reported
      const EdgeSite* site = module_graph.FindSite(from, to);
      Finding f;
      f.file = site->file;
      f.line = site->line;
      f.rule = "layer-violation";
      if (to_rank == from_rank) {
        f.message = "modules '" + from + "' and '" + to +
                    "' share layer " + std::to_string(from_rank) +
                    " and must stay independent";
      } else {
        f.message = "module '" + from + "' (layer " +
                    std::to_string(from_rank) + ") must not depend on '" +
                    to + "' (layer " + std::to_string(to_rank) + ")";
      }
      findings.push_back(std::move(f));
    }
  }

  return findings;
}

}  // namespace alicoco::lint
