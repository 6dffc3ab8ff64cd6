// Graph machinery shared by the cross-file lint passes: a string-keyed
// digraph with deterministic cycle reporting, and the declared module
// layering parsed from tools/lint/layers.txt.
//
// Both the include-graph pass (files / modules) and the lock-order pass
// (locks) reduce to the same question — "does this directed graph have a
// cycle, and if so, show me one" — so the answer lives here once.

#ifndef ALICOCO_TOOLS_LINT_GRAPH_H_
#define ALICOCO_TOOLS_LINT_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace alicoco::lint {

/// Reads a whole file; the error names the path. Shared by every lint
/// loader (layers, suppressions, the tree walks).
Result<std::string> ReadFile(const std::string& path);

/// One witness site for a graph edge: where in the tree the dependency is
/// introduced (an #include line, a lock acquisition).
struct EdgeSite {
  std::string file;
  int line = 0;
};

/// Directed graph over string node ids. Nodes and adjacency are kept in
/// sorted containers so every traversal — and therefore every finding —
/// is deterministic across runs and platforms.
class Digraph {
 public:
  void AddNode(const std::string& node);
  /// Adds from -> to. The first site registered for an edge is kept as its
  /// witness; duplicates are collapsed.
  void AddEdge(const std::string& from, const std::string& to,
               const EdgeSite& site);

  bool HasEdge(const std::string& from, const std::string& to) const;
  /// Witness site for an existing edge; nullptr when absent.
  const EdgeSite* FindSite(const std::string& from,
                           const std::string& to) const;

  /// Nodes in sorted order.
  std::vector<std::string> Nodes() const;
  /// Sorted successors of `node`.
  const std::set<std::string>& Successors(const std::string& node) const;

  /// Every elementary cycle witness, one per strongly connected component
  /// with more than one node (plus self-loops). Each cycle is rotated so
  /// its lexicographically smallest node comes first, closed (front ==
  /// back), and the list is sorted by that first node.
  std::vector<std::vector<std::string>> Cycles() const;

  /// Tarjan's strongly connected components, each sorted internally, in
  /// emission order: a component is emitted only after every component it
  /// has edges into (reverse topological order of the condensation). The
  /// interprocedural lint tier leans on that order directly — walking the
  /// components forward visits callees before callers (bottom-up summary
  /// propagation), walking them backward visits callers first.
  std::vector<std::vector<std::string>> StronglyConnectedComponents() const;

 private:
  std::vector<std::string> CycleThrough(const std::string& start,
                                        const std::set<std::string>& scc)
      const;

  std::map<std::string, std::set<std::string>> adjacency_;
  std::map<std::string, std::map<std::string, EdgeSite>> sites_;
};

/// The declared architecture layering. Parsed from layers.txt:
///
///   # comment
///   layer common            <- rank 0, the bottom
///   layer eval nn text      <- one rank, three peer modules
///   layer pipeline          <- higher ranks may depend on lower ones
///
/// A module may include only modules of strictly lower rank (or itself);
/// peers within a rank are independent by declaration. Unknown modules are
/// reported by the include-graph pass rather than silently tolerated.
class Layers {
 public:
  static Result<Layers> Parse(const std::string& text);
  static Result<Layers> LoadFile(const std::string& path);

  /// Rank of `module`, or -1 when undeclared.
  int RankOf(const std::string& module) const;
  size_t num_layers() const { return num_layers_; }
  size_t num_modules() const { return rank_.size(); }

  /// Modules of `rank` in declaration order, for diagnostics.
  std::vector<std::string> ModulesAt(int rank) const;

 private:
  std::map<std::string, int> rank_;
  std::vector<std::vector<std::string>> layers_;
  size_t num_layers_ = 0;
};

}  // namespace alicoco::lint

#endif  // ALICOCO_TOOLS_LINT_GRAPH_H_
