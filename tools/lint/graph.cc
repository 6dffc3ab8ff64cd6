#include "tools/lint/graph.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

namespace alicoco::lint {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void Digraph::AddNode(const std::string& node) { adjacency_[node]; }

void Digraph::AddEdge(const std::string& from, const std::string& to,
                      const EdgeSite& site) {
  adjacency_[from].insert(to);
  adjacency_[to];  // ensure the target exists as a node
  sites_[from].emplace(to, site);  // first witness wins
}

bool Digraph::HasEdge(const std::string& from, const std::string& to) const {
  auto it = adjacency_.find(from);
  return it != adjacency_.end() && it->second.count(to) != 0;
}

const EdgeSite* Digraph::FindSite(const std::string& from,
                                  const std::string& to) const {
  auto it = sites_.find(from);
  if (it == sites_.end()) return nullptr;
  auto jt = it->second.find(to);
  return jt == it->second.end() ? nullptr : &jt->second;
}

std::vector<std::string> Digraph::Nodes() const {
  std::vector<std::string> nodes;
  nodes.reserve(adjacency_.size());
  for (const auto& [node, unused] : adjacency_) nodes.push_back(node);
  return nodes;
}

const std::set<std::string>& Digraph::Successors(
    const std::string& node) const {
  static const std::set<std::string> kEmpty;
  auto it = adjacency_.find(node);
  return it == adjacency_.end() ? kEmpty : it->second;
}

// Tarjan over the sorted adjacency; component node lists come out sorted.
std::vector<std::vector<std::string>> Digraph::StronglyConnectedComponents()
    const {
  struct State {
    int index = -1;
    int lowlink = 0;
    bool on_stack = false;
  };
  std::map<std::string, State> state;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> components;
  int next_index = 0;

  std::function<void(const std::string&)> strongconnect =
      [&](const std::string& v) {
        State& sv = state[v];
        sv.index = next_index;
        sv.lowlink = next_index;
        ++next_index;
        stack.push_back(v);
        sv.on_stack = true;

        for (const std::string& w : Successors(v)) {
          State& sw = state[w];
          if (sw.index < 0) {
            strongconnect(w);
            // `state` may rehash — do not hold references across the call.
            state[v].lowlink = std::min(state[v].lowlink, state[w].lowlink);
          } else if (sw.on_stack) {
            state[v].lowlink = std::min(state[v].lowlink, sw.index);
          }
        }

        if (state[v].lowlink == state[v].index) {
          std::vector<std::string> component;
          for (;;) {
            std::string w = stack.back();
            stack.pop_back();
            state[w].on_stack = false;
            component.push_back(w);
            if (w == v) break;
          }
          std::sort(component.begin(), component.end());
          components.push_back(std::move(component));
        }
      };

  for (const auto& [node, unused] : adjacency_) {
    if (state[node].index < 0) strongconnect(node);
  }
  return components;
}

// BFS within the component from `start` back to itself: the shortest
// cycle through the component's smallest node, ties broken by the sorted
// successor order, so the witness path is stable.
std::vector<std::string> Digraph::CycleThrough(
    const std::string& start, const std::set<std::string>& scc) const {
  std::map<std::string, std::string> parent;
  std::vector<std::string> frontier{start};
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const std::string& v : frontier) {
      for (const std::string& w : Successors(v)) {
        if (w == start) {
          std::vector<std::string> path{start};
          for (std::string cur = v; cur != start; cur = parent.at(cur)) {
            path.push_back(cur);
          }
          path.push_back(start);
          // The walk above collected start .. v reversed; fix the middle.
          std::reverse(path.begin() + 1, path.end() - 1);
          return path;
        }
        if (scc.count(w) == 0 || parent.count(w) != 0) continue;
        parent.emplace(w, v);
        next.push_back(w);
      }
    }
    frontier = std::move(next);
  }
  return {start, start};  // unreachable for a genuine SCC
}

std::vector<std::vector<std::string>> Digraph::Cycles() const {
  std::vector<std::vector<std::string>> cycles;
  for (const std::vector<std::string>& scc : StronglyConnectedComponents()) {
    if (scc.size() == 1 && !HasEdge(scc[0], scc[0])) continue;
    if (scc.size() == 1) {
      cycles.push_back({scc[0], scc[0]});
      continue;
    }
    std::set<std::string> members(scc.begin(), scc.end());
    cycles.push_back(CycleThrough(scc.front(), members));
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

Result<Layers> Layers::Parse(const std::string& text) {
  Layers layers;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // blank or comment-only
    if (keyword != "layer") {
      return Status::InvalidArgument(
          "layers line " + std::to_string(lineno) +
          ": expected 'layer <module>...', got '" + keyword + "'");
    }
    std::vector<std::string> modules;
    std::string module;
    while (fields >> module) {
      if (layers.rank_.count(module) != 0) {
        return Status::InvalidArgument("layers line " +
                                       std::to_string(lineno) + ": module '" +
                                       module + "' declared twice");
      }
      layers.rank_.emplace(module, static_cast<int>(layers.num_layers_));
      modules.push_back(module);
    }
    if (modules.empty()) {
      return Status::InvalidArgument("layers line " + std::to_string(lineno) +
                                     ": empty layer");
    }
    layers.layers_.push_back(std::move(modules));
    ++layers.num_layers_;
  }
  if (layers.num_layers_ == 0) {
    return Status::InvalidArgument("layers file declares no layers");
  }
  return layers;
}

Result<Layers> Layers::LoadFile(const std::string& path) {
  ALICOCO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return Parse(text);
}

int Layers::RankOf(const std::string& module) const {
  auto it = rank_.find(module);
  return it == rank_.end() ? -1 : it->second;
}

std::vector<std::string> Layers::ModulesAt(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(layers_.size())) return {};
  return layers_[static_cast<size_t>(rank)];
}

}  // namespace alicoco::lint
