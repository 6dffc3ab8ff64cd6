// hot-loop-alloc: allocation inside a loop on a hot path. Three shapes:
//
//   1. a `new` expression at loop depth > 0;
//   2. a std:: container / string / stream constructed per iteration;
//   3. `v.push_back(...)` / `v.emplace_back(...)` growth of a function-
//      local vector that was default-constructed and never `reserve()`d.
//
// "Hot path" means the file lives under src/nn/, src/matching/, or
// src/pipeline/, or the function carries a `// lint:hot` marker. The check
// reads loop depth straight off the CFG statements, so allocations in a
// lambda body nested inside a loop statement are attributed to the loop.

#include <set>
#include <string>
#include <vector>

#include "tools/lint/passes/passes.h"

namespace alicoco::lint {
namespace {

bool IsHotPath(const std::string& path) {
  return path.rfind("src/nn/", 0) == 0 || path.rfind("src/matching/", 0) == 0 ||
         path.rfind("src/pipeline/", 0) == 0;
}

bool IsContainerType(const std::string& name) {
  static const std::set<std::string> kTypes = {
      "string",        "vector",        "map",
      "set",           "unordered_map", "unordered_set",
      "deque",         "list",          "ostringstream",
      "stringstream"};
  return kTypes.count(name) != 0;
}

class Analysis {
 public:
  Analysis(const std::string& path, const std::vector<const Token*>& code)
      : path_(path), code_(code) {}

  /// Pre-pass over the whole body: find function-local vectors that are
  /// default-constructed, and whether each name ever sees a `.reserve(`.
  void IndexVectors(const Cfg& cfg) {
    for (const BasicBlock& b : cfg.blocks) {
      for (const Stmt& s : b.stmts) {
        for (size_t j = s.begin; j < s.end; ++j) {
          std::string std_name;
          if (StdName(code_, j, &std_name) && std_name == "vector") {
            RecordVectorDecl(s, j);
            continue;
          }
          const Token* t = code_[j];
          if (IsIdent(t) && j + 3 < s.end &&
              (IsPunct(code_[j + 1], ".") || IsPunct(code_[j + 1], "->")) &&
              IsIdent(code_[j + 2]) && code_[j + 2]->text == "reserve" &&
              IsPunct(code_[j + 3], "(")) {
            reserved_.insert(t->text);
          }
        }
      }
    }
  }

  void CheckStmt(const Stmt& stmt, std::vector<Finding>* out) {
    if (stmt.loop_depth <= 0) return;
    for (size_t j = stmt.begin; j < stmt.end; ++j) {
      const Token* t = code_[j];
      if (!IsIdent(t)) continue;
      const Token* prev = j > 0 ? code_[j - 1] : nullptr;

      // Shape 1: `new` inside a loop. `operator new` overloads and
      // placement-new land here too; both still allocate per iteration.
      if (t->text == "new" && !IsPunct(prev, "::")) {
        Report(out, t->line,
               "heap allocation ('new') inside a loop on a hot path; hoist "
               "the allocation or use an arena");
        continue;
      }
      if (t->text == "make_unique" || t->text == "make_shared") {
        Report(out, t->line, "heap allocation ('std::" + t->text +
                                 "') inside a loop on a hot path; hoist the "
                                 "allocation or use an arena");
        continue;
      }

      // Shape 2: a std container constructed per iteration.
      std::string std_name;
      if (StdName(code_, j, &std_name) && IsContainerType(std_name)) {
        // Only a *declaration* counts: skip the template-arg list, then
        // require an identifier not preceded by `&`/`*` (references and
        // pointers don't construct) and not `static` (constructed once).
        size_t k = SkipTemplateArgs(stmt, j + 1);
        if (k < stmt.end && IsIdent(code_[k]) && !IsStaticDecl(stmt, j)) {
          Report(out, code_[k]->line,
                 "std::" + std_name + " '" + code_[k]->text +
                     "' is constructed every loop iteration; declare it "
                     "before the loop and clear() it instead");
        }
        continue;
      }

      // Shape 3: growing an un-reserve()d local vector.
      if (j + 3 < stmt.end && IsPunct(code_[j + 1], ".") &&
          IsIdent(code_[j + 2]) &&
          (code_[j + 2]->text == "push_back" ||
           code_[j + 2]->text == "emplace_back") &&
          IsPunct(code_[j + 3], "(") && !IsPunct(prev, ".") &&
          !IsPunct(prev, "->") && default_vectors_.count(t->text) != 0 &&
          reserved_.count(t->text) == 0) {
        Report(out, t->line,
               "'" + t->text + "." + code_[j + 2]->text +
                   "' grows an un-reserve()d vector inside a loop; call "
                   "reserve() before the loop");
        j += 3;
        continue;
      }
    }
  }

 private:
  /// `std::vector<...> name;` / `= {}` / `{}` with no size argument —
  /// i.e. a vector that starts empty and will reallocate as it grows.
  void RecordVectorDecl(const Stmt& stmt, size_t j) {
    size_t k = SkipTemplateArgs(stmt, j + 1);
    if (k >= stmt.end || !IsIdent(code_[k])) return;
    const std::string& name = code_[k]->text;
    const Token* after = k + 1 < stmt.end ? code_[k + 1] : nullptr;
    bool empty_init = after == nullptr || IsPunct(after, ";");
    if (IsPunct(after, "{") && k + 2 < stmt.end && IsPunct(code_[k + 2], "}")) {
      empty_init = true;
    }
    if (IsPunct(after, "=") && k + 3 < stmt.end && IsPunct(code_[k + 2], "{") &&
        IsPunct(code_[k + 3], "}")) {
      empty_init = true;
    }
    if (empty_init) default_vectors_.insert(name);
  }

  size_t SkipTemplateArgs(const Stmt& stmt, size_t k) const {
    if (k >= stmt.end || !IsPunct(code_[k], "<")) return k;
    int angle = 0;
    for (; k < stmt.end; ++k) {
      if (IsPunct(code_[k], "<")) ++angle;
      if (IsPunct(code_[k], ">")) {
        if (--angle == 0) return k + 1;
      }
    }
    return stmt.end;
  }

  bool IsStaticDecl(const Stmt& stmt, size_t std_index) const {
    for (size_t j = stmt.begin; j < std_index; ++j) {
      if (IsIdent(code_[j]) &&
          (code_[j]->text == "static" || code_[j]->text == "thread_local")) {
        return true;
      }
    }
    return false;
  }

  void Report(std::vector<Finding>* out, int line, std::string message) {
    if (!reported_.insert(std::to_string(line) + "#" + message).second) return;
    out->push_back(
        Finding{path_, line, "hot-loop-alloc", std::move(message)});
  }

  const std::string& path_;
  const std::vector<const Token*>& code_;
  std::set<std::string> default_vectors_;
  std::set<std::string> reserved_;
  std::set<std::string> reported_;
};

}  // namespace

void CheckHotLoopAlloc(const std::string& path,
                       const std::vector<const Token*>& code,
                       const FunctionBody& fn, const Cfg& cfg,
                       std::vector<Finding>* out) {
  if (cfg.fell_back) return;
  if (!IsHotPath(path) && !fn.hot) return;
  Analysis analysis(path, code);
  analysis.IndexVectors(cfg);
  for (const BasicBlock& block : cfg.blocks) {
    for (const Stmt& s : block.stmts) analysis.CheckStmt(s, out);
  }
}

}  // namespace alicoco::lint
