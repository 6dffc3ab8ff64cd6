// use-after-move: forward may-analysis over the function CFG. A variable
// moved via `std::move(x)` is poisoned; using it on any path before a
// reassignment (or clear/reset/assign/resize/swap, a fresh declaration, or
// having its address taken as an out-param) is a finding. The state merges
// over branches AND loop back-edges, so moving in iteration N and reading
// at the top of iteration N+1 is caught.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/dataflow.h"
#include "tools/lint/passes/passes.h"

namespace alicoco::lint {
namespace {

bool IsRevalidatingMethod(const std::string& name) {
  return name == "clear" || name == "reset" || name == "assign" ||
         name == "resize" || name == "swap";
}

/// var -> line of the poisoning std::move. Join keeps the earliest line so
/// the reported provenance is deterministic regardless of merge order.
using MovedState = std::map<std::string, int>;

MovedState Join(const MovedState& a, const MovedState& b) {
  MovedState out = a;
  for (const auto& [var, line] : b) {
    auto it = out.find(var);
    if (it == out.end() || line < it->second) out[var] = line;
  }
  return out;
}

class Analysis {
 public:
  Analysis(const std::string& path, const std::vector<const Token*>& code)
      : path_(path), code_(code) {}

  const Token* At(size_t i) const {
    return i < code_.size() ? code_[i] : nullptr;
  }

  /// Index one past the group opened at `i`, or `stop` when unbalanced.
  size_t MatchBalanced(size_t i, std::string_view open, std::string_view close,
                       size_t stop) const {
    int depth = 0;
    for (; i < stop; ++i) {
      if (IsPunct(code_[i], open)) ++depth;
      if (IsPunct(code_[i], close) && --depth == 0) return i + 1;
    }
    return stop;
  }

  /// One statement's transfer function. With `out` set, poisoned uses are
  /// reported; the state update is identical either way (a reported use
  /// un-poisons the variable so one bug yields one finding, and the solve
  /// and emit phases stay in sync).
  MovedState TransferStmt(const Stmt& stmt, MovedState state,
                          std::vector<Finding>* out) {
    bool has_ternary = false;
    for (size_t j = stmt.begin; j < stmt.end; ++j) {
      if (IsPunct(code_[j], "?")) has_ternary = true;
    }
    std::set<std::string> moved_this_stmt;

    for (size_t j = stmt.begin; j < stmt.end && j < code_.size(); ++j) {
      const Token* t = code_[j];

      // A lambda introduces its own scope: init-captures shadow enclosing
      // names (`[x = std::move(x)]` moves into a NEW x) and by-ref capture
      // uses are invisible here. Skipping the whole lambda trades missed
      // findings inside it for zero false ones outside — the safe side.
      if (IsPunct(t, "[")) {
        size_t close = MatchBalanced(j, "[", "]", stmt.end);
        const Token* after = close < stmt.end ? code_[close] : nullptr;
        if (IsPunct(after, "(") || IsPunct(after, "{")) {
          size_t k = close;
          if (IsPunct(code_[k], "(")) {
            k = MatchBalanced(k, "(", ")", stmt.end);
          }
          while (k < stmt.end && !IsPunct(code_[k], "{")) ++k;
          if (k < stmt.end) k = MatchBalanced(k, "{", "}", stmt.end);
          j = k - 1;  // loop ++j lands one past the lambda
          continue;
        }
      }
      if (!IsIdent(t)) continue;

      // `std::move(x)`: poison x. A move of an already-poisoned x is
      // itself a use and reported like one.
      if (t->text == "std" && IsPunct(At(j + 1), "::") &&
          IsIdent(At(j + 2), "move") && IsPunct(At(j + 3), "(") &&
          IsIdent(At(j + 4)) && IsPunct(At(j + 5), ")")) {
        const std::string& var = At(j + 4)->text;
        auto it = state.find(var);
        if (it != state.end()) {
          Report(out, *At(j + 4), var, it->second);
          state.erase(it);
        }
        state[var] = At(j + 4)->line;
        moved_this_stmt.insert(var);
        j += 5;
        continue;
      }

      const Token* prev = j > 0 ? code_[j - 1] : nullptr;
      const Token* next = At(j + 1);

      // Member / qualified names that merely share the spelling.
      if (IsPunct(prev, ".") || IsPunct(prev, "->") || IsPunct(prev, "::")) {
        continue;
      }

      // Kills, checked before the use test so `x = ...` never reports.
      // Plain reassignment: `x = ...` but not `x == ...`.
      if (IsPunct(next, "=") && !IsPunct(At(j + 2), "=") &&
          !IsPunct(prev, "=") && !IsPunct(prev, "!") && !IsPunct(prev, "<") &&
          !IsPunct(prev, ">")) {
        state.erase(t->text);
        continue;
      }
      // A (re)declaration: `Type x`, `auto& x`, `Foo* x`,
      // `std::vector<T> x`, or a declaring macro (`ASSIGN_OR_RETURN(T x,
      // ...)`) rebinds the name.
      {
        size_t back = j;
        while (back > 0 && (IsPunct(code_[back - 1], "&") ||
                            IsPunct(code_[back - 1], "*"))) {
          --back;
        }
        if (back > 0 && back != j && IsIdent(code_[back - 1])) {
          state.erase(t->text);
          continue;
        }
        const bool decl_prev = IsIdent(prev) || IsPunct(prev, ">");
        if (decl_prev &&
            (IsPunct(next, ";") || IsPunct(next, "=") || IsPunct(next, "(") ||
             IsPunct(next, "{") || IsPunct(next, ":") ||
             IsPunct(next, ")") || IsPunct(next, ","))) {
          state.erase(t->text);
          continue;
        }
      }
      // `x.clear()` and friends re-establish a known state.
      if ((IsPunct(next, ".") || IsPunct(next, "->")) && IsIdent(At(j + 2)) &&
          IsRevalidatingMethod(At(j + 2)->text) && IsPunct(At(j + 3), "(")) {
        state.erase(t->text);
        j += 2;
        continue;
      }
      // `f(&x)`: address escapes as an out-param; assume reinitialized.
      if (IsPunct(prev, "&") && j >= 2 &&
          (IsPunct(code_[j - 2], "(") || IsPunct(code_[j - 2], ",") ||
           IsPunct(code_[j - 2], "="))) {
        state.erase(t->text);
        continue;
      }
      // `swap(x, y)` / `std::exchange(x, ...)` revalidate their argument.
      if ((t->text == "swap" || t->text == "exchange") &&
          IsPunct(next, "(")) {
        for (size_t k = j + 2; k < stmt.end && !IsPunct(code_[k], ")"); ++k) {
          if (IsIdent(code_[k])) state.erase(code_[k]->text);
        }
        continue;
      }

      // Anything else is a use.
      auto it = state.find(t->text);
      if (it == state.end()) continue;
      // Inside a ternary only one arm runs; a same-statement move plus
      // "use" is usually the other arm, so stay silent there.
      if (has_ternary && moved_this_stmt.count(t->text) != 0) continue;
      Report(out, *t, t->text, it->second);
      state.erase(it);
    }
    return state;
  }

  void Report(std::vector<Finding>* out, const Token& at,
              const std::string& var, int moved_line) {
    if (out == nullptr) return;
    if (!reported_.insert(var + "#" + std::to_string(at.line)).second) return;
    out->push_back(Finding{
        path_, at.line, "use-after-move",
        "'" + var + "' is used after being moved (std::move on line " +
            std::to_string(moved_line) + "); reassign or clear it first"});
  }

 private:
  const std::string& path_;
  const std::vector<const Token*>& code_;
  std::set<std::string> reported_;
};

}  // namespace

void CheckUseAfterMove(const std::string& path,
                       const std::vector<const Token*>& code,
                       const FunctionBody& fn, const Cfg& cfg,
                       std::vector<Finding>* out) {
  (void)fn;
  if (cfg.fell_back) return;
  Analysis analysis(path, code);
  auto result = SolveForward<MovedState>(
      cfg, MovedState{}, Join,
      [&](const BasicBlock& block, MovedState state) {
        for (const Stmt& s : block.stmts) {
          state = analysis.TransferStmt(s, std::move(state), nullptr);
        }
        return state;
      });
  // Emit phase: replay each reachable block from its solved IN state.
  for (const BasicBlock& block : cfg.blocks) {
    if (!result.reached[block.id]) continue;
    MovedState state = result.in[block.id];
    for (const Stmt& s : block.stmts) {
      state = analysis.TransferStmt(s, std::move(state), out);
    }
  }
}

}  // namespace alicoco::lint
