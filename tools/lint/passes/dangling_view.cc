// dangling-view: finds std::string_view / std::span objects that outlive
// the storage they point into. Two cooperating walks:
//
//  A. A lexical scope walk tracks where owners (string/vector/array
//     locals) and views are *declared*, so a view in an outer scope bound
//     to an owner in an inner scope — or to a temporary expression — is
//     flagged at the binding site.
//  B. A CFG dataflow propagates view->owner bindings to `return`
//     statements, so `return sv;` where sv aliases a local is flagged even
//     when the bind and the return sit in different blocks. The same walk
//     flags `return local;` / `return local.substr(...)` directly when the
//     function's own return type is a view or a reference.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/dataflow.h"
#include "tools/lint/passes/passes.h"

namespace alicoco::lint {
namespace {

bool IsOwnerType(const std::string& name) {
  return name == "string" || name == "vector" || name == "array";
}

bool IsViewType(const std::string& name) {
  return name == "string_view" || name == "span";
}

struct VarDecl {
  int scope_depth = 0;
  int line = 0;
};

/// Per-variable knowledge gathered by the lexical walk.
struct Locals {
  std::map<std::string, VarDecl> owners;  ///< string/vector/array by value
  std::map<std::string, VarDecl> views;   ///< string_view/span locals
};

/// Does the token range [begin, end) contain a call that manufactures a
/// temporary owner (substr, str(), to_string, std::string(...))? Returns
/// the describing text, or "" when none.
std::string TemporaryMaker(const std::vector<const Token*>& code, size_t begin,
                           size_t end) {
  for (size_t j = begin; j + 1 < end; ++j) {
    const Token* t = code[j];
    if (!IsIdent(t)) continue;
    if ((IsPunct(code[j > 0 ? j - 1 : 0], ".") ||
         IsPunct(code[j > 0 ? j - 1 : 0], "->")) &&
        IsPunct(code[j + 1], "(") &&
        (t->text == "substr" || t->text == "str")) {
      return "." + t->text + "()";
    }
    std::string std_name;
    if (StdName(code, j, &std_name) && IsPunct(code[j + 1], "(") &&
        (std_name == "to_string" || IsOwnerType(std_name))) {
      return "std::" + std_name + "(...)";
    }
  }
  return "";
}

/// The first owner variable named in [begin, end), if any.
std::string OwnerNamedIn(const std::vector<const Token*>& code, size_t begin,
                         size_t end, const Locals& locals) {
  for (size_t j = begin; j < end; ++j) {
    const Token* t = code[j];
    if (!IsIdent(t)) continue;
    if (j > begin &&
        (IsPunct(code[j - 1], ".") || IsPunct(code[j - 1], "->") ||
         IsPunct(code[j - 1], "::"))) {
      continue;
    }
    if (locals.owners.count(t->text) != 0) return t->text;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Walk B state: view name -> the local owner it aliases. The join keeps
// the lexicographically smaller owner name so merges are deterministic.

using BindState = std::map<std::string, std::string>;

BindState Join(const BindState& a, const BindState& b) {
  BindState out = a;
  for (const auto& [view, owner] : b) {
    auto it = out.find(view);
    if (it == out.end() || owner < it->second) out[view] = owner;
  }
  return out;
}

class Analysis {
 public:
  Analysis(const std::string& path, const std::vector<const Token*>& code,
           const FunctionBody& fn)
      : path_(path), code_(code), fn_(fn) {}

  /// Walk A: one linear pass over every statement of every block (in block
  /// order), tracking declarations on a scope stack via Stmt::scope_depth.
  /// Fills locals_ and reports scope-mismatch and temporary bindings.
  void LexicalWalk(const Cfg& cfg, std::vector<Finding>* out) {
    // Statements sorted by token position reconstruct the lexical order.
    std::vector<const Stmt*> stmts;
    for (const BasicBlock& b : cfg.blocks) {
      for (const Stmt& s : b.stmts) stmts.push_back(&s);
    }
    std::sort(stmts.begin(), stmts.end(),
              [](const Stmt* a, const Stmt* b) { return a->begin < b->begin; });

    for (const Stmt* s : stmts) {
      // Leaving a scope kills the declarations made inside it.
      EvictDeeperThan(s->scope_depth);
      ScanDeclarations(*s, out);
      ScanAssignments(*s, out);
    }
  }

  /// Walk B transfer: update view->owner bindings for one statement, and
  /// (emit phase only) report returns that leak a local.
  BindState TransferStmt(const Stmt& stmt, BindState state,
                         std::vector<Finding>* out) {
    if (stmt.kind == StmtKind::kReturn) {
      CheckReturn(stmt, state, out);
      return state;
    }
    // `view = owner...` or `Type view = owner...` rebinding.
    for (size_t j = stmt.begin; j + 1 < stmt.end; ++j) {
      const Token* t = code_[j];
      if (!IsIdent(t)) continue;
      if (locals_.views.count(t->text) == 0) continue;
      if (!IsPunct(code_[j + 1], "=") && !IsPunct(code_[j + 1], "{")) continue;
      if (j + 2 < stmt.end && IsPunct(code_[j + 2], "=")) continue;  // ==
      const std::string owner =
          OwnerNamedIn(code_, j + 2, stmt.end, locals_);
      if (!owner.empty()) {
        state[t->text] = owner;
      } else {
        state.erase(t->text);
      }
      break;
    }
    return state;
  }

  const Locals& locals() const { return locals_; }

 private:
  void EvictDeeperThan(int depth) {
    auto evict = [depth](std::map<std::string, VarDecl>* vars) {
      for (auto it = vars->begin(); it != vars->end();) {
        if (it->second.scope_depth > depth) {
          it = vars->erase(it);
        } else {
          ++it;
        }
      }
    };
    evict(&locals_.owners);
    evict(&locals_.views);
  }

  /// Finds `std::string name ...` / `std::string_view name ...` inside one
  /// statement; reports temporaries and inner-scope owners bound to views.
  void ScanDeclarations(const Stmt& stmt, std::vector<Finding>* out) {
    // A static (or thread_local) local outlives every view of it; the
    // function-local-returns-a-reference idiom over one is deliberate.
    for (size_t j = stmt.begin; j < stmt.end; ++j) {
      if (IsIdent(code_[j]) && (code_[j]->text == "static" ||
                                   code_[j]->text == "thread_local")) {
        return;
      }
      if (IsPunct(code_[j], "=") || IsPunct(code_[j], "(")) break;
    }
    for (size_t j = stmt.begin; j + 1 < stmt.end; ++j) {
      std::string std_name;
      if (!StdName(code_, j, &std_name)) continue;
      const bool owner = IsOwnerType(std_name);
      const bool view = IsViewType(std_name);
      if (!owner && !view) continue;

      // Skip the template argument list if any: std::vector<int> v.
      size_t k = j + 1;
      if (k < stmt.end && IsPunct(code_[k], "<")) {
        int angle = 0;
        for (; k < stmt.end; ++k) {
          if (IsPunct(code_[k], "<")) ++angle;
          if (IsPunct(code_[k], ">")) {
            if (--angle == 0) {
              ++k;
              break;
            }
          }
        }
      }
      if (k >= stmt.end) continue;
      // A reference or pointer declaration does not own; `&`/`*` also
      // covers mentions in casts and expressions.
      if (IsPunct(code_[k], "&") || IsPunct(code_[k], "*")) continue;
      if (!IsIdent(code_[k])) continue;
      const Token* name_tok = code_[k];
      // `std::string foo(` at statement start could be a nested function
      // declaration; require an initializer or plain `;` to be a variable.
      const Token* after = k + 1 < stmt.end ? code_[k + 1] : nullptr;
      const bool is_var = after == nullptr || IsPunct(after, "=") ||
                          IsPunct(after, ";") || IsPunct(after, "{") ||
                          IsPunct(after, "(");
      if (!is_var) continue;

      VarDecl decl{stmt.scope_depth, name_tok->line};
      if (owner) {
        locals_.owners[name_tok->text] = decl;
        continue;
      }
      locals_.views[name_tok->text] = decl;

      // The initializer range: everything after the name to statement end.
      const size_t init_begin = k + 1;
      const std::string temp = TemporaryMaker(code_, init_begin, stmt.end);
      if (!temp.empty()) {
        Report(out, name_tok->line,
               "'" + name_tok->text + "' is bound to a temporary (" + temp +
                   ") that is destroyed at the end of the statement");
        continue;
      }
      const std::string bound =
          OwnerNamedIn(code_, init_begin, stmt.end, locals_);
      if (!bound.empty()) {
        const VarDecl& owner_decl = locals_.owners.at(bound);
        if (owner_decl.scope_depth > stmt.scope_depth) {
          Report(out, name_tok->line,
                 "'" + name_tok->text + "' outlives '" + bound +
                     "' (declared in an inner scope on line " +
                     std::to_string(owner_decl.line) + ")");
        }
      }
    }
  }

  /// `view = ...` assignments. A binding whose owner lives in a deeper
  /// scope than the view itself dangles when that scope closes; a binding
  /// to a temporary dangles at the semicolon. Declaration statements pass
  /// through here too — the duplicate report is absorbed by reported_.
  void ScanAssignments(const Stmt& stmt, std::vector<Finding>* out) {
    for (size_t j = stmt.begin; j + 1 < stmt.end; ++j) {
      const Token* t = code_[j];
      if (!IsIdent(t)) continue;
      auto view_it = locals_.views.find(t->text);
      if (view_it == locals_.views.end()) continue;
      // `obj.view = ...` assigns a member, not our local.
      if (j > stmt.begin &&
          (IsPunct(code_[j - 1], ".") || IsPunct(code_[j - 1], "->") ||
           IsPunct(code_[j - 1], "::"))) {
        continue;
      }
      if (!IsPunct(code_[j + 1], "=")) continue;
      if (j + 2 < stmt.end && IsPunct(code_[j + 2], "=")) continue;  // ==
      const size_t rhs = j + 2;
      const std::string temp = TemporaryMaker(code_, rhs, stmt.end);
      if (!temp.empty()) {
        Report(out, t->line,
               "'" + t->text + "' is bound to a temporary (" + temp +
                   ") that is destroyed at the end of the statement");
        break;
      }
      const std::string bound = OwnerNamedIn(code_, rhs, stmt.end, locals_);
      if (!bound.empty()) {
        const VarDecl& owner_decl = locals_.owners.at(bound);
        if (owner_decl.scope_depth > view_it->second.scope_depth) {
          Report(out, t->line,
                 "'" + t->text + "' outlives '" + bound +
                     "' (declared in an inner scope on line " +
                     std::to_string(owner_decl.line) + ")");
        }
      }
      break;
    }
  }

  void CheckReturn(const Stmt& stmt, const BindState& state,
                   std::vector<Finding>* out) {
    // stmt.begin points at `return`.
    size_t j = stmt.begin;
    if (j >= stmt.end || code_[j]->text != "return") return;
    ++j;
    if (j >= stmt.end) return;
    const Token* t = code_[j];
    if (!IsIdent(t)) {
      // `return std::string_view(owner)` / `return {owner, n}` when the
      // function returns a view.
      if (fn_.returns_view) {
        const std::string owner = OwnerNamedIn(code_, j, stmt.end, locals_);
        if (!owner.empty()) {
          Report(out, stmt.line,
                 "returning a view over local '" + owner +
                     "', which is destroyed when the function returns");
        }
      }
      return;
    }
    // `return sv;` where sv is a view bound to a local owner.
    auto bound = state.find(t->text);
    if (bound != state.end() && j + 1 < stmt.end && IsPunct(code_[j + 1], ";")) {
      Report(out, stmt.line,
             "returning view '" + t->text + "' bound to local '" +
                 bound->second +
                 "', which is destroyed when the function returns");
      return;
    }
    if (!fn_.returns_view && !fn_.returns_ref) return;
    // `return owner;` / `return owner.substr(...)` from a view/ref
    // returning function.
    if (locals_.owners.count(t->text) != 0) {
      const char* what = fn_.returns_view ? "a view over" : "a reference to";
      Report(out, stmt.line,
             std::string("returning ") + what + " local '" + t->text +
                 "', which is destroyed when the function returns");
    }
  }

  void Report(std::vector<Finding>* out, int line, std::string message) {
    if (out == nullptr) return;
    if (!reported_.insert(std::to_string(line) + "#" + message).second) return;
    out->push_back(Finding{path_, line, "dangling-view", std::move(message)});
  }

  const std::string& path_;
  const std::vector<const Token*>& code_;
  const FunctionBody& fn_;
  Locals locals_;
  std::set<std::string> reported_;
};

}  // namespace

void CheckDanglingView(const std::string& path,
                       const std::vector<const Token*>& code,
                       const FunctionBody& fn, const Cfg& cfg,
                       std::vector<Finding>* out) {
  if (cfg.fell_back) return;
  Analysis analysis(path, code, fn);
  // Walk A populates the locals tables and reports binding-site findings.
  analysis.LexicalWalk(cfg, out);
  // Walk B needs the *final* locals tables (a view may be returned before
  // the walk saw every declaration only in pathological block orders; the
  // lexical walk above already visited every statement).
  auto result = SolveForward<BindState>(
      cfg, BindState{}, Join,
      [&](const BasicBlock& block, BindState state) {
        for (const Stmt& s : block.stmts) {
          state = analysis.TransferStmt(s, std::move(state), nullptr);
        }
        return state;
      });
  for (const BasicBlock& block : cfg.blocks) {
    if (!result.reached[block.id]) continue;
    BindState state = result.in[block.id];
    for (const Stmt& s : block.stmts) {
      state = analysis.TransferStmt(s, std::move(state), out);
    }
  }
}

}  // namespace alicoco::lint
