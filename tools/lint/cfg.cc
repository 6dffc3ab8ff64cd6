#include "tools/lint/cfg.h"

#include <algorithm>

namespace alicoco::lint {
namespace {

/// Builds one function's CFG with a single recursive-descent walk over the
/// body tokens. Blocks are numbered in creation order, so the graph — and
/// everything derived from it — is deterministic.
class CfgBuilder {
 public:
  CfgBuilder(const std::vector<const Token*>& code, size_t begin, size_t end)
      : code_(code), begin_(begin), end_(std::min(end, code.size())) {}

  Cfg Build() {
    cfg_.entry = NewBlock();
    cfg_.exit = NewBlock();
    cur_ = cfg_.entry;
    if (begin_ >= end_ || !IsPunct(At(begin_), "{") || !BracesBalanced()) {
      return Fallback();
    }
    size_t i = begin_ + 1;
    ParseSeq(&i, end_ - 1, /*depth=*/1, /*loop_depth=*/0);
    if (failed_) return Fallback();
    Edge(cur_, cfg_.exit);
    FillPreds();
    return std::move(cfg_);
  }

 private:
  const Token* At(size_t i) const {
    return i < code_.size() ? code_[i] : nullptr;
  }

  int NewBlock() {
    cfg_.blocks.push_back(BasicBlock{static_cast<int>(cfg_.blocks.size()),
                                     {}, {}, {}});
    return cfg_.blocks.back().id;
  }

  void Edge(int from, int to) {
    auto& succs = cfg_.blocks[from].succs;
    if (std::find(succs.begin(), succs.end(), to) == succs.end()) {
      succs.push_back(to);
    }
  }

  void FillPreds() {
    for (const BasicBlock& b : cfg_.blocks) {
      for (int s : b.succs) cfg_.blocks[s].preds.push_back(b.id);
    }
  }

  /// The body must open at begin_ and close exactly at end_-1. A torn
  /// range — truncation, unbalanced macro braces — must fall back rather
  /// than be analyzed as if the missing close brace were at the end.
  bool BracesBalanced() const {
    int depth = 0;
    for (size_t j = begin_; j < end_; ++j) {
      if (IsPunct(code_[j], "{")) ++depth;
      if (IsPunct(code_[j], "}") && --depth == 0) return j == end_ - 1;
    }
    return false;
  }

  Cfg Fallback() {
    Cfg out;
    out.entry = 0;
    out.exit = 1;
    out.blocks.push_back(BasicBlock{0, {}, {1}, {}});
    out.blocks.push_back(BasicBlock{1, {}, {}, {0}});
    out.fell_back = true;
    return out;
  }

  /// Advances past a balanced group opened at *i; tolerant of truncation.
  void SkipBalanced(size_t* i, std::string_view open, std::string_view close) {
    int depth = 0;
    while (*i < end_) {
      if (IsPunct(code_[*i], open)) ++depth;
      if (IsPunct(code_[*i], close) && --depth == 0) {
        ++*i;
        return;
      }
      ++*i;
    }
    failed_ = true;
  }

  void AppendStmt(size_t begin, size_t end, int depth, int loop_depth,
                  StmtKind kind) {
    if (begin >= end) return;
    cfg_.blocks[cur_].stmts.push_back(Stmt{
        begin, end, code_[begin]->line, depth, loop_depth, kind});
  }

  void ParseSeq(size_t* i, size_t stop, int depth, int loop_depth) {
    while (*i < stop && !failed_) {
      ParseStmt(i, stop, depth, loop_depth);
    }
    *i = std::max(*i, stop);
  }

  /// Parses a branch/loop body: one statement, with nested statements one
  /// scope deeper whether or not the body is braced.
  void ParseBody(size_t* i, size_t stop, int depth, int loop_depth) {
    ParseStmt(i, stop, depth + 1, loop_depth);
  }

  /// Collects a simple statement: tokens up to the terminating top-level
  /// `;`, balancing parens, braces (lambdas, init lists), and brackets.
  void CollectSimple(size_t* i, size_t stop, int depth, int loop_depth,
                     StmtKind kind) {
    size_t begin = *i;
    while (*i < stop) {
      const Token* t = code_[*i];
      if (IsPunct(t, ";")) {
        AppendStmt(begin, *i + 1, depth, loop_depth, kind);
        ++*i;
        return;
      }
      if (IsPunct(t, "(")) {
        SkipBalanced(i, "(", ")");
        continue;
      }
      if (IsPunct(t, "{")) {
        SkipBalanced(i, "{", "}");
        continue;
      }
      if (IsPunct(t, "[")) {
        SkipBalanced(i, "[", "]");
        continue;
      }
      if (IsPunct(t, "}")) break;  // missing ';' before scope close
      ++*i;
    }
    AppendStmt(begin, *i, depth, loop_depth, kind);
  }

  void ParseStmt(size_t* i, size_t stop, int depth, int loop_depth) {
    const Token* t = At(*i);
    if (t == nullptr || *i >= stop) {
      *i = stop;
      return;
    }
    if (IsPunct(t, ";") || IsPunct(t, "}")) {
      ++*i;  // empty statement / stray close the balancer already consumed
      return;
    }
    if (IsPunct(t, "{")) {
      size_t close = *i;
      SkipBalanced(&close, "{", "}");
      size_t j = *i + 1;
      ParseSeq(&j, close > *i ? close - 1 : *i + 1, depth + 1, loop_depth);
      *i = close;
      return;
    }
    if (IsIdent(t, "if")) {
      ParseIf(i, stop, depth, loop_depth);
      return;
    }
    if (IsIdent(t, "while")) {
      ParseWhile(i, stop, depth, loop_depth);
      return;
    }
    if (IsIdent(t, "for")) {
      ParseFor(i, stop, depth, loop_depth);
      return;
    }
    if (IsIdent(t, "do")) {
      ParseDoWhile(i, stop, depth, loop_depth);
      return;
    }
    if (IsIdent(t, "switch")) {
      ParseSwitch(i, depth, loop_depth);
      return;
    }
    if (IsIdent(t, "try")) {
      ParseTry(i, stop, depth, loop_depth);
      return;
    }
    if (IsIdent(t, "return")) {
      CollectSimple(i, stop, depth, loop_depth, StmtKind::kReturn);
      Edge(cur_, cfg_.exit);
      cur_ = NewBlock();
      return;
    }
    if (IsIdent(t, "break") && IsPunct(At(*i + 1), ";")) {
      if (break_targets_.empty()) {
        failed_ = true;  // break outside any loop/switch: not our grammar
        return;
      }
      Edge(cur_, break_targets_.back());
      cur_ = NewBlock();
      *i += 2;
      return;
    }
    if (IsIdent(t, "continue") && IsPunct(At(*i + 1), ";")) {
      if (continue_targets_.empty()) {
        failed_ = true;
        return;
      }
      Edge(cur_, continue_targets_.back());
      cur_ = NewBlock();
      *i += 2;
      return;
    }
    if (IsIdent(t, "goto") || IsIdent(t, "co_return") ||
        IsIdent(t, "co_await") || IsIdent(t, "co_yield")) {
      failed_ = true;  // unstructured / coroutine flow: fall back
      return;
    }
    // Everything else — including ALL_CAPS macro invocations, whose brace
    // bodies CollectSimple swallows as balanced groups — is a plain
    // statement with no control-flow semantics.
    CollectSimple(i, stop, depth, loop_depth, StmtKind::kPlain);
  }

  /// Expects `(` at *i (after skipping `constexpr`); returns the index one
  /// past the matching `)`, recording the parenthesized range.
  bool ParenRange(size_t* i, size_t* open, size_t* close) {
    if (IsIdent(At(*i), "constexpr")) ++*i;
    if (!IsPunct(At(*i), "(")) {
      failed_ = true;
      return false;
    }
    *open = *i;
    size_t j = *i;
    SkipBalanced(&j, "(", ")");
    if (failed_) return false;
    *close = j;  // one past ')'
    *i = j;
    return true;
  }

  void ParseIf(size_t* i, size_t stop, int depth, int loop_depth) {
    ++*i;  // 'if'
    size_t open = 0, close = 0;
    if (!ParenRange(i, &open, &close)) return;
    AppendStmt(open + 1, close - 1, depth, loop_depth, StmtKind::kCond);
    int cond_block = cur_;

    int then_block = NewBlock();
    Edge(cond_block, then_block);
    cur_ = then_block;
    ParseBody(i, stop, depth, loop_depth);
    int then_end = cur_;

    if (IsIdent(At(*i), "else")) {
      ++*i;
      int else_block = NewBlock();
      Edge(cond_block, else_block);
      cur_ = else_block;
      ParseBody(i, stop, depth, loop_depth);
      int else_end = cur_;
      int join = NewBlock();
      Edge(then_end, join);
      Edge(else_end, join);
      cur_ = join;
    } else {
      int join = NewBlock();
      Edge(then_end, join);
      Edge(cond_block, join);
      cur_ = join;
    }
  }

  void ParseWhile(size_t* i, size_t stop, int depth, int loop_depth) {
    ++*i;  // 'while'
    size_t open = 0, close = 0;
    if (!ParenRange(i, &open, &close)) return;
    int header = NewBlock();
    Edge(cur_, header);
    cur_ = header;
    AppendStmt(open + 1, close - 1, depth, loop_depth + 1, StmtKind::kCond);

    int body = NewBlock();
    int after = NewBlock();
    Edge(header, body);
    Edge(header, after);
    break_targets_.push_back(after);
    continue_targets_.push_back(header);
    cur_ = body;
    ParseBody(i, stop, depth, loop_depth + 1);
    Edge(cur_, header);  // back edge
    break_targets_.pop_back();
    continue_targets_.pop_back();
    cur_ = after;
  }

  void ParseFor(size_t* i, size_t stop, int depth, int loop_depth) {
    ++*i;  // 'for'
    size_t open = 0, close = 0;
    if (!ParenRange(i, &open, &close)) return;

    // Split the header: a top-level ':' means range-for; otherwise the two
    // top-level ';' split init / cond / increment.
    // `<`/`>` are NOT nesting here: `i < n` would never close. Template
    // angles in a for-header cannot contain `;` or a top-level `:` anyway.
    size_t colon = 0;
    std::vector<size_t> semis;
    int nest = 0;
    for (size_t j = open + 1; j + 1 < close; ++j) {
      const Token* t = code_[j];
      if (IsPunct(t, "(") || IsPunct(t, "{") || IsPunct(t, "[")) ++nest;
      if (IsPunct(t, ")") || IsPunct(t, "}") || IsPunct(t, "]")) --nest;
      if (nest != 0) continue;
      if (IsPunct(t, ";")) semis.push_back(j);
      if (IsPunct(t, ":") && colon == 0 && semis.empty()) colon = j;
    }

    int header = NewBlock();
    int body = NewBlock();
    int after = NewBlock();
    int latch = -1;
    if (colon != 0) {
      // Range-for: the whole header re-binds the element every iteration.
      Edge(cur_, header);
      cur_ = header;
      AppendStmt(open + 1, close - 1, depth, loop_depth + 1, StmtKind::kCond);
      Edge(header, body);
      Edge(header, after);
      continue_targets_.push_back(header);
    } else if (semis.size() == 2) {
      // Classic for: init runs once in the current block.
      AppendStmt(open + 1, semis[0], depth, loop_depth, StmtKind::kPlain);
      Edge(cur_, header);
      cur_ = header;
      AppendStmt(semis[0] + 1, semis[1], depth, loop_depth + 1,
                 StmtKind::kCond);
      latch = NewBlock();
      cur_ = latch;
      AppendStmt(semis[1] + 1, close - 1, depth, loop_depth + 1,
                 StmtKind::kPlain);
      Edge(latch, header);
      Edge(header, body);
      Edge(header, after);
      continue_targets_.push_back(latch);
    } else {
      failed_ = true;  // macro-generated or otherwise unrecognizable header
      return;
    }
    break_targets_.push_back(after);
    cur_ = body;
    ParseBody(i, stop, depth, loop_depth + 1);
    Edge(cur_, latch >= 0 ? latch : header);  // back edge (via latch if any)
    break_targets_.pop_back();
    continue_targets_.pop_back();
    cur_ = after;
  }

  void ParseDoWhile(size_t* i, size_t stop, int depth, int loop_depth) {
    ++*i;  // 'do'
    int body = NewBlock();
    int latch = NewBlock();
    int after = NewBlock();
    Edge(cur_, body);
    break_targets_.push_back(after);
    continue_targets_.push_back(latch);
    cur_ = body;
    ParseBody(i, stop, depth, loop_depth + 1);
    Edge(cur_, latch);
    break_targets_.pop_back();
    continue_targets_.pop_back();

    if (!IsIdent(At(*i), "while")) {
      failed_ = true;
      return;
    }
    ++*i;
    size_t open = 0, close = 0;
    if (!ParenRange(i, &open, &close)) return;
    cur_ = latch;
    AppendStmt(open + 1, close - 1, depth, loop_depth + 1, StmtKind::kCond);
    Edge(latch, body);  // back edge
    Edge(latch, after);
    if (IsPunct(At(*i), ";")) ++*i;
    cur_ = after;
  }

  void ParseSwitch(size_t* i, int depth, int loop_depth) {
    ++*i;  // 'switch'
    size_t open = 0, close = 0;
    if (!ParenRange(i, &open, &close)) return;
    AppendStmt(open + 1, close - 1, depth, loop_depth, StmtKind::kCond);
    int head = cur_;

    if (!IsPunct(At(*i), "{")) {
      failed_ = true;
      return;
    }
    size_t body_close = *i;
    SkipBalanced(&body_close, "{", "}");
    if (failed_) return;

    int after = NewBlock();
    break_targets_.push_back(after);
    bool saw_default = false;
    bool in_case = false;
    size_t j = *i + 1;
    size_t body_stop = body_close > *i ? body_close - 1 : *i + 1;
    while (j < body_stop && !failed_) {
      if (IsIdent(At(j), "case") || IsIdent(At(j), "default")) {
        saw_default = saw_default || IsIdent(At(j), "default");
        while (j < body_stop && !IsPunct(At(j), ":")) ++j;
        if (j < body_stop) ++j;  // past ':'
        int block = NewBlock();
        Edge(head, block);
        if (in_case) Edge(cur_, block);  // fallthrough
        cur_ = block;
        in_case = true;
        continue;
      }
      ParseStmt(&j, body_stop, depth + 1, loop_depth);
    }
    if (in_case) Edge(cur_, after);
    if (!saw_default) Edge(head, after);
    break_targets_.pop_back();
    *i = body_close;
    cur_ = after;
  }

  void ParseTry(size_t* i, size_t stop, int depth, int loop_depth) {
    ++*i;  // 'try'
    int before = cur_;
    ParseStmt(i, stop, depth, loop_depth);  // the try compound
    int after_try = cur_;
    int join = NewBlock();
    Edge(after_try, join);
    while (IsIdent(At(*i), "catch")) {
      ++*i;
      size_t open = 0, close = 0;
      if (!ParenRange(i, &open, &close)) return;
      int handler = NewBlock();
      // A throw can leave the protected region from anywhere; modeling the
      // handler as reachable from before the try over-approximates safely.
      Edge(before, handler);
      cur_ = handler;
      ParseBody(i, stop, depth, loop_depth);
      Edge(cur_, join);
    }
    cur_ = join;
  }

  const std::vector<const Token*>& code_;
  size_t begin_;
  size_t end_;
  Cfg cfg_;
  int cur_ = 0;
  bool failed_ = false;
  std::vector<int> break_targets_;
  std::vector<int> continue_targets_;
};

}  // namespace

Cfg BuildCfg(const std::vector<const Token*>& code, size_t body_begin,
             size_t body_end) {
  return CfgBuilder(code, body_begin, body_end).Build();
}

}  // namespace alicoco::lint
