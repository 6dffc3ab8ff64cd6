#include "tools/lint/passes/passes.h"

#include <algorithm>
#include <tuple>

#include "tools/lint/passes/interproc.h"

namespace alicoco::lint {

bool StdName(const std::vector<const Token*>& code, size_t j,
             std::string* name) {
  if (j < 2 || !IsIdent(code[j]) || !IsPunct(code[j - 1], "::") ||
      !IsIdent(code[j - 2], "std")) {
    return false;
  }
  *name = code[j]->text;
  return true;
}

const std::vector<PassInfo>& PassRegistry() {
  static const std::vector<PassInfo> kPasses = {
      {"include-cycle",
       "a cycle in the include graph makes the build order fragile and the "
       "modules inseparable",
       "// a.h\n#include \"b.h\"\n// b.h\n#include \"a.h\"",
       "// b.h forward-declares what it needs from a.h:\nclass AThing;"},
      {"layer-violation",
       "an include that contradicts tools/lint/layers.txt erodes the "
       "declared architecture one edge at a time",
       "// src/common/log.h (layer: common, the bottom)\n"
       "#include \"pipeline/builder.h\"",
       "// move the shared type down, or the dependent code up:\n"
       "// src/pipeline/builder.h\n#include \"common/log.h\""},
      {"lock-order-cycle",
       "two locks taken in opposite orders on different threads is a "
       "deadlock waiting for the right interleaving",
       "void A() { MutexLock a(mu_a); MutexLock b(mu_b); }\n"
       "void B() { MutexLock b(mu_b); MutexLock a(mu_a); }",
       "void A() { MutexLock a(mu_a); MutexLock b(mu_b); }\n"
       "void B() { MutexLock a(mu_a); MutexLock b(mu_b); }  // same order"},
      {"discarded-result",
       "ignoring a Status/Result/[[nodiscard]] return silently swallows "
       "the error path",
       "SaveIndex(path);  // Status dropped on the floor",
       "ALICOCO_RETURN_IF_ERROR(SaveIndex(path));"},
      {"use-after-move",
       "reading a moved-from object on any path is at best empty data and "
       "at worst undefined behavior",
       "Consume(std::move(name));\nlog.Append(name);  // moved-from read",
       "log.Append(name);\nConsume(std::move(name));  // move last"},
      {"dangling-view",
       "a string_view or span that outlives the buffer it points into is a "
       "use-after-free in slow motion",
       "std::string_view v = MakeLabel() + \":\";  // temporary dies here",
       "std::string owner = MakeLabel() + \":\";\n"
       "std::string_view v = owner;  // owner outlives the view"},
      {"hot-loop-alloc",
       "an allocation per iteration on the embedding/matching/pipeline hot "
       "path turns O(n) work into O(n) malloc traffic",
       "for (const auto& row : rows) {\n"
       "  std::vector<float> scratch(dim);  // malloc per iteration\n}",
       "std::vector<float> scratch(dim);  // hoisted\n"
       "for (const auto& row : rows) { scratch.assign(dim, 0.f); }"},
      {"param-by-value-heavy",
       "passing a string or container by value copies it at every call "
       "site; sinks should std::move, everything else takes const&",
       "void Index(std::string doc);  // copies every call",
       "void Index(const std::string& doc);\n"
       "// or, for a sink: void Index(std::string doc) { "
       "docs_.push_back(std::move(doc)); }"},
      {"guarded-by-violation",
       "a GUARDED_BY member read without its mutex — directly or through "
       "any chain of unannotated calls — is a data race TSan only catches "
       "if a test hits the interleaving",
       "int items_ ALICOCO_GUARDED_BY(mu_);\n"
       "int Peek() const { return items_; }  // no lock on any path",
       "int Peek() const { MutexLock lock(mu_); return items_; }\n"
       "// or declare the contract:\n"
       "int PeekLocked() const ALICOCO_REQUIRES(mu_) { return items_; }"},
      {"blocking-under-lock",
       "blocking work (I/O, sleeps, waits, joins) reached while a mutex is "
       "held stretches the critical section across an unbounded stall and "
       "convoys every waiting thread behind it",
       "MutexLock lock(mu_);\nWriteLog();  // -> fprintf: file I/O under mu_",
       "const std::string line = Format();  // prepare outside\n"
       "{ MutexLock lock(mu_); buffer_.push_back(line); }\nWriteLog();"},
      {"view-escapes-call",
       "a view returned through a call boundary can outlive the argument "
       "it aliases; the dangle is invisible to any single-function check",
       "std::string_view Head(const std::string& s);\n"
       "std::string_view Name() {\n"
       "  std::string local = Build();\n"
       "  return Head(local);  // view of a dead local\n}",
       "std::string Name() {  // return an owning value across the boundary\n"
       "  std::string local = Build();\n"
       "  return std::string(Head(local));\n}"},
      {"tainted-alloc-size",
       "an allocation sized by raw input lets one corrupt length field "
       "take the whole process: resize(count) on an attacker's count is an "
       "OOM or a multi-gigabyte write",
       "uint32_t count;\nReadU32(f, &count);\n"
       "weights.resize(count);  // count is whatever the file says",
       "uint32_t count;\nReadU32(f, &count);\n"
       "if (count > kMaxParams) return Status::Corruption(\"count\");\n"
       "weights.resize(count);  // bounded by a compile-time cap"},
      {"unchecked-mul-overflow",
       "the product of two untrusted 32-bit sizes wraps before anyone "
       "checks it: rows*cols overflows to a small number, the buffer is "
       "allocated short, and the copy that follows writes past it",
       "uint32_t rows, cols;  // both from the file\n"
       "buf.resize(rows * cols);  // 32-bit product wraps silently",
       "buf.resize(static_cast<size_t>(rows) * cols);  // 64-bit product\n"
       "// caps on rows and cols still belong before the resize"},
      {"tainted-index",
       "an index or loop bound taken from input without a dominating range "
       "check reads or writes out of bounds on the first malformed file",
       "uint32_t idx = ReadU32(f);\n"
       "return table[idx];  // idx is unchecked input",
       "uint32_t idx = ReadU32(f);\n"
       "if (idx >= table.size()) return Status::Corruption(\"idx\");\n"
       "return table[idx];"},
  };
  return kPasses;
}

std::vector<Finding> RunAllPasses(const ProjectIndex& index,
                                  const Layers& layers,
                                  InterprocStats* interproc_stats,
                                  TaintStats* taint_stats) {
  std::vector<Finding> findings = RunIncludeGraphPass(index, layers);
  std::vector<Finding> locks = RunLockOrderPass(index);
  findings.insert(findings.end(), locks.begin(), locks.end());
  std::vector<Finding> discards = RunDiscardedResultPass(index);
  findings.insert(findings.end(), discards.begin(), discards.end());
  std::vector<Finding> copies = RunParamByValuePass(index);
  findings.insert(findings.end(), copies.begin(), copies.end());

  const Interproc interproc = Interproc::Build(index);
  if (interproc_stats != nullptr) *interproc_stats = interproc.stats();
  std::vector<Finding> guarded = RunGuardedByPass(index, interproc);
  findings.insert(findings.end(), guarded.begin(), guarded.end());
  std::vector<Finding> blocking = RunBlockingLockPass(index, interproc);
  findings.insert(findings.end(), blocking.begin(), blocking.end());
  std::vector<Finding> escapes = RunViewEscapePass(index);
  findings.insert(findings.end(), escapes.begin(), escapes.end());
  std::vector<Finding> taints = RunTaintPass(index, taint_stats);
  findings.insert(findings.end(), taints.begin(), taints.end());

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::vector<Finding> RunFunctionDataflowChecks(
    const std::string& path, const std::vector<const Token*>& code,
    const std::vector<FunctionBody>& functions) {
  std::vector<Finding> findings;
  for (const FunctionBody& fn : functions) {
    const Cfg cfg = BuildCfg(code, fn.body_begin, fn.body_end);
    CheckUseAfterMove(path, code, fn, cfg, &findings);
    CheckDanglingView(path, code, fn, cfg, &findings);
    CheckHotLoopAlloc(path, code, fn, cfg, &findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  return findings;
}

}  // namespace alicoco::lint
