// Lock-order pass: compose per-function acquisition summaries into one
// global lock graph and hunt for cycles.
//
// Lock identity is resolved in three steps: a single-identifier lock
// expression inside a class that declares that mutex member is
// `Class::member`; otherwise a member name declared by exactly one class
// resolves to that class; anything else stands for itself verbatim. This
// keeps `mu_` in two unrelated classes from aliasing while still merging
// acquisitions of one mutex from header and implementation files.
//
// Edges come from two places: a lock taken while another is held inside
// one function body, and a call made with a lock held into a function
// whose transitive acquisition set (a fixpoint over the name-resolved
// call graph) contains other locks. A self-edge means the same lock is
// (transitively) acquired twice — alicoco::Mutex is not reentrant, so
// that is a guaranteed deadlock rather than an ordering hazard.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "tools/lint/passes/interproc.h"
#include "tools/lint/passes/passes.h"

namespace alicoco::lint {

std::vector<Finding> RunLockOrderPass(const ProjectIndex& index) {
  // Mutex member declarations, unioned across files so a .cc resolves
  // members its header declared.
  std::map<std::string, std::set<std::string>> member_classes;
  for (const FileSummary& file : index.files()) {
    for (const MutexMemberDecl& m : file.mutexes) {
      member_classes[m.member].insert(m.class_name);
    }
  }

  std::vector<FnRef> all_fns;
  for (const FileSummary& file : index.files()) {
    for (const FunctionSummary& fn : file.functions) {
      all_fns.push_back(FnRef{&file, &fn});
    }
  }
  CallResolver resolver(all_fns);

  // Per-acquisition resolved keys, and each function's direct lock set.
  std::map<const FunctionSummary*, std::vector<std::string>> acq_keys;
  std::map<const FunctionSummary*, std::set<std::string>> acquired;
  for (const FnRef& ref : all_fns) {
    std::vector<std::string>& keys = acq_keys[ref.fn];
    for (const Acquisition& acq : ref.fn->acquisitions) {
      keys.push_back(LockKey(acq, ref.fn->class_name, member_classes));
      acquired[ref.fn].insert(keys.back());
    }
  }

  // Transitive acquisition fixpoint over the call graph.
  bool grew = true;
  while (grew) {
    grew = false;
    for (const FnRef& ref : all_fns) {
      std::set<std::string>& mine = acquired[ref.fn];
      for (const CallInfo& call : ref.fn->calls) {
        for (const FnRef& target :
             resolver.Resolve(call, ref.fn->class_name)) {
          if (target.fn == ref.fn) continue;
          for (const std::string& key : acquired[target.fn]) {
            if (mine.insert(key).second) grew = true;
          }
        }
      }
    }
  }

  Digraph lock_graph;
  for (const FnRef& ref : all_fns) {
    const std::vector<std::string>& keys = acq_keys[ref.fn];
    for (size_t i = 0; i < ref.fn->acquisitions.size(); ++i) {
      const Acquisition& acq = ref.fn->acquisitions[i];
      for (int held : acq.held) {
        lock_graph.AddEdge(keys[static_cast<size_t>(held)], keys[i],
                           EdgeSite{ref.file->path, acq.line});
      }
    }
    for (const CallInfo& call : ref.fn->calls) {
      if (call.held.empty()) continue;
      std::set<std::string> callee_locks;
      for (const FnRef& target : resolver.Resolve(call, ref.fn->class_name)) {
        if (target.fn == ref.fn) continue;
        const std::set<std::string>& locks = acquired[target.fn];
        callee_locks.insert(locks.begin(), locks.end());
      }
      for (int held : call.held) {
        for (const std::string& key : callee_locks) {
          lock_graph.AddEdge(keys[static_cast<size_t>(held)], key,
                             EdgeSite{ref.file->path, call.line});
        }
      }
    }
  }

  std::vector<Finding> findings;
  for (const std::vector<std::string>& cycle : lock_graph.Cycles()) {
    const EdgeSite* site = lock_graph.FindSite(cycle[0], cycle[1]);
    Finding f;
    f.file = site != nullptr ? site->file : "";
    f.line = site != nullptr ? site->line : 1;
    f.rule = "lock-order-cycle";
    if (cycle.size() == 2 && cycle[0] == cycle[1]) {
      f.message = "lock '" + cycle[0] +
                  "' is acquired while already held; alicoco::Mutex is not "
                  "reentrant, so this deadlocks";
    } else {
      f.message = "lock-order cycle (potential deadlock): " +
                  JoinStrings(cycle, " -> ");
    }
    findings.push_back(std::move(f));
  }
  return findings;
}

}  // namespace alicoco::lint
