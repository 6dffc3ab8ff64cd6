// alicoco_lint CLI: the first-party static-analysis gate.
//
//   alicoco_lint --root <repo-root> [--suppressions FILE | --no-suppressions]
//   alicoco_lint --root <repo-root> <repo-relative-file>...
//   alicoco_lint --root <repo-root> --project src [--sarif OUT] [--cache F]
//                [--changed-only] [--layers FILE] [--stats]
//   alicoco_lint --root <repo-root> --project src --self-bench OUT
//                [--bench-baseline FILE] [--max-regress R]
//   alicoco_lint --list-rules
//   alicoco_lint --explain <rule-id>
//
// Findings go to stdout as stable `file:line:rule-id: message` lines;
// exit status is 1 iff any finding survives suppression. With no explicit
// file arguments the whole first-party tree is scanned per-file.
//
// `--project DIR` switches to whole-program mode: the subtree is indexed
// once and the cross-file passes (include-cycle, layer-violation,
// lock-order-cycle, discarded-result, the interprocedural tier:
// guarded-by-violation, blocking-under-lock, view-escapes-call, and the
// taint tier: tainted-alloc-size, unchecked-mul-overflow, tainted-index)
// run
// alongside every per-file rule. `--cache` makes repeat runs incremental;
// `--changed-only` additionally restricts the report to files the cache
// saw change. `--sarif` writes the findings as a SARIF 2.1.0 document for
// CI upload.
//
// `--explain <rule-id>` prints the rule's rationale plus a minimal
// bad/good example pair, from the same registries the SARIF writer and
// --list-rules use. `--self-bench OUT` runs the analyzer over the project
// twice — cold (cache deleted) then warm — and writes the simulated cost
// figures as BENCH JSON; with `--bench-baseline`, warm cost regressions
// beyond `--max-regress` (default 0.25) fail the run.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "tools/lint/analyzer.h"
#include "tools/lint/passes/passes.h"
#include "tools/lint/sarif.h"

namespace {

int Fail(const alicoco::Status& status) {
  std::cerr << "alicoco_lint: " << status.ToString() << "\n";
  return 2;
}

/// Indents every line of a (possibly multi-line) example by four spaces.
void PrintIndented(std::string_view text) {
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::cout << "    " << text.substr(start, end - start) << "\n";
    start = end + 1;
  }
}

/// `--explain <rule>`: rationale + example pair from the shared
/// registries. Returns 0 when found, 2 for an unknown id.
int ExplainRule(const std::string& id) {
  std::string_view rationale, bad, good;
  bool found = false;
  for (const auto& rule : alicoco::lint::RuleRegistry()) {
    if (rule->id() == id) {
      rationale = rule->rationale();
      bad = rule->example_bad();
      good = rule->example_good();
      found = true;
    }
  }
  for (const auto& pass : alicoco::lint::PassRegistry()) {
    if (pass.id == id) {
      rationale = pass.rationale;
      bad = pass.bad_example;
      good = pass.good_example;
      found = true;
    }
  }
  if (!found) {
    std::cerr << "alicoco_lint: unknown rule '" << id
              << "' (see --list-rules)\n";
    return 2;
  }
  std::cout << id << ": " << rationale << "\n";
  if (!bad.empty()) {
    std::cout << "\n  bad:\n";
    PrintIndented(bad);
  }
  if (!good.empty()) {
    std::cout << "\n  good:\n";
    PrintIndented(good);
  }
  return 0;
}

/// One cold-vs-warm benchmark figure set for BENCH_lint.json.
struct BenchFigures {
  size_t files = 0;
  uint64_t bytes_lexed = 0;
  uint64_t cold_cost_us = 0;
  uint64_t warm_cost_us = 0;
  uint64_t interproc_cost_us = 0;
  uint64_t taint_cost_us = 0;
};

std::string WriteBenchJson(const BenchFigures& b) {
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"alicoco.bench_lint.v1\",\n"
      << "  \"files\": " << b.files << ",\n"
      << "  \"bytes_lexed\": " << b.bytes_lexed << ",\n"
      << "  \"cold_cost_us\": " << b.cold_cost_us << ",\n"
      << "  \"warm_cost_us\": " << b.warm_cost_us << ",\n"
      << "  \"interproc_cost_us\": " << b.interproc_cost_us << ",\n"
      << "  \"taint_cost_us\": " << b.taint_cost_us << "\n"
      << "}\n";
  return out.str();
}

/// Reads the cold and warm cost figures of a baseline BENCH_lint.json.
/// A truncated file, or a missing, non-numeric or negative figure, is an
/// error rather than a partial match.
alicoco::Result<BenchFigures> ReadBenchBaseline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return alicoco::Status::IOError("cannot read bench baseline: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ALICOCO_ASSIGN_OR_RETURN(alicoco::obs::JsonValue bench,
                           alicoco::obs::ParseJson(buf.str()));
  BenchFigures figures;
  ALICOCO_ASSIGN_OR_RETURN(
      figures.cold_cost_us,
      alicoco::obs::JsonRequireCount(bench, "cold_cost_us"));
  ALICOCO_ASSIGN_OR_RETURN(
      figures.warm_cost_us,
      alicoco::obs::JsonRequireCount(bench, "warm_cost_us"));
  return figures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string suppressions_path;
  std::string project_dir;
  std::string sarif_path;
  std::string cache_path;
  std::string layers_path;
  std::string explain_rule;
  std::string self_bench_path;
  std::string bench_baseline_path;
  double max_regress = 0.25;
  bool use_suppressions = true;
  bool list_rules = false;
  bool changed_only = false;
  bool print_stats = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--suppressions" && i + 1 < argc) {
      suppressions_path = argv[++i];
    } else if (arg == "--no-suppressions") {
      use_suppressions = false;
    } else if (arg == "--project" && i + 1 < argc) {
      project_dir = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--cache" && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (arg == "--layers" && i + 1 < argc) {
      layers_path = argv[++i];
    } else if (arg == "--explain" && i + 1 < argc) {
      explain_rule = argv[++i];
    } else if (arg == "--self-bench" && i + 1 < argc) {
      self_bench_path = argv[++i];
    } else if (arg == "--bench-baseline" && i + 1 < argc) {
      bench_baseline_path = argv[++i];
    } else if (arg == "--max-regress" && i + 1 < argc) {
      max_regress = std::atof(argv[++i]);
    } else if (arg == "--changed-only") {
      changed_only = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: alicoco_lint [--root DIR] [--suppressions FILE] "
                   "[--no-suppressions] [--list-rules]\n"
                   "                    [--project DIR] [--sarif OUT] "
                   "[--cache FILE] [--changed-only]\n"
                   "                    [--layers FILE] [--stats] "
                   "[--explain RULE] [file...]\n"
                   "                    [--self-bench OUT "
                   "[--bench-baseline FILE] [--max-regress R]]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "alicoco_lint: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  if (!explain_rule.empty()) return ExplainRule(explain_rule);

  if (list_rules) {
    for (const auto& rule : alicoco::lint::RuleRegistry()) {
      std::cout << rule->id() << ": " << rule->rationale() << "\n";
    }
    for (const auto& pass : alicoco::lint::PassRegistry()) {
      std::cout << pass.id << ": " << pass.rationale << "\n";
    }
    return 0;
  }

  if (project_dir.empty() &&
      (!sarif_path.empty() || !cache_path.empty() || changed_only ||
       !layers_path.empty() || !self_bench_path.empty())) {
    std::cerr << "alicoco_lint: --sarif/--cache/--changed-only/--layers/"
                 "--self-bench require --project\n";
    return 2;
  }

  alicoco::lint::Suppressions suppressions;
  if (use_suppressions) {
    if (suppressions_path.empty()) {
      std::string fallback = root + "/tools/lint/suppressions.txt";
      if (std::filesystem::exists(fallback)) suppressions_path = fallback;
    }
    if (!suppressions_path.empty()) {
      auto loaded = alicoco::lint::Suppressions::LoadFile(suppressions_path);
      if (!loaded.ok()) return Fail(loaded.status());
      suppressions = std::move(*loaded);
    }
  }

  if (!self_bench_path.empty()) {
    // Self-benchmark: analyze the project cold (cache removed), then warm
    // (every summary served from the cache just written). Costs are
    // simulated units from the deterministic clock, so the figures are
    // machine-independent and byte-stable for the regression gate.
    const std::string bench_cache = self_bench_path + ".cache";
    std::error_code ec;
    std::filesystem::remove(bench_cache, ec);

    alicoco::lint::ProjectOptions options;
    options.project_dir = project_dir;
    options.layers_path = layers_path;
    options.cache_path = bench_cache;
    options.suppressions = &suppressions;

    BenchFigures figures;
    alicoco::lint::SimulatedClock cold_clock;
    options.cost_clock = &cold_clock;
    auto cold = alicoco::lint::AnalyzeProject(root, options);
    if (!cold.ok()) return Fail(cold.status());
    figures.files = cold->stats.files;
    figures.bytes_lexed = cold->stats.bytes_lexed;
    figures.cold_cost_us = cold_clock.NowUs();
    figures.interproc_cost_us = cold->interproc.cost_us;
    figures.taint_cost_us = cold->taint.cost_us;

    alicoco::lint::SimulatedClock warm_clock;
    options.cost_clock = &warm_clock;
    auto warm = alicoco::lint::AnalyzeProject(root, options);
    if (!warm.ok()) return Fail(warm.status());
    figures.warm_cost_us = warm_clock.NowUs();
    std::filesystem::remove(bench_cache, ec);

    std::ofstream out(self_bench_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Fail(alicoco::Status::IOError("cannot write bench JSON: " +
                                           self_bench_path));
    }
    out << WriteBenchJson(figures);
    std::cerr << "alicoco_lint: self-bench " << figures.files << " files, "
              << "cold " << figures.cold_cost_us << "us, warm "
              << figures.warm_cost_us << "us (interproc "
              << figures.interproc_cost_us << "us, taint "
              << figures.taint_cost_us << "us)\n";

    if (!bench_baseline_path.empty()) {
      auto baseline = ReadBenchBaseline(bench_baseline_path);
      if (!baseline.ok()) return Fail(baseline.status());
      const uint64_t base_cold = baseline->cold_cost_us;
      const uint64_t base_warm = baseline->warm_cost_us;
      const auto limit = [&](uint64_t base) {
        return static_cast<uint64_t>(static_cast<double>(base) *
                                     (1.0 + max_regress));
      };
      bool regressed = false;
      if (base_cold != 0 && figures.cold_cost_us > limit(base_cold)) {
        std::cerr << "alicoco_lint: cold cost regressed: "
                  << figures.cold_cost_us << "us > " << base_cold
                  << "us * " << (1.0 + max_regress) << "\n";
        regressed = true;
      }
      if (base_warm != 0 && figures.warm_cost_us > limit(base_warm)) {
        std::cerr << "alicoco_lint: warm cost regressed: "
                  << figures.warm_cost_us << "us > " << base_warm
                  << "us * " << (1.0 + max_regress) << "\n";
        regressed = true;
      }
      if (regressed) return 1;
    }
    return 0;
  }

  std::vector<alicoco::lint::Finding> findings;
  if (!project_dir.empty()) {
    alicoco::lint::SimulatedClock cost_clock;
    alicoco::lint::ProjectOptions options;
    options.project_dir = project_dir;
    options.layers_path = layers_path;
    options.cache_path = cache_path;
    options.changed_only = changed_only;
    options.cost_clock = &cost_clock;
    options.suppressions = &suppressions;
    auto report = alicoco::lint::AnalyzeProject(root, options);
    if (!report.ok()) return Fail(report.status());
    findings = std::move(report->findings);
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        return Fail(
            alicoco::Status::IOError("cannot write SARIF: " + sarif_path));
      }
      out << alicoco::lint::WriteSarif(findings);
    }
    if (print_stats) {
      const alicoco::lint::IndexStats& stats = report->stats;
      std::cerr << "alicoco_lint: " << stats.files << " files, "
                << stats.lexed << " summarized, " << stats.cache_hits
                << " cache hits, " << stats.bytes_lexed << " bytes lexed, "
                << stats.cost_us << " cost units\n";
      const alicoco::lint::InterprocStats& ip = report->interproc;
      std::cerr << "alicoco_lint: interproc " << ip.functions
                << " functions, " << ip.sccs << " sccs, " << ip.edges
                << " edges, " << ip.may_block << " may-block, " << ip.cost_us
                << " cost units\n";
      const alicoco::lint::TaintStats& ts = report->taint;
      std::cerr << "alicoco_lint: taint " << ts.call_args << " call args, "
                << ts.pending << " pending, " << ts.sink_params
                << " sink params, " << ts.cost_us << " cost units\n";
    }
  } else if (files.empty()) {
    auto result = alicoco::lint::AnalyzeTree(root, &suppressions);
    if (!result.ok()) return Fail(result.status());
    findings = std::move(*result);
  } else {
    for (const std::string& rel : files) {
      std::ifstream in(root + "/" + rel, std::ios::binary);
      if (!in) {
        return Fail(alicoco::Status::IOError("cannot open: " + rel));
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      auto file_findings =
          alicoco::lint::AnalyzeSource(rel, buf.str(), &suppressions);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
    }
  }

  for (const auto& finding : findings) {
    std::cout << alicoco::lint::FormatFinding(finding) << "\n";
  }
  if (!findings.empty()) {
    std::cerr << "alicoco_lint: " << findings.size() << " finding(s)\n";
    return 1;
  }
  std::cerr << "alicoco_lint: clean\n";
  return 0;
}
