#include "tools/lint/sarif.h"

#include <string_view>
#include <utility>

#include "obs/exporters.h"
#include "obs/json.h"
#include "tools/lint/passes/passes.h"

namespace alicoco::lint {
namespace {

using obs::JsonValue;

std::string Quote(std::string_view s) {
  return "\"" + obs::JsonEscape(std::string(s)) + "\"";
}

}  // namespace

std::string WriteSarif(const std::vector<Finding>& findings) {
  std::string out;
  out.append("{\n");
  out.append(
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n");
  out.append("  \"version\": \"2.1.0\",\n");
  out.append("  \"runs\": [\n    {\n");
  out.append("      \"tool\": {\n        \"driver\": {\n");
  out.append("          \"name\": \"alicoco_lint\",\n");
  out.append("          \"rules\": [\n");

  bool first = true;
  auto emit_rule = [&out, &first](std::string_view id,
                                  std::string_view rationale) {
    if (!first) out.append(",\n");
    first = false;
    out.append("            {\"id\": " + Quote(id));
    out.append(", \"shortDescription\": {\"text\": " + Quote(rationale));
    out.append("}}");
  };
  for (const auto& rule : RuleRegistry()) {
    emit_rule(rule->id(), rule->rationale());
  }
  for (const PassInfo& pass : PassRegistry()) {
    emit_rule(pass.id, pass.rationale);
  }
  out.append("\n          ]\n        }\n      },\n");

  out.append("      \"results\": [");
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out.append(i == 0 ? "\n" : ",\n");
    out.append("        {\n          \"ruleId\": " + Quote(f.rule));
    out.append(",\n          \"level\": \"warning\",\n");
    out.append("          \"message\": {\"text\": " + Quote(f.message));
    out.append("},\n          \"locations\": [\n");
    out.append("            {\"physicalLocation\": {");
    out.append("\"artifactLocation\": {\"uri\": " + Quote(f.file));
    out.append("}, \"region\": {\"startLine\": ");
    out.append(std::to_string(f.line < 1 ? 1 : f.line));
    out.append("}}}\n          ]\n        }");
  }
  out.append(findings.empty() ? "]\n" : "\n      ]\n");
  out.append("    }\n  ]\n}\n");
  return out;
}

Result<std::vector<Finding>> ParseSarif(const std::string& text) {
  ALICOCO_ASSIGN_OR_RETURN(JsonValue root, obs::ParseJson(text));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::Corruption("SARIF root is not an object");
  }
  const JsonValue* version = root.Find("version");
  if (version == nullptr || version->str != "2.1.0") {
    return Status::Corruption("missing or unsupported SARIF version");
  }
  const JsonValue* runs = root.Find("runs");
  if (runs == nullptr || runs->kind != JsonValue::Kind::kArray ||
      runs->array.empty()) {
    return Status::Corruption("SARIF document has no runs");
  }
  const JsonValue& run = runs->array[0];
  const JsonValue* tool = run.Find("tool");
  if (tool == nullptr || tool->Find("driver") == nullptr) {
    return Status::Corruption("SARIF run has no tool.driver");
  }
  const JsonValue* results = run.Find("results");
  if (results == nullptr || results->kind != JsonValue::Kind::kArray) {
    return Status::Corruption("SARIF run has no results array");
  }

  std::vector<Finding> findings;
  for (const JsonValue& result : results->array) {
    Finding f;
    const JsonValue* rule_id = result.Find("ruleId");
    const JsonValue* message = result.Find("message");
    if (rule_id == nullptr || message == nullptr ||
        message->Find("text") == nullptr) {
      return Status::Corruption("SARIF result missing ruleId/message.text");
    }
    f.rule = rule_id->str;
    f.message = message->Find("text")->str;
    const JsonValue* locations = result.Find("locations");
    if (locations == nullptr || locations->array.empty()) {
      return Status::Corruption("SARIF result has no locations");
    }
    const JsonValue* physical = locations->array[0].Find("physicalLocation");
    if (physical == nullptr) {
      return Status::Corruption("SARIF location has no physicalLocation");
    }
    const JsonValue* artifact = physical->Find("artifactLocation");
    const JsonValue* region = physical->Find("region");
    if (artifact == nullptr || artifact->Find("uri") == nullptr ||
        region == nullptr || region->Find("startLine") == nullptr) {
      return Status::Corruption("SARIF physicalLocation incomplete");
    }
    f.file = artifact->Find("uri")->str;
    f.line = static_cast<int>(region->Find("startLine")->number);
    findings.push_back(std::move(f));
  }
  return findings;
}

}  // namespace alicoco::lint
