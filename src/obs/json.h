// The tree's one JSON reader.
//
// Just enough of RFC 8259 for the JSON the repo reads back: the BENCH_*.json
// baselines (stage profile, kernel suite) and alicoco_lint's
// SARIF output. Objects, arrays, strings, numbers, true/false/null. Key
// order is preserved, duplicate keys keep their first occurrence in Find,
// and unknown fields are the caller's business to ignore — which is what
// lets the schemas grow without breaking committed baselines. Nesting depth
// is capped and out-of-range numbers are a parse error, so corrupt input
// fails with a Corruption status. Writing stays with each format; strings
// are escaped with obs::JsonEscape (obs/exporters.h).

#ifndef ALICOCO_OBS_JSON_H_
#define ALICOCO_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace alicoco::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses `text` as one JSON document; Corruption status on any syntax
/// error, with the byte offset in the message.
[[nodiscard]] Result<JsonValue> ParseJson(const std::string& text);

/// Field accessors for schema readers: Corruption when the key is absent
/// or holds the wrong kind.
[[nodiscard]] Result<double> JsonRequireNumber(const JsonValue& object,
                                               const std::string& key);
[[nodiscard]] Result<std::string> JsonRequireString(const JsonValue& object,
                                                    const std::string& key);
/// A count field: a number in [0, 2^64), truncated toward zero. Anything
/// else is Corruption, so a corrupt file never reaches the conversion to
/// uint64_t, which would be undefined for it.
[[nodiscard]] Result<uint64_t> JsonRequireCount(const JsonValue& object,
                                                const std::string& key);

}  // namespace alicoco::obs

#endif  // ALICOCO_OBS_JSON_H_
