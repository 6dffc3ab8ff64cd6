#include "obs/json.h"

#include <cctype>
#include <string_view>

namespace alicoco::obs {
namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    ALICOCO_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::Corruption("JSON parse error at offset " +
                              std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    // A profile document is a few levels deep; a crafted file of nothing
    // but '[' must hit a corruption error, not exhaust the stack.
    if (depth_ >= kMaxDepth) return Error("nesting too deep");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      ++depth_;
      Result<JsonValue> out = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return out;
    }
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f' || c == 'n') return ParseKeyword();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (Consume('}')) return out;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      ALICOCO_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      if (!Consume(':')) return Error("expected ':' after key");
      ALICOCO_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.object.emplace_back(std::move(key.str), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (Consume(']')) return out;
    for (;;) {
      ALICOCO_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return out;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    JsonValue out;
    out.kind = JsonValue::Kind::kString;
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.str.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.str.push_back(esc);
          break;
        case 'n':
          out.str.push_back('\n');
          break;
        case 't':
          out.str.push_back('\t');
          break;
        case 'r':
          out.str.push_back('\r');
          break;
        case 'b':
          out.str.push_back('\b');
          break;
        case 'f':
          out.str.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // Profile strings are ASCII; anything else degrades to '?'.
          out.str.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseKeyword() {
    auto match = [&](const char* word) {
      size_t len = std::string_view(word).size();
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    JsonValue out;
    if (match("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return out;
    }
    if (match("false")) {
      out.kind = JsonValue::Kind::kBool;
      return out;
    }
    if (match("null")) return out;
    return Error("unknown keyword");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) return Error("expected a number");
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      // stod throws on out-of-range exponents like 1e999999999; a corrupt
      // profile must parse-fail, not unwind through the caller.
      return Error("number out of range");
    }
    return out;
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

Result<double> JsonRequireNumber(const JsonValue& object,
                                 const std::string& key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    return Status::Corruption("missing numeric field '" + key + "'");
  }
  return v->number;
}

Result<uint64_t> JsonRequireCount(const JsonValue& object,
                                  const std::string& key) {
  ALICOCO_ASSIGN_OR_RETURN(double value, JsonRequireNumber(object, key));
  if (!(value >= 0 && value < 18446744073709551616.0)) {
    return Status::Corruption("count field '" + key + "' out of range");
  }
  return static_cast<uint64_t>(value);
}

Result<std::string> JsonRequireString(const JsonValue& object,
                                      const std::string& key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    return Status::Corruption("missing string field '" + key + "'");
  }
  return v->str;
}

}  // namespace alicoco::obs
