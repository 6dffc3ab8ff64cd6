// Deterministic C++ surface lexer for alicoco_lint.
//
// Produces a flat token stream good enough for pattern-level static
// analysis: identifiers, numbers (digit separators included), string and
// character literals (escapes and raw strings handled), comments (kept as
// tokens so inline suppressions can see them), preprocessor directives
// (one token per logical line, continuations folded, trailing comments
// stripped), and punctuation (with `::` and `->` fused). It does not
// build an AST — rules pattern-match the stream — but unlike the old grep
// gate it never confuses code with comment or literal text.

#ifndef ALICOCO_TOOLS_LINT_LEXER_H_
#define ALICOCO_TOOLS_LINT_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

namespace alicoco::lint {

enum class TokenKind {
  kIdentifier,   // identifiers and keywords, e.g. `new`, `Mutex`
  kNumber,       // 42, 0x1F, 1'000'000, 3.14f
  kString,       // "..." including raw strings, prefix kept out of text
  kCharLiteral,  // 'a', '\n'
  kComment,      // // and /* */ bodies, delimiters stripped
  kDirective,    // whole preprocessor logical line, e.g. `#include <map>`
  kPunct,        // single chars plus the fused `::` and `->`
};

struct Token {
  TokenKind kind;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
};

/// Null-safe token predicates shared by the rules, the index extractor and
/// the passes; a null token (past the end of a stream) matches nothing.
inline bool IsIdent(const Token* t) {
  return t != nullptr && t->kind == TokenKind::kIdentifier;
}

inline bool IsIdent(const Token* t, std::string_view text) {
  return IsIdent(t) && t->text == text;
}

inline bool IsPunct(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
}

inline bool IsNumber(const Token* t) {
  return t != nullptr && t->kind == TokenKind::kNumber;
}

/// Lexes `source` into tokens. Never fails: unterminated constructs are
/// closed at end of input so analysis of broken fixtures stays total.
std::vector<Token> Lex(const std::string& source);

}  // namespace alicoco::lint

#endif  // ALICOCO_TOOLS_LINT_LEXER_H_
