// Lightweight C++ tokenizer for dglint.
//
// dglint's rules only need a token stream that is faithful about the
// things that trip up grep-style linting -- string literals (including
// raw strings), comments, char literals and preprocessor logical lines
// -- plus enough punctuation fidelity to brace-match and to tell a
// range-for `:` apart from `::`. A full C++ grammar is explicitly out of
// scope; rules are heuristic token-pattern matchers over this stream.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace dg::lint {

enum class TokenKind {
  Identifier,    ///< keywords are identifiers too; rules compare text
  Number,        ///< integer/float literal (incl. hex, digit separators)
  String,        ///< "...", R"(...)", prefixed variants; text excludes quotes
  CharLiteral,   ///< '...'
  Punct,         ///< operator / punctuator, greedily matched (e.g. "+=", "::")
  Comment,       ///< // or /* */; text excludes the comment markers
  Preprocessor,  ///< one logical `#...` line, continuations joined
};

struct Token {
  TokenKind kind;
  std::string text;
  std::size_t line;  ///< 1-based line of the token's first character
  /// 1-based line of the token's last character for multi-line tokens
  /// (raw strings, block comments, continued preprocessor directives).
  /// 0 (the aggregate-init default) means "same as `line`".
  std::size_t endLine = 0;
};

/// Tokenizes `source`. Never throws on malformed input: unterminated
/// strings/comments extend to end of file, unknown bytes become 1-char
/// Punct tokens. `path` is only used for error context in assertions.
std::vector<Token> tokenize(std::string_view source);

/// Splits `source` into physical lines (no terminators), 0-indexed.
std::vector<std::string> splitLines(std::string_view source);

/// The code tokens of `tokens`: identifiers, numbers and punctuation (the
/// rules never match inside comments, literals or preprocessor lines).
std::vector<Token> codeTokens(const std::vector<Token>& tokens);

/// `s` without leading and trailing whitespace.
std::string trim(std::string_view s);

inline bool isIdent(const Token& t, std::string_view text) {
  return t.kind == TokenKind::Identifier && t.text == text;
}
inline bool isPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::Punct && t.text == text;
}

}  // namespace dg::lint
