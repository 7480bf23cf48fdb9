#include "lexer.hpp"

#include <array>
#include <cctype>

namespace dg::lint {
namespace {

bool isIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool isIdentBody(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool isDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Multi-character punctuators dglint cares about, longest first so the
/// greedy match picks "<<=" over "<<" over "<".
constexpr std::array<std::string_view, 36> kPuncts = {
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=",  "^=",  "##",  ".*", "{",  "}",  "(",  ")",  "[",  "]",  ";",
    ":",   ",",   ".",
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        atLineStart_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
        continue;
      }
      if (c == '#' && atLineStart_) {
        lexPreprocessor();
        continue;
      }
      atLineStart_ = false;
      if (c == '/' && pos_ + 1 < src_.size()) {
        if (src_[pos_ + 1] == '/') {
          lexLineComment();
          continue;
        }
        if (src_[pos_ + 1] == '*') {
          lexBlockComment();
          continue;
        }
      }
      if (isStringPrefixAt(pos_)) {
        lexString();
        continue;
      }
      if (c == '\'') {
        lexCharLiteral();
        continue;
      }
      if (isIdentStart(c)) {
        lexIdentifier();
        continue;
      }
      if (isDigit(c) || (c == '.' && pos_ + 1 < src_.size() &&
                         isDigit(src_[pos_ + 1]))) {
        lexNumber();
        continue;
      }
      lexPunct();
    }
    return std::move(tokens_);
  }

 private:
  void emit(TokenKind kind, std::string text, std::size_t line) {
    tokens_.push_back(Token{kind, std::move(text), line, line_});
  }

  /// True when pos starts a string literal, including encoding/raw
  /// prefixes (u8R"...", L"...", ...).
  bool isStringPrefixAt(std::size_t pos) const {
    std::size_t p = pos;
    if (p < src_.size() && (src_[p] == 'u' || src_[p] == 'U' ||
                            src_[p] == 'L')) {
      if (src_[p] == 'u' && p + 1 < src_.size() && src_[p + 1] == '8') ++p;
      ++p;
    }
    if (p < src_.size() && src_[p] == 'R') ++p;
    if (p >= src_.size() || src_[p] != '"') return false;
    // Don't treat the identifier `u8` / `LR` etc. as a prefix if it is
    // part of a longer identifier (e.g. `FLU"..."` is ident then string).
    if (pos > 0 && isIdentBody(src_[pos - 1]) && src_[pos] != '"')
      return false;
    return true;
  }

  void lexPreprocessor() {
    const std::size_t startLine = line_;
    std::string text;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\\' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '\n') {
        text += ' ';
        pos_ += 2;
        ++line_;
        continue;
      }
      if (c == '\n') break;
      // Strip trailing // comments from the directive text. The comment
      // still becomes a Comment token, so suppression directives on any
      // physical line of the directive are honored.
      if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        lexLineComment();
        continue;
      }
      // Block comments inside a directive act as whitespace and may
      // span lines (GCC keeps the directive going across them).
      if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '*') {
        lexBlockComment();
        text += ' ';
        continue;
      }
      text += c;
      ++pos_;
    }
    emit(TokenKind::Preprocessor, std::move(text), startLine);
  }

  void lexLineComment() {
    const std::size_t startLine = line_;
    pos_ += 2;  // skip //
    std::string text;
    while (pos_ < src_.size() && src_[pos_] != '\n') {
      // Phase-2 line splicing: a backslash-newline continues the
      // comment onto the next physical line.
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size() &&
          src_[pos_ + 1] == '\n') {
        text += ' ';
        pos_ += 2;
        ++line_;
        continue;
      }
      text += src_[pos_++];
    }
    emit(TokenKind::Comment, std::move(text), startLine);
  }

  void lexBlockComment() {
    const std::size_t startLine = line_;
    pos_ += 2;  // skip /*
    std::string text;
    while (pos_ < src_.size()) {
      if (src_[pos_] == '*' && pos_ + 1 < src_.size() &&
          src_[pos_ + 1] == '/') {
        pos_ += 2;
        break;
      }
      if (src_[pos_] == '\n') ++line_;
      text += src_[pos_++];
    }
    emit(TokenKind::Comment, std::move(text), startLine);
  }

  void lexString() {
    const std::size_t startLine = line_;
    bool raw = false;
    while (pos_ < src_.size() && src_[pos_] != '"') {
      if (src_[pos_] == 'R') raw = true;
      ++pos_;
    }
    ++pos_;  // opening quote
    std::string text;
    if (raw) {
      // R"delim( ... )delim"
      std::string delim;
      while (pos_ < src_.size() && src_[pos_] != '(') delim += src_[pos_++];
      ++pos_;  // (
      const std::string closer = ")" + delim + "\"";
      while (pos_ < src_.size() &&
             src_.compare(pos_, closer.size(), closer) != 0) {
        if (src_[pos_] == '\n') ++line_;
        text += src_[pos_++];
      }
      pos_ += closer.size();
    } else {
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
          text += src_[pos_];
          text += src_[pos_ + 1];
          pos_ += 2;
          continue;
        }
        if (src_[pos_] == '\n') {  // unterminated; stop at the line end
          break;
        }
        text += src_[pos_++];
      }
      if (pos_ < src_.size() && src_[pos_] == '"') ++pos_;
    }
    emit(TokenKind::String, std::move(text), startLine);
  }

  void lexCharLiteral() {
    const std::size_t startLine = line_;
    ++pos_;  // opening '
    std::string text;
    while (pos_ < src_.size() && src_[pos_] != '\'') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
        text += src_[pos_];
        text += src_[pos_ + 1];
        pos_ += 2;
        continue;
      }
      if (src_[pos_] == '\n') break;  // unterminated (likely a digit sep)
      text += src_[pos_++];
    }
    if (pos_ < src_.size() && src_[pos_] == '\'') ++pos_;
    emit(TokenKind::CharLiteral, std::move(text), startLine);
  }

  void lexIdentifier() {
    // A string prefix directly attached to a quote was handled earlier;
    // here the identifier is a plain name.
    const std::size_t startLine = line_;
    std::string text;
    while (pos_ < src_.size() && isIdentBody(src_[pos_]))
      text += src_[pos_++];
    // `u8"..."`-style: identifier chars immediately followed by a quote
    // form a string literal prefix.
    if (pos_ < src_.size() && src_[pos_] == '"' &&
        (text == "u8" || text == "u" || text == "U" || text == "L" ||
         text == "R" || text == "u8R" || text == "uR" || text == "UR" ||
         text == "LR")) {
      lexString();
      return;
    }
    emit(TokenKind::Identifier, std::move(text), startLine);
  }

  void lexNumber() {
    const std::size_t startLine = line_;
    std::string text;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (isIdentBody(c) || c == '\'' || c == '.') {
        text += c;
        ++pos_;
        continue;
      }
      // Exponent sign: 1e-5, 0x1p+3
      if ((c == '+' || c == '-') && !text.empty()) {
        const char prev = text.back();
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          text += c;
          ++pos_;
          continue;
        }
      }
      break;
    }
    emit(TokenKind::Number, std::move(text), startLine);
  }

  void lexPunct() {
    for (const std::string_view p : kPuncts) {
      if (src_.compare(pos_, p.size(), p) == 0) {
        emit(TokenKind::Punct, std::string(p), line_);
        pos_ += p.size();
        return;
      }
    }
    emit(TokenKind::Punct, std::string(1, src_[pos_]), line_);
    ++pos_;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  bool atLineStart_ = true;
  std::vector<Token> tokens_;
};

}  // namespace

std::vector<Token> tokenize(std::string_view source) {
  return Lexer(source).run();
}

std::vector<std::string> splitLines(std::string_view source) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= source.size(); ++i) {
    if (i == source.size() || source[i] == '\n') {
      std::string line(source.substr(start, i - start));
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(std::move(line));
      start = i + 1;
    }
  }
  return lines;
}

std::vector<Token> codeTokens(const std::vector<Token>& tokens) {
  std::vector<Token> code;
  code.reserve(tokens.size());
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::Identifier || t.kind == TokenKind::Number ||
        t.kind == TokenKind::Punct) {
      code.push_back(t);
    }
  }
  return code;
}

std::string trim(std::string_view s) {
  const std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r\n");
  return std::string(s.substr(b, e - b + 1));
}

}  // namespace dg::lint
