#include "semantic.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace dg::lint {
namespace {

using TokenList = std::vector<Token>;

/// Skips a balanced template argument list starting at code[i] == "<".
std::size_t skipAngles(const TokenList& code, std::size_t i) {
  int depth = 0;
  for (; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::Punct) continue;
    if (t.text == "<" || t.text == "<<") {
      depth += t.text == "<<" ? 2 : 1;
    } else if (t.text == ">" || t.text == ">>") {
      depth -= t.text == ">>" ? 2 : 1;
      if (depth <= 0) return i + 1;
    } else if (t.text == ";" || t.text == "{") {
      return code.size();
    }
  }
  return code.size();
}

/// Keywords/specifiers that are never a user type or variable name in
/// the declaration patterns the extractor matches.
const std::set<std::string, std::less<>>& notATypeName() {
  static const std::set<std::string, std::less<>> kSet = {
      "if",       "else",     "for",        "while",     "do",
      "switch",   "case",     "return",     "break",     "continue",
      "goto",     "new",      "delete",     "throw",     "sizeof",
      "const",    "constexpr","constinit",  "consteval", "static",
      "auto",     "using",    "typedef",    "template",  "typename",
      "class",    "struct",   "enum",       "union",     "public",
      "private",  "protected","virtual",    "override",  "final",
      "inline",   "extern",   "operator",   "namespace", "true",
      "false",    "nullptr",  "this",       "co_return", "co_await",
      "co_yield", "catch",    "try",        "default",   "volatile",
      "mutable",  "register", "thread_local","noexcept", "alignas",
      "alignof",  "decltype", "concept",    "requires",  "friend",
      "explicit", "export",   "and",        "or",        "not",
      "void",     "static_assert",          "__attribute__",
  };
  return kSet;
}

/// Identifiers that look like calls but are control flow / expressions.
const std::set<std::string, std::less<>>& notACall() {
  static const std::set<std::string, std::less<>> kSet = {
      "if",     "for",    "while",  "switch",   "return", "sizeof",
      "catch",  "throw",  "alignof", "decltype", "noexcept",
      "static_assert",    "alignas", "co_await", "co_return", "co_yield",
  };
  return kSet;
}

/// std value types whose construction allocates (R5 local-declaration
/// check) — matched on the last component of the declared type.
const std::set<std::string, std::less<>>& allocatingTypes() {
  static const std::set<std::string, std::less<>> kSet = {
      "vector", "string",        "deque",         "list",
      "map",    "set",           "multimap",      "multiset",
      "unordered_map",           "unordered_set", "basic_string",
      "ostringstream",           "istringstream", "stringstream",
      "function",
  };
  return kSet;
}

/// Receiver types whose member calls never resolve to repo functions
/// (std containers / streams); stops name-collision overlinking when a
/// hot function calls e.g. `.clear()` on a vector.
const std::set<std::string, std::less<>>& externalRecvTypes() {
  static const std::set<std::string, std::less<>> kSet = {
      "vector",  "string",   "deque",   "list",     "map",    "set",
      "multimap","multiset", "unordered_map",       "unordered_set",
      "array",   "span",     "optional","pair",     "tuple",  "function",
      "ostringstream",       "istringstream",       "stringstream",
      "ifstream","ofstream", "fstream", "string_view",
  };
  return kSet;
}

/// Member-call names so common on std containers/iterators/handles that
/// an unknown-receiver call must NOT fall back to "all candidates" — a
/// repo class happening to define begin()/end()/size() would otherwise
/// be linked into every hot function that touches a vector. Such calls
/// link only on an exact receiver-type match.
const std::set<std::string, std::less<>>& genericMemberNames() {
  static const std::set<std::string, std::less<>> kSet = {
      "begin",   "end",     "rbegin",  "rend",     "cbegin", "cend",
      "size",    "empty",   "clear",   "data",     "front",  "back",
      "at",      "find",    "count",   "contains", "insert", "erase",
      "emplace", "reserve", "resize",  "capacity", "swap",   "get",
      "reset",   "release", "str",     "c_str",    "length", "top",
      "pop",     "push",    "first",   "second",   "value",  "has_value",
      "fill",    "assign",  "append",  "substr",   "lock",   "unlock",
  };
  return kSet;
}

const std::set<std::string, std::less<>>& mallocFamily() {
  static const std::set<std::string, std::less<>> kSet = {
      "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
      "posix_memalign",
  };
  return kSet;
}

const std::set<std::string, std::less<>>& allocatingCalls() {
  static const std::set<std::string, std::less<>> kSet = {
      "make_unique", "make_shared", "to_string",
  };
  return kSet;
}

/// Wire-cursor read methods whose result is a length/count field (R8).
bool isCursorRead(const std::string& name) {
  return name == "u8" || name == "u16" || name == "u32" || name == "u64" ||
         name.rfind("read", 0) == 0 || name.rfind("decode", 0) == 0;
}

bool isAssignOp(const Token& t) {
  if (t.kind != TokenKind::Punct) return false;
  const std::string& s = t.text;
  return s == "=" || s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
         s == "%=" || s == "&=" || s == "|=" || s == "^=" || s == "<<=" ||
         s == ">>=" || s == "++" || s == "--";
}

// ---------------------------------------------------------------------
// Scope walk: function definition ranges + mutable globals
// ---------------------------------------------------------------------

struct RawFunction {
  std::string name;
  std::string qualifier;
  std::size_t declLine = 0;
  std::size_t bodyLine = 0;
  std::size_t bodyBegin = 0;  ///< code index just inside '{'
  std::size_t bodyEnd = 0;    ///< code index of the closing '}'
  TokenList declTokens;       ///< the declaration statement (params etc.)
};

const std::set<std::string, std::less<>>& nonVarStarters() {
  static const std::set<std::string, std::less<>> kSet = {
      "using",   "typedef", "template",  "class",    "struct",
      "union",   "enum",    "namespace", "friend",   "static_assert",
      "concept", "extern",  "asm",       "requires",
  };
  return kSet;
}

/// Finds the function name in a declaration statement: the identifier
/// before the first top-level (paren- and angle-depth zero) `(`.
/// Returns false for operators and anything that doesn't look like a
/// function definition header.
bool extractFunctionName(const TokenList& stmt, std::string& name,
                         std::string& qualifier) {
  int paren = 0;
  int angle = 0;
  std::size_t open = stmt.size();
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    const Token& t = stmt[i];
    if (t.kind != TokenKind::Punct) continue;
    if (t.text == "<") ++angle;
    else if (t.text == "<<") angle += 2;
    else if (t.text == ">" && angle > 0) --angle;
    else if (t.text == ">>" && angle > 0) angle -= 2;
    else if (t.text == "(") {
      if (paren == 0 && angle <= 0 && open == stmt.size() && i > 0 &&
          stmt[i - 1].kind == TokenKind::Identifier &&
          notATypeName().count(stmt[i - 1].text) == 0) {
        open = i;
      }
      ++paren;
    } else if (t.text == ")") {
      --paren;
    }
    if (angle < 0) angle = 0;
  }
  if (open == stmt.size() || open == 0) return false;
  name = stmt[open - 1].text;
  if (open >= 3 && isPunct(stmt[open - 2], "::") &&
      stmt[open - 3].kind == TokenKind::Identifier) {
    qualifier = stmt[open - 3].text;
  }
  return true;
}

struct WalkResult {
  std::vector<RawFunction> functions;
  std::vector<std::string> mutableGlobals;
};

WalkResult walkScopes(const TokenList& code) {
  WalkResult out;
  enum class Scope { Namespace, Type, Function, Init };
  struct Entry {
    Scope kind;
    std::string typeName;
  };
  std::vector<Entry> scopes;
  TokenList stmt;
  std::size_t initDepth = 0;
  int parenDepth = 0;
  bool stmtHadBraceInit = false;
  int funcBraceDepth = 0;
  RawFunction current;

  const auto atNamespaceScope = [&] {
    return std::all_of(scopes.begin(), scopes.end(), [](const Entry& e) {
      return e.kind == Scope::Namespace;
    });
  };
  const auto innermostType = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::Type) return it->typeName;
    }
    return "";
  };
  const auto inFunctionScope = [&] {
    return std::any_of(scopes.begin(), scopes.end(), [](const Entry& e) {
      return e.kind == Scope::Function;
    });
  };

  const auto analyzeStatement = [&] {
    if (stmt.empty() || !atNamespaceScope()) return;
    if (nonVarStarters().count(stmt.front().text) > 0) return;
    bool sawConst = false, sawParenBeforeEq = false, sawEq = false;
    bool sawOperator = false;
    std::size_t eqIndex = stmt.size();
    int depth = 0;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      const Token& t = stmt[i];
      if (t.kind == TokenKind::Identifier) {
        if (t.text == "const" || t.text == "constexpr" ||
            t.text == "constinit" || t.text == "consteval")
          sawConst = true;
        if (t.text == "operator") sawOperator = true;
      }
      if (t.kind != TokenKind::Punct) continue;
      if (t.text == "(" || t.text == "[") {
        if (t.text == "(" && depth == 0 && !sawEq) sawParenBeforeEq = true;
        ++depth;
      } else if (t.text == ")" || t.text == "]") {
        --depth;
      } else if (t.text == "=" && depth == 0 && !sawEq) {
        sawEq = true;
        eqIndex = i;
      }
    }
    if (sawConst || sawOperator || sawParenBeforeEq) return;
    const bool definition =
        sawEq || stmtHadBraceInit ||
        (stmt.size() >= 2 && stmt.back().kind == TokenKind::Identifier);
    if (!definition) return;
    std::string name;
    if (sawEq && eqIndex > 0 &&
        stmt[eqIndex - 1].kind == TokenKind::Identifier) {
      name = stmt[eqIndex - 1].text;
    } else {
      for (auto it = stmt.rbegin(); it != stmt.rend(); ++it) {
        if (it->kind == TokenKind::Identifier) {
          name = it->text;
          break;
        }
      }
    }
    if (!name.empty() && notATypeName().count(name) == 0)
      out.mutableGlobals.push_back(name);
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (funcBraceDepth > 0) {
      if (isPunct(t, "{")) {
        ++funcBraceDepth;
      } else if (isPunct(t, "}")) {
        if (--funcBraceDepth == 0) {
          current.bodyEnd = i;
          out.functions.push_back(current);
        }
      }
      continue;
    }
    if (initDepth == 0) {
      if (isPunct(t, "(")) ++parenDepth;
      if (isPunct(t, ")") && parenDepth > 0) --parenDepth;
      if (parenDepth > 0) {
        stmt.push_back(t);
        continue;
      }
    }
    if (isPunct(t, "{")) {
      if (initDepth > 0) {
        ++initDepth;
        continue;
      }
      bool sawEq = false, sawParen = false, sawType = false, sawNs = false;
      std::string typeName;
      for (std::size_t p = 0; p < stmt.size(); ++p) {
        const Token& s = stmt[p];
        if (isIdent(s, "namespace")) sawNs = true;
        if (isIdent(s, "class") || isIdent(s, "struct") ||
            isIdent(s, "union") || isIdent(s, "enum")) {
          sawType = true;
          if (p + 1 < stmt.size() &&
              stmt[p + 1].kind == TokenKind::Identifier &&
              typeName.empty())
            typeName = stmt[p + 1].text;
        }
        if (isPunct(s, "=")) sawEq = true;
        if (isPunct(s, "(")) sawParen = true;
        if (isIdent(s, "extern")) sawNs = true;
      }
      Scope s = Scope::Function;
      if (sawNs) {
        s = Scope::Namespace;
      } else if (atNamespaceScope() && !sawParen && !sawType &&
                 (sawEq || (!stmt.empty() &&
                            stmt.back().kind == TokenKind::Identifier))) {
        s = Scope::Init;
        stmtHadBraceInit = true;
      } else if (sawType && !sawParen) {
        s = Scope::Type;
      }
      if (s == Scope::Init) {
        initDepth = 1;
        scopes.push_back({s, ""});
        continue;
      }
      if (s == Scope::Function && !inFunctionScope()) {
        std::string name, qualifier;
        if (extractFunctionName(stmt, name, qualifier)) {
          current = RawFunction{};
          current.name = name;
          current.qualifier =
              qualifier.empty() ? innermostType() : qualifier;
          current.declLine = stmt.front().line;
          current.bodyLine = t.line;
          current.bodyBegin = i + 1;
          current.declTokens = stmt;
          funcBraceDepth = 1;
          stmt.clear();
          stmtHadBraceInit = false;
          continue;
        }
      }
      scopes.push_back({s, typeName});
      stmt.clear();
      continue;
    }
    if (isPunct(t, "}")) {
      if (initDepth > 0) {
        --initDepth;
        if (initDepth > 0) continue;
      }
      if (!scopes.empty()) {
        const Scope closed = scopes.back().kind;
        scopes.pop_back();
        if (closed == Scope::Init) continue;
      }
      stmt.clear();
      stmtHadBraceInit = false;
      continue;
    }
    if (initDepth > 0) continue;
    if (isPunct(t, ";")) {
      analyzeStatement();
      stmt.clear();
      stmtHadBraceInit = false;
      continue;
    }
    stmt.push_back(t);
  }
  return out;
}

// ---------------------------------------------------------------------
// Per-function fact extraction
// ---------------------------------------------------------------------

struct DeclaredVar {
  std::string type;      ///< last component of the declared type
  std::size_t declIdx;   ///< absolute code index (0 for parameters)
  bool byValue = false;  ///< no & or * between type and name
};

/// Collects `Type [*&const]* name` declaration patterns from a token
/// span. `base` offsets recorded indices (0 marks parameters, i.e.
/// "declared before every loop").
void collectDecls(const TokenList& span, std::size_t begin, std::size_t end,
                  std::size_t base,
                  std::map<std::string, DeclaredVar>& vars) {
  for (std::size_t i = begin; i + 1 < end; ++i) {
    const Token& a = span[i];
    if (a.kind != TokenKind::Identifier ||
        notATypeName().count(a.text) > 0)
      continue;
    std::size_t j = i + 1;
    if (j < end && isPunct(span[j], "<")) {
      j = skipAngles(span, j);
      if (j >= end) continue;
    }
    bool byValue = true;
    while (j < end && (isPunct(span[j], "&") || isPunct(span[j], "&&") ||
                       isPunct(span[j], "*") || isIdent(span[j], "const"))) {
      if (span[j].kind == TokenKind::Punct) byValue = false;
      ++j;
    }
    if (j + 1 > end || j >= end) continue;
    const Token& v = span[j];
    if (v.kind != TokenKind::Identifier ||
        notATypeName().count(v.text) > 0)
      continue;
    if (j + 1 >= end) continue;
    const Token& after = span[j + 1];
    if (!(isPunct(after, "=") || isPunct(after, ";") ||
          isPunct(after, ",") || isPunct(after, ")") ||
          isPunct(after, "{") || isPunct(after, "(")))
      continue;
    // First declaration wins (shadowing is out of scope).
    if (vars.count(v.text) == 0)
      vars[v.text] = {a.text, base == 0 ? 0 : base + i, byValue};
  }
}

/// Matches the closing paren for code[open] == "(".
std::size_t matchParen(const TokenList& code, std::size_t open,
                       std::size_t end) {
  int depth = 0;
  for (std::size_t j = open; j < end; ++j) {
    if (isPunct(code[j], "(")) ++depth;
    if (isPunct(code[j], ")") && --depth == 0) return j;
  }
  return end;
}

struct LoopRange {
  std::size_t begin = 0;  ///< index of the loop keyword
  std::size_t end = 0;    ///< one past the loop body
  std::size_t headerBegin = 0, headerEnd = 0;  ///< the (...) condition
};

std::vector<LoopRange> findLoops(const TokenList& code, std::size_t begin,
                                 std::size_t end) {
  std::vector<LoopRange> loops;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!(isIdent(code[i], "for") || isIdent(code[i], "while")) ||
        !isPunct(code[i + 1], "("))
      continue;
    const std::size_t close = matchParen(code, i + 1, end);
    if (close >= end) continue;
    std::size_t bodyEnd = close + 1;
    if (bodyEnd < end && isPunct(code[bodyEnd], "{")) {
      int depth = 0;
      for (std::size_t j = bodyEnd; j < end; ++j) {
        if (isPunct(code[j], "{")) ++depth;
        if (isPunct(code[j], "}") && --depth == 0) {
          bodyEnd = j + 1;
          break;
        }
      }
    } else {
      while (bodyEnd < end && !isPunct(code[bodyEnd], ";")) ++bodyEnd;
    }
    loops.push_back({i, bodyEnd, i + 1, close});
  }
  return loops;
}

/// Ranges of if-conditions (and min/clamp call arguments): occurrences
/// of a decoded length inside one count as a bounds check for R8.
std::vector<std::pair<std::size_t, std::size_t>> findGuardRanges(
    const TokenList& code, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    const bool ifCond = isIdent(code[i], "if") && isPunct(code[i + 1], "(");
    const bool clampCall =
        (isIdent(code[i], "min") || isIdent(code[i], "max") ||
         isIdent(code[i], "clamp")) &&
        isPunct(code[i + 1], "(");
    if (!ifCond && !clampCall) continue;
    const std::size_t close = matchParen(code, i + 1, end);
    if (close < end) ranges.push_back({i + 1, close});
  }
  return ranges;
}

bool inAnyRange(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
    std::size_t idx) {
  for (const auto& [b, e] : ranges) {
    if (idx > b && idx < e) return true;
  }
  return false;
}

/// Innermost call whose argument list contains code[k]; empty when the
/// occurrence is not a call argument.
std::string enclosingCallName(const TokenList& code, std::size_t begin,
                              std::size_t k) {
  int depth = 0;
  for (std::size_t j = k; j-- > begin;) {
    const Token& t = code[j];
    if (isPunct(t, ")")) {
      ++depth;
      continue;
    }
    if (isPunct(t, "(")) {
      if (depth > 0) {
        --depth;
        continue;
      }
      if (j > begin && code[j - 1].kind == TokenKind::Identifier) {
        if (notACall().count(code[j - 1].text) > 0) return "";
        return code[j - 1].text;
      }
      continue;  // grouping paren; keep scanning outward
    }
    if (isPunct(t, ";") || isPunct(t, "{") || isPunct(t, "}")) return "";
  }
  return "";
}

void extractFunctionFacts(const TokenList& code, const RawFunction& rf,
                          const Directives& dirs, const std::string& relPath,
                          bool liveFile, FunctionInfo& fn,
                          std::vector<Finding>& localFindings) {
  const std::size_t begin = rf.bodyBegin;
  const std::size_t end = rf.bodyEnd;

  std::map<std::string, DeclaredVar> vars;
  collectDecls(rf.declTokens, 0, rf.declTokens.size(), 0, vars);
  collectDecls(code, begin, end, 1, vars);

  // Receivers that see a .reserve() anywhere in this function.
  std::set<std::string> reservedRecvs;
  for (std::size_t i = begin; i + 2 < end; ++i) {
    if (code[i].kind == TokenKind::Identifier &&
        (isPunct(code[i + 1], ".") || isPunct(code[i + 1], "->")) &&
        isIdent(code[i + 2], "reserve")) {
      reservedRecvs.insert(code[i].text);
    }
  }

  // Allocations inside a `throw` statement are error-path construction
  // (formatting the exception message on the way out), never part of the
  // steady-state hot loop; R5 ignores them.
  const auto inThrow = [&](std::size_t i) {
    std::size_t first = begin;
    for (std::size_t j = i; j > begin; --j) {
      const Token& p = code[j - 1];
      if (isPunct(p, ";") || isPunct(p, "{") || isPunct(p, "}")) {
        first = j;
        break;
      }
    }
    // Hop over brace-less guards: `if (cond) throw ...`, `else throw ...`.
    while (first < i) {
      if (isIdent(code[first], "else")) {
        ++first;
        continue;
      }
      if (isIdent(code[first], "if") && first + 1 < i &&
          isPunct(code[first + 1], "(")) {
        first = matchParen(code, first + 1, i) + 1;
        continue;
      }
      break;
    }
    return first < i && isIdent(code[first], "throw");
  };

  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::Identifier) continue;
    const bool inSetup = lineInSetup(dirs, t.line);
    const Token* prev = i > begin ? &code[i - 1] : nullptr;
    const Token* next = i + 1 < end ? &code[i + 1] : nullptr;

    // Allocation expressions (R5 sites).
    if (t.text == "new" && (prev == nullptr || !isIdent(*prev, "operator")) &&
        !inThrow(i)) {
      fn.allocs.push_back({t.line, inSetup, "operator new"});
      continue;
    }
    if (next != nullptr && isPunct(*next, "(") &&
        mallocFamily().count(t.text) > 0 &&
        (prev == nullptr ||
         (!isPunct(*prev, ".") && !isPunct(*prev, "->")))) {
      fn.allocs.push_back({t.line, inSetup, t.text + "()"});
    }
    if (next != nullptr && (isPunct(*next, "(") || isPunct(*next, "<")) &&
        allocatingCalls().count(t.text) > 0 && !inThrow(i)) {
      fn.allocs.push_back({t.line, inSetup, t.text + "()"});
    }
    if ((t.text == "push_back" || t.text == "emplace_back") &&
        prev != nullptr && (isPunct(*prev, ".") || isPunct(*prev, "->")) &&
        next != nullptr && isPunct(*next, "(")) {
      const std::string recv =
          i >= begin + 2 && code[i - 2].kind == TokenKind::Identifier
              ? code[i - 2].text
              : "";
      if (recv.empty() || reservedRecvs.count(recv) == 0) {
        fn.allocs.push_back(
            {t.line, inSetup,
             t.text + (recv.empty() ? "" : " on '" + recv + "'") +
                 " without a reserve() in the same function"});
      }
    }

    // Non-const static locals (R7 sites).
    if (t.text == "static") {
      bool exempt = false;
      for (std::size_t j = i + 1; j < std::min(i + 16, end); ++j) {
        if (isPunct(code[j], ";") || isPunct(code[j], "=") ||
            isPunct(code[j], "{"))
          break;
        if (isIdent(code[j], "const") || isIdent(code[j], "constexpr") ||
            isIdent(code[j], "constinit") ||
            isIdent(code[j], "thread_local")) {
          exempt = true;
          break;
        }
      }
      if (!exempt) fn.staticLocalLines.push_back(t.line);
      continue;
    }

    // Call sites.
    if (next != nullptr && isPunct(*next, "(") &&
        notACall().count(t.text) == 0 && t.text != "new" &&
        t.text != "delete") {
      CallSite c;
      c.name = t.text;
      c.line = t.line;
      c.inSetup = inSetup;
      if (prev != nullptr && (isPunct(*prev, ".") || isPunct(*prev, "->"))) {
        c.member = true;
        if (i >= begin + 2) {
          const Token& recv = code[i - 2];
          if (isIdent(recv, "this")) {
            c.recvType = rf.qualifier;
          } else if (recv.kind == TokenKind::Identifier) {
            const auto it = vars.find(recv.text);
            if (it != vars.end()) c.recvType = it->second.type;
          }
        }
      } else if (prev != nullptr && isPunct(*prev, "::") &&
                 i >= begin + 2 &&
                 code[i - 2].kind == TokenKind::Identifier) {
        c.qualifier = code[i - 2].text;
      }
      fn.calls.push_back(c);
    }

    // Writes to bare identifiers (R7 matches against globals later).
    if (next != nullptr && isAssignOp(*next) && !isPunct(*next, "++") &&
        !isPunct(*next, "--")) {
      if (prev != nullptr && (isPunct(*prev, ".") || isPunct(*prev, "->"))) {
        if (i >= begin + 2 && code[i - 2].kind == TokenKind::Identifier)
          fn.writes.push_back({code[i - 2].text, t.line});
      } else if (prev == nullptr || !isPunct(*prev, "::")) {
        fn.writes.push_back({t.text, t.line});
      }
    } else if ((next != nullptr &&
                (isPunct(*next, "++") || isPunct(*next, "--"))) ||
               (prev != nullptr &&
                (isPunct(*prev, "++") || isPunct(*prev, "--")))) {
      if (prev == nullptr ||
          (!isPunct(*prev, ".") && !isPunct(*prev, "->") &&
           !isPunct(*prev, "::"))) {
        fn.writes.push_back({t.text, t.line});
      }
    }
  }

  // Local allocating-container declarations (R5 sites): by-value locals
  // of std container/stream types declared in the body.
  for (const auto& [name, var] : vars) {
    if (var.declIdx == 0 || !var.byValue) continue;
    if (allocatingTypes().count(var.type) == 0) continue;
    const std::size_t idx = var.declIdx - 1;
    if (idx < begin || idx >= end) continue;
    fn.allocs.push_back({code[idx].line, lineInSetup(dirs, code[idx].line),
                         "local std::" + var.type + " '" + name +
                             "' constructed in the body"});
  }

  // ---- R6: RNG stream discipline (per-function) --------------------
  std::map<std::string, std::size_t> rngDecls;
  for (const auto& [name, var] : vars) {
    if (var.type == "Rng") rngDecls[name] = var.declIdx;
  }
  for (std::size_t i = begin; i + 4 < end; ++i) {
    // `auto sub = master.fork()` — typed via the fork result.
    if (code[i].kind == TokenKind::Identifier && isPunct(code[i + 1], "=") &&
        code[i + 2].kind == TokenKind::Identifier &&
        (isPunct(code[i + 3], ".") || isPunct(code[i + 3], "->")) &&
        (isIdent(code[i + 4], "fork") || isIdent(code[i + 4], "split"))) {
      if (rngDecls.count(code[i].text) == 0) rngDecls[code[i].text] = i;
    }
  }
  if (!rngDecls.empty()) {
    const std::vector<LoopRange> loops = findLoops(code, begin, end);
    for (const auto& [rng, declIdx] : rngDecls) {
      struct Event {
        std::size_t idx;
        bool fork;
        std::string callee;
        std::size_t line;
      };
      std::vector<Event> events;
      for (std::size_t i = begin; i < end; ++i) {
        if (!isIdent(code[i], rng)) continue;
        const Token* prev = i > begin ? &code[i - 1] : nullptr;
        const Token* next = i + 1 < end ? &code[i + 1] : nullptr;
        if (prev != nullptr && (isPunct(*prev, ".") || isPunct(*prev, "->") ||
                                isPunct(*prev, "::")))
          continue;  // member of another object
        if (next != nullptr && (isPunct(*next, ".") || isPunct(*next, "->"))) {
          // Method call on the rng itself: a draw, or a fork.
          if (i + 2 < end && (isIdent(code[i + 2], "fork") ||
                              isIdent(code[i + 2], "split"))) {
            events.push_back({i, true, "", code[i].line});
          }
          continue;
        }
        const std::string callee = enclosingCallName(code, begin, i);
        if (callee.empty() || callee == rng) continue;
        events.push_back({i, false, callee, code[i].line});
      }
      std::sort(events.begin(), events.end(),
                [](const Event& a, const Event& b) { return a.idx < b.idx; });

      // (a) two different callees with no fork in between.
      std::set<std::string> calleesSinceFork;
      for (const Event& e : events) {
        if (e.fork) {
          calleesSinceFork.clear();
          continue;
        }
        if (!calleesSinceFork.empty() &&
            calleesSinceFork.count(e.callee) == 0) {
          localFindings.push_back(
              {relPath, e.line, "R6",
               "util::Rng '" + rng + "' is passed to '" + e.callee +
                   "' after already feeding another callee with no "
                   "intervening fork(); sibling consumers must draw from "
                   "forked streams so draw order stays reproducible"});
        }
        calleesSinceFork.insert(e.callee);
      }

      // (b) passed into loop iterations without a per-iteration fork.
      std::set<std::size_t> flaggedLoops;
      for (const Event& e : events) {
        if (e.fork) continue;
        const LoopRange* inner = nullptr;
        for (const LoopRange& l : loops) {
          if (e.idx > l.begin && e.idx < l.end &&
              (declIdx < l.begin || declIdx >= l.end)) {
            if (inner == nullptr || l.begin > inner->begin) inner = &l;
          }
        }
        if (inner == nullptr || flaggedLoops.count(inner->begin) > 0)
          continue;
        bool forkInLoop = false;
        for (const Event& f : events) {
          if (f.fork && f.idx > inner->begin && f.idx < inner->end) {
            forkInLoop = true;
            break;
          }
        }
        if (forkInLoop) continue;
        flaggedLoops.insert(inner->begin);
        localFindings.push_back(
            {relPath, e.line, "R6",
             "util::Rng '" + rng + "' is passed to '" + e.callee +
                 "' inside a loop with no per-iteration fork(); iteration "
                 "count changes would shift every later draw — fork a "
                 "stream per iteration (util::Rng sub = " + rng +
                 ".fork())"});
      }
    }
  }

  // ---- R8: wire-decode bounds (src/live/ only) ---------------------
  if (liveFile) {
    struct LenVar {
      std::string name;
      std::size_t assignIdx;
    };
    std::vector<LenVar> lenVars;
    for (std::size_t i = begin; i + 1 < end; ++i) {
      if (code[i].kind != TokenKind::Identifier || !isPunct(code[i + 1], "="))
        continue;
      // Scan the initializer (to the `;`) for a cursor read `.m(`.
      for (std::size_t j = i + 2; j + 2 < end && !isPunct(code[j], ";");
           ++j) {
        if ((isPunct(code[j], ".") || isPunct(code[j], "->")) &&
            code[j + 1].kind == TokenKind::Identifier &&
            isCursorRead(code[j + 1].text) && isPunct(code[j + 2], "(")) {
          lenVars.push_back({code[i].text, i});
          break;
        }
      }
    }
    if (!lenVars.empty()) {
      const auto guardRanges = findGuardRanges(code, begin, end);
      const std::vector<LoopRange> loops = findLoops(code, begin, end);
      for (const LenVar& lv : lenVars) {
        bool guarded = false;
        for (std::size_t i = lv.assignIdx + 1; i < end; ++i) {
          if (!isIdent(code[i], lv.name)) continue;
          const Token* prev = i > begin ? &code[i - 1] : nullptr;
          if (prev != nullptr &&
              (isPunct(*prev, ".") || isPunct(*prev, "->") ||
               isPunct(*prev, "::")))
            continue;
          if (inAnyRange(guardRanges, i)) {
            guarded = true;
            continue;
          }
          if (guarded) continue;
          // Qualifying use: reserve/resize argument, index, loop bound.
          std::string kind;
          const std::string call = enclosingCallName(code, begin, i);
          if (call == "reserve" || call == "resize") kind = "a " + call +
                                                           "() size";
          if (kind.empty()) {
            int depth = 0;
            for (std::size_t j = i; j-- > begin;) {
              if (isPunct(code[j], "]")) ++depth;
              else if (isPunct(code[j], "[")) {
                if (depth == 0) {
                  kind = "an index";
                  break;
                }
                --depth;
              } else if (isPunct(code[j], ";") || isPunct(code[j], "{") ||
                         isPunct(code[j], "}")) {
                break;
              }
            }
          }
          if (kind.empty()) {
            for (const LoopRange& l : loops) {
              if (i > l.headerBegin && i < l.headerEnd) {
                kind = "a loop bound";
                break;
              }
            }
          }
          if (kind.empty()) continue;
          localFindings.push_back(
              {relPath, code[i].line, "R8",
               "decoded length '" + lv.name + "' is used as " + kind +
                   " with no preceding bounds check; compare it against a "
                   "cap or remaining() in an if before trusting it"});
          break;  // one finding per variable
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Link phase
// ---------------------------------------------------------------------

struct FnRef {
  std::size_t file = 0;
  std::size_t fn = 0;
  bool operator<(const FnRef& o) const {
    return file != o.file ? file < o.file : fn < o.fn;
  }
};

}  // namespace

void sortFindings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
}

FileSummary summarizeSource(const std::string& relPath,
                            std::string_view source) {
  FileSummary out;
  out.path = relPath;

  const FileContext file = makeFileContext(relPath, source);
  const TokenList& code = file.code;
  Directives dirs = parseDirectives(relPath, file.tokens, splitLines(source));
  out.suppressions = std::move(dirs.suppressions);
  out.localFindings = runRules(file);
  for (Finding& f : dirs.malformed) out.localFindings.push_back(std::move(f));

  const WalkResult walked = walkScopes(code);
  out.mutableGlobals = walked.mutableGlobals;

  const bool liveFile = relPath.rfind("src/live/", 0) == 0;
  std::set<std::size_t> boundHot, boundWorker, boundCold;
  for (const RawFunction& rf : walked.functions) {
    FunctionInfo fn;
    fn.name = rf.name;
    fn.qualifier = rf.qualifier;
    fn.declLine = rf.declLine;
    fn.bodyLine = rf.bodyLine;
    const auto bind = [&](const std::vector<std::size_t>& targets,
                          std::set<std::size_t>& bound) {
      bool hit = false;
      for (const std::size_t l : targets) {
        if (l < rf.declLine || l > rf.bodyLine) continue;
        hit = true;
        bound.insert(l);
      }
      return hit;
    };
    fn.hot = bind(dirs.hotLines, boundHot);
    fn.worker = bind(dirs.workerLines, boundWorker);
    fn.cold = bind(dirs.coldLines, boundCold);
    extractFunctionFacts(code, rf, dirs, relPath, liveFile, fn,
                         out.localFindings);
    out.functions.push_back(std::move(fn));
  }

  const auto reportUnbound = [&](const std::vector<std::size_t>& targets,
                                 const std::set<std::size_t>& bound,
                                 const char* which) {
    for (const std::size_t l : targets) {
      if (bound.count(l) > 0) continue;
      out.localFindings.push_back(
          {relPath, l, "R0",
           std::string("`dgcheck: ") + which +
               "` does not attach to a function definition here; place it "
               "on (or directly above) the definition's first line"});
    }
  };
  reportUnbound(dirs.hotLines, boundHot, "hot");
  reportUnbound(dirs.workerLines, boundWorker, "worker");
  reportUnbound(dirs.coldLines, boundCold, "cold");

  return out;
}

std::vector<Finding> linkAndCheck(const std::vector<FileSummary>& files) {
  std::vector<Finding> out;

  std::map<std::string, std::vector<FnRef>> byName;
  std::set<std::string> knownQualifiers;
  std::set<std::string> globals;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    for (std::size_t gi = 0; gi < files[fi].mutableGlobals.size(); ++gi)
      globals.insert(files[fi].mutableGlobals[gi]);
    for (std::size_t ni = 0; ni < files[fi].functions.size(); ++ni) {
      byName[files[fi].functions[ni].name].push_back({fi, ni});
      if (!files[fi].functions[ni].qualifier.empty())
        knownQualifiers.insert(files[fi].functions[ni].qualifier);
    }
  }
  const auto fnOf = [&](const FnRef& r) -> const FunctionInfo& {
    return files[r.file].functions[r.fn];
  };

  const auto resolve = [&](const CallSite& c) -> std::vector<FnRef> {
    const auto it = byName.find(c.name);
    if (it == byName.end()) return {};
    const std::vector<FnRef>& candidates = it->second;
    if (!c.qualifier.empty()) {
      if (c.qualifier == "std") return {};
      std::vector<FnRef> filtered;
      for (const FnRef& r : candidates) {
        if (fnOf(r).qualifier == c.qualifier) filtered.push_back(r);
      }
      if (!filtered.empty()) return filtered;
      return candidates;  // namespace-qualified free function
    }
    if (c.member) {
      if (!c.recvType.empty()) {
        if (externalRecvTypes().count(c.recvType) > 0) return {};
        std::vector<FnRef> filtered;
        for (const FnRef& r : candidates) {
          if (fnOf(r).qualifier == c.recvType) filtered.push_back(r);
        }
        if (!filtered.empty()) return filtered;
      }
      // Unknown receiver (or no exact match → virtual dispatch through a
      // base/interface type): fall back to every candidate, except for
      // container-idiom names where that would link .begin()/.size() on
      // some vector to an unrelated repo method.
      if (genericMemberNames().count(c.name) > 0) return {};
      return candidates;
    }
    return candidates;
  };

  const auto traverse = [&](bool worker, std::set<FnRef>& visited,
                            std::map<FnRef, FnRef>& parent) {
    std::vector<FnRef> queue;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      for (std::size_t ni = 0; ni < files[fi].functions.size(); ++ni) {
        const FunctionInfo& fn = files[fi].functions[ni];
        if ((worker && fn.worker) || (!worker && fn.hot)) {
          const FnRef r{fi, ni};
          visited.insert(r);
          queue.push_back(r);
        }
      }
    }
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const FnRef cur = queue[qi];
      for (const CallSite& c : fnOf(cur).calls) {
        if (c.inSetup) continue;
        for (const FnRef& tgt : resolve(c)) {
          if (fnOf(tgt).cold) continue;
          if (visited.insert(tgt).second) {
            parent[tgt] = cur;
            queue.push_back(tgt);
          }
        }
      }
    }
  };

  const auto pathTo = [&](const FnRef& r,
                          const std::map<FnRef, FnRef>& parent) {
    std::vector<std::string> chain;
    FnRef cur = r;
    for (int hop = 0; hop < 8; ++hop) {
      const FunctionInfo& fn = fnOf(cur);
      chain.push_back(fn.qualifier.empty() ? fn.name
                                           : fn.qualifier + "::" + fn.name);
      const auto it = parent.find(cur);
      if (it == parent.end()) break;
      cur = it->second;
    }
    std::reverse(chain.begin(), chain.end());
    std::string out2;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i > 0) out2 += " -> ";
      out2 += chain[i];
    }
    return out2;
  };

  // R5: allocations reachable from hot roots.
  {
    std::set<FnRef> visited;
    std::map<FnRef, FnRef> parent;
    traverse(false, visited, parent);
    for (const FnRef& r : visited) {
      const FunctionInfo& fn = fnOf(r);
      for (const AllocSite& a : fn.allocs) {
        if (a.inSetup) continue;
        out.push_back({files[r.file].path, a.line, "R5",
                       "allocation on a dgcheck:hot path: " + a.what +
                           " (reached via " + pathTo(r, parent) +
                           "); hoist it into a setup region / workspace, "
                           "mark the callee `// dgcheck: cold: <why>`, or "
                           "suppress with a reason"});
      }
    }
  }

  // R7: shared mutable state reachable from worker roots.
  {
    std::set<FnRef> visited;
    std::map<FnRef, FnRef> parent;
    traverse(true, visited, parent);
    for (const FnRef& r : visited) {
      const FunctionInfo& fn = fnOf(r);
      for (const std::size_t line : fn.staticLocalLines) {
        out.push_back({files[r.file].path, line, "R7",
                       "non-const function-local static in worker-reachable "
                       "code (reached via " + pathTo(r, parent) +
                           "); it is shared across (flow, scheme, chunk) "
                           "tasks — use a Workspace/per-task parameter"});
      }
      for (const WriteSite& w : fn.writes) {
        if (globals.count(w.name) == 0) continue;
        out.push_back({files[r.file].path, w.line, "R7",
                       "write to file-scope mutable global '" + w.name +
                           "' in worker-reachable code (reached via " +
                           pathTo(r, parent) +
                           "); workers may only mutate Workspace/per-task "
                           "state"});
      }
    }
  }

  sortFindings(out);
  return out;
}

}  // namespace dg::lint
