#include "rules.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <string_view>

namespace dg::lint {
namespace {

using TokenList = std::vector<Token>;

/// Files whose output must be byte-stable: exporters and everything that
/// merges or reports in a defined order (the R2/R4 scope). Matched as
/// substrings of the repo-relative path.
constexpr std::string_view kOrderedScope[] = {
    "src/telemetry/",          "src/playback/experiment",
    "src/playback/report",     "src/playback/classification",
    "src/playback/playback",   "src/playback/memo_cache",
    "src/routing/decision_memo", "src/chaos/invariants",
    "src/chaos/bridge",        "src/store/",
    "src/live/",               "src/topogen/",
    "src/mcast/",
};

/// The one file allowed to touch raw wall clocks (R1).
constexpr std::string_view kClockAllow = "src/util/wall_clock";

// ---------------------------------------------------------------------
// R1: banned nondeterminism sources
// ---------------------------------------------------------------------

const std::set<std::string, std::less<>> kBannedCalls = {
    // Callable only: flagged when directly followed by `(`.
    "rand",        "srand",         "clock",     "gettimeofday",
    "clock_gettime", "localtime",   "gmtime",    "mktime",
    "timespec_get", "getenv",       "secure_getenv",
};

const std::set<std::string, std::less<>> kBannedClockIdents = {
    // Flagged wherever they appear (type or call position).
    "system_clock", "steady_clock", "high_resolution_clock",
};

/// Keywords that can directly precede a call expression; any other
/// identifier before `name(` means `name` is being *declared* with that
/// identifier as its return type (e.g. `long time() const`), which R1
/// does not flag.
const std::set<std::string, std::less<>> kExprKeywords = {
    "return", "co_return", "co_yield", "case", "else", "do",
};

void runR1(const FileContext& file, const TokenList& code,
           std::vector<Finding>& out) {
  if (!file.libraryCode) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::Identifier) continue;
    const bool memberAccess =
        i > 0 && (isPunct(code[i - 1], ".") || isPunct(code[i - 1], "->"));
    if (memberAccess) continue;  // obj.time(), registry.clock() are fine
    const bool declContext = i > 0 &&
                             code[i - 1].kind == TokenKind::Identifier &&
                             kExprKeywords.count(code[i - 1].text) == 0;
    if (declContext) continue;  // `long time() const` declares, not calls

    if (isIdent(t, "random_device")) {
      out.push_back({file.path, t.line, "R1",
                     "std::random_device is nondeterministic; seed a "
                     "util::Rng from configuration instead"});
      continue;
    }
    if (kBannedClockIdents.count(t.text) > 0) {
      if (file.clockAllowed) continue;
      out.push_back({file.path, t.line, "R1",
                     "raw <chrono> clock '" + t.text +
                         "' outside the wall-clock shim; use "
                         "util::SimTime or util/wall_clock.hpp"});
      continue;
    }
    if (isIdent(t, "time")) {
      // Only `time(...)` / `std::time(...)` — not SimTime, not members.
      const bool call = i + 1 < code.size() && isPunct(code[i + 1], "(");
      bool qualifiedOther = false;
      if (i >= 2 && isPunct(code[i - 1], "::") && !isIdent(code[i - 2], "std"))
        qualifiedOther = true;  // e.g. some_ns::time — not libc time()
      if (call && !qualifiedOther) {
        out.push_back({file.path, t.line, "R1",
                       "wall-clock time() call; simulation code must use "
                       "util::SimTime (or the wall-clock shim for "
                       "benchmarks)"});
      }
      continue;
    }
    if (kBannedCalls.count(t.text) > 0) {
      const bool call = i + 1 < code.size() && isPunct(code[i + 1], "(");
      bool qualifiedOther = false;
      if (i >= 2 && isPunct(code[i - 1], "::") && !isIdent(code[i - 2], "std"))
        qualifiedOther = true;
      if (call && !qualifiedOther) {
        out.push_back({file.path, t.line, "R1",
                       "banned nondeterminism source '" + t.text +
                           "()'; route randomness through util::Rng and "
                           "time through util::SimTime / the wall-clock "
                           "shim, and pass configuration explicitly "
                           "instead of getenv"});
      }
    }
  }
}

/// R1 inside `#define` bodies: macro expansions smuggle banned calls
/// past the token rules (the call only appears at expansion sites, which
/// may be in excluded contexts), so the replacement text is re-lexed and
/// scanned with the same matcher. Findings anchor at the directive's
/// first line, which is also where suppressions on any continuation line
/// resolve to.
void runR1Defines(const FileContext& file, std::vector<Finding>& out) {
  if (!file.libraryCode) return;
  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::Preprocessor) continue;
    std::string text = t.text;
    if (!text.empty() && text[0] == '#') text = text.substr(1);
    const std::size_t word = text.find_first_not_of(" \t");
    if (word == std::string::npos || text.compare(word, 6, "define") != 0)
      continue;
    const TokenList body = codeTokens(tokenize(text.substr(word + 6)));
    // Skip the macro's own name (and parameter list, for function-like
    // macros) — `#define time(x) ...` defines, it does not call.
    std::size_t start = 0;
    if (start < body.size() && body[start].kind == TokenKind::Identifier) {
      ++start;
      if (start < body.size() && isPunct(body[start], "(")) {
        int depth = 0;
        for (; start < body.size(); ++start) {
          if (isPunct(body[start], "(")) ++depth;
          if (isPunct(body[start], ")") && --depth == 0) {
            ++start;
            break;
          }
        }
      }
    }
    for (std::size_t i = start; i < body.size(); ++i) {
      const Token& b = body[i];
      if (b.kind != TokenKind::Identifier) continue;
      if (i > 0 && (isPunct(body[i - 1], ".") || isPunct(body[i - 1], "->")))
        continue;
      bool qualifiedOther = false;
      if (i >= 2 && isPunct(body[i - 1], "::") &&
          !isIdent(body[i - 2], "std"))
        qualifiedOther = true;
      if (isIdent(b, "random_device") && !qualifiedOther) {
        out.push_back({file.path, t.line, "R1",
                       "std::random_device in a macro definition; seed a "
                       "util::Rng from configuration instead"});
        continue;
      }
      if (kBannedClockIdents.count(b.text) > 0 && !file.clockAllowed) {
        out.push_back({file.path, t.line, "R1",
                       "raw <chrono> clock '" + b.text +
                           "' in a macro definition outside the wall-clock "
                           "shim; use util::SimTime or util/wall_clock.hpp"});
        continue;
      }
      const bool call = i + 1 < body.size() && isPunct(body[i + 1], "(");
      if (call && !qualifiedOther &&
          (isIdent(b, "time") || kBannedCalls.count(b.text) > 0)) {
        out.push_back({file.path, t.line, "R1",
                       "banned nondeterminism source '" + b.text +
                           "()' in a macro definition; route randomness "
                           "through util::Rng and time through "
                           "util::SimTime / the wall-clock shim"});
      }
    }
  }
}

// ---------------------------------------------------------------------
// Shared unordered-container tracking for R2 / R4
// ---------------------------------------------------------------------

const std::set<std::string, std::less<>> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "flat_hash_map", "flat_hash_set",
};

/// Skips a balanced template argument list starting at code[i] == "<".
/// Returns the index one past the closing ">" (handles ">>" closing two
/// levels), or tokens.size() when unbalanced.
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
      return code.size();  // not actually a template argument list
    }
  }
  return code.size();
}

struct UnorderedNames {
  std::set<std::string, std::less<>> variables;  ///< declared of hash type
  std::set<std::string, std::less<>> aliases;    ///< using X = unordered_...
};

/// Collects names declared with an unordered container type (members,
/// locals, params) plus `using`/`typedef` aliases of such types, then
/// variables declared via those aliases. Purely lexical: declarations in
/// other files are invisible, which is the documented limit of R2/R4.
UnorderedNames collectUnordered(const TokenList& code) {
  UnorderedNames names;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Token& t = code[i];
      const bool hashType = t.kind == TokenKind::Identifier &&
                            kUnorderedTypes.count(t.text) > 0;
      const bool aliasType = t.kind == TokenKind::Identifier &&
                             names.aliases.count(t.text) > 0;
      if (!hashType && !aliasType) continue;

      // `using NAME = ...unordered_map<...>...;` — scan backwards for
      // the alias pattern within the current statement.
      bool isAliasDef = false;
      for (std::size_t back = i; back-- > 0;) {
        const Token& b = code[back];
        if (isPunct(b, ";") || isPunct(b, "{") || isPunct(b, "}")) break;
        if (isIdent(b, "using") || isIdent(b, "typedef")) {
          // `using NAME =`: NAME is right after `using`.
          if (back + 1 < code.size() &&
              code[back + 1].kind == TokenKind::Identifier) {
            names.aliases.insert(code[back + 1].text);
          }
          isAliasDef = true;
          break;
        }
      }
      if (isAliasDef) continue;

      // Otherwise: a declaration `unordered_map<K,V> [*&]* NAME ...`.
      std::size_t j = i + 1;
      if (j < code.size() && isPunct(code[j], "<")) j = skipAngles(code, j);
      while (j < code.size() &&
             (isPunct(code[j], "*") || isPunct(code[j], "&") ||
              isIdent(code[j], "const")))
        ++j;
      if (j < code.size() && code[j].kind == TokenKind::Identifier)
        names.variables.insert(code[j].text);
    }
    // Second pass resolves variables declared via aliases found late in
    // pass one (e.g. alias in a header section above its use).
  }
  // Reference bindings: `auto& NAME = <unordered variable>;`
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (!isIdent(code[i], "auto")) continue;
    std::size_t j = i + 1;
    while (j < code.size() &&
           (isPunct(code[j], "&") || isPunct(code[j], "*") ||
            isIdent(code[j], "const")))
      ++j;
    if (j + 2 >= code.size() || code[j].kind != TokenKind::Identifier ||
        !isPunct(code[j + 1], "="))
      continue;
    const Token& rhs = code[j + 2];
    if (rhs.kind == TokenKind::Identifier &&
        names.variables.count(rhs.text) > 0) {
      names.variables.insert(code[j].text);
    }
  }
  return names;
}

/// One `for (... : range)` loop whose range mentions an unordered name.
struct UnorderedLoop {
  std::size_t forLine;    ///< line of the `for` keyword
  std::size_t bodyBegin;  ///< code-token index of first body token
  std::size_t bodyEnd;    ///< one past last body token
};

std::vector<UnorderedLoop> findUnorderedLoops(const TokenList& code,
                                              const UnorderedNames& names) {
  std::vector<UnorderedLoop> loops;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (!isIdent(code[i], "for") || !isPunct(code[i + 1], "(")) continue;
    // Find the range-for `:` and the closing `)` at depth 1.
    int depth = 0;
    std::size_t colon = 0, close = 0;
    for (std::size_t j = i + 1; j < code.size(); ++j) {
      if (isPunct(code[j], "(")) ++depth;
      if (isPunct(code[j], ")")) {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
      if (depth == 1 && isPunct(code[j], ":") && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0) continue;  // classic for / unbalanced

    bool unordered = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (code[j].kind != TokenKind::Identifier) continue;
      if (names.variables.count(code[j].text) > 0 ||
          kUnorderedTypes.count(code[j].text) > 0) {
        unordered = true;
        break;
      }
    }
    if (!unordered) continue;

    // Body: `{...}` brace-matched, or a single statement up to `;`.
    std::size_t bodyBegin = close + 1, bodyEnd = bodyBegin;
    if (bodyBegin < code.size() && isPunct(code[bodyBegin], "{")) {
      int braces = 0;
      for (std::size_t j = bodyBegin; j < code.size(); ++j) {
        if (isPunct(code[j], "{")) ++braces;
        if (isPunct(code[j], "}")) {
          --braces;
          if (braces == 0) {
            bodyEnd = j + 1;
            break;
          }
        }
      }
    } else {
      while (bodyEnd < code.size() && !isPunct(code[bodyEnd], ";")) ++bodyEnd;
    }
    loops.push_back({code[i].line, bodyBegin, bodyEnd});
  }
  return loops;
}

void runR2(const FileContext& file, const std::vector<UnorderedLoop>& loops,
           std::vector<Finding>& out) {
  if (!file.orderedScope) return;
  for (const UnorderedLoop& loop : loops) {
    out.push_back(
        {file.path, loop.forLine, "R2",
         "iteration over an unordered container in an export/merge path; "
         "hash order is not deterministic across platforms or runs -- "
         "iterate a sorted view, or annotate `// dglint: ordered-ok: "
         "<why order cannot reach the output>`"});
  }
}

// ---------------------------------------------------------------------
// R4: float accumulation inside unordered loops
// ---------------------------------------------------------------------

std::set<std::string, std::less<>> collectFloatNames(const TokenList& code) {
  std::set<std::string, std::less<>> floats;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (!isIdent(code[i], "double") && !isIdent(code[i], "float")) continue;
    std::size_t j = i + 1;
    while (j < code.size() &&
           (isPunct(code[j], "&") || isIdent(code[j], "const")))
      ++j;
    if (j < code.size() && code[j].kind == TokenKind::Identifier)
      floats.insert(code[j].text);
  }
  return floats;
}

void runR4(const FileContext& file, const TokenList& code,
           const std::vector<UnorderedLoop>& loops,
           std::vector<Finding>& out) {
  if (!file.orderedScope) return;
  const auto floats = collectFloatNames(code);
  for (const UnorderedLoop& loop : loops) {
    for (std::size_t j = loop.bodyBegin; j < loop.bodyEnd; ++j) {
      if (!isPunct(code[j], "+=") || j == 0) continue;
      const Token& lhs = code[j - 1];
      if (lhs.kind == TokenKind::Identifier && floats.count(lhs.text) > 0) {
        out.push_back(
            {file.path, code[j].line, "R4",
             "float accumulation '" + lhs.text +
                 " +=' inside a loop over an unordered container; "
                 "addition order follows hash order, so the sum is not "
                 "reproducible -- accumulate into a sorted intermediate "
                 "or annotate `// dglint: fp-merge-ok: <why>`"});
      }
    }
  }
}

// ---------------------------------------------------------------------
// R3: header hygiene (the non-const-globals check runs on the scope
// walk of semantic.cpp)
// ---------------------------------------------------------------------

/// Normalizes a preprocessor directive: text after '#' with runs of
/// whitespace collapsed, e.g. "#  pragma   once" -> "pragma once".
std::string directiveText(const Token& t) {
  std::string out;
  bool space = false;
  for (const char c : t.text) {
    if (c == '#' && out.empty()) continue;
    if (c == ' ' || c == '\t') {
      space = !out.empty();
      continue;
    }
    if (space) out += ' ';
    space = false;
    out += c;
  }
  return out;
}

void runR3Guards(const FileContext& file, std::vector<Finding>& out) {
  if (!file.isHeader) return;
  bool pragmaOnce = false;
  std::string pendingGuard;
  bool guarded = false;
  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::Preprocessor) continue;
    const std::string d = directiveText(t);
    if (d == "pragma once") pragmaOnce = true;
    if (d.rfind("ifndef ", 0) == 0 && pendingGuard.empty())
      pendingGuard = d.substr(7);
    if (d.rfind("define ", 0) == 0 && !pendingGuard.empty() &&
        d.substr(7, pendingGuard.size()) == pendingGuard)
      guarded = true;
  }
  if (!pragmaOnce && !guarded) {
    out.push_back({file.path, 1, "R3",
                   "header missing `#pragma once` (or an #ifndef/#define "
                   "include guard)"});
  }
}

void runR3UsingNamespace(const FileContext& file, const TokenList& code,
                         std::vector<Finding>& out) {
  if (!file.isHeader) return;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (isIdent(code[i], "using") && isIdent(code[i + 1], "namespace")) {
      out.push_back({file.path, code[i].line, "R3",
                     "`using namespace` in a header leaks into every "
                     "includer; qualify names instead"});
    }
  }
}

}  // namespace

FileContext makeFileContext(const std::string& relPath,
                            std::string_view source) {
  FileContext file;
  file.path = relPath;
  file.tokens = tokenize(source);
  file.code = codeTokens(file.tokens);
  file.isHeader = relPath.ends_with(".hpp") || relPath.ends_with(".h");
  file.libraryCode = relPath.starts_with("src/") ||
                     relPath.starts_with("tools/");
  file.orderedScope =
      std::any_of(std::begin(kOrderedScope), std::end(kOrderedScope),
                  [&](std::string_view p) {
                    return relPath.find(p) != std::string::npos;
                  });
  file.clockAllowed = relPath.find(kClockAllow) != std::string::npos;
  return file;
}

std::vector<Finding> runRules(const FileContext& file) {
  std::vector<Finding> out;
  const TokenList& code = file.code;

  runR1(file, code, out);
  runR1Defines(file, out);

  const UnorderedNames unordered = collectUnordered(code);
  const auto loops = findUnorderedLoops(code, unordered);
  runR2(file, loops, out);
  runR4(file, code, loops, out);

  runR3Guards(file, out);
  runR3UsingNamespace(file, code, out);

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

const std::vector<std::string>& allRuleIds() {
  // R1-R4 are the token rules above; R5-R8 the semantic rules of
  // semantic.hpp.
  static const std::vector<std::string> ids = {"R0", "R1", "R2", "R3", "R4",
                                               "R5", "R6", "R7", "R8"};
  return ids;
}

}  // namespace dg::lint
