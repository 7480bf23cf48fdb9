// The per-file token rules R1-R4 (the cross-file rules R5-R8 are in
// semantic.hpp).
//
// Four project-specific determinism/safety rules, each a heuristic
// token-pattern matcher over the lexer's stream (see DESIGN.md "Static
// analysis & determinism enforcement" for rationale and examples):
//
//   R1  banned nondeterminism sources (std::rand, srand, random_device,
//       raw <chrono> clocks, time()/clock()/gettimeofday, getenv) in
//       library code; the seeded util::Rng and the allowlisted
//       wall-clock shim are the only sanctioned sources.
//   R2  iteration over unordered containers in files that feed exports,
//       reports, telemetry merges or decision memos (hash order is not
//       part of the contract, so it must never reach a deterministic
//       surface) unless annotated `// dglint: ordered-ok: <why>`.
//   R3  header hygiene: include guard / #pragma once, no
//       `using namespace` in headers, no non-const namespace-scope
//       globals in library code.
//   R4  floating-point accumulation (`+=` on a double/float) inside a
//       loop over an unordered container in merge-path files: addition
//       is not associative, so hash order changes the sum.
//
// Rules are heuristics, not a compiler: they are tuned to have zero
// false positives on this codebase and to catch the regression classes
// named above. Escapes exist (`// dglint: ok(Rn): why`) and every
// escape requires a justification.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace dg::lint {

struct Finding {
  std::string path;   ///< repo-relative, forward slashes
  std::size_t line;   ///< 1-based
  std::string rule;   ///< "R1".."R8" ("R0" = malformed or stale directive)
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// One lexed file and the rule scopes its path falls in.
struct FileContext {
  std::string path;           ///< repo-relative, forward slashes
  std::vector<Token> tokens;  ///< from tokenize()
  std::vector<Token> code;    ///< codeTokens(tokens)
  bool isHeader = false;      ///< .hpp / .h
  bool libraryCode = false;   ///< under src/ or tools/ (R1, R3 scope)
  bool orderedScope = false;  ///< feeds exports/reports/merges (R2, R4)
  bool clockAllowed = false;  ///< allowlisted wall-clock shim (R1 clocks)
};

/// Lexes `source` once and scopes it by `relPath`.
FileContext makeFileContext(const std::string& relPath,
                            std::string_view source);

/// Runs R1-R4 over one file. Findings are returned in line order;
/// suppression comments are NOT applied here (the driver does that, so
/// it can also report suppressed counts and stale suppressions).
std::vector<Finding> runRules(const FileContext& file);

/// All rule ids understood by `ok(...)` suppressions.
const std::vector<std::string>& allRuleIds();

}  // namespace dg::lint
