// dglint -- the repo's determinism and safety analyzer.
//
// One pass: every file is lexed once, the per-file rules (R1-R4 from
// rules.hpp, R6/R8 and directive checks from semantic.hpp) run on it,
// and the cross-file call graph adds R5/R7. One suppression filter
// covers every rule (same line, or a comment-only line suppressing the
// next line; a justification after the colon is mandatory):
//
//   // dglint: ok(R1): <why this use is sound>
//   // dglint: ordered-ok: <why hash order cannot reach the output>
//   // dglint: fp-merge-ok: <why the sum is order-independent>
//
// `ordered-ok` is sugar for ok(R2), `fp-merge-ok` for ok(R4), and
// `dgcheck:` is an equivalent prefix (directives.hpp). Rule R0 reports
// malformed directives and stale suppressions -- an `ok(Rn)` that
// suppresses no finding -- which only a single pass over every rule can
// see. There is no baseline: every finding fails the gate.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "rules.hpp"

namespace dg::lint {

struct LintResult {
  std::vector<Finding> findings;  ///< unsuppressed, sorted by path and line
  std::size_t suppressed = 0;
  std::size_t filesScanned = 0;
};

/// Analyzes in-memory (repo-relative path, source) pairs as one tree:
/// the path decides rule scoping, and calls link across all of them.
LintResult analyzeSources(
    const std::vector<std::pair<std::string, std::string>>& sources);

/// Analyzes every source file under `paths` (relative to `root`).
LintResult runLint(const std::string& root,
                   const std::vector<std::string>& paths);

/// Renders findings as "text", "github" (workflow commands) or "sarif"
/// (SARIF 2.1.0 for GitHub code scanning).
std::string formatFindings(const std::vector<Finding>& findings,
                           const std::string& format);

/// Deterministic (sorted, deduplicated) list of .h/.hpp/.cpp/.cc/.cxx
/// files under `paths` relative to `root`, skipping .git and build*.
std::vector<std::string> collectSourceFiles(
    const std::string& root, const std::vector<std::string>& paths);

/// Markdown debt report over every suppression directive under `paths`:
/// counts per rule and per file, the full reason list, and the oldest
/// suppression (via `git blame` when available).
std::string reportSuppressions(const std::string& root,
                               const std::vector<std::string>& paths);

/// Complete CLI (argument parsing to exit code); used by main().
int lintMain(int argc, const char* const* argv);

}  // namespace dg::lint
