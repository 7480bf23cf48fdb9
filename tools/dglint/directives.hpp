// Parsing for in-source analyzer directives.
//
// A directive comment starts with `dglint:` or `dgcheck:`; the two
// prefixes are equivalent for suppressions:
//
//   // dglint: ok(Rn): <why this finding is safe to ignore>
//   // dglint: ordered-ok: <why>        (sugar for ok(R2))
//   // dglint: fp-merge-ok: <why>       (sugar for ok(R4))
//
// The semantic annotations take the `dgcheck:` prefix only:
//
//   // dgcheck: hot            marks the next/current function as a
//                              zero-allocation hot path (R5 root)
//   // dgcheck: worker         marks a (flow, scheme, chunk) task entry
//                              point (R7 root)
//   // dgcheck: cold: <why>    stops hot/worker reachability traversal
//                              at this function
//   // dgcheck: setup begin    opens a region exempt from R5/R7 (one-time
//   // dgcheck: setup end      initialization before the steady state)
//
// Placement: a directive comment alone on its line targets the NEXT
// line; a trailing comment targets its own line. Inside a multi-line
// preprocessor directive, either placement targets the directive's
// first line (where findings are anchored). "Alone on its line" is
// decided from the token stream, not the raw text, so a line whose text
// happens to begin with `//` inside a raw string literal does not
// confuse the targeting.
//
// Malformed directives (unknown verb, unknown rule, missing reason,
// unbalanced setup regions) are themselves findings, rule R0; so is a
// suppression that matches no finding (see dglint.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rules.hpp"

namespace dg::lint {

/// One parsed `ok(Rn)`-style suppression.
struct Suppression {
  std::size_t targetLine = 0;   ///< line the suppression applies to
  std::size_t commentLine = 0;  ///< line of the directive comment itself
  std::string rule;             ///< "R1".."R8"
  std::string reason;
  bool used = false;
};

/// A `setup begin` .. `setup end` region, inclusive of both lines.
struct SetupRange {
  std::size_t beginLine = 0;
  std::size_t endLine = 0;
};

struct Directives {
  std::vector<Suppression> suppressions;
  std::vector<std::size_t> hotLines;     ///< target lines of `hot`
  std::vector<std::size_t> workerLines;  ///< target lines of `worker`
  std::vector<std::size_t> coldLines;    ///< target lines of `cold:`
  std::vector<SetupRange> setupRanges;
  std::vector<Finding> malformed;  ///< R0 findings
};

/// Parses every directive comment in `tokens`. `lines` are the file's
/// physical lines (for target-line decisions).
Directives parseDirectives(const std::string& relPath,
                           const std::vector<Token>& tokens,
                           const std::vector<std::string>& lines);

/// True when `line` falls inside any setup region.
bool lineInSetup(const Directives& directives, std::size_t line);

}  // namespace dg::lint
