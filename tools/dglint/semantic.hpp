// The cross-file rules R5-R8.
//
// The token rules (rules.hpp) see one file at a time. These build a
// lightweight symbol table and call graph across every analyzed file --
// function definitions found by the brace-scope classifier, call sites
// linked to definitions by (qualified) name, receiver types inferred
// from local declarations -- and evaluate four semantic rule families:
//
//   R5  hot-path allocation: functions annotated `// dgcheck: hot` must
//       not transitively reach operator new / malloc / allocating std
//       container construction / push_back-without-reserve, outside
//       `// dgcheck: setup` regions. `// dgcheck: cold: <why>` stops
//       the traversal (e.g. at the memo-amortized decision path).
//   R6  RNG stream discipline: a function holding a util::Rng may not
//       pass it to two different callees, or into loop iterations, with
//       no intervening fork() -- the invariant that makes draw order
//       reproducible under chunk-parallel execution.
//   R7  worker-shared mutable state: code reachable from functions
//       annotated `// dgcheck: worker` (the (flow, scheme, chunk) task
//       entry points) may not write file-scope mutable globals or
//       declare non-const function-local statics.
//   R8  wire-decode bounds: in src/live/, a variable assigned from a
//       wire-cursor length/count read must pass through a bounds check
//       (an if-condition or min/clamp) before it is used to reserve,
//       index, or bound a loop.
//
// Like the token rules this is a heuristic analyzer, not a compiler:
// name linking over-approximates virtual dispatch and misses function
// pointers; the documented escape hatch is the shared suppression
// machinery (`// dgcheck: ok(Rn): <why>`).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "directives.hpp"
#include "rules.hpp"

namespace dg::lint {

/// One call expression `name(...)`, `obj.name(...)` or `Q::name(...)`.
struct CallSite {
  std::string name;
  std::string qualifier;  ///< "Q" for Q::name(...), else ""
  std::string recvType;   ///< declared type of obj for member calls, else ""
  bool member = false;    ///< obj.name(...) / obj->name(...)
  std::size_t line = 0;
  bool inSetup = false;
};

/// One allocation expression (R5).
struct AllocSite {
  std::size_t line = 0;
  bool inSetup = false;
  std::string what;  ///< human-readable description
};

/// One assignment to a bare identifier (R7 matches these against the
/// repo-wide set of mutable file-scope globals).
struct WriteSite {
  std::string name;
  std::size_t line = 0;
};

struct FunctionInfo {
  std::string name;
  std::string qualifier;  ///< innermost class (or explicit Q:: scope)
  std::size_t declLine = 0;  ///< first line of the declaration statement
  std::size_t bodyLine = 0;  ///< line of the opening '{'
  bool hot = false;
  bool worker = false;
  bool cold = false;
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
  std::vector<std::size_t> staticLocalLines;  ///< non-const local statics
  std::vector<WriteSite> writes;
};

/// Everything the analyzer keeps of one file after lexing it once.
struct FileSummary {
  std::string path;
  std::vector<FunctionInfo> functions;
  std::vector<std::string> mutableGlobals;  ///< non-const namespace-scope
  std::vector<Finding> localFindings;  ///< R1-R4, R6, R8, R0: per-file rules
  std::vector<Suppression> suppressions;
};

/// Lexes one file and runs every per-file rule over it. Pure function
/// of (path, source); the cross-file rules run later in linkAndCheck().
FileSummary summarizeSource(const std::string& relPath,
                            std::string_view source);

/// Cross-file phase: links call sites to definitions, runs the hot /
/// worker reachability traversals and emits R5/R7 findings, sorted.
/// FileSummary::localFindings are NOT included.
std::vector<Finding> linkAndCheck(const std::vector<FileSummary>& files);

/// Sorts findings by (path, line, rule, message) and drops duplicates.
void sortFindings(std::vector<Finding>& findings);

}  // namespace dg::lint
