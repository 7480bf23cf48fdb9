// Tests for the cross-file rules R5-R8 through the single analyzer pass:
// fixture-driven positives and negatives (including the cross-file
// two-hop allocation case), directive binding and R0, and suppressions
// that apply across both directive prefixes.
#include "dglint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dg::lint {
namespace {

std::string readFixture(const std::string& name) {
  const std::string path = std::string(DGLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t countRule(const std::vector<Finding>& findings,
                      const std::string& rule) {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(),
      [&](const Finding& f) { return f.rule == rule; }));
}

std::vector<std::size_t> linesOf(const std::vector<Finding>& findings,
                                 const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string dump(const LintResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    out << f.path << ":" << f.line << " [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

// ---- R5: hot-path allocation ----------------------------------------

TEST(DgcheckR5, FlagsEveryAllocationClassInAHotFunction) {
  const auto result = analyzeSources(
      {{"src/fixture/r5_hot_alloc.cpp", readFixture("r5_hot_alloc.cpp")}});
  // hotAlloc: local vector, push_back-without-reserve, new, malloc.
  EXPECT_EQ(countRule(result.findings, "R5"), 4u) << dump(result);
  EXPECT_EQ(linesOf(result.findings, "R5"),
            (std::vector<std::size_t>{15, 16, 17, 18}));
  EXPECT_EQ(countRule(result.findings, "R0"), 0u) << dump(result);
}

TEST(DgcheckR5, SetupRegionAndReserveSilenceHotAllocations) {
  const auto result = analyzeSources(
      {{"src/fixture/r5_hot_alloc.cpp", readFixture("r5_hot_alloc.cpp")}});
  // Everything in hotClean (lines 25-34) is sanctioned: nothing may
  // anchor there.
  for (const Finding& f : result.findings) {
    EXPECT_LT(f.line, 25u) << dump(result);
  }
}

TEST(DgcheckR5, CrossFileAllocationTwoHopsAway) {
  const auto result = analyzeSources(
      {{"src/fixture/r5_cross_entry.cpp", readFixture("r5_cross_entry.cpp")},
       {"src/fixture/r5_cross_leaf.cpp", readFixture("r5_cross_leaf.cpp")}});
  // leafAlloc's vector + push_back, reached hot -> middle -> leaf.
  EXPECT_EQ(countRule(result.findings, "R5"), 2u) << dump(result);
  for (const Finding& f : result.findings) {
    EXPECT_EQ(f.path, "src/fixture/r5_cross_leaf.cpp");
    EXPECT_NE(f.message.find("hotEntry"), std::string::npos) << f.message;
    EXPECT_NE(f.message.find("leafAlloc"), std::string::npos) << f.message;
  }
}

TEST(DgcheckR5, ColdAnnotationStopsTheTraversal) {
  const std::string source = R"cpp(
namespace fixture {
// dgcheck: cold: fixture — amortized path
int coldLeaf(int n) {
  int* p = new int(n);
  const int r = *p;
  delete p;
  return r;
}
// dgcheck: hot
int hotViaCold(int n) { return coldLeaf(n); }
}  // namespace fixture
)cpp";
  const auto result =
      analyzeSources({{"src/fixture/cold.cpp", source}});
  EXPECT_EQ(countRule(result.findings, "R5"), 0u) << dump(result);
  EXPECT_EQ(countRule(result.findings, "R0"), 0u) << dump(result);
}

TEST(DgcheckR5, TrailingSuppressionConsumesTheFinding) {
  const std::string source = R"cpp(
namespace fixture {
// dgcheck: hot
int hotSuppressed(int n) {
  int* p = new int(n);  // dgcheck: ok(R5): fixture exercises suppression
  const int r = *p;
  delete p;
  return r;
}
}  // namespace fixture
)cpp";
  const auto result =
      analyzeSources({{"src/fixture/suppress.cpp", source}});
  EXPECT_TRUE(result.findings.empty()) << dump(result);
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(DgcheckR5, DglintPrefixedSuppressionIsHonoured) {
  const std::string source = R"cpp(
namespace fixture {
// dgcheck: hot
int hotSuppressed(int n) {
  // dglint: ok(R5): either prefix suppresses any rule in the one pass
  int* p = new int(n);
  const int r = *p;
  delete p;
  return r;
}
}  // namespace fixture
)cpp";
  const auto result =
      analyzeSources({{"src/fixture/suppress_prefix.cpp", source}});
  EXPECT_TRUE(result.findings.empty()) << dump(result);
  EXPECT_EQ(result.suppressed, 1u);
}

// ---- R6: RNG stream discipline --------------------------------------

TEST(DgcheckR6, FlagsLoopAndSiblingStreamsWithoutFork) {
  const auto result = analyzeSources(
      {{"src/fixture/r6_rng.cpp", readFixture("r6_rng.cpp")}});
  // loopNoFork (line 19: loop without per-iteration fork) and
  // siblingsNoFork (line 25: second callee on the same stream).
  EXPECT_EQ(countRule(result.findings, "R6"), 2u) << dump(result);
  EXPECT_EQ(linesOf(result.findings, "R6"),
            (std::vector<std::size_t>{19, 25}));
}

TEST(DgcheckR6, PerIterationAndPerSiblingForksAreClean) {
  const auto result = analyzeSources(
      {{"src/fixture/r6_rng.cpp", readFixture("r6_rng.cpp")}});
  // Nothing may anchor in loopForked/siblingsForked (lines 28-41).
  for (const Finding& f : result.findings) {
    EXPECT_LT(f.line, 28u) << dump(result);
  }
}

TEST(DgcheckR6, DeletingTheForkMakesTheLoopFire) {
  // The acceptance shape: take the clean loop from the fixture and
  // delete its fork line — the rule must fire on the now-shared stream.
  std::string source = readFixture("r6_rng.cpp");
  const std::string forkLine = "util::Rng sub = rng.fork();";
  const std::size_t at = source.find(forkLine);
  ASSERT_NE(at, std::string::npos);
  source.erase(at, forkLine.size());
  const std::string drawSub = "draw(sub)";
  const std::size_t use = source.find(drawSub);
  ASSERT_NE(use, std::string::npos);
  source.replace(use, drawSub.size(), "draw(rng)");
  const auto result =
      analyzeSources({{"src/fixture/r6_rng.cpp", source}});
  EXPECT_EQ(countRule(result.findings, "R6"), 3u) << dump(result);
}

// ---- R7: worker-shared mutable state --------------------------------

TEST(DgcheckR7, FlagsGlobalWritesAndMutableStaticsFromWorkers) {
  const auto result = analyzeSources(
      {{"src/fixture/r7_worker.cpp", readFixture("r7_worker.cpp")}});
  // workerBad: static local (line 14) + g_counter write (line 16).
  EXPECT_EQ(countRule(result.findings, "R7"), 2u) << dump(result);
  EXPECT_EQ(linesOf(result.findings, "R7"),
            (std::vector<std::size_t>{14, 16}));
}

TEST(DgcheckR7, WorkspaceMutationAndConstStaticsAreClean) {
  const auto result = analyzeSources(
      {{"src/fixture/r7_worker.cpp", readFixture("r7_worker.cpp")}});
  // Nothing may anchor in workerGood (lines 20-25).
  for (const Finding& f : result.findings) {
    EXPECT_LT(f.line, 20u) << dump(result);
  }
}

TEST(DgcheckR7, NonWorkerCodeMayTouchGlobals) {
  const std::string source = R"cpp(
namespace fixture {
int g_total = 0;
int accumulate(int n) {
  g_total += n;  // not worker-reachable: fine
  return g_total;
}
}  // namespace fixture
)cpp";
  const auto result =
      analyzeSources({{"src/fixture/not_worker.cpp", source}});
  EXPECT_EQ(countRule(result.findings, "R7"), 0u) << dump(result);
}

// ---- R8: wire-decode bounds -----------------------------------------

TEST(DgcheckR8, FlagsUncheckedLengthAndAcceptsGuardedOne) {
  const auto result = analyzeSources(
      {{"src/live/r8_wire.cpp", readFixture("r8_wire.cpp")}});
  // decodeBad's resize (line 17); decodeGood is fully guarded.
  EXPECT_EQ(countRule(result.findings, "R8"), 1u) << dump(result);
  EXPECT_EQ(linesOf(result.findings, "R8"),
            (std::vector<std::size_t>{17}));
}

TEST(DgcheckR8, OnlyAppliesUnderSrcLive) {
  const auto result = analyzeSources(
      {{"src/fixture/r8_wire.cpp", readFixture("r8_wire.cpp")}});
  EXPECT_EQ(countRule(result.findings, "R8"), 0u) << dump(result);
}

// ---- R0: directive binding ------------------------------------------

TEST(DgcheckR0, MalformedAndUnboundDirectivesAreReported) {
  const std::string source = R"cpp(
// dgcheck: hott
namespace fixture {
// dgcheck: hot

int unboundTarget = 3;
int fine(int x) { return x + unboundTarget; }
}  // namespace fixture
)cpp";
  const auto result =
      analyzeSources({{"src/fixture/r0.cpp", source}});
  // One malformed verb ("hott"), one hot annotation bound to a
  // non-function line.
  EXPECT_EQ(countRule(result.findings, "R0"), 2u) << dump(result);
}

TEST(DgcheckR0, MalformedDirectiveIsReportedOnce) {
  const std::string source = R"cpp(
namespace fixture {
int f(int x) { return x; }  // dglint: frobnicate the widgets
}  // namespace fixture
)cpp";
  const auto result = analyzeSources({{"src/fixture/r0_once.cpp", source}});
  ASSERT_EQ(result.findings.size(), 1u) << dump(result);
  EXPECT_EQ(result.findings[0].rule, "R0");
  EXPECT_EQ(result.findings[0].line, 3u);
}

TEST(DgcheckR0, StaleSuppressionIsReported) {
  const std::string source = R"cpp(
namespace fixture {
// dgcheck: hot
int hotClean(int n) {
  const int r = n + 1;  // dgcheck: ok(R5): nothing here allocates
  return r;
}
}  // namespace fixture
)cpp";
  const auto result = analyzeSources({{"src/fixture/stale.cpp", source}});
  ASSERT_EQ(result.findings.size(), 1u) << dump(result);
  EXPECT_EQ(result.findings[0].rule, "R0");
  EXPECT_EQ(result.findings[0].line, 5u);
  EXPECT_NE(result.findings[0].message.find("stale"), std::string::npos);
  EXPECT_EQ(result.suppressed, 0u);
}

}  // namespace
}  // namespace dg::lint
