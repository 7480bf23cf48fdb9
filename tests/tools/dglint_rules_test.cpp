// Fixture-driven tests for the token rules R1-R4 and the suppression
// filter: each rule has a fixture file under tests/tools/fixtures/
// exercising its positives and negatives; the fixture is analyzed under a
// synthetic repo-relative path so scoping (src/, ordered scope, clock
// allowlist) is explicit.
#include "dglint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

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

LintResult analyzeSource(const std::string& relPath,
                         const std::string& source) {
  return analyzeSources({{relPath, source}});
}

std::vector<std::string> rulesOf(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

std::size_t countRule(const std::vector<Finding>& findings,
                      const std::string& rule) {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(),
      [&](const Finding& f) { return f.rule == rule; }));
}

TEST(DglintR1, FlagsEveryBannedSourceOnce) {
  const auto result = analyzeSource("src/fixture/r1_banned.cpp",
                                    readFixture("r1_banned.cpp"));
  EXPECT_EQ(countRule(result.findings, "R1"), 9u)
      << formatFindings(result.findings, "text");
  // rand, srand, random_device, 2x time, getenv + 3 clocks.
  EXPECT_EQ(countRule(result.findings, "R2"), 0u);
  EXPECT_EQ(countRule(result.findings, "R3"), 0u);
  EXPECT_EQ(countRule(result.findings, "R4"), 0u);
}

TEST(DglintR1, ClockAllowlistSilencesChronoClocks) {
  const auto result = analyzeSource("src/util/wall_clock.cpp",
                                    readFixture("r1_banned.cpp"));
  // The three <chrono> clock findings disappear; calls remain banned.
  EXPECT_EQ(countRule(result.findings, "R1"), 6u);
}

TEST(DglintR1, OutsideLibraryCodeIsIgnored) {
  const auto result = analyzeSource("bench/r1_banned.cpp",
                                    readFixture("r1_banned.cpp"));
  EXPECT_EQ(countRule(result.findings, "R1"), 0u);
}

TEST(DglintR2, FlagsUnorderedIterationInOrderedScope) {
  const auto result = analyzeSource("src/telemetry/r2_fixture.cpp",
                                    readFixture("r2_unordered.cpp"));
  // direct member, alias type, reference binding — sorted map and the
  // annotated loop stay quiet.
  EXPECT_EQ(countRule(result.findings, "R2"), 3u)
      << formatFindings(result.findings, "text");
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(DglintR2, OutsideOrderedScopeIsQuiet) {
  const auto result = analyzeSource("src/graph/r2_fixture.cpp",
                                    readFixture("r2_unordered.cpp"));
  EXPECT_EQ(countRule(result.findings, "R2"), 0u);
}

TEST(DglintR3, HeaderHygiene) {
  const auto result = analyzeSource("src/fixture/r3_header_bad.hpp",
                                    readFixture("r3_header_bad.hpp"));
  const auto rules = rulesOf(result.findings);
  // Missing guard + using namespace + 4 globals (one more suppressed).
  EXPECT_EQ(countRule(result.findings, "R3"), 6u)
      << formatFindings(result.findings, "text");
  EXPECT_EQ(result.suppressed, 1u);
  // The guard finding anchors to line 1.
  EXPECT_EQ(result.findings.front().line, 1u);
}

TEST(DglintR3, IfndefGuardAccepted) {
  const auto result =
      analyzeSource("src/fixture/r3_header_guarded.hpp",
                    readFixture("r3_header_guarded.hpp"));
  EXPECT_TRUE(result.findings.empty())
      << formatFindings(result.findings, "text");
}

TEST(DglintR3, CppFilesSkipGuardAndUsingChecks) {
  // Same content under a .cpp path: guard + using-namespace checks are
  // header-only; the globals still fire.
  const auto result = analyzeSource("src/fixture/r3_header_bad.cpp",
                                    readFixture("r3_header_bad.hpp"));
  EXPECT_EQ(countRule(result.findings, "R3"), 4u)
      << formatFindings(result.findings, "text");
}

TEST(DglintR4, FlagsFloatAccumulationInHashOrder) {
  const auto result = analyzeSource("src/telemetry/r4_fixture.cpp",
                                    readFixture("r4_float_merge.cpp"));
  EXPECT_EQ(countRule(result.findings, "R4"), 1u)
      << formatFindings(result.findings, "text");
  // Integral accumulator, sorted map and the annotated min-fold are ok;
  // three ordered-ok loop annotations + one fp-merge-ok suppress.
  EXPECT_EQ(countRule(result.findings, "R2"), 0u);
  EXPECT_EQ(result.suppressed, 4u);
}

TEST(DglintClean, IdiomaticCodeHasZeroFindings) {
  const auto result = analyzeSource("src/telemetry/clean.cpp",
                                    readFixture("clean.cpp"));
  EXPECT_TRUE(result.findings.empty())
      << formatFindings(result.findings, "text");
  EXPECT_EQ(result.suppressed, 0u);
}

TEST(DglintSuppressions, FormsAndFailures) {
  const auto result = analyzeSource("src/fixture/suppressions.cpp",
                                    readFixture("suppressions.cpp"));
  // Two good suppressions consume two R1s; the malformed ones leave
  // their R1s active and add R0s.
  EXPECT_EQ(result.suppressed, 2u);
  EXPECT_EQ(countRule(result.findings, "R1"), 3u)
      << formatFindings(result.findings, "text");
  EXPECT_EQ(countRule(result.findings, "R0"), 3u);
}

TEST(DglintSuppressions, ContinuationLineSuppressesTheDirectiveFinding) {
  const auto result = analyzeSource("src/fixture/suppress_preproc.cpp",
                                    readFixture("suppress_preproc.cpp"));
  // R1 findings for macro replacement text anchor at the #define's
  // first line; a directive on any physical continuation line must
  // reach it. FIXTURE_STAMP is suppressed, FIXTURE_STAMP_BAD is not.
  EXPECT_EQ(result.suppressed, 1u);
  EXPECT_EQ(countRule(result.findings, "R1"), 1u)
      << formatFindings(result.findings, "text");
  ASSERT_FALSE(result.findings.empty());
  EXPECT_EQ(result.findings[0].line, 10u);
}

TEST(DglintSuppressions, RawStringsNeitherEmitNorSwallowDirectives) {
  const auto result = analyzeSource("src/fixture/suppress_rawstring.cpp",
                                    readFixture("suppress_rawstring.cpp"));
  // The ok(R1) inside raw-string content is content: bad() still
  // fires. The real trailing directive on the raw string's closing
  // line consumes good()'s finding.
  EXPECT_EQ(result.suppressed, 1u);
  EXPECT_EQ(countRule(result.findings, "R1"), 1u)
      << formatFindings(result.findings, "text");
  ASSERT_FALSE(result.findings.empty());
  EXPECT_EQ(result.findings[0].line, 14u);
}

}  // namespace
}  // namespace dg::lint
