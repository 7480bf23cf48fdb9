// Group report tables: every cell keeps a separating space, even at the
// widest values a sweep can produce.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mcast/report.hpp"

namespace dg::mcast {
namespace {

std::vector<std::string> linesOf(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::size_t fieldCount(const std::string& line) {
  std::istringstream in(line);
  std::size_t n = 0;
  for (std::string field; in >> field;) ++n;
  return n;
}

TEST(GroupReport, FullyUnavailableReceiverKeepsColumnsApart) {
  GroupSchemeSummary worst;
  worst.scheme = GroupSchemeKind::kTargetedReceivers;
  worst.unavailabilityAll = 1.0;
  worst.unavailabilityK = 1.0;
  worst.unavailableAllSeconds = 86'400.0;
  worst.problematicIntervals = 8640;
  worst.averageCost = 12.5;
  worst.worstReceiverUnavailability = 1.0;
  GroupExperimentResult result;
  result.summary = {worst, worst};

  const std::vector<std::string> lines =
      linesOf(renderGroupSummaryTable(result, util::days(1), 1));
  ASSERT_EQ(lines.size(), 4u);  // title, header, two rows
  const std::string& header = lines[1];
  for (std::size_t i = 2; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].size(), header.size()) << lines[i];
    EXPECT_EQ(fieldCount(lines[i]), fieldCount(header)) << lines[i];
    EXPECT_NE(lines[i].find(" 1000000.0ppm"), std::string::npos) << lines[i];
  }
}

}  // namespace
}  // namespace dg::mcast
