#include "playback/experiment.hpp"

#include <gtest/gtest.h>

#include "playback/report.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::playback {
namespace {

class ExperimentOnLtn : public ::testing::Test {
 protected:
  ExperimentOnLtn() : topology_(trace::Topology::ltn12()) {
    trace::GeneratorParams gen;
    gen.seed = 21;
    gen.duration = util::days(1);
    synthetic_ = generateSyntheticTrace(topology_.graph(), gen);
    config_.flows = {
        routing::Flow{topology_.at("NYC"), topology_.at("SJC")},
        routing::Flow{topology_.at("WAS"), topology_.at("SEA")},
    };
    config_.playback.mcSamples = 300;
    config_.threads = 2;
  }

  trace::Topology topology_;
  std::optional<trace::SyntheticTrace> synthetic_;
  ExperimentConfig config_;
};

TEST_F(ExperimentOnLtn, ProducesAllRunsAndSummaries) {
  const auto result =
      runExperiment(topology_.graph(), synthetic_->trace, config_);
  EXPECT_EQ(result.perFlow.size(),
            config_.flows.size() * config_.schemes.size());
  EXPECT_EQ(result.summary.size(), config_.schemes.size());
  for (std::size_t s = 0; s < config_.schemes.size(); ++s) {
    EXPECT_EQ(result.summary[s].scheme, config_.schemes[s]);
    EXPECT_GE(result.summary[s].unavailability, 0.0);
    EXPECT_LE(result.summary[s].unavailability, 1.0);
    EXPECT_GT(result.summary[s].averageCost, 0.0);
  }
}

TEST_F(ExperimentOnLtn, GapCoverageAnchors) {
  const auto result =
      runExperiment(topology_.graph(), synthetic_->trace, config_);
  for (const SchemeSummary& s : result.summary) {
    if (s.scheme == config_.gapBaseline) {
      EXPECT_NEAR(s.gapCoverage, 0.0, 1e-9);
    }
    if (s.scheme == config_.gapOptimal) {
      EXPECT_NEAR(s.gapCoverage, 1.0, 1e-9);
    }
    if (s.scheme == routing::SchemeKind::StaticTwoDisjoint) {
      EXPECT_NEAR(s.costVsTwoDisjoint, 1.0, 1e-9);
    }
  }
}

TEST_F(ExperimentOnLtn, DeterministicAcrossThreadCounts) {
  auto serial = config_;
  serial.threads = 1;
  auto parallel = config_;
  parallel.threads = 4;
  const auto a = runExperiment(topology_.graph(), synthetic_->trace, serial);
  const auto b =
      runExperiment(topology_.graph(), synthetic_->trace, parallel);
  ASSERT_EQ(a.perFlow.size(), b.perFlow.size());
  for (std::size_t i = 0; i < a.perFlow.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.perFlow[i].unavailability, b.perFlow[i].unavailability);
    EXPECT_DOUBLE_EQ(a.perFlow[i].averageCost, b.perFlow[i].averageCost);
  }
}

TEST_F(ExperimentOnLtn, RejectsEmptyConfig) {
  ExperimentConfig empty;
  EXPECT_THROW(runExperiment(topology_.graph(), synthetic_->trace, empty),
               std::invalid_argument);
}

TEST_F(ExperimentOnLtn, ReportsRenderAllSchemes) {
  const auto result =
      runExperiment(topology_.graph(), synthetic_->trace, config_);
  const auto table =
      renderSummaryTable(result, synthetic_->trace.duration(),
                         config_.flows.size());
  const auto perFlow = renderPerFlowTable(result, config_, topology_);
  const auto cost = renderCostTable(result);
  const auto cdf = renderUnavailabilityCdf(result, config_);
  for (const auto kind : config_.schemes) {
    const std::string name(routing::schemeName(kind));
    EXPECT_NE(table.find(name), std::string::npos) << name;
    EXPECT_NE(cost.find(name), std::string::npos) << name;
    EXPECT_NE(cdf.find(name), std::string::npos) << name;
  }
  EXPECT_NE(perFlow.find("NYC->SJC"), std::string::npos);
}

TEST(TranscontinentalFlows, SixteenDirectedPairs) {
  const auto topology = trace::Topology::ltn12();
  const auto flows = transcontinentalFlows(topology);
  EXPECT_EQ(flows.size(), 16u);
  for (const auto& flow : flows) {
    EXPECT_NE(flow.source, flow.destination);
  }
  // Both directions present.
  EXPECT_EQ(flows[0].source, flows[1].destination);
  EXPECT_EQ(flows[0].destination, flows[1].source);
}

TEST(RenderClassification, MentionsEveryBucket) {
  ProblemClassification counts;
  counts.sourceOnly = 5;
  counts.middleOnly = 2;
  const auto text = renderClassification(counts);
  EXPECT_NE(text.find("source only"), std::string::npos);
  EXPECT_NE(text.find("middle only"), std::string::npos);
  EXPECT_NE(text.find("endpoint involved"), std::string::npos);
}

}  // namespace
}  // namespace dg::playback
