// Group shape validation, spec parsing, labels, and the group-scheme
// name registry.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "mcast/group.hpp"
#include "mcast/scheme.hpp"
#include "trace/topology.hpp"

namespace dg::mcast {
namespace {

Group makeGroup(graph::NodeId source, std::vector<graph::NodeId> receivers) {
  Group group;
  group.source = source;
  group.receivers = std::move(receivers);
  return group;
}

TEST(Group, ValidateAcceptsWellFormedGroups) {
  EXPECT_NO_THROW(validateGroup(makeGroup(0, {1, 2, 3}), 4));
  EXPECT_NO_THROW(validateGroup(makeGroup(3, {0}), 4));
  Group withDeadlines = makeGroup(0, {1, 2});
  withDeadlines.deadlines = {util::milliseconds(65), util::milliseconds(80)};
  EXPECT_NO_THROW(validateGroup(withDeadlines, 3));
}

TEST(Group, ValidateRejectsMalformedGroups) {
  EXPECT_THROW(validateGroup(makeGroup(0, {}), 4), std::invalid_argument);
  EXPECT_THROW(validateGroup(makeGroup(4, {1}), 4), std::invalid_argument);
  EXPECT_THROW(validateGroup(makeGroup(0, {4}), 4), std::invalid_argument);
  EXPECT_THROW(validateGroup(makeGroup(0, {0}), 4), std::invalid_argument);
  EXPECT_THROW(validateGroup(makeGroup(0, {1, 2, 1}), 4),
               std::invalid_argument);
  Group badDeadlines = makeGroup(0, {1, 2});
  badDeadlines.deadlines = {util::milliseconds(65)};  // not parallel
  EXPECT_THROW(validateGroup(badDeadlines, 3), std::invalid_argument);
  badDeadlines.deadlines = {util::milliseconds(65), 0};  // non-positive
  EXPECT_THROW(validateGroup(badDeadlines, 3), std::invalid_argument);
}

TEST(Group, ReceiverAccessors) {
  Group group = makeGroup(0, {2, 3});
  const routing::Flow flow = receiverFlow(group, 1);
  EXPECT_EQ(flow.source, 0u);
  EXPECT_EQ(flow.destination, 3u);
  EXPECT_EQ(receiverDeadline(group, 0, util::milliseconds(65)),
            util::milliseconds(65));
  group.deadlines = {util::milliseconds(10), util::milliseconds(20)};
  EXPECT_EQ(receiverDeadline(group, 1, util::milliseconds(65)),
            util::milliseconds(20));
}

TEST(Group, Labels) {
  const Group group = makeGroup(0, {2, 3});
  EXPECT_EQ(groupLabel(group), "0->2+3");
  const trace::Topology topology = trace::Topology::ltn12();
  Group named;
  named.source = topology.at("NYC");
  named.receivers = {topology.at("SJC"), topology.at("LAX")};
  EXPECT_EQ(groupName(named, topology), "NYC->SJC+LAX");
}

TEST(Group, ParseGroupSpecRoundTripsNames) {
  const trace::Topology topology = trace::Topology::ltn12();
  const Group group = parseGroupSpec("NYC:SJC+LAX+DEN", topology);
  EXPECT_EQ(group.source, topology.at("NYC"));
  ASSERT_EQ(group.receivers.size(), 3u);
  EXPECT_EQ(group.receivers[0], topology.at("SJC"));
  EXPECT_EQ(group.receivers[1], topology.at("LAX"));
  EXPECT_EQ(group.receivers[2], topology.at("DEN"));
  EXPECT_TRUE(group.deadlines.empty());
  EXPECT_EQ(groupName(group, topology), "NYC->SJC+LAX+DEN");
}

TEST(Group, ParseGroupSpecRejectsBadInput) {
  const trace::Topology topology = trace::Topology::ltn12();
  EXPECT_THROW(parseGroupSpec("NYC", topology), std::invalid_argument);
  EXPECT_THROW(parseGroupSpec("NYC:", topology), std::invalid_argument);
  EXPECT_THROW(parseGroupSpec("NOPE:SJC", topology), std::invalid_argument);
  EXPECT_THROW(parseGroupSpec("NYC:NOPE", topology), std::invalid_argument);
  EXPECT_THROW(parseGroupSpec("NYC:NYC", topology), std::invalid_argument);
  EXPECT_THROW(parseGroupSpec("NYC:SJC+SJC", topology),
               std::invalid_argument);
}

TEST(Group, ParseGroupListSplitsOnCommas) {
  const trace::Topology topology = trace::Topology::ltn12();
  const auto groups = parseGroupList("NYC:SJC+LAX, DEN:ATL", topology);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].source, topology.at("NYC"));
  EXPECT_EQ(groups[1].source, topology.at("DEN"));
  ASSERT_EQ(groups[1].receivers.size(), 1u);
  EXPECT_EQ(groups[1].receivers[0], topology.at("ATL"));
  EXPECT_THROW(parseGroupList("", topology), std::invalid_argument);
  EXPECT_THROW(parseGroupList(",,", topology), std::invalid_argument);
}

TEST(GroupScheme, NamesRoundTripAndErrorsListValidNames) {
  for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
    EXPECT_EQ(parseGroupSchemeKind(groupSchemeName(kind)), kind);
  }
  try {
    parseGroupSchemeKind("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
      EXPECT_NE(what.find(groupSchemeName(kind)), std::string::npos)
          << what << " should list " << groupSchemeName(kind);
    }
  }
}

TEST(GroupScheme, UnicastEquivalentCoversEveryKind) {
  // The lift is injective: six group kinds map onto six distinct unicast
  // kinds.
  std::vector<routing::SchemeKind> seen;
  for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
    const routing::SchemeKind unicast = unicastEquivalent(kind);
    for (const routing::SchemeKind prior : seen) EXPECT_NE(prior, unicast);
    seen.push_back(unicast);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(GroupScheme, OnlyStaticKindsHaveASchemeObject) {
  // An adaptive kind's graph is the union of its receivers' decisions
  // (uniteSelections); only the static kinds freeze a graph of their own.
  const trace::Topology topology = trace::Topology::ltn12();
  const Group group =
      makeGroup(topology.at("NYC"), {topology.at("SJC"), topology.at("LAX")});
  for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
    if (isAdaptive(kind)) {
      EXPECT_THROW(makeGroupScheme(kind, topology.graph(), group, {}),
                   std::invalid_argument)
          << groupSchemeName(kind);
    } else {
      EXPECT_NO_THROW(makeGroupScheme(kind, topology.graph(), group, {}))
          << groupSchemeName(kind);
    }
  }
}

TEST(GroupScheme, UniteSelectionsTakesEveryReceiversEdges) {
  const trace::Topology topology = trace::Topology::ltn12();
  graph::DisseminationGraph out(topology.graph(), 0, 1);
  out.addEdge(7);
  const std::vector<graph::EdgeId> a{0, 2};
  const std::vector<graph::EdgeId> b{2, 3};
  const std::vector<const std::vector<graph::EdgeId>*> selections{&a, &b};
  uniteSelections(out, selections);
  EXPECT_EQ(out.edges(), (std::vector<graph::EdgeId>{0, 2, 3}));
}

}  // namespace
}  // namespace dg::mcast
