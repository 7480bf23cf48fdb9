#include "core/relay.hpp"

#include <algorithm>

namespace dg::core {

RelayState::RelayState(graph::NodeId id, const graph::Graph& overlay,
                       RelayConfig config)
    : id_(id), overlay_(&overlay), config_(config) {}

bool RelayState::firstCopy(net::FlowId flow, net::SequenceNumber sequence) {
  return seen_.try_emplace(flow).first->second.insert(sequence);
}

net::SequenceNumber RelayState::noteArrival(graph::EdgeId edge,
                                            net::FlowId flow,
                                            net::SequenceNumber sequence) {
  const auto [it, fresh] = expected_.try_emplace(key(edge, flow), 0);
  net::SequenceNumber& expected = it->second;
  if (fresh && restarted_) {
    // What this node missed while down is mostly past its deadline, and
    // the upstream would resend it all, so the first arrival after a
    // restart only sets the cursor.
    expected = sequence + 1;
    return sequence;
  }
  if (sequence < expected) return sequence;  // late fill, all good
  // The cursor moves past every gap, so each missing sequence is
  // requested at most once.
  const net::SequenceNumber first =
      std::max(expected, sequence > kMaxNackSequences
                             ? sequence - kMaxNackSequences
                             : net::SequenceNumber{0});
  expected = sequence + 1;
  return first;
}

}  // namespace dg::core
