// Group playback: the group-shaped names of the one replay engine
// (playback::PlaybackEngine), which scores a receiver set under one group
// scheme -- per-receiver miss/latency plus group-level delivered-to-all
// and delivered-to-k accounting -- and a unicast flow as its
// one-receiver case.
#pragma once

#include "playback/playback.hpp"

namespace dg::mcast {

using playback::GroupPlaybackParams;
using playback::GroupReceiverResult;
using playback::GroupSchemeResult;
using GroupRunPartial = playback::RunPartial;

class GroupPlaybackEngine : public playback::PlaybackEngine {
 public:
  GroupPlaybackEngine(const graph::Graph& overlay, const trace::Trace& trace,
                      GroupPlaybackParams params)
      : PlaybackEngine(overlay, trace, params.base, params.deliveredK) {}
};

}  // namespace dg::mcast
