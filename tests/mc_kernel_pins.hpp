// Monte-Carlo kernel pins shared by the delivery equivalence suites.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "playback/delivery_model.hpp"

namespace dg::test {

/// Every Monte-Carlo kernel pin this CPU runs, kAuto first. A pin it
/// cannot run is appended to `missing`, so a suite can check the others
/// and then report the gap with GTEST_SKIP instead of dropping the pin
/// silently.
inline std::vector<playback::detail::McKernel> runnableMcKernels(
    std::string& missing) {
  using playback::detail::McKernel;
  const std::pair<McKernel, const char*> pins[] = {
      {McKernel::kAuto, "auto"},
      {McKernel::kFusedScalar, "fused scalar"},
      {McKernel::kLanes4Avx2, "4-lane AVX2"},
      {McKernel::kLanes8Avx512, "8-lane AVX-512"},
  };
  std::vector<McKernel> kernels;
  missing.clear();
  for (const auto& [kernel, name] : pins) {
    if (playback::detail::mcKernelSupported(kernel)) {
      kernels.push_back(kernel);
    } else {
      missing += missing.empty() ? name : std::string(", ") + name;
    }
  }
  return kernels;
}

}  // namespace dg::test
