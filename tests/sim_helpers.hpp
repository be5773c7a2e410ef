// Simulator fixture: one spMVM of a registry format's simulated kernel,
// set up the way the paper benchmarks the formats.
#pragma once

#include <string_view>

#include "formats/registry.hpp"

namespace spmvm::testing {

/// Simulate registry format `name` built from `a` with the default plan
/// options (the paper's Listing 2 basis).
template <class T>
gpusim::KernelResult simulate_named(const gpusim::DeviceSpec& dev,
                                    const Csr<T>& a, std::string_view name,
                                    const gpusim::SimOptions& opt = {}) {
  return formats::registry<T>()
      .build(name, a)
      ->simulate(dev, opt)
      .value();
}

}  // namespace spmvm::testing
