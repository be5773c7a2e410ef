// CUDA-like device runtime on top of the performance model.
//
// The simulator's kernel and PCIe models are packaged as an executable
// runtime: buffers are allocated against the card's real capacity
// (allocation fails when a format does not fit, like DLR2-as-ELLPACK on
// a C2050), and transfers and launches advance a simulated device clock.
// exec's gpusim backend (exec/backends.cpp) binds format plans to it and
// computes y = A·x on the host data, so applications get correct
// numerics together with modeled timings.
#pragma once

#include <vector>

#include "gpusim/kernel_sim.hpp"

namespace spmvm::gpusim {

/// One virtual GPGPU: tracks allocated bytes and elapsed device time.
class DeviceRuntime {
 public:
  explicit DeviceRuntime(DeviceSpec spec, bool ecc = true);

  const DeviceSpec& spec() const { return spec_; }
  bool ecc() const { return ecc_; }

  /// Reserve device memory; throws spmvm::Error when the card is full.
  /// Returns an opaque allocation id.
  int alloc(std::size_t bytes);
  /// Release an allocation (idempotent ids are not reused).
  void free(int allocation);

  std::size_t allocated_bytes() const { return allocated_; }
  std::size_t free_bytes() const { return spec_.dram_bytes - allocated_; }

  /// Account a host-to-device or device-to-host transfer.
  void transfer(std::size_t bytes);

  /// Account a kernel execution.
  void launch(const KernelResult& kernel);

  /// Simulated seconds elapsed on this device so far.
  double elapsed_seconds() const { return clock_; }
  double transfer_seconds() const { return transfer_clock_; }
  double kernel_seconds() const { return kernel_clock_; }

 private:
  DeviceSpec spec_;
  bool ecc_;
  std::size_t allocated_ = 0;
  std::vector<std::size_t> allocations_;
  double clock_ = 0.0;
  double transfer_clock_ = 0.0;
  double kernel_clock_ = 0.0;
};

}  // namespace spmvm::gpusim
