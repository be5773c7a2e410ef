#include "gpusim/device_runtime.hpp"

#include "gpusim/pcie.hpp"
#include "util/error.hpp"

namespace spmvm::gpusim {

DeviceRuntime::DeviceRuntime(DeviceSpec spec, bool ecc)
    : spec_(std::move(spec)), ecc_(ecc) {}

int DeviceRuntime::alloc(std::size_t bytes) {
  SPMVM_REQUIRE(allocated_ + bytes <= spec_.dram_bytes,
                "device memory exhausted on " + spec_.name + ": need " +
                    std::to_string(bytes) + " B, free " +
                    std::to_string(free_bytes()) + " B");
  allocated_ += bytes;
  allocations_.push_back(bytes);
  return static_cast<int>(allocations_.size()) - 1;
}

void DeviceRuntime::free(int allocation) {
  SPMVM_REQUIRE(allocation >= 0 &&
                    static_cast<std::size_t>(allocation) < allocations_.size(),
                "unknown allocation id");
  allocated_ -= allocations_[static_cast<std::size_t>(allocation)];
  allocations_[static_cast<std::size_t>(allocation)] = 0;
}

void DeviceRuntime::transfer(std::size_t bytes) {
  const double t = pcie_seconds(spec_, bytes);
  clock_ += t;
  transfer_clock_ += t;
}

void DeviceRuntime::launch(const KernelResult& kernel) {
  clock_ += kernel.seconds;
  kernel_clock_ += kernel.seconds;
}

}  // namespace spmvm::gpusim
