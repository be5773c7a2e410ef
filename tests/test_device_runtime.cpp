#include "gpusim/device_runtime.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "util/error.hpp"

namespace spmvm::gpusim {
namespace {

std::shared_ptr<DeviceRuntime> fermi() {
  return std::make_shared<DeviceRuntime>(DeviceSpec::tesla_c2070());
}

TEST(DeviceRuntime, AllocationTracksCapacity) {
  DeviceRuntime dev(DeviceSpec::tesla_c2050());
  const std::size_t half = dev.spec().dram_bytes / 2;
  const int a = dev.alloc(half);
  EXPECT_EQ(dev.allocated_bytes(), half);
  const int b = dev.alloc(half);
  EXPECT_EQ(dev.free_bytes(), 0u);
  EXPECT_THROW(dev.alloc(1), Error);
  dev.free(a);
  EXPECT_NO_THROW(dev.alloc(half / 2));
  dev.free(b);
}

TEST(DeviceRuntime, FreeIsValidatedAndIdempotentIdsNotReused) {
  DeviceRuntime dev(DeviceSpec::tesla_c2070());
  EXPECT_THROW(dev.free(0), Error);
  const int a = dev.alloc(100);
  dev.free(a);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(DeviceRuntime, ClockAdvancesWithTransfersAndLaunches) {
  auto dev = fermi();
  EXPECT_DOUBLE_EQ(dev->elapsed_seconds(), 0.0);
  dev->transfer(1 << 20);
  const double after_transfer = dev->elapsed_seconds();
  EXPECT_GT(after_transfer, 0.0);
  KernelResult k;
  k.seconds = 1e-3;
  dev->launch(k);
  EXPECT_NEAR(dev->elapsed_seconds(), after_transfer + 1e-3, 1e-12);
  EXPECT_NEAR(dev->kernel_seconds(), 1e-3, 1e-12);
}

}  // namespace
}  // namespace spmvm::gpusim
