#include "sparse/rcm.hpp"

#include <gtest/gtest.h>

#include "matgen/generators.hpp"
#include "sim_helpers.hpp"
#include "sparse/convert.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace spmvm {
namespace {

TEST(Bandwidth, KnownValues) {
  EXPECT_EQ(bandwidth(make_banded<double>(50, 3)), 3);
  Coo<double> coo(10, 10);
  for (index_t i = 0; i < 10; ++i) coo.add(i, i, 1.0);
  EXPECT_EQ(bandwidth(Csr<double>::from_coo(std::move(coo))), 0);
}

TEST(Rcm, IsValidPermutation) {
  const auto a = spmvm::testing::random_csr<double>(200, 200, 1, 6, 1);
  const auto p = reverse_cuthill_mckee(a);
  EXPECT_EQ(p.size(), 200);
  // Permuting must preserve the product (P A Pᵀ identity check).
  const auto b = permute_csr(a, p, PermuteColumns::yes);
  b.validate();
  EXPECT_EQ(b.nnz(), a.nnz());
}

TEST(Rcm, RecoversBandStructureFromShuffledBandedMatrix) {
  // Shuffle a banded matrix; RCM must bring the bandwidth back near the
  // original band.
  const auto banded = make_banded<double>(300, 3);
  Rng rng(7);
  std::vector<index_t> shuffle(300);
  for (index_t i = 0; i < 300; ++i) shuffle[static_cast<std::size_t>(i)] = i;
  for (index_t i = 299; i > 0; --i)
    std::swap(shuffle[static_cast<std::size_t>(i)],
              shuffle[static_cast<std::size_t>(
                  rng.next_below(static_cast<std::uint64_t>(i) + 1))]);
  const auto scrambled = permute_csr(
      banded, Permutation::from_new_to_old(shuffle), PermuteColumns::yes);
  ASSERT_GT(bandwidth(scrambled), 50);

  const auto p = reverse_cuthill_mckee(scrambled);
  const auto restored = permute_csr(scrambled, p, PermuteColumns::yes);
  EXPECT_LT(bandwidth(restored), 12);  // within ~4x of the true band
}

TEST(Rcm, ReducesBandwidthOfStencil) {
  // 2D stencil numbered row-by-row already has bandwidth nx; RCM must
  // not make it dramatically worse (level sets give comparable width).
  const auto a = make_poisson2d<double>(20, 20);
  const auto p = reverse_cuthill_mckee(a);
  const auto b = permute_csr(a, p, PermuteColumns::yes);
  EXPECT_LE(bandwidth(b), 2 * bandwidth(a));
}

TEST(Rcm, HandlesDisconnectedComponents) {
  // Two independent chains.
  Coo<double> coo(10, 10);
  for (index_t i = 0; i < 4; ++i) coo.add_symmetric(i, i + 1, 1.0);
  for (index_t i = 6; i < 9; ++i) coo.add_symmetric(i, i + 1, 1.0);
  coo.add(5, 5, 1.0);  // isolated with self-loop
  const auto a = Csr<double>::from_coo(std::move(coo));
  const auto p = reverse_cuthill_mckee(a);
  EXPECT_EQ(p.size(), 10);  // every vertex appears exactly once
}

TEST(Rcm, WorksOnNonsymmetricPattern) {
  Coo<double> coo(6, 6);
  coo.add(0, 5, 1.0);  // only one direction present
  coo.add(1, 2, 1.0);
  coo.add(3, 3, 1.0);
  const auto a = Csr<double>::from_coo(std::move(coo));
  EXPECT_NO_THROW(reverse_cuthill_mckee(a));
}

TEST(Rcm, ImprovesMeasuredAlphaOnScrambledMatrix) {
  // The payoff the simulator can see: a locality-destroyed matrix has a
  // high RHS re-load factor; RCM restores locality and lowers α.
  // The vector (2 MB) must exceed the 768 kB L2 for scrambling to hurt.
  constexpr index_t kN = 250000;
  const auto banded = make_banded<double>(kN, 6);
  Rng rng(11);
  std::vector<index_t> shuffle(kN);
  for (index_t i = 0; i < kN; ++i)
    shuffle[static_cast<std::size_t>(i)] = i;
  for (index_t i = kN - 1; i > 0; --i)
    std::swap(shuffle[static_cast<std::size_t>(i)],
              shuffle[static_cast<std::size_t>(
                  rng.next_below(static_cast<std::uint64_t>(i) + 1))]);
  const auto scrambled = permute_csr(
      banded, Permutation::from_new_to_old(shuffle), PermuteColumns::yes);
  const auto restored = permute_csr(scrambled,
                                    reverse_cuthill_mckee(scrambled),
                                    PermuteColumns::yes);

  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  const auto before = testing::simulate_named(dev, scrambled, "ellpack_r");
  const auto after = testing::simulate_named(dev, restored, "ellpack_r");
  EXPECT_LT(after.stats.measured_alpha(8),
            0.5 * before.stats.measured_alpha(8));
  EXPECT_GT(after.gflops, before.gflops);
}

}  // namespace
}  // namespace spmvm
