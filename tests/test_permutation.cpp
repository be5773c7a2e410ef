#include "sparse/permutation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace spmvm {
namespace {

/// The identity's new -> old map: 0, 1, ..., n - 1.
std::vector<index_t> iota(index_t n) {
  std::vector<index_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), index_t{0});
  return v;
}

TEST(Permutation, IdentityMapsToSelf) {
  const auto p = Permutation::identity(5);
  EXPECT_EQ(p.new_to_old(), iota(5));
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_EQ(p.old_of(i), i);
    EXPECT_EQ(p.new_of(i), i);
  }
}

TEST(Permutation, SortDescendingFullWindow) {
  const std::vector<index_t> keys = {3, 1, 4, 1, 5};
  const auto p = Permutation::sort_descending(keys, 5);
  // Sorted keys: 5(idx4), 4(idx2), 3(idx0), 1(idx1), 1(idx3) — stable.
  EXPECT_EQ(p.old_of(0), 4);
  EXPECT_EQ(p.old_of(1), 2);
  EXPECT_EQ(p.old_of(2), 0);
  EXPECT_EQ(p.old_of(3), 1);
  EXPECT_EQ(p.old_of(4), 3);
}

TEST(Permutation, SortDescendingIsStable) {
  const std::vector<index_t> keys = {2, 2, 2};
  const auto p = Permutation::sort_descending(keys, 3);
  EXPECT_EQ(p.new_to_old(), iota(3));
}

TEST(Permutation, WindowLimitsSortScope) {
  const std::vector<index_t> keys = {1, 9, 2, 8};
  const auto p = Permutation::sort_descending(keys, 2);
  // Window [0,2): 9,1 -> order 1,0. Window [2,4): 8,2 -> order 3,2.
  EXPECT_EQ(p.old_of(0), 1);
  EXPECT_EQ(p.old_of(1), 0);
  EXPECT_EQ(p.old_of(2), 3);
  EXPECT_EQ(p.old_of(3), 2);
}

TEST(Permutation, WindowOneIsIdentity) {
  const std::vector<index_t> keys = {1, 9, 2, 8};
  EXPECT_EQ(Permutation::sort_descending(keys, 1).new_to_old(), iota(4));
}

TEST(Permutation, InverseConsistency) {
  const std::vector<index_t> keys = {5, 3, 9, 1, 7, 7};
  const auto p = Permutation::sort_descending(keys, 6);
  for (index_t r = 0; r < p.size(); ++r) EXPECT_EQ(p.new_of(p.old_of(r)), r);
  for (index_t i = 0; i < p.size(); ++i) EXPECT_EQ(p.old_of(p.new_of(i)), i);
}

/// The comparison sort sort_descending ran before its radix sort: the
/// order it must reproduce, ties included.
std::vector<index_t> stable_sort_oracle(std::span<const index_t> keys,
                                        index_t window) {
  std::vector<index_t> order(keys.size());
  std::iota(order.begin(), order.end(), index_t{0});
  const std::size_t n = order.size();
  const std::size_t w = static_cast<std::size_t>(window);
  for (std::size_t begin = 0; begin < n; begin += w) {
    const std::size_t end = std::min(begin + w, n);
    std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
                     order.begin() + static_cast<std::ptrdiff_t>(end),
                     [&keys](index_t a, index_t b) {
                       return keys[static_cast<std::size_t>(a)] >
                              keys[static_cast<std::size_t>(b)];
                     });
  }
  return order;
}

TEST(Permutation, SortDescendingMatchesStableSortOracle) {
  // Key ranges: one digit with many ties, just past one digit, past two
  // digits, and the whole 32-bit range (four digits, negative keys).
  struct Range {
    const char* name;
    std::int64_t lo, hi;
  };
  const Range ranges[] = {
      {"span 4", 0, 3},
      {"span 255", 0, 254},
      {"span 300", 0, 299},
      {"span 70000", 0, 69'999},
      {"int32", std::numeric_limits<index_t>::min(),
       std::numeric_limits<index_t>::max()}};
  Rng rng(2024);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{1000}})
    for (const Range& r : ranges)
      for (const bool dense_row : {false, true}) {
        // A third of the keys are zero (empty rows).
        std::vector<index_t> keys(n);
        const auto width = static_cast<std::uint64_t>(r.hi - r.lo + 1);
        for (index_t& k : keys)
          k = rng.next_below(3) == 0
                  ? 0
                  : static_cast<index_t>(
                        r.lo +
                        static_cast<std::int64_t>(rng.next_below(width)));
        const auto sizes = {std::size_t{1}, std::size_t{2}, std::size_t{7},
                            std::size_t{256}, n, n + 5};
        for (const std::size_t w : sizes) {
          const auto window =
              static_cast<index_t>(std::max<std::size_t>(w, 1));
          std::vector<index_t> k = keys;
          // One row as long as a dense row of a 10^6-column matrix in
          // every window.
          if (dense_row)
            for (std::size_t b = 0; b < n;
                 b += static_cast<std::size_t>(window))
              k[b + rng.next_below(std::min<std::size_t>(
                        static_cast<std::size_t>(window), n - b))] =
                  1'000'000;
          SCOPED_TRACE(std::string(r.name) + ", n " + std::to_string(n) +
                       ", window " + std::to_string(window) +
                       (dense_row ? ", dense row" : ""));
          EXPECT_EQ(Permutation::sort_descending(k, window).new_to_old(),
                    stable_sort_oracle(k, window));
        }
      }
}

TEST(Permutation, VectorRoundTrip) {
  // Keys that sort into the new -> old map {2, 0, 3, 1}.
  const std::vector<index_t> keys = {2, 0, 3, 1};
  const auto p = Permutation::sort_descending(keys, 4);
  const std::vector<double> original = {10, 11, 12, 13};
  std::vector<double> permuted(4), back(4);
  for (index_t r = 0; r < 4; ++r)
    permuted[static_cast<std::size_t>(r)] =
        original[static_cast<std::size_t>(p.old_of(r))];
  EXPECT_EQ(permuted, (std::vector<double>{12, 10, 13, 11}));
  p.from_permuted<double>(permuted, back);
  EXPECT_EQ(back, original);
}

}  // namespace
}  // namespace spmvm
