#include "sparse/permutation.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace spmvm {

namespace {

/// Stable sort of `idx` (indices into `keys`) by descending key. LSD
/// radix sort over the 8-bit digits of hi - key, where [lo, hi] is the
/// key range of `idx`: one counting pass per digit of the span, so a
/// span below 256 takes a single pass and a 32-bit span at most four,
/// each O(idx.size() + 256) however long one key is. Ascending digits
/// of hi - key are descending keys, and each pass keeps equal digits in
/// input order, so ties stay in index order as with std::stable_sort.
void radix_sort_descending(std::span<const index_t> keys,
                           std::span<index_t> idx,
                           std::span<index_t> scratch) {
  if (idx.size() < 2) return;
  const auto key = [keys](index_t i) {
    return keys[static_cast<std::size_t>(i)];
  };
  index_t lo = key(idx[0]);
  index_t hi = lo;
  for (const index_t i : idx) {
    lo = std::min(lo, key(i));
    hi = std::max(hi, key(i));
  }
  // Unsigned: hi - key lies in [0, span] for any pair of 32-bit keys.
  const auto top = static_cast<std::uint32_t>(hi);
  const std::uint32_t span = top - static_cast<std::uint32_t>(lo);
  std::span<index_t> src = idx;
  std::span<index_t> dst = scratch.first(idx.size());
  for (unsigned shift = 0; shift < 32 && (span >> shift) != 0; shift += 8) {
    const auto digit = [&](index_t i) {
      return ((top - static_cast<std::uint32_t>(key(i))) >> shift) & 0xFFu;
    };
    std::array<std::size_t, 256> start{};
    for (const index_t i : src) ++start[digit(i)];
    std::size_t sum = 0;
    for (std::size_t& c : start) sum += std::exchange(c, sum);
    for (const index_t i : src) dst[start[digit(i)]++] = i;
    std::swap(src, dst);
  }
  if (src.data() != idx.data()) std::copy(src.begin(), src.end(), idx.begin());
}

}  // namespace

Permutation Permutation::identity(index_t n) {
  SPMVM_REQUIRE(n >= 0, "permutation size must be >= 0");
  Permutation p;
  p.new_to_old_.resize(static_cast<std::size_t>(n));
  std::iota(p.new_to_old_.begin(), p.new_to_old_.end(), index_t{0});
  p.rebuild_inverse();
  return p;
}

Permutation Permutation::sort_descending(std::span<const index_t> keys,
                                         index_t window) {
  SPMVM_REQUIRE(window >= 1, "sort window must be >= 1");
  Permutation p = identity(static_cast<index_t>(keys.size()));
  auto& order = p.new_to_old_;
  const std::size_t n = order.size();
  const std::size_t w = static_cast<std::size_t>(window);
  std::vector<index_t> scratch(std::min(w, n));
  for (std::size_t begin = 0; begin < n; begin += w)
    radix_sort_descending(
        keys, std::span<index_t>(order).subspan(begin, std::min(w, n - begin)),
        scratch);
  p.rebuild_inverse();
  return p;
}

Permutation Permutation::from_new_to_old(std::vector<index_t> new_to_old) {
  Permutation p;
  p.new_to_old_ = std::move(new_to_old);
  p.rebuild_inverse();  // also validates bijectivity
  return p;
}

bool Permutation::is_identity() const {
  for (index_t r = 0; r < size(); ++r)
    if (old_of(r) != r) return false;
  return true;
}

void Permutation::rebuild_inverse() {
  const auto n = new_to_old_.size();
  old_to_new_.assign(n, index_t{-1});
  for (std::size_t r = 0; r < n; ++r) {
    const index_t o = new_to_old_[r];
    SPMVM_REQUIRE(o >= 0 && static_cast<std::size_t>(o) < n,
                  "permutation entry out of range");
    SPMVM_REQUIRE(old_to_new_[static_cast<std::size_t>(o)] == -1,
                  "permutation entry duplicated");
    old_to_new_[static_cast<std::size_t>(o)] = static_cast<index_t>(r);
  }
}

template void Permutation::to_permuted<float>(std::span<const float>,
                                              std::span<float>) const;
template void Permutation::to_permuted<double>(std::span<const double>,
                                               std::span<double>) const;
template void Permutation::from_permuted<float>(std::span<const float>,
                                                std::span<float>) const;
template void Permutation::from_permuted<double>(std::span<const double>,
                                                 std::span<double>) const;

}  // namespace spmvm
