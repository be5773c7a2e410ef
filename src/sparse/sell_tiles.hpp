// Row tiles of a SELL-C-σ image, shared by the single-vector host
// kernels (sparse/spmv_host.cpp) and the block kernel (core/spmmv.cpp).
// Internal to the kernel sources; not part of the public sparse API.
//
// A kernel walks each slice in tiles of at most kSellRowTile rows, so the
// sums of one tile stay in cache across every column of the slice: the
// one-slice ELLPACK image (C = n_rows rounded up) would otherwise stream
// its whole LHS once per column. A slice of C <= kSellRowTile rows is one
// tile. Threads split on tile boundaries, balanced by stored entries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "sparse/sliced_ell.hpp"
#include "util/parallel.hpp"

namespace spmvm::detail {

inline constexpr std::size_t kSellRowTile = 1024;

template <class T>
std::size_t tiles_per_slice(const SlicedEll<T>& a) {
  return (static_cast<std::size_t>(a.slice_height) + kSellRowTile - 1) /
         kSellRowTile;
}

/// Calls fn(s, r0, rows) for tiles [begin, end) in slice order: rows
/// [r0, r0 + rows) of slice s, padding rows included.
template <class T, class Fn>
void for_each_tile(const SlicedEll<T>& a, std::size_t begin, std::size_t end,
                   Fn&& fn) {
  const auto C = static_cast<std::size_t>(a.slice_height);
  const std::size_t tps = tiles_per_slice(a);
  std::size_t s = begin / tps;
  std::size_t r0 = begin % tps * kSellRowTile;
  for (std::size_t t = begin; t < end; ++t) {
    fn(s, r0, std::min(kSellRowTile, C - r0));
    r0 += kSellRowTile;
    if (r0 >= C) {
      r0 = 0;
      ++s;
    }
  }
}

/// fn(begin, end) over tile ranges on `n_threads` threads, each range
/// holding about the same number of stored entries. With one tile per
/// slice the tile offsets are slice_ptr itself.
template <class T, class Fn>
void parallel_for_tiles(const SlicedEll<T>& a, int n_threads, Fn&& fn) {
  const std::size_t tps = tiles_per_slice(a);
  if (tps == 1) {
    parallel_for_balanced(std::span<const offset_t>(a.slice_ptr), n_threads,
                          fn);
    return;
  }
  const std::size_t n_tiles = static_cast<std::size_t>(a.n_slices) * tps;
  if (n_threads <= 1) {
    if (n_tiles > 0) fn(std::size_t{0}, n_tiles);
    return;
  }
  std::vector<offset_t> off(n_tiles + 1, 0);
  std::size_t t = 0;
  for_each_tile(a, 0, n_tiles, [&](std::size_t s, std::size_t, std::size_t rows) {
    off[t + 1] = off[t] + static_cast<offset_t>(
                              a.slice_width(static_cast<index_t>(s))) *
                              static_cast<offset_t>(rows);
    ++t;
  });
  parallel_for_balanced(std::span<const offset_t>(off), n_threads, fn);
}

}  // namespace spmvm::detail
