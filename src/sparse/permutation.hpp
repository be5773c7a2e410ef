// Row permutations.
//
// pJDS, SELL-C-σ and JDS reorder matrix rows by descending row length.
// The sorted SELL images store each row back at its original index; JDS
// stores y in sorted row order, and from_permuted carries it back. A
// solver that wants to iterate in the sorted basis permutes the matrix
// once, P·A·Pᵀ (permute_csr in sparse/convert.hpp), before building any
// format (Sec. II-A of the paper).
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace spmvm {

class Permutation {
 public:
  Permutation() = default;

  /// Identity permutation of size n.
  static Permutation identity(index_t n);

  /// Stable sort of [0, keys.size()) by descending key. `window` limits the
  /// sorting scope: indices are sorted only within consecutive chunks of
  /// `window` elements (the σ parameter of the later SELL-C-σ format);
  /// window >= n gives the full sort used by pJDS/JDS. Each window is a
  /// radix sort: one counting pass when its keys span fewer than 256
  /// values, at most four for any keys.
  static Permutation sort_descending(std::span<const index_t> keys,
                                     index_t window);

  index_t size() const { return static_cast<index_t>(new_to_old_.size()); }

  /// Original index of permuted position r.
  index_t old_of(index_t r) const {
    return new_to_old_[static_cast<std::size_t>(r)];
  }
  /// Permuted position of original index i.
  index_t new_of(index_t i) const {
    return old_to_new_[static_cast<std::size_t>(i)];
  }

  const std::vector<index_t>& new_to_old() const { return new_to_old_; }

  /// dst[old_of(r)] = src[r] — carry a vector back to the original basis.
  template <class T>
  void from_permuted(std::span<const T> src, std::span<T> dst) const {
    for (index_t r = 0; r < size(); ++r)
      dst[static_cast<std::size_t>(old_of(r))] =
          src[static_cast<std::size_t>(r)];
  }

 private:
  std::vector<index_t> new_to_old_;
  std::vector<index_t> old_to_new_;
  void rebuild_inverse();
};

/// Whether permute_csr also relabels columns with the same permutation
/// (symmetric permutation, P·A·Pᵀ). Symmetric permutation is what lets
/// Krylov solvers iterate entirely in the permuted basis; row-only
/// permutation (P·A) leaves the RHS vector in the original basis.
enum class PermuteColumns { no, yes };

extern template void Permutation::from_permuted<float>(std::span<const float>,
                                                       std::span<float>) const;
extern template void Permutation::from_permuted<double>(
    std::span<const double>, std::span<double>) const;

}  // namespace spmvm
