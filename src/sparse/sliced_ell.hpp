// SELL-C-σ: sliced ELLPACK (Monakov et al. [12]) with a sorting window —
// the one storage behind every ELLPACK-family format of the paper.
//
// The matrix is cut into slices of `slice_height` rows (C); each slice is
// padded to its own maximum row length and stored column-major. Rows may
// be pre-sorted by descending length within windows of `sort_window` rows
// (σ): σ = 1 keeps the original order, σ >= N is a full sort.
//
// The registry's formats are presets over this one layout (the SELL-C-σ
// paper, arXiv:1307.6209):
//
//   preset        C                          σ      columns permuted
//   ellpack       n_rows rounded up to chunk 1      no   (SELL-N-1)
//   ellpack_r     same image as ellpack      1      no
//   sliced_ell    chunk                      1      no   (SELL-C-1)
//   sell_c_sigma  chunk                      σ      opt-in, square only
//   pjds          chunk (= br)               N      opt-in, square only
//
// Basis: a sorted image (σ > 1) whose columns keep their labels reads x
// through the original col_idx[] and stores row r at y[old_of(r)]
// (row_map()), as the paper's Listing 2 does, so its products are in the
// original basis. PermuteColumns::yes relabels columns as well; the
// kernels then read and write the permuted basis.
//
// ELLPACK's rectangle is a single slice, so entry (i, j) sits at
// j·padded_rows + i exactly as in Fig. 2a. pJDS is SELL-br-N: the full
// descending sort plus br-row padding blocks of Fig. 1, stored slice by
// slice instead of diagonal by diagonal (column j of slice s starts at
// slice_ptr[s] + j·C, so no col_start[] array is needed).
#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/permutation.hpp"
#include "util/aligned_buffer.hpp"

namespace spmvm {

/// The layout step of every preset: element offset of each slice of
/// `slice_height` rows, C times the slice's longest row, from the row
/// lengths in storage order (rows past the end count as empty).
/// SlicedEll::from_csr and the pre-build sizer (sliced_ell_size in
/// sparse/footprint.hpp) both call it.
AlignedVector<offset_t> slice_offsets(std::span<const index_t> row_len,
                                      index_t slice_height);

/// Slice height of the ELLPACK presets: the whole matrix as one slice of
/// n_rows rounded up to a multiple of `chunk`, at least one chunk.
index_t ellpack_slice_height(index_t n_rows, index_t chunk);

template <class T>
struct SlicedEll {
  index_t n_rows = 0;
  index_t n_cols = 0;
  index_t slice_height = 0;  // C
  index_t sort_window = 1;   // σ
  index_t n_slices = 0;
  index_t padded_rows = 0;  // n_slices * slice_height
  offset_t nnz = 0;
  Permutation perm;  // row order (identity when σ == 1)
  bool columns_permuted = false;  // built with PermuteColumns::yes?

  AlignedVector<offset_t> slice_ptr;  // n_slices + 1; element offsets
  AlignedVector<index_t> row_len;     // padded_rows
  AlignedVector<index_t> col_idx;     // slice_ptr.back(); fill is column 0
  AlignedVector<T> val;               // slice_ptr.back(); fill is zero

  static SlicedEll from_csr(const Csr<T>& a, index_t slice_height = 32,
                            index_t sort_window = 1,
                            PermuteColumns permute_columns = PermuteColumns::no);

  /// ELLPACK / ELLPACK-R (Sec. II-A, Fig. 2a/b) as SELL-N-1: one slice of
  /// n_rows rounded up to a multiple of `chunk` (the warp size;
  /// footnote 2 in the paper), original row order.
  static SlicedEll ellpack(const Csr<T>& a, index_t chunk = 32);

  /// pJDS (Sec. II-A, Fig. 1) as SELL-br-N: rows fully sorted by
  /// descending length, padded in blocks of `block_rows` (br).
  /// PermuteColumns::yes relabels columns too (symmetric permutation, for
  /// solvers that iterate in the permuted basis; needs a square matrix).
  static SlicedEll pjds(const Csr<T>& a, index_t block_rows = 32,
                        PermuteColumns permute_columns = PermuteColumns::yes);

  /// Where the kernels store image row r: y[row_map()[r]], the row's
  /// original index. nullptr when rows keep their order (σ = 1) or
  /// columns were relabelled; the kernels then store row r at y[r].
  const index_t* row_map() const {
    return sort_window > 1 && !columns_permuted ? perm.new_to_old().data()
                                                : nullptr;
  }

  index_t slice_width(index_t s) const {
    return static_cast<index_t>(
        (slice_ptr[static_cast<std::size_t>(s) + 1] -
         slice_ptr[static_cast<std::size_t>(s)]) /
        slice_height);
  }

  /// Stored entries including padding.
  offset_t stored_entries() const { return slice_ptr.back(); }

  std::size_t bytes() const;
  double fill_fraction() const;
  void validate() const;
};

extern template struct SlicedEll<float>;
extern template struct SlicedEll<double>;

}  // namespace spmvm
