// Memory footprint accounting across storage formats (Table I's
// "data reduction" row and the storage sizes of Fig. 2).
#pragma once

#include "sparse/bellpack.hpp"
#include "sparse/csr.hpp"
#include "sparse/jds.hpp"
#include "sparse/sliced_ell.hpp"

namespace spmvm {

/// Byte breakdown of one matrix representation on the device, split by
/// the scalar size so SP/DP footprints can both be reported.
struct Footprint {
  offset_t stored_entries = 0;  // matrix entries incl. zero fill
  offset_t index_entries = 0;   // column indices stored (== stored_entries
                                // except blocked formats: one per tile)
  offset_t true_nnz = 0;
  std::size_t aux_bytes = 0;  // row_len / slice_ptr / jd_ptr / row_ptr

  std::size_t value_bytes(std::size_t scalar_size) const {
    return static_cast<std::size_t>(stored_entries) * scalar_size;
  }
  std::size_t index_bytes() const {
    return static_cast<std::size_t>(index_entries) * sizeof(index_t);
  }
  std::size_t total_bytes(std::size_t scalar_size) const {
    return value_bytes(scalar_size) + index_bytes() + aux_bytes;
  }
  /// Fill entries relative to true non-zeros (0 = perfectly compact).
  double overhead_vs_minimum() const {
    return true_nnz == 0 ? 0.0
                         : static_cast<double>(stored_entries - true_nnz) /
                               static_cast<double>(true_nnz);
  }
};

template <class T>
Footprint footprint(const Csr<T>& a);
template <class T>
Footprint footprint(const Jds<T>& a);
/// Any SELL-C-σ preset: val + col_idx + slice_ptr[], plus row_len[] when
/// the kernel reads it — every preset but plain ELLPACK, whose lanes all
/// run the full width (Fig. 2a; ELLPACK-R's rowmax[] is row_len[]).
template <class T>
Footprint footprint(const SlicedEll<T>& a, bool with_row_len = true);
template <class T>
Footprint footprint(const Bellpack<T>& a);

/// Pre-build sizes: the footprint() each from_csr would give, from the
/// builder's own layout step and without storing an entry. The format
/// registry's sizers wrap these; the `auto` plan ranks candidates by them.
///
/// SlicedEll::from_csr(a, C, σ): row lengths ordered by the builder's
/// own Permutation::sort_descending within windows of σ rows, then
/// slice_offsets. `with_row_len` as in footprint().
template <class T>
Footprint sliced_ell_size(const Csr<T>& a, index_t slice_height,
                          index_t sort_window, bool with_row_len = true);
/// Jds::from_csr: nnz entries, W + 1 diagonal offsets, n row lengths.
template <class T>
Footprint jds_size(const Csr<T>& a);
/// Bellpack::from_csr: its pass 1 (bellpack_layout) fixes the width.
template <class T>
Footprint bellpack_size(const Csr<T>& a, index_t block_r, index_t block_c,
                        index_t row_chunk = 32);

/// Table I, first row: percentage of ELLPACK storage saved by pJDS,
/// 100 * (1 - stored_pJDS / stored_ELLPACK), counted in matrix entries
/// (values + indices scale identically). Takes the `pjds` and `ellpack`
/// presets of one matrix.
template <class T>
double data_reduction_percent(const SlicedEll<T>& pjds,
                              const SlicedEll<T>& ell);

#define SPMVM_EXTERN_FOOTPRINT(T)                                     \
  extern template Footprint footprint(const Csr<T>&);                 \
  extern template Footprint footprint(const Jds<T>&);                 \
  extern template Footprint footprint(const SlicedEll<T>&, bool);     \
  extern template Footprint footprint(const Bellpack<T>&);            \
  extern template Footprint sliced_ell_size(const Csr<T>&, index_t,   \
                                            index_t, bool);           \
  extern template Footprint jds_size(const Csr<T>&);                  \
  extern template Footprint bellpack_size(const Csr<T>&, index_t,     \
                                          index_t, index_t);          \
  extern template double data_reduction_percent(const SlicedEll<T>&,  \
                                                const SlicedEll<T>&)

SPMVM_EXTERN_FOOTPRINT(float);
SPMVM_EXTERN_FOOTPRINT(double);
#undef SPMVM_EXTERN_FOOTPRINT

}  // namespace spmvm
