// BELLPACK-style blocked ELLPACK (Choi, Singh & Vuduc, ref. [2] of the
// paper): the matrix is tiled into dense block_r x block_c blocks; block
// rows are compressed leftwards and padded ELLPACK-style. One column
// index per *block* cuts index storage by block_r*block_c, but any
// non-zero inside a tile materializes the whole tile — the format pays
// off only for matrices with genuine dense substructure (DLR2's 5x5
// blocks) and needs the block shape as a priori knowledge, which is
// exactly the contrast the paper draws with pJDS.
#pragma once

#include <vector>

#include "sparse/csr.hpp"
#include "util/aligned_buffer.hpp"

namespace spmvm {

/// Layout of a BELLPACK image before any tile is filled: the distinct
/// block columns each block row touches (block row by block row, in
/// first-touch order), the width and the padded block-row count.
struct BellpackLayout {
  std::vector<offset_t> ptr;       // n_block_rows + 1
  std::vector<index_t> block_col;  // ptr.back()
  index_t width = 0;               // most tiles in one block row
  index_t padded_block_rows = 0;   // rounded up to row_chunk
};

/// Pass 1 of Bellpack::from_csr and the whole of its pre-build sizer
/// (bellpack_size in sparse/footprint.hpp): one stamp per block column
/// marks the tiles a block row already holds.
template <class T>
BellpackLayout bellpack_layout(const Csr<T>& a, index_t block_r,
                               index_t block_c, index_t row_chunk);

template <class T>
struct Bellpack {
  index_t n_rows = 0;
  index_t n_cols = 0;
  index_t block_r = 0;  // tile height
  index_t block_c = 0;  // tile width
  index_t n_block_rows = 0;       // ceil(n_rows / block_r)
  index_t padded_block_rows = 0;  // rounded up to row_chunk
  index_t width = 0;              // max tiles per block row
  offset_t nnz = 0;               // true scalar non-zeros
  offset_t stored_blocks = 0;     // width * padded_block_rows

  // Tile slot (I, j) lives at j * padded_block_rows + I; its dense
  // payload occupies block_r*block_c consecutive scalars (row-major
  // within the tile) in val.
  AlignedVector<T> val;
  AlignedVector<index_t> block_col;      // block-column index per slot
  AlignedVector<index_t> block_row_len;  // tiles per block row

  static Bellpack from_csr(const Csr<T>& a, index_t block_r, index_t block_c,
                           index_t row_chunk = 32);

  /// Scalar slots stored including tile fill and ELLPACK padding.
  offset_t stored_entries() const {
    return stored_blocks * block_r * block_c;
  }

  /// Device bytes: dense tiles + one index per tile + tile counts.
  std::size_t bytes() const;

  /// Fraction of stored scalar slots that are fill.
  double fill_fraction() const;

  void validate() const;
};

/// y = A·x with the blocked kernel (tile-dense inner loops).
template <class T>
void spmv(const Bellpack<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads = 1);

#define SPMVM_EXTERN_BELLPACK(T)                                      \
  extern template BellpackLayout bellpack_layout(const Csr<T>&, index_t, \
                                                 index_t, index_t);      \
  extern template struct Bellpack<T>;                                 \
  extern template void spmv(const Bellpack<T>&, std::span<const T>,    \
                            std::span<T>, int)

SPMVM_EXTERN_BELLPACK(float);
SPMVM_EXTERN_BELLPACK(double);
#undef SPMVM_EXTERN_BELLPACK

}  // namespace spmvm
