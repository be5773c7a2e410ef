#include "sparse/to_csr.hpp"

namespace spmvm {

template <class T>
Csr<T> to_csr(const Jds<T>& m) {
  Coo<T> coo(m.n_rows, m.n_cols);
  coo.reserve(m.nnz);
  for (index_t j = 0; j < m.width; ++j) {
    const offset_t base = m.jd_ptr[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < m.diag_len(j); ++i) {
      const std::size_t k = static_cast<std::size_t>(base + i);
      coo.add(m.perm.old_of(i), m.col_idx[k], m.val[k]);
    }
  }
  return Csr<T>::from_coo(std::move(coo));
}

template <class T>
Csr<T> to_csr(const SlicedEll<T>& m) {
  Coo<T> coo(m.n_rows, m.n_cols);
  coo.reserve(m.nnz);
  for (index_t i = 0; i < m.n_rows; ++i) {
    const index_t s = i / m.slice_height;
    const index_t r = i % m.slice_height;
    for (index_t j = 0; j < m.row_len[static_cast<std::size_t>(i)]; ++j) {
      const std::size_t k = static_cast<std::size_t>(
          m.slice_ptr[static_cast<std::size_t>(s)] +
          static_cast<offset_t>(j) * m.slice_height + r);
      coo.add(m.perm.old_of(i), m.col_idx[k], m.val[k]);
    }
  }
  return Csr<T>::from_coo(std::move(coo));
}

template <class T>
Csr<T> to_csr(const Bellpack<T>& m) {
  Coo<T> coo(m.n_rows, m.n_cols);
  coo.reserve(m.nnz);
  const std::size_t tile_scalars =
      static_cast<std::size_t>(m.block_r) * static_cast<std::size_t>(m.block_c);
  for (index_t I = 0; I < m.n_block_rows; ++I) {
    for (index_t j = 0; j < m.block_row_len[static_cast<std::size_t>(I)];
         ++j) {
      const std::size_t slot = static_cast<std::size_t>(j) *
                                   static_cast<std::size_t>(m.padded_block_rows) +
                               static_cast<std::size_t>(I);
      const index_t r0 = I * m.block_r;
      const index_t c0 = m.block_col[slot] * m.block_c;
      for (index_t r = 0; r < m.block_r && r0 + r < m.n_rows; ++r)
        for (index_t c = 0; c < m.block_c && c0 + c < m.n_cols; ++c) {
          const T v = m.val[slot * tile_scalars +
                            static_cast<std::size_t>(r) *
                                static_cast<std::size_t>(m.block_c) +
                            static_cast<std::size_t>(c)];
          // Tile fill is dropped: only true non-zeros survive.
          if (v != T{0}) coo.add(r0 + r, c0 + c, v);
        }
    }
  }
  return Csr<T>::from_coo(std::move(coo));
}

#define SPMVM_INSTANTIATE_TO_CSR(T)                            \
  template Csr<T> to_csr(const Jds<T>&);                       \
  template Csr<T> to_csr(const SlicedEll<T>&);                 \
  template Csr<T> to_csr(const Bellpack<T>&)

SPMVM_INSTANTIATE_TO_CSR(float);
SPMVM_INSTANTIATE_TO_CSR(double);

}  // namespace spmvm
