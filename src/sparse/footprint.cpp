#include "sparse/footprint.hpp"

#include "util/error.hpp"

namespace spmvm {

template <class T>
Footprint footprint(const Csr<T>& a) {
  Footprint f;
  f.stored_entries = a.nnz();
  f.index_entries = a.nnz();
  f.true_nnz = a.nnz();
  f.aux_bytes = a.row_ptr.size() * sizeof(offset_t);
  return f;
}

template <class T>
Footprint footprint(const Jds<T>& a) {
  Footprint f;
  f.stored_entries = a.nnz;
  f.index_entries = a.nnz;
  f.true_nnz = a.nnz;
  f.aux_bytes = a.jd_ptr.size() * sizeof(offset_t) +
                a.row_len.size() * sizeof(index_t);
  return f;
}

template <class T>
Footprint footprint(const SlicedEll<T>& a, bool with_row_len) {
  Footprint f;
  f.stored_entries = a.stored_entries();
  f.index_entries = a.stored_entries();
  f.true_nnz = a.nnz;
  f.aux_bytes = a.slice_ptr.size() * sizeof(offset_t);
  if (with_row_len) f.aux_bytes += a.row_len.size() * sizeof(index_t);
  return f;
}

template <class T>
Footprint footprint(const Bellpack<T>& a) {
  Footprint f;
  f.stored_entries = a.stored_entries();
  f.index_entries = a.stored_blocks;  // one column index per tile
  f.true_nnz = a.nnz;
  f.aux_bytes = a.block_row_len.size() * sizeof(index_t);
  return f;
}

template <class T>
double data_reduction_percent(const SlicedEll<T>& pjds,
                              const SlicedEll<T>& ell) {
  SPMVM_REQUIRE(pjds.nnz == ell.nnz,
                "formats must describe the same matrix");
  if (ell.stored_entries() == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(pjds.stored_entries()) /
                            static_cast<double>(ell.stored_entries()));
}

#define SPMVM_INSTANTIATE_FOOTPRINT(T)                         \
  template Footprint footprint(const Csr<T>&);                 \
  template Footprint footprint(const Jds<T>&);                 \
  template Footprint footprint(const SlicedEll<T>&, bool);     \
  template Footprint footprint(const Bellpack<T>&);            \
  template double data_reduction_percent(const SlicedEll<T>&,  \
                                         const SlicedEll<T>&)

SPMVM_INSTANTIATE_FOOTPRINT(float);
SPMVM_INSTANTIATE_FOOTPRINT(double);

}  // namespace spmvm
