#include "gpusim/gpu_spmv.hpp"

#include <algorithm>

#include "sparse/footprint.hpp"
#include "util/error.hpp"

namespace spmvm::gpusim {

const char* to_string(FormatKind kind) {
  switch (kind) {
    case FormatKind::ellpack:
      return "ELLPACK";
    case FormatKind::ellpack_r:
      return "ELLPACK-R";
    case FormatKind::pjds:
      return "pJDS";
    case FormatKind::sliced_ell:
      return "sliced-ELL";
    case FormatKind::csr_scalar:
      return "CSR-scalar";
    case FormatKind::csr_vector:
      return "CSR-vector";
  }
  return "?";
}

namespace {
// The paper's kernel benchmark (Listing 2) permutes pJDS rows only: the
// RHS stays in the original basis and col_idx[] keeps original column
// numbers. Solvers that want to stay permuted use PermuteColumns::yes
// explicitly (see solver/).
constexpr PermuteColumns kPjdsColumns = PermuteColumns::no;
}  // namespace

template <class T>
KernelResult simulate_format(const DeviceSpec& dev, const Csr<T>& a,
                             FormatKind kind, const SimOptions& opt,
                             index_t chunk) {
  switch (kind) {
    case FormatKind::ellpack:
      return simulate(dev, SlicedEll<T>::ellpack(a, chunk), "ellpack", opt,
                      /*full_width=*/true);
    case FormatKind::ellpack_r:
      return simulate(dev, SlicedEll<T>::ellpack(a, chunk), "ellpack_r", opt);
    case FormatKind::pjds:
      return simulate(dev, SlicedEll<T>::pjds(a, chunk, kPjdsColumns), "pjds",
                      opt);
    case FormatKind::sliced_ell:
      return simulate(dev, SlicedEll<T>::from_csr(a, chunk), "sliced_ell", opt);
    case FormatKind::csr_scalar:
      return simulate_csr_scalar(dev, a, opt);
    case FormatKind::csr_vector:
      return simulate_csr_vector(dev, a, opt);
  }
  SPMVM_REQUIRE(false, "unhandled format kind");
  return {};
}

template <class T>
std::size_t device_bytes(const Csr<T>& a, FormatKind kind, index_t chunk) {
  const std::size_t vectors =
      (static_cast<std::size_t>(a.n_rows) + static_cast<std::size_t>(a.n_cols)) *
      sizeof(T);
  // Sized from the layout, as the images simulate_format builds.
  switch (kind) {
    case FormatKind::ellpack:
    case FormatKind::ellpack_r:
      return sliced_ell_size(a, ellpack_slice_height(a.n_rows, chunk), 1,
                             /*with_row_len=*/kind == FormatKind::ellpack_r)
                 .total_bytes(sizeof(T)) +
             vectors;
    case FormatKind::pjds:
      return sliced_ell_size(a, chunk, std::max<index_t>(a.n_rows, 1))
                 .total_bytes(sizeof(T)) +
             vectors;
    case FormatKind::sliced_ell:
      return sliced_ell_size(a, chunk, 1).total_bytes(sizeof(T)) + vectors;
    case FormatKind::csr_scalar:
    case FormatKind::csr_vector:
      return footprint(a).total_bytes(sizeof(T)) + vectors;
  }
  SPMVM_REQUIRE(false, "unhandled format kind");
  return 0;
}

#define SPMVM_INSTANTIATE_GPU_SPMV(T)                                     \
  template KernelResult simulate_format(const DeviceSpec&, const Csr<T>&, \
                                        FormatKind, const SimOptions&,    \
                                        index_t);                         \
  template std::size_t device_bytes(const Csr<T>&, FormatKind, index_t)

SPMVM_INSTANTIATE_GPU_SPMV(float);
SPMVM_INSTANTIATE_GPU_SPMV(double);

}  // namespace spmvm::gpusim
