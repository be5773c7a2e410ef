#include "sparse/pjds_spmv.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sparse/footprint.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "sparse/kernel_record.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace spmvm {

using detail::kernel_work;
using detail::record_kernel;

namespace {
template <class T>
void check_shapes(const Pjds<T>& a, std::span<const T> x, std::span<T> y) {
  SPMVM_REQUIRE(x.size() >= static_cast<std::size_t>(a.n_cols),
                "input vector too short");
  SPMVM_REQUIRE(y.size() >= static_cast<std::size_t>(a.n_rows),
                "output vector too short");
}

// Row tile of the diagonal-major traversal: small enough that the
// accumulator strip stays cache-resident across all `width` passes.
constexpr index_t kPjdsRowTile = 1024;

/// Effective bytes per call: the stored matrix (footprint accounting)
/// plus one RHS read and one LHS write — see sparse/spmv_host.cpp.
template <class T>
std::uint64_t kernel_bytes(const Pjds<T>& a) {
  return static_cast<std::uint64_t>(footprint(a).total_bytes(sizeof(T))) +
         (static_cast<std::uint64_t>(a.n_rows) +
          static_cast<std::uint64_t>(a.n_cols)) *
             sizeof(T);
}

/// Rows [rb, re) of y via jagged-diagonal-major traversal: for each row
/// tile, stream every diagonal's contiguous val/col segment with a SIMD
/// inner loop over rows. Per-row summation order (ascending diagonal
/// index) is identical to the row-major formulation, so results are
/// bitwise reproducible across any thread partition. Padding slots hold
/// val = 0 / col_idx = 0 and contribute exact zeros.
template <class T, bool Fused>
void pjds_rows(const Pjds<T>& a, const T* __restrict x, T* __restrict y,
               T alpha, T beta, index_t rb, index_t re) {
  const T* __restrict val =
      std::assume_aligned<kDeviceAlignment>(a.val.data());
  const index_t* __restrict col =
      std::assume_aligned<kDeviceAlignment>(a.col_idx.data());
  const offset_t* __restrict cs = a.col_start.data();
  T acc[kPjdsRowTile];
  for (index_t tb = rb; tb < re; tb += kPjdsRowTile) {
    const index_t te = std::min<index_t>(re, tb + kPjdsRowTile);
    const index_t tile = te - tb;
    for (index_t r = 0; r < tile; ++r) acc[r] = T{0};
    for (index_t j = 0; j < a.width; ++j) {
      const index_t L = a.diag_len(j);
      if (L <= tb) break;  // diagonals only shrink: nothing further back
      const index_t e = std::min(te, L);
      const offset_t base = cs[j];
#pragma omp simd
      for (index_t i = tb; i < e; ++i)
        acc[i - tb] += val[base + i] * x[col[base + i]];
    }
    if constexpr (Fused) {
      for (index_t r = 0; r < tile; ++r)
        y[tb + r] = beta * y[tb + r] + alpha * acc[r];
    } else {
      for (index_t r = 0; r < tile; ++r) y[tb + r] = acc[r];
    }
  }
}

/// Dispatch rows across threads on block boundaries, balanced by stored
/// entries per block (the bytes each thread actually moves). noinline:
/// keeps the hot loops out of the instrumented entry points so the
/// span/counter bookkeeping cannot perturb their codegen.
template <class T, bool Fused>
[[gnu::noinline]] void pjds_dispatch(const Pjds<T>& a, const T* x, T* y,
                                     T alpha, T beta, int n_threads) {
  if (n_threads <= 1 || a.n_rows < 2) {
    pjds_rows<T, Fused>(a, x, y, alpha, beta, 0, a.n_rows);
    return;
  }
  const auto boff = block_offsets(a);
  parallel_for_balanced(
      std::span<const offset_t>(boff), n_threads,
      [&](std::size_t bb, std::size_t be) {
        const index_t rb = static_cast<index_t>(bb) * a.block_rows;
        const index_t re = std::min<index_t>(
            static_cast<index_t>(be) * a.block_rows, a.n_rows);
        if (rb < re) pjds_rows<T, Fused>(a, x, y, alpha, beta, rb, re);
      });
}
}  // namespace

template <class T>
void spmv(const Pjds<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads) {
  check_shapes(a, x, y);
  SPMVM_TRACE_SPAN_NAMED(span, "kernel/pjds");
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.val.size());
  const std::uint64_t bytes = kernel_bytes(a);
  record_kernel(span, nnz, bytes);
  obs::LedgerScope led(obs::RoofLane::host, "pjds", "spmv");
  if (led.active()) led.set_work(kernel_work(nnz, bytes, a.n_rows));
  pjds_dispatch<T, false>(a, x.data(), y.data(), T{1}, T{0}, n_threads);
}

template <class T>
void spmv_axpby(const Pjds<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads) {
  check_shapes(a, x, y);
  SPMVM_TRACE_SPAN_NAMED(span, "kernel/pjds_axpby");
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.val.size());
  const std::uint64_t bytes = kernel_bytes(a);
  record_kernel(span, nnz, bytes);
  obs::LedgerScope led(obs::RoofLane::host, "pjds", "spmv_axpby");
  if (led.active()) led.set_work(kernel_work(nnz, bytes, a.n_rows));
  pjds_dispatch<T, true>(a, x.data(), y.data(), alpha, beta, n_threads);
}

template <class T>
PjdsOperator<T>::PjdsOperator(Pjds<T> a)
    : a_(std::move(a)),
      columns_permuted_(a_.columns_permuted),
      x_perm_(static_cast<std::size_t>(a_.n_cols)),
      y_perm_(static_cast<std::size_t>(a_.n_rows)) {}

template <class T>
void PjdsOperator<T>::apply(std::span<const T> x, std::span<T> y) const {
  std::span<const T> input = x;
  if (columns_permuted_) {
    a_.perm.to_permuted(x, std::span<T>(x_perm_));
    input = std::span<const T>(x_perm_);
  }
  spmv(a_, input, std::span<T>(y_perm_));
  a_.perm.from_permuted(std::span<const T>(y_perm_), y);
}

#define SPMVM_INSTANTIATE_PJDS(T)                                       \
  template void spmv(const Pjds<T>&, std::span<const T>, std::span<T>,  \
                     int);                                              \
  template void spmv_axpby(const Pjds<T>&, std::span<const T>,          \
                           std::span<T>, T, T, int);                    \
  template class PjdsOperator<T>

SPMVM_INSTANTIATE_PJDS(float);
SPMVM_INSTANTIATE_PJDS(double);

}  // namespace spmvm
