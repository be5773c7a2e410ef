#include "sparse/spmv_host.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/kernel_record.hpp"
#include "sparse/sell_tiles.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace spmvm {

namespace detail {

void record_kernel(obs::SpanGuard& span, std::uint64_t nnz,
                   std::uint64_t bytes) {
  static obs::Counter& c_calls = obs::counter("kernel.calls");
  static obs::Counter& c_nnz = obs::counter("kernel.nnz");
  static obs::Counter& c_bytes = obs::counter("kernel.bytes");
  static const bool help = [] {
    obs::set_metric_help("kernel.calls", "Host spMVM kernel invocations");
    obs::set_metric_help("kernel.nnz",
                         "Non-zeros processed by host spMVM kernels (k "
                         "per entry in a k-wide block launch)");
    obs::set_metric_help("kernel.bytes",
                         "Bytes streamed by host spMVM kernels (stored "
                         "footprint plus RHS/LHS vectors, Eq. 1 accounting)");
    return true;
  }();
  (void)help;
  c_calls.add();
  c_nnz.add(nnz);
  c_bytes.add(bytes);
  span.set_bytes(bytes);
}

obs::WorkDesc kernel_work(std::uint64_t nnz, std::uint64_t bytes,
                          index_t n_rows, int k) {
  obs::WorkDesc w;
  w.bytes = bytes;
  w.flops = 2 * nnz * static_cast<std::uint64_t>(k);
  w.nnz = nnz;
  w.alpha = nnz > 0 ? static_cast<double>(n_rows) / static_cast<double>(nnz)
                    : 0.0;
  return w;
}

}  // namespace detail

using detail::kernel_work;
using detail::record_kernel;

namespace {
/// Effective bytes one kernel call streams — the stored matrix (values +
/// indices + aux arrays, matching sparse/footprint's accounting) plus one
/// RHS read and one LHS write — so a span's bytes / duration is directly
/// the GB/s to compare against the STREAM limit (Eq. 1).
template <class T>
std::uint64_t vector_stream_bytes(index_t n_rows, index_t n_cols) {
  return (static_cast<std::uint64_t>(n_rows) +
          static_cast<std::uint64_t>(n_cols)) *
         sizeof(T);
}

template <class T>
std::uint64_t kernel_bytes(const Csr<T>& a) {
  return static_cast<std::uint64_t>(a.nnz()) * (sizeof(T) + sizeof(index_t)) +
         static_cast<std::uint64_t>(a.row_ptr.size()) * sizeof(offset_t) +
         vector_stream_bytes<T>(a.n_rows, a.n_cols);
}

template <class T>
std::uint64_t kernel_bytes(const Jds<T>& a) {
  return static_cast<std::uint64_t>(a.val.size()) *
             (sizeof(T) + sizeof(index_t)) +
         static_cast<std::uint64_t>(a.jd_ptr.size()) * sizeof(offset_t) +
         vector_stream_bytes<T>(a.n_rows, a.n_cols);
}

template <class T>
std::uint64_t kernel_bytes(const SlicedEll<T>& a) {
  return static_cast<std::uint64_t>(a.val.size()) *
             (sizeof(T) + sizeof(index_t)) +
         static_cast<std::uint64_t>(a.slice_ptr.size()) * sizeof(offset_t) +
         static_cast<std::uint64_t>(a.row_len.size()) * sizeof(index_t) +
         vector_stream_bytes<T>(a.n_rows, a.n_cols);
}

template <class T>
void check_shapes(index_t n_rows, index_t n_cols, std::span<const T> x,
                  std::span<T> y) {
  SPMVM_REQUIRE(x.size() >= static_cast<std::size_t>(n_cols),
                "input vector too short");
  SPMVM_REQUIRE(y.size() >= static_cast<std::size_t>(n_rows),
                "output vector too short");
}

// All bulk arrays come out of AlignedVector (128-byte aligned storage);
// telling the compiler lets it pick aligned vector loads for the
// streaming val/col_idx accesses.
template <class T>
const T* aligned(const AlignedVector<T>& v) {
  return std::assume_aligned<kDeviceAlignment>(v.data());
}

/// One CSR row as a 4-way unrolled dot product. Four independent
/// accumulators break the FP add dependency chain; the combine order is
/// fixed, so the result is identical for every thread partition. The
/// unroll only pays off once a row is long enough for the add chain to
/// dominate; short rows (the common case on sAMG-like matrices, where
/// the x[] gathers dominate instead) take the plain loop, and on such
/// matrices the branch is perfectly predicted.
template <class T>
T csr_row_dot(const T* __restrict val, const index_t* __restrict col,
              const T* __restrict x, offset_t b, offset_t e) {
  if (e - b < 32) {
    T acc{0};
    for (offset_t k = b; k < e; ++k) acc += val[k] * x[col[k]];
    return acc;
  }
  T a0{0}, a1{0}, a2{0}, a3{0};
  offset_t k = b;
  for (; k + 4 <= e; k += 4) {
    a0 += val[k] * x[col[k]];
    a1 += val[k + 1] * x[col[k + 1]];
    a2 += val[k + 2] * x[col[k + 2]];
    a3 += val[k + 3] * x[col[k + 3]];
  }
  T acc = (a0 + a1) + (a2 + a3);
  for (; k < e; ++k) acc += val[k] * x[col[k]];
  return acc;
}

/// SELL-C-σ row tiles [begin, end) (sparse/sell_tiles.hpp):
/// chunk-column-major accumulation. Every row of a tile walks its
/// slice's full width — padding entries carry val = 0 and col_idx = 0,
/// so they contribute exact zeros and cost no extra memory traffic (they
/// share cache lines with the real entries either way). A slice of
/// C <= kSellRowTile rows is one tile. Fused: y = beta*y + alpha*acc.
/// The epilogue stores tile row r at y[row_map()[r]] when the image has
/// a row map (tiles own disjoint rows, so threads never share a store).
template <class T, bool Fused>
void sell_tiles(const SlicedEll<T>& a, const T* __restrict x, T* __restrict y,
                T alpha, T beta, std::size_t begin, std::size_t end) {
  const T* __restrict val = aligned(a.val);
  const index_t* __restrict col = aligned(a.col_idx);
  const index_t* __restrict map = a.row_map();
  const std::size_t C = static_cast<std::size_t>(a.slice_height);
  const auto n_rows = static_cast<std::size_t>(a.n_rows);
  // A heap strip, as the single-slice loop had: with a stack array GCC
  // spilled the inner loop's bound to the stack.
  std::vector<T> strip(std::min(C, detail::kSellRowTile));
  T* acc = strip.data();
  detail::for_each_tile(a, begin, end, [&](std::size_t s, std::size_t r0,
                                           std::size_t rows) {
    const std::size_t base = static_cast<std::size_t>(a.slice_ptr[s]) + r0;
    const index_t width = a.slice_width(static_cast<index_t>(s));
    for (std::size_t r = 0; r < rows; ++r) acc[r] = T{0};
    for (index_t j = 0; j < width; ++j) {
      const T* __restrict v = val + base + static_cast<std::size_t>(j) * C;
      const index_t* __restrict c = col + base + static_cast<std::size_t>(j) * C;
#pragma omp simd
      for (std::size_t r = 0; r < rows; ++r) acc[r] += v[r] * x[c[r]];
    }
    const std::size_t row0 = s * C + r0;
    const std::size_t live = row0 < n_rows ? std::min(rows, n_rows - row0) : 0;
    if (map != nullptr) {
      const index_t* __restrict to = map + row0;
      for (std::size_t r = 0; r < live; ++r) {
        T& out = y[static_cast<std::size_t>(to[r])];
        if constexpr (Fused)
          out = beta * out + alpha * acc[r];
        else
          out = acc[r];
      }
      return;
    }
    T* __restrict ys = y + row0;
    if constexpr (Fused) {
      for (std::size_t r = 0; r < live; ++r)
        ys[r] = beta * ys[r] + alpha * acc[r];
    } else {
      for (std::size_t r = 0; r < live; ++r) ys[r] = acc[r];
    }
  });
}
}  // namespace

// The instrumented entry points below delegate to noinline _impl
// functions: keeping the hot loops in their own function means the
// wrapper's span/counter bookkeeping cannot perturb their codegen
// (inliner budget, loop placement) — measured at several percent when
// the bookkeeping shared a function body with the loops.
namespace {

template <class T>
[[gnu::noinline]] void spmv_csr_impl(const Csr<T>& a, std::span<const T> x,
                                     std::span<T> y, int n_threads) {
  const T* val = aligned(a.val);
  const index_t* col = aligned(a.col_idx);
  const offset_t* rp = aligned(a.row_ptr);
  parallel_for_balanced(std::span<const offset_t>(a.row_ptr), n_threads,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                            y[i] = csr_row_dot(val, col, x.data(), rp[i],
                                               rp[i + 1]);
                        });
}

template <class T>
[[gnu::noinline]] void spmv_csr_axpby_impl(const Csr<T>& a,
                                           std::span<const T> x,
                                           std::span<T> y, T alpha, T beta,
                                           int n_threads) {
  const T* val = aligned(a.val);
  const index_t* col = aligned(a.col_idx);
  const offset_t* rp = aligned(a.row_ptr);
  parallel_for_balanced(
      std::span<const offset_t>(a.row_ptr), n_threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          y[i] = beta * y[i] +
                 alpha * csr_row_dot(val, col, x.data(), rp[i], rp[i + 1]);
      });
}

template <class T>
[[gnu::noinline]] void spmv_jds_impl(const Jds<T>& a, std::span<const T> x,
                                     std::span<T> y) {
  for (index_t i = 0; i < a.n_rows; ++i) y[static_cast<std::size_t>(i)] = T{0};
  // Diagonal-major loop order: long inner loops over consecutive rows,
  // the traversal JDS was designed for on vector machines.
  for (index_t j = 0; j < a.width; ++j) {
    const offset_t base = a.jd_ptr[static_cast<std::size_t>(j)];
    const index_t L = a.diag_len(j);
    for (index_t i = 0; i < L; ++i) {
      const std::size_t k = static_cast<std::size_t>(base + i);
      y[static_cast<std::size_t>(i)] +=
          a.val[k] * x[static_cast<std::size_t>(a.col_idx[k])];
    }
  }
}

template <class T>
[[gnu::noinline]] void spmv_sell_impl(const SlicedEll<T>& a,
                                      std::span<const T> x, std::span<T> y,
                                      int n_threads) {
  detail::parallel_for_tiles(a, n_threads, [&](std::size_t begin,
                                               std::size_t end) {
    sell_tiles<T, false>(a, x.data(), y.data(), T{1}, T{0}, begin, end);
  });
}

template <class T>
[[gnu::noinline]] void spmv_sell_axpby_impl(const SlicedEll<T>& a,
                                            std::span<const T> x,
                                            std::span<T> y, T alpha, T beta,
                                            int n_threads) {
  detail::parallel_for_tiles(a, n_threads, [&](std::size_t begin,
                                               std::size_t end) {
    sell_tiles<T, true>(a, x.data(), y.data(), alpha, beta, begin, end);
  });
}

}  // namespace

template <class T>
void spmv(const Csr<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  SPMVM_TRACE_SPAN_NAMED(span, "kernel/csr");
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.nnz());
  const std::uint64_t bytes = kernel_bytes(a);
  record_kernel(span, nnz, bytes);
  obs::LedgerScope led(obs::RoofLane::host, "csr", "spmv");
  if (led.active()) led.set_work(kernel_work(nnz, bytes, a.n_rows));
  spmv_csr_impl(a, x, y, n_threads);
}

template <class T>
void spmv_axpby(const Csr<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  SPMVM_TRACE_SPAN_NAMED(span, "kernel/csr_axpby");
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.nnz());
  const std::uint64_t bytes = kernel_bytes(a);
  record_kernel(span, nnz, bytes);
  obs::LedgerScope led(obs::RoofLane::host, "csr", "spmv_axpby");
  if (led.active()) led.set_work(kernel_work(nnz, bytes, a.n_rows));
  spmv_csr_axpby_impl(a, x, y, alpha, beta, n_threads);
}

template <class T>
void spmv(const Jds<T>& a, std::span<const T> x, std::span<T> y) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  SPMVM_TRACE_SPAN_NAMED(span, "kernel/jds");
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.val.size());
  const std::uint64_t bytes = kernel_bytes(a);
  record_kernel(span, nnz, bytes);
  obs::LedgerScope led(obs::RoofLane::host, "jds", "spmv");
  if (led.active()) led.set_work(kernel_work(nnz, bytes, a.n_rows));
  spmv_jds_impl(a, x, y);
}

template <class T>
void spmv(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads, const char* format) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  SPMVM_TRACE_SPAN_NAMED(span, obs::format_span_name("kernel/", format));
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.val.size());
  const std::uint64_t bytes = kernel_bytes(a);
  record_kernel(span, nnz, bytes);
  obs::LedgerScope led(obs::RoofLane::host, format, "spmv");
  if (led.active()) led.set_work(kernel_work(nnz, bytes, a.n_rows));
  spmv_sell_impl(a, x, y, n_threads);
}

template <class T>
void spmv_axpby(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads, const char* format) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  SPMVM_TRACE_SPAN_NAMED(span,
                         obs::format_span_name("kernel/", format, "_axpby"));
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.val.size());
  const std::uint64_t bytes = kernel_bytes(a);
  record_kernel(span, nnz, bytes);
  obs::LedgerScope led(obs::RoofLane::host, format, "spmv_axpby");
  if (led.active()) led.set_work(kernel_work(nnz, bytes, a.n_rows));
  spmv_sell_axpby_impl(a, x, y, alpha, beta, n_threads);
}

#define SPMVM_INSTANTIATE_HOST_KERNELS(T)                                   \
  template void spmv(const Csr<T>&, std::span<const T>, std::span<T>, int); \
  template void spmv_axpby(const Csr<T>&, std::span<const T>, std::span<T>, \
                           T, T, int);                                      \
  template void spmv(const Jds<T>&, std::span<const T>, std::span<T>);      \
  template void spmv(const SlicedEll<T>&, std::span<const T>, std::span<T>, \
                     int, const char*);                                     \
  template void spmv_axpby(const SlicedEll<T>&, std::span<const T>,         \
                           std::span<T>, T, T, int, const char*)

SPMVM_INSTANTIATE_HOST_KERNELS(float);
SPMVM_INSTANTIATE_HOST_KERNELS(double);

}  // namespace spmvm
