#include "core/spmmv.hpp"

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "sparse/footprint.hpp"
#include "sparse/kernel_record.hpp"
#include "sparse/sell_tiles.hpp"
#include "sparse/spmv_host.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace spmvm {

namespace {
// The k-interleaved stride contract: X stores x[i*k + v] (row-major by
// vector index), so both the block width and the span sizes must be
// consistent before any i*k indexing happens — a non-positive k would
// otherwise silently alias rows.
void check_block(index_t n_rows, index_t n_cols, std::size_t x_size,
                 std::size_t y_size, int k) {
  SPMVM_REQUIRE(k >= 1, "spMMV block width k must be >= 1");
  SPMVM_REQUIRE(x_size >= static_cast<std::size_t>(n_cols) *
                              static_cast<std::size_t>(k),
                "input block too small for k interleaved vectors");
  SPMVM_REQUIRE(y_size >= static_cast<std::size_t>(n_rows) *
                              static_cast<std::size_t>(k),
                "output block too small for k interleaved vectors");
}

/// Widest group of vectors a kernel handles at a compile-time width: the
/// serving layer's default max_batch. A loop over a run-time width was
/// 1.4–2.5x slower than the fixed-width one at k = 2 and 8.
constexpr int kMaxGroupWidth = 8;

/// The block kernels' one width dispatch: calls fn(W, v0) for
/// consecutive groups of interleaved vectors [v0, v0 + W), with W a
/// std::integral_constant of at most kMaxGroupWidth. A block of up to
/// kMaxGroupWidth vectors is one group.
template <class Fn>
void for_each_group(int k, Fn&& fn) {
  static_assert(kMaxGroupWidth == 8, "one case per width below");
  using std::integral_constant;
  for (int v0 = 0; v0 < k; v0 += kMaxGroupWidth) {
    const auto v = static_cast<std::size_t>(v0);
    switch (std::min(kMaxGroupWidth, k - v0)) {
      case 1: fn(integral_constant<std::size_t, 1>{}, v); break;
      case 2: fn(integral_constant<std::size_t, 2>{}, v); break;
      case 3: fn(integral_constant<std::size_t, 3>{}, v); break;
      case 4: fn(integral_constant<std::size_t, 4>{}, v); break;
      case 5: fn(integral_constant<std::size_t, 5>{}, v); break;
      case 6: fn(integral_constant<std::size_t, 6>{}, v); break;
      case 7: fn(integral_constant<std::size_t, 7>{}, v); break;
      default: fn(integral_constant<std::size_t, 8>{}, v); break;
    }
  }
}

/// Matrix passes of a k-wide block: one per vector group.
int group_count(int k) { return (k + kMaxGroupWidth - 1) / kMaxGroupWidth; }

/// One row × W vectors of a block product over the row's `len` stored
/// entries, entry j at pos(j). x and out are already offset to the
/// group's first vector; x advances by `stride` (= k) per column. The W
/// sums stay in registers and start from zero, so every (row, vector)
/// pair adds its entries in ascending j — the order the bit-identity
/// contract needs.
template <std::size_t W, class T, class Pos>
inline void block_row(const T* __restrict val, const index_t* __restrict col,
                      index_t len, Pos pos, const T* __restrict x,
                      std::size_t stride, T* __restrict out) {
  T acc[W] = {};
  for (index_t j = 0; j < len; ++j) {
    const std::size_t p = pos(j);
    const T av = val[p];
    const T* __restrict in = x + static_cast<std::size_t>(col[p]) * stride;
#pragma omp simd
    for (std::size_t t = 0; t < W; ++t) acc[t] += av * in[t];
  }
  for (std::size_t t = 0; t < W; ++t) out[t] = acc[t];
}

/// One native block launch, instrumented like a single-vector host
/// kernel (sparse/spmv_host.cpp): a `kernel/<fmt>_block` span, one
/// kernel.calls with k·nnz products, and a host ledger sample
/// (<fmt>, "spmmv") over the matrix image once per vector group plus k
/// RHS reads and LHS writes.
template <class T, class Run>
void launch_block(const char* span_name, const char* ledger_format,
                  const Footprint& fp, std::uint64_t nnz, index_t n_rows,
                  index_t n_cols, int k, Run&& run) {
  SPMVM_TRACE_SPAN_NAMED(span, span_name);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(group_count(k)) *
          static_cast<std::uint64_t>(fp.total_bytes(sizeof(T))) +
      static_cast<std::uint64_t>(k) *
          (static_cast<std::uint64_t>(n_rows) +
           static_cast<std::uint64_t>(n_cols)) *
          sizeof(T);
  detail::record_kernel(span, nnz * static_cast<std::uint64_t>(k), bytes);
  obs::LedgerScope led(obs::RoofLane::host, ledger_format, "spmmv");
  if (led.active()) led.set_work(detail::kernel_work(nnz, bytes, n_rows, k));
  run();
}

// The hot loops live in noinline functions so the instrumentation in
// the entry points cannot perturb their codegen (see spmv_host.cpp).

template <class T>
[[gnu::noinline]] void spmmv_csr_impl(const Csr<T>& a, const T* x, T* y,
                                      int k, int n_threads) {
  const auto kk = static_cast<std::size_t>(k);
  for_each_group(k, [&](auto w, std::size_t v0) {
    constexpr std::size_t W = decltype(w)::value;
    parallel_for_balanced(
        std::span<const offset_t>(a.row_ptr), n_threads,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const offset_t b = a.row_ptr[i];
            block_row<W>(
                a.val.data(), a.col_idx.data(),
                static_cast<index_t>(a.row_ptr[i + 1] - b),
                [b](index_t j) { return static_cast<std::size_t>(b + j); },
                x + v0, kk, y + i * kk + v0);
          }
        });
  });
}

/// Slice columns the SELL kernel adds per visit of a row. The slice is
/// read column by column, as the single-vector kernel reads it, and each
/// row's W sums stay in registers over this many columns. Of 1, 4 and 8
/// columns per visit and whole-row register tiles, 4 was the fastest, or
/// within run-to-run noise of it, at W = 4 and 8 on DLR1 and sAMG at
/// scales 64 and 13.5; whole-row tiles lost 25–40 % on DLR1/13.5.
constexpr std::size_t kSellColumnStep = 4;

/// Adds U consecutive columns of one slice, the first at stored position
/// p, to the sums of the slice's `rows` rows (ys, one row every
/// `ystride` entries; x advances by `stride` per column).
template <std::size_t U, std::size_t W, class T>
inline void sell_columns(const T* __restrict val,
                         const index_t* __restrict col, std::size_t p,
                         std::size_t C, std::size_t rows,
                         const T* __restrict x, std::size_t stride,
                         T* __restrict ys, std::size_t ystride) {
  for (std::size_t r = 0; r < rows; ++r) {
    T* __restrict out = ys + r * ystride;
    T acc[W];
    for (std::size_t t = 0; t < W; ++t) acc[t] = out[t];
    for (std::size_t u = 0; u < U; ++u) {
      const std::size_t q = p + u * C + r;
      const T av = val[q];
      const T* __restrict in = x + static_cast<std::size_t>(col[q]) * stride;
#pragma omp simd
      for (std::size_t t = 0; t < W; ++t) acc[t] += av * in[t];
    }
    for (std::size_t t = 0; t < W; ++t) out[t] = acc[t];
  }
}

/// With a row map (SlicedEll::row_map()) a tile sums into a contiguous
/// rows × W strip and scatters it once to Y's rows row_map()[r]: the
/// tile's Y rows are not contiguous then, and a scatter per column visit
/// measured slower than the one pass at the end.
template <class T>
[[gnu::noinline]] void spmmv_sell_impl(const SlicedEll<T>& a, const T* x,
                                       T* y, int k, int n_threads) {
  const auto kk = static_cast<std::size_t>(k);
  const auto C = static_cast<std::size_t>(a.slice_height);
  const auto n_rows = static_cast<std::size_t>(a.n_rows);
  const index_t* map = a.row_map();
  for_each_group(k, [&](auto w, std::size_t v0) {
    constexpr std::size_t W = decltype(w)::value;
    constexpr std::size_t U = kSellColumnStep;
    detail::parallel_for_tiles(a, n_threads, [&](std::size_t begin,
                                                 std::size_t end) {
      std::vector<T> strip(
          map != nullptr ? std::min(C, detail::kSellRowTile) * W : 0);
      detail::for_each_tile(a, begin, end, [&](std::size_t s, std::size_t r0,
                                               std::size_t tile_rows) {
        const std::size_t row0 = s * C + r0;
        if (row0 >= n_rows) return;
        const std::size_t base = static_cast<std::size_t>(a.slice_ptr[s]) + r0;
        const auto width =
            static_cast<std::size_t>(a.slice_width(static_cast<index_t>(s)));
        const std::size_t rows = std::min(tile_rows, n_rows - row0);
        T* ys = map != nullptr ? strip.data() : y + row0 * kk + v0;
        const std::size_t ystride = map != nullptr ? W : kk;
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t t = 0; t < W; ++t) ys[r * ystride + t] = T{0};
        // Every row walks the slice's full width, padding included,
        // exactly as the single-vector kernel does.
        std::size_t j = 0;
        for (; j + U <= width; j += U)
          sell_columns<U, W>(a.val.data(), a.col_idx.data(), base + j * C, C,
                             rows, x + v0, kk, ys, ystride);
        for (; j < width; ++j)
          sell_columns<1, W>(a.val.data(), a.col_idx.data(), base + j * C, C,
                             rows, x + v0, kk, ys, ystride);
        if (map == nullptr) return;
        for (std::size_t r = 0; r < rows; ++r) {
          T* out = y + static_cast<std::size_t>(map[row0 + r]) * kk + v0;
          for (std::size_t t = 0; t < W; ++t) out[t] = ys[r * W + t];
        }
      });
    });
  });
}
}  // namespace

template <class T>
void spmmv(const Csr<T>& a, std::span<const T> x, std::span<T> y, int k,
           int n_threads) {
  check_block(a.n_rows, a.n_cols, x.size(), y.size(), k);
  launch_block<T>("kernel/csr_block", "csr", footprint(a),
                  static_cast<std::uint64_t>(a.nnz()), a.n_rows, a.n_cols, k,
                  [&] { spmmv_csr_impl(a, x.data(), y.data(), k, n_threads); });
}

template <class T>
void spmmv(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
           int k, int n_threads, const char* format) {
  check_block(a.n_rows, a.n_cols, x.size(), y.size(), k);
  if (k == 1) {
    spmv(a, x, y, n_threads, format);
    return;
  }
  launch_block<T>(obs::format_span_name("kernel/", format, "_block"), format,
                  footprint(a),
                  static_cast<std::uint64_t>(a.val.size()), a.n_rows,
                  a.n_cols, k,
                  [&] { spmmv_sell_impl(a, x.data(), y.data(), k, n_threads); });
}

double spmmv_code_balance(std::size_t scalar_size, double alpha, double nnzr,
                          int k) {
  SPMVM_REQUIRE(k >= 1 && nnzr > 0.0, "invalid spMMV balance arguments");
  const auto s = static_cast<double>(scalar_size);
  // Matrix entry + index amortized over k vectors; RHS/LHS terms per
  // vector stay.
  return ((s + 4.0) / k + s * alpha + 2.0 * s / nnzr) / 2.0;
}

#define SPMVM_INSTANTIATE_SPMMV(T)                                        \
  template void spmmv(const Csr<T>&, std::span<const T>, std::span<T>,    \
                      int, int);                                          \
  template void spmmv(const SlicedEll<T>&, std::span<const T>,            \
                      std::span<T>, int, int, const char*)

SPMVM_INSTANTIATE_SPMMV(float);
SPMVM_INSTANTIATE_SPMMV(double);

}  // namespace spmvm
