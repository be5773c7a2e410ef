#include "sparse/bellpack.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "sparse/footprint.hpp"
#include "sparse/kernel_record.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace spmvm {

template <class T>
BellpackLayout bellpack_layout(const Csr<T>& a, index_t block_r,
                               index_t block_c, index_t row_chunk) {
  SPMVM_REQUIRE(block_r >= 1 && block_c >= 1, "tile dims must be >= 1");
  SPMVM_REQUIRE(row_chunk >= 1, "row chunk must be >= 1");
  const index_t n_block_rows = (a.n_rows + block_r - 1) / block_r;
  BellpackLayout t;
  t.padded_block_rows =
      ((n_block_rows + row_chunk - 1) / row_chunk) * row_chunk;
  t.ptr.assign(static_cast<std::size_t>(n_block_rows) + 1, 0);
  // stamp[J] = the last block row that recorded tile column J.
  std::vector<index_t> stamp(
      static_cast<std::size_t>((a.n_cols + block_c - 1) / block_c),
      index_t{-1});
  for (index_t I = 0; I < n_block_rows; ++I) {
    const offset_t k0 = a.row_ptr[static_cast<std::size_t>(I * block_r)];
    const offset_t k1 = a.row_ptr[static_cast<std::size_t>(
        std::min<index_t>((I + 1) * block_r, a.n_rows))];
    const std::size_t first = t.block_col.size();
    for (offset_t k = k0; k < k1; ++k) {
      const index_t J = a.col_idx[static_cast<std::size_t>(k)] / block_c;
      if (stamp[static_cast<std::size_t>(J)] == I) continue;
      stamp[static_cast<std::size_t>(J)] = I;
      t.block_col.push_back(J);
    }
    t.ptr[static_cast<std::size_t>(I) + 1] =
        static_cast<offset_t>(t.block_col.size());
    t.width =
        std::max(t.width, static_cast<index_t>(t.block_col.size() - first));
  }
  return t;
}

template <class T>
Bellpack<T> Bellpack<T>::from_csr(const Csr<T>& a, index_t block_r,
                                  index_t block_c, index_t row_chunk) {
  // Pass 1: the tile pattern.
  BellpackLayout layout = bellpack_layout(a, block_r, block_c, row_chunk);
  Bellpack<T> m;
  m.n_rows = a.n_rows;
  m.n_cols = a.n_cols;
  m.block_r = block_r;
  m.block_c = block_c;
  m.n_block_rows = (a.n_rows + block_r - 1) / block_r;
  m.padded_block_rows = layout.padded_block_rows;
  m.nnz = a.nnz();
  m.width = layout.width;

  m.stored_blocks =
      static_cast<offset_t>(m.width) * m.padded_block_rows;
  m.val.assign(static_cast<std::size_t>(m.stored_entries()), T{0});
  m.block_col.assign(static_cast<std::size_t>(m.stored_blocks), index_t{0});
  m.block_row_len.assign(static_cast<std::size_t>(m.padded_block_rows),
                         index_t{0});

  // Pass 2: tiles in ascending block-column order take slots 0, 1, ...;
  // slot_of[J] is tile column J's slot in the current block row (set
  // for every J the row touches before any of its entries is read).
  const std::size_t tile_scalars =
      static_cast<std::size_t>(block_r) * static_cast<std::size_t>(block_c);
  std::vector<index_t> slot_of(
      static_cast<std::size_t>((a.n_cols + block_c - 1) / block_c));
  for (index_t I = 0; I < m.n_block_rows; ++I) {
    const auto first = layout.block_col.begin() +
                       static_cast<std::ptrdiff_t>(
                           layout.ptr[static_cast<std::size_t>(I)]);
    const auto last = layout.block_col.begin() +
                      static_cast<std::ptrdiff_t>(
                          layout.ptr[static_cast<std::size_t>(I) + 1]);
    std::sort(first, last);
    const auto len = static_cast<index_t>(last - first);
    m.block_row_len[static_cast<std::size_t>(I)] = len;
    for (index_t j = 0; j < len; ++j) {
      const std::size_t slot = static_cast<std::size_t>(j) *
                                   static_cast<std::size_t>(m.padded_block_rows) +
                               static_cast<std::size_t>(I);
      const index_t J = first[j];
      m.block_col[slot] = J;
      slot_of[static_cast<std::size_t>(J)] = j;
    }
    const index_t r0 = I * block_r;
    const index_t r1 = std::min<index_t>(r0 + block_r, a.n_rows);
    for (index_t i = r0; i < r1; ++i)
      for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
           k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const index_t c = a.col_idx[static_cast<std::size_t>(k)];
        const index_t j = slot_of[static_cast<std::size_t>(c / block_c)];
        const std::size_t slot = static_cast<std::size_t>(j) *
                                     static_cast<std::size_t>(m.padded_block_rows) +
                                 static_cast<std::size_t>(I);
        const std::size_t within =
            static_cast<std::size_t>(i - r0) *
                static_cast<std::size_t>(block_c) +
            static_cast<std::size_t>(c % block_c);
        m.val[slot * tile_scalars + within] =
            a.val[static_cast<std::size_t>(k)];
      }
  }
  return m;
}

template <class T>
std::size_t Bellpack<T>::bytes() const {
  return val.size() * sizeof(T) + block_col.size() * sizeof(index_t) +
         block_row_len.size() * sizeof(index_t);
}

template <class T>
double Bellpack<T>::fill_fraction() const {
  if (stored_entries() == 0) return 0.0;
  return 1.0 -
         static_cast<double>(nnz) / static_cast<double>(stored_entries());
}

template <class T>
void Bellpack<T>::validate() const {
  SPMVM_REQUIRE(val.size() == static_cast<std::size_t>(stored_entries()),
                "val size mismatch");
  SPMVM_REQUIRE(block_col.size() == static_cast<std::size_t>(stored_blocks),
                "block_col size mismatch");
  for (index_t I = 0; I < padded_block_rows; ++I) {
    const index_t len = block_row_len[static_cast<std::size_t>(I)];
    SPMVM_REQUIRE(len >= 0 && len <= width, "block row exceeds width");
    SPMVM_REQUIRE(I < n_block_rows || len == 0, "padding rows must be empty");
  }
}

template <class T>
void spmv(const Bellpack<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads) {
  SPMVM_REQUIRE(x.size() >= static_cast<std::size_t>(a.n_cols),
                "input vector too short");
  SPMVM_REQUIRE(y.size() >= static_cast<std::size_t>(a.n_rows),
                "output vector too short");
  SPMVM_TRACE_SPAN_NAMED(span, "kernel/bellpack");
  // Streamed bytes per call: stored footprint + one RHS read and one
  // LHS write (the Eq. 1 accounting of sparse/spmv_host.cpp).
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.stored_entries());
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(footprint(a).total_bytes(sizeof(T))) +
      (static_cast<std::uint64_t>(a.n_rows) +
       static_cast<std::uint64_t>(a.n_cols)) *
          sizeof(T);
  detail::record_kernel(span, nnz, bytes);
  obs::LedgerScope led(obs::RoofLane::host, "bellpack", "spmv");
  if (led.active()) led.set_work(detail::kernel_work(nnz, bytes, a.n_rows));
  const std::size_t tile_scalars =
      static_cast<std::size_t>(a.block_r) * static_cast<std::size_t>(a.block_c);
  parallel_for(
      static_cast<std::size_t>(a.n_block_rows), n_threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t I = begin; I < end; ++I) {
          const index_t r0 = static_cast<index_t>(I) * a.block_r;
          const index_t rows =
              std::min<index_t>(a.block_r, a.n_rows - r0);
          for (index_t r = 0; r < rows; ++r)
            y[static_cast<std::size_t>(r0 + r)] = T{0};
          const index_t len = a.block_row_len[I];
          for (index_t j = 0; j < len; ++j) {
            const std::size_t slot =
                static_cast<std::size_t>(j) *
                    static_cast<std::size_t>(a.padded_block_rows) +
                I;
            const index_t c0 = a.block_col[slot] * a.block_c;
            const T* tile = a.val.data() + slot * tile_scalars;
            const index_t cols =
                std::min<index_t>(a.block_c, a.n_cols - c0);
            for (index_t r = 0; r < rows; ++r) {
              T acc{0};
              for (index_t c = 0; c < cols; ++c)
                acc += tile[static_cast<std::size_t>(r) *
                                static_cast<std::size_t>(a.block_c) +
                            static_cast<std::size_t>(c)] *
                       x[static_cast<std::size_t>(c0 + c)];
              y[static_cast<std::size_t>(r0 + r)] += acc;
            }
          }
        }
      });
}

#define SPMVM_INSTANTIATE_BELLPACK(T)                                  \
  template BellpackLayout bellpack_layout(const Csr<T>&, index_t, index_t, \
                                          index_t);                        \
  template struct Bellpack<T>;                                         \
  template void spmv(const Bellpack<T>&, std::span<const T>,           \
                     std::span<T>, int)

SPMVM_INSTANTIATE_BELLPACK(float);
SPMVM_INSTANTIATE_BELLPACK(double);

}  // namespace spmvm
