// Warp-granular spMVM kernel simulation.
//
// The simulator walks the *actual* format data structures warp by warp
// and accumulates, per warp step (one inner-loop iteration of Listings
// 1/2):
//   - device-memory transactions for the matrix arrays (val + col_idx),
//     coalesced over the active-lane span,
//   - RHS-gather traffic: warp-level line dedup, then the L2 cache model
//     (this *measures* the paper's α instead of assuming it),
//   - issue slots: every warp occupies its MP until the longest row in
//     the warp completes — ELLPACK-R's "useless hardware reservation"
//     (light boxes in Fig. 2b) — while pJDS's sorted rows keep lanes busy.
//
// One kernel covers every ELLPACK-family format: they are SELL-C-σ
// presets (sparse/sliced_ell.hpp), and only plain ELLPACK needs a switch
// (every lane runs the full width).
//
// Kernel time = max(memory time, issue time) + launch overhead, i.e. the
// kernel is modeled as either bandwidth-bound or issue/occupancy-bound,
// which is what separates the SP and DP columns of Table I.
#pragma once

#include "gpusim/device_spec.hpp"
#include "sparse/csr.hpp"
#include "sparse/sliced_ell.hpp"

namespace spmvm::gpusim {

struct SimOptions {
  bool ecc = true;
};

struct KernelStats {
  std::uint64_t warps = 0;
  std::uint64_t warp_steps = 0;         // Σ_warps max-row-in-warp
  std::uint64_t useful_lane_steps = 0;  // Σ executed non-zeros
  std::uint64_t total_lane_steps = 0;   // warp_steps × warp_size
  std::uint64_t matrix_bytes = 0;       // val + col_idx transactions
  std::uint64_t rhs_bytes = 0;          // L2 misses × line size
  std::uint64_t stream_bytes = 0;       // LHS store, row_len loads
  std::uint64_t rhs_line_hits = 0;
  std::uint64_t rhs_line_misses = 0;
  std::uint64_t flops = 0;  // 2 × nnz (useful flops only)

  std::uint64_t dram_bytes() const {
    return matrix_bytes + rhs_bytes + stream_bytes;
  }
  /// Measured α of Eq. 1: RHS DRAM traffic / (nnz × scalar size).
  double measured_alpha(std::size_t scalar_size) const;
  /// Fraction of reserved lane-steps doing useful work (Fig. 2b vs 2c).
  double warp_efficiency() const;
};

struct KernelResult {
  KernelStats stats;
  double mem_seconds = 0.0;
  double issue_seconds = 0.0;
  double seconds = 0.0;       // max(mem, issue) + launch overhead
  double gflops = 0.0;        // useful flops / seconds
  double code_balance = 0.0;  // DRAM bytes per useful flop (Eq. 1)
};

/// Simulate the SELL-C-σ kernel on any preset: warps of consecutive
/// rows, each lane stopping at its row length (ELLPACK-R's Listing 1,
/// pJDS's Listing 2) and reading row_len[]. With `full_width` every lane
/// runs its slice's width and no row_len[] is streamed: the plain
/// ELLPACK kernel (Fig. 2a). `format` is the registry name the run is
/// recorded under (span gpusim/<format>, ledger key); it must point to
/// static storage.
template <class T>
KernelResult simulate(const DeviceSpec& dev, const SlicedEll<T>& m,
                      const char* format, const SimOptions& opt = {},
                      bool full_width = false);

/// Simulate ELLR-T (Vázquez et al., ref. [3]): ELLPACK-R storage with
/// `threads_per_row` lanes cooperating on each row, so a warp covers
/// warp_size/T rows and a row finishes in ceil(len/T) steps (plus a
/// log2(T) reduction). T is the matrix-dependent tuning parameter the
/// paper contrasts with pJDS's parameter-free design. T must divide the
/// warp size.
/// `m` is the `ellpack` preset (one slice).
template <class T>
KernelResult simulate_ellr_t(const DeviceSpec& dev, const SlicedEll<T>& m,
                             int threads_per_row, const SimOptions& opt = {});

/// Simulate a naive CSR kernel with one thread per row: lane addresses
/// diverge, so every load is an uncoalesced 32-byte transaction. The
/// baseline that motivates ELLPACK-style formats on GPUs.
template <class T>
KernelResult simulate_csr_scalar(const DeviceSpec& dev, const Csr<T>& m,
                                 const SimOptions& opt = {});

/// Simulate the CSR *vector* kernel (one warp per row, Bell & Garland
/// [1]): matrix loads coalesce along the row, followed by a log2(warp)
/// intra-warp reduction. Competitive for long rows, wasteful for short
/// ones.
template <class T>
KernelResult simulate_csr_vector(const DeviceSpec& dev, const Csr<T>& m,
                                 const SimOptions& opt = {});

#define SPMVM_EXTERN_KERNEL_SIM(T)                                         \
  extern template KernelResult simulate(const DeviceSpec&,                 \
                                        const SlicedEll<T>&, const char*,  \
                                        const SimOptions&, bool);          \
  extern template KernelResult simulate_csr_scalar(const DeviceSpec&,      \
                                                   const Csr<T>&,          \
                                                   const SimOptions&);     \
  extern template KernelResult simulate_csr_vector(const DeviceSpec&,      \
                                                   const Csr<T>&,          \
                                                   const SimOptions&);     \
  extern template KernelResult simulate_ellr_t(const DeviceSpec&,          \
                                               const SlicedEll<T>&, int,   \
                                               const SimOptions&)

SPMVM_EXTERN_KERNEL_SIM(float);
SPMVM_EXTERN_KERNEL_SIM(double);
#undef SPMVM_EXTERN_KERNEL_SIM

}  // namespace spmvm::gpusim
