// The format engine's type-erased plan interface.
//
// A FormatPlan owns one matrix in one storage format and exposes the
// operations every consumer needs — host kernels, footprint accounting,
// the row-permutation handle, CSR recovery, and the gpusim kernel hook —
// behind a uniform virtual interface. Consumers (solver Operator, the
// distributed kernels, the benches) hold plans and never name concrete
// formats; the FormatRegistry (registry.hpp) is the only place formats
// are enumerated.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_sim.hpp"
#include "sparse/csr.hpp"
#include "sparse/footprint.hpp"
#include "sparse/permutation.hpp"
#include "util/error.hpp"

namespace spmvm::formats {

/// Static capabilities of one registered format. Returned by
/// FormatRegistry::list() and FormatPlan::info().
struct FormatInfo {
  const char* name = "";
  const char* description = "";
  bool sorts_rows = false;   // may store rows in a non-identity order
  bool native_axpby = false; // fused y = β·y + α·A·x kernel available
  bool has_sim_kernel = false;  // gpusim hook (FormatPlan::simulate)
  bool native_spmmv = false;    // fused block-RHS kernel (FormatPlan::spmmv)
};

/// Build-time knobs shared by every format. Formats read the fields that
/// apply to them (chunk = br / C / row_chunk) and ignore the rest, so one
/// options struct can configure any registry entry.
struct PlanOptions {
  /// Warp-granularity parameter: pJDS block_rows, sliced-ELL slice
  /// height C, ELLPACK row chunk, BELLPACK block-row chunk.
  index_t chunk = 32;
  /// σ for sell_c_sigma (0 = format default of 8·chunk). sliced_ell
  /// always uses σ = 1.
  index_t sort_window = 0;
  /// BELLPACK tile shape.
  index_t block_r = 4;
  index_t block_c = 4;

  // ---- `auto` plan only ----
  /// Confirm the Eq. 1 ranking with a measured probe of the top
  /// candidates. With probe = false selection is purely model-driven and
  /// bit-deterministic (used by tests).
  bool probe = true;
  /// How many of the model-ranked candidates to probe (<= 0: all).
  int probe_candidates = 2;
  double probe_min_seconds = 0.002;
  int probe_reps = 3;
  int probe_threads = 1;
};

struct AutoCandidate {
  std::string name;
  double balance = 0.0;         // Eq. 1 bytes/flop at α = 1/N_nzr
  double probe_seconds = -1.0;  // min-of-reps host probe; -1 = not probed
};

/// Selection record of the `auto` plan (auto_select.hpp).
struct AutoChoice {
  std::string chosen;
  std::vector<AutoCandidate> candidates;  // registry order
  /// Index of `chosen` within `candidates`.
  std::size_t chosen_index = 0;
  /// Index of the best candidate by model balance alone.
  std::size_t model_index = 0;
};

/// One matrix held in one storage format, built in the paper's Listing 2
/// basis: rows may be sorted, columns keep their labels, so x is always
/// an original-basis vector. Every plan but `jds` also writes y in the
/// original basis; `jds` writes y in sorted row order and reports that
/// order as permutation() (carry y back with from_permuted). A caller
/// that wants to iterate in a sorted basis permutes the matrix up front
/// (permute_csr, sparse/convert.hpp) and builds from that.
template <class T>
class FormatPlan {
 public:
  virtual ~FormatPlan() = default;

  virtual const FormatInfo& info() const = 0;
  virtual index_t n_rows() const = 0;
  virtual index_t n_cols() const = 0;
  virtual offset_t nnz() const = 0;

  /// Stored entries / zero fill / aux-array accounting.
  virtual Footprint footprint() const = 0;

  /// Recover the original matrix (fill dropped, permutations undone).
  virtual Csr<T> to_csr() const = 0;

  /// y = A·x (y in sorted row order when permutation() != nullptr).
  virtual void spmv(std::span<const T> x, std::span<T> y,
                    int n_threads = 1) const = 0;

  /// Fused y = β·y + α·A·x when the format has a native kernel; returns
  /// false (leaving y untouched) when it does not — callers fall back to
  /// spmv + a BLAS-1 pass. info().native_axpby announces which.
  virtual bool spmv_axpby(std::span<const T> /*x*/, std::span<T> /*y*/,
                          T /*alpha*/, T /*beta*/, int /*n_threads*/ = 1) const {
    return false;
  }

  /// Block-RHS product Y = A·X for k row-major interleaved vectors
  /// (x[i*k + v], y[i*k + v], the core/spmmv layout). The default
  /// de-interleaves into k single-vector spmv() calls — bit-identical to
  /// issuing the vectors one by one — so every format accepts block
  /// launches; formats with a fused block kernel (info().native_spmmv)
  /// override it and amortize the matrix stream over the k vectors.
  virtual void spmmv(std::span<const T> x, std::span<T> y, int k,
                     int n_threads = 1) const {
    const auto cols = static_cast<std::size_t>(n_cols());
    const auto rows = static_cast<std::size_t>(n_rows());
    const auto kk = static_cast<std::size_t>(k > 0 ? k : 0);
    SPMVM_REQUIRE(kk >= 1 && x.size() >= cols * kk && y.size() >= rows * kk,
                  "spMMV block too small for k interleaved vectors");
    std::vector<T> xv(cols), yv(rows);
    for (std::size_t v = 0; v < kk; ++v) {
      for (std::size_t i = 0; i < cols; ++i) xv[i] = x[i * kk + v];
      spmv(std::span<const T>(xv), std::span<T>(yv), n_threads);
      for (std::size_t i = 0; i < rows; ++i) y[i * kk + v] = yv[i];
    }
  }

  /// Row order spmv() stores y in; nullptr when it writes the original
  /// basis. Only `jds` has one.
  virtual const Permutation* permutation() const { return nullptr; }

  /// Simulate one spMVM of this plan's kernel on `dev`; nullopt when the
  /// format has no simulated kernel (info().has_sim_kernel == false).
  virtual std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& /*dev*/,
      const gpusim::SimOptions& /*opt*/ = {}) const {
    return std::nullopt;
  }

  /// Selection record when this is the `auto` plan; nullptr otherwise.
  virtual const AutoChoice* auto_choice() const { return nullptr; }
};

}  // namespace spmvm::formats
