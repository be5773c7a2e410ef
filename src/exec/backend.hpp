// The execution engine's backend abstraction (DESIGN.md §13).
//
// A Backend decides *where* an spMVM runs — the host node, the simulated
// GPGPU, or a hybrid CPU+GPU row split — which the paper argues is the
// actual performance decision (Sec. II, Eqs. 1–4). bind() compiles one
// matrix in one storage format for one backend and returns a BoundSpmv:
// the kernel-launch handle every consumer (solver operators, the
// distributed products, benches, examples) applies products through.
// Consumers never call spmv_host or device_runtime entry points directly;
// exec/dispatch.hpp is the only sanctioned raw-kernel surface.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "formats/format_plan.hpp"
#include "sparse/csr.hpp"
#include "util/error.hpp"

namespace spmvm::exec {

/// Static description of one backend (Engine::list / --list-backends).
struct BackendInfo {
  const char* name = "";
  const char* description = "";
  bool uses_device = false;  // charges the simulated device + PCIe link
};

/// Basis the bound product's vectors live in. `original` hides row
/// permutations entirely: x and y are original-basis vectors, and the
/// backend carries them across the plan's permutation (jds,
/// PermuteColumns::yes builds) per apply. `plan` applies in the plan's
/// own basis with zero carry overhead — the paper's recommended solver
/// usage (permute once before and after the whole iteration, Sec. II-A).
enum class Basis : std::uint8_t { original, plan };

/// Per-bind launch knobs, shared by every backend (each reads the
/// fields that apply to it).
struct LaunchOptions {
  int n_threads = 1;
  Basis basis = Basis::original;
  /// gpusim/hybrid: keep x and y device-resident, skipping the per-call
  /// PCIe staging of Eq. 2 (Sec. III "parts of those vectors may be
  /// kept on the device").
  bool vectors_resident = false;
  /// hybrid: explicit fraction of non-zeros assigned to the device,
  /// clamped to [0, 1]. Negative (default) splits by the relative
  /// host/device bandwidth roofs of the engine's RooflineSpec.
  double device_share = -1.0;
};

/// One matrix bound to one backend in one storage format: the launch
/// handle. apply()/apply_axpby() mutate backend state (simulated device
/// clocks, ledger records, internal scratch), so handles are not
/// shareable across threads without external synchronization.
template <class T>
class BoundSpmv {
 public:
  virtual ~BoundSpmv() = default;
  BoundSpmv(const BoundSpmv&) = delete;
  BoundSpmv& operator=(const BoundSpmv&) = delete;

  virtual const BackendInfo& backend() const = 0;
  virtual index_t n_rows() const = 0;
  virtual index_t n_cols() const = 0;
  virtual offset_t nnz() const = 0;

  /// The underlying format plan; nullptr when the binding spans more
  /// than one plan (hybrid).
  virtual const formats::FormatPlan<T>* plan() const { return nullptr; }

  /// y = A·x (basis per LaunchOptions::basis).
  virtual void apply(std::span<const T> x, std::span<T> y) = 0;

  /// Block-RHS launch Y = A·X for k row-major interleaved vectors
  /// (x[i*k + v], the core/spmmv layout) — the serving layer's batched
  /// entry point. Backends route every width, including k = 1, through
  /// the block kernels, so a coalesced batch is bit-identical to issuing
  /// its requests one at a time. The default de-interleaves into k
  /// apply() calls for backends without a block path.
  virtual void apply_block(std::span<const T> x, std::span<T> y, int k) {
    check_block(x, y, k);
    const auto cols = static_cast<std::size_t>(n_cols());
    const auto rows = static_cast<std::size_t>(n_rows());
    const auto kk = static_cast<std::size_t>(k);
    std::vector<T> xv(cols), yv(rows);
    for (std::size_t v = 0; v < kk; ++v) {
      for (std::size_t i = 0; i < cols; ++i) xv[i] = x[i * kk + v];
      apply(std::span<const T>(xv), std::span<T>(yv));
      for (std::size_t i = 0; i < rows; ++i) y[i * kk + v] = yv[i];
    }
  }

  /// y = β·y + α·A·x. Backends with a native fused kernel do it in one
  /// matrix pass; the default falls back to apply() + a BLAS-1 sweep
  /// over an internal scratch vector (not safe to call concurrently).
  virtual void apply_axpby(std::span<const T> x, std::span<T> y, T alpha,
                           T beta) {
    scratch_.resize(static_cast<std::size_t>(n_rows()));
    apply(x, std::span<T>(scratch_));
    for (std::size_t i = 0; i < scratch_.size(); ++i)
      y[i] = beta * y[i] + alpha * scratch_[i];
  }

  /// Hybrid diagnostics: rows [0, split_row) run on the device, the
  /// rest on the host. Single-backend bindings report the trivial split.
  virtual index_t split_row() const {
    return backend().uses_device ? n_rows() : 0;
  }
  /// Fraction of non-zeros executed on the simulated device.
  virtual double device_nnz_share() const {
    return backend().uses_device ? 1.0 : 0.0;
  }

 protected:
  BoundSpmv() = default;
  void check_spans(std::span<const T> x, std::span<T> y) const {
    SPMVM_REQUIRE(x.size() >= static_cast<std::size_t>(n_cols()) &&
                      y.size() >= static_cast<std::size_t>(n_rows()),
                  "bound spMVM vectors too small");
  }
  void check_block(std::span<const T> x, std::span<T> y, int k) const {
    SPMVM_REQUIRE(k >= 1 &&
                      x.size() >= static_cast<std::size_t>(n_cols()) *
                                      static_cast<std::size_t>(k) &&
                      y.size() >= static_cast<std::size_t>(n_rows()) *
                                      static_cast<std::size_t>(k),
                  "bound spMMV block too small for k interleaved vectors");
  }

 private:
  std::vector<T> scratch_;
};

/// One execution target. Backends are owned by an exec::Engine and share
/// its TransferManager (buffer.hpp); bind() may allocate simulated
/// device memory and throws spmvm::Error when the card is full.
template <class T>
class Backend {
 public:
  virtual ~Backend() = default;

  virtual const BackendInfo& info() const = 0;

  /// Build `format` from `a` through the format registry and bind it to
  /// this backend.
  virtual std::unique_ptr<BoundSpmv<T>> bind(
      const Csr<T>& a, std::string_view format = "csr",
      const formats::PlanOptions& opts = {},
      const LaunchOptions& launch = {}) = 0;

  /// Bind an already-built plan (plan reuse across backends/launches).
  /// The hybrid backend recovers the CSR to split it, so prefer bind()
  /// there when the original matrix is at hand.
  virtual std::unique_ptr<BoundSpmv<T>> bind_plan(
      std::shared_ptr<const formats::FormatPlan<T>> plan,
      const LaunchOptions& launch = {}) = 0;
};

}  // namespace spmvm::exec
