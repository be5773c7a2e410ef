// Concrete FormatPlan implementations, one per storage format.
//
// Exposed (rather than hidden in registry.cpp) for the few callers that
// need the native struct behind a plan — e.g. bench baselines accessing
// raw pJDS arrays — via `dynamic_cast<const PjdsPlan<T>*>(plan)->format()`.
// Everything else should stay on the FormatPlan interface.
#pragma once

#include "formats/format_plan.hpp"
#include "sparse/bellpack.hpp"
#include "sparse/ellpack.hpp"
#include "sparse/jds.hpp"
#include "sparse/pjds.hpp"
#include "sparse/sliced_ell.hpp"

namespace spmvm::formats {

template <class T>
class CsrPlan final : public FormatPlan<T> {
 public:
  CsrPlan(Csr<T> a, const FormatInfo& info) : a_(std::move(a)), info_(&info) {}
  const Csr<T>& format() const { return a_; }

  const FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return a_.n_rows; }
  index_t n_cols() const override { return a_.n_cols; }
  offset_t nnz() const override { return a_.nnz(); }
  Footprint footprint() const override;
  Csr<T> to_csr() const override { return a_; }
  void spmv(std::span<const T> x, std::span<T> y,
            int n_threads) const override;
  bool spmv_axpby(std::span<const T> x, std::span<T> y, T alpha, T beta,
                  int n_threads) const override;
  void spmmv(std::span<const T> x, std::span<T> y, int k,
             int n_threads) const override;
  std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& dev,
      const gpusim::SimOptions& opt) const override;

 private:
  Csr<T> a_;
  const FormatInfo* info_;
};

/// Shared by the `ellpack` (plain kernel, Fig. 2a) and `ellpack_r`
/// (rowmax early exit, Listing 1) registry entries — same storage,
/// different kernel.
template <class T>
class EllpackPlan final : public FormatPlan<T> {
 public:
  EllpackPlan(Ellpack<T> a, const FormatInfo& info, bool r_kernel)
      : a_(std::move(a)), info_(&info), r_kernel_(r_kernel) {}
  const Ellpack<T>& format() const { return a_; }

  const FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return a_.n_rows; }
  index_t n_cols() const override { return a_.n_cols; }
  offset_t nnz() const override { return a_.nnz; }
  Footprint footprint() const override;
  Csr<T> to_csr() const override;
  void spmv(std::span<const T> x, std::span<T> y,
            int n_threads) const override;
  std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& dev,
      const gpusim::SimOptions& opt) const override;

 private:
  Ellpack<T> a_;
  const FormatInfo* info_;
  bool r_kernel_;
};

template <class T>
class JdsPlan final : public FormatPlan<T> {
 public:
  JdsPlan(Jds<T> a, const FormatInfo& info, bool columns_permuted)
      : a_(std::move(a)), info_(&info), columns_permuted_(columns_permuted) {}
  const Jds<T>& format() const { return a_; }

  const FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return a_.n_rows; }
  index_t n_cols() const override { return a_.n_cols; }
  offset_t nnz() const override { return a_.nnz; }
  Footprint footprint() const override;
  Csr<T> to_csr() const override;
  void spmv(std::span<const T> x, std::span<T> y,
            int n_threads) const override;
  const Permutation* permutation() const override { return &a_.perm; }
  bool columns_permuted() const override { return columns_permuted_; }

 private:
  Jds<T> a_;
  const FormatInfo* info_;
  bool columns_permuted_;
};

/// Shared by `sliced_ell` (σ = 1, original row order) and `sell_c_sigma`
/// (σ > 1, windowed descending sort) registry entries.
template <class T>
class SlicedEllPlan final : public FormatPlan<T> {
 public:
  SlicedEllPlan(SlicedEll<T> a, const FormatInfo& info) : a_(std::move(a)), info_(&info) {}
  const SlicedEll<T>& format() const { return a_; }

  const FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return a_.n_rows; }
  index_t n_cols() const override { return a_.n_cols; }
  offset_t nnz() const override { return a_.nnz; }
  Footprint footprint() const override;
  Csr<T> to_csr() const override;
  void spmv(std::span<const T> x, std::span<T> y,
            int n_threads) const override;
  bool spmv_axpby(std::span<const T> x, std::span<T> y, T alpha, T beta,
                  int n_threads) const override;
  void spmmv(std::span<const T> x, std::span<T> y, int k,
             int n_threads) const override;
  const Permutation* permutation() const override {
    return a_.sort_window > 1 ? &a_.perm : nullptr;
  }
  bool columns_permuted() const override { return a_.columns_permuted; }
  std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& dev,
      const gpusim::SimOptions& opt) const override;

 private:
  SlicedEll<T> a_;
  const FormatInfo* info_;
};

template <class T>
class BellpackPlan final : public FormatPlan<T> {
 public:
  BellpackPlan(Bellpack<T> a, const FormatInfo& info) : a_(std::move(a)), info_(&info) {}
  const Bellpack<T>& format() const { return a_; }

  const FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return a_.n_rows; }
  index_t n_cols() const override { return a_.n_cols; }
  offset_t nnz() const override { return a_.nnz; }
  Footprint footprint() const override;
  Csr<T> to_csr() const override;
  void spmv(std::span<const T> x, std::span<T> y,
            int n_threads) const override;

 private:
  Bellpack<T> a_;
  const FormatInfo* info_;
};

template <class T>
class PjdsPlan final : public FormatPlan<T> {
 public:
  PjdsPlan(Pjds<T> a, const FormatInfo& info) : a_(std::move(a)), info_(&info) {}
  const Pjds<T>& format() const { return a_; }

  const FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return a_.n_rows; }
  index_t n_cols() const override { return a_.n_cols; }
  offset_t nnz() const override { return a_.nnz; }
  Footprint footprint() const override;
  Csr<T> to_csr() const override;
  void spmv(std::span<const T> x, std::span<T> y,
            int n_threads) const override;
  bool spmv_axpby(std::span<const T> x, std::span<T> y, T alpha, T beta,
                  int n_threads) const override;
  void spmmv(std::span<const T> x, std::span<T> y, int k,
             int n_threads) const override;
  const Permutation* permutation() const override { return &a_.perm; }
  bool columns_permuted() const override { return a_.columns_permuted; }
  std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& dev,
      const gpusim::SimOptions& opt) const override;

 private:
  Pjds<T> a_;
  const FormatInfo* info_;
};

#define SPMVM_EXTERN_PLANS(T)               \
  extern template class CsrPlan<T>;         \
  extern template class EllpackPlan<T>;     \
  extern template class JdsPlan<T>;         \
  extern template class SlicedEllPlan<T>;   \
  extern template class BellpackPlan<T>;    \
  extern template class PjdsPlan<T>

SPMVM_EXTERN_PLANS(float);
SPMVM_EXTERN_PLANS(double);
#undef SPMVM_EXTERN_PLANS

}  // namespace spmvm::formats
