// Concrete FormatPlan implementations, one per storage format.
//
// Exposed (rather than hidden in registry.cpp) for the few callers that
// need the native struct behind a plan — e.g. format_tour printing raw
// SELL arrays — via `dynamic_cast<const SlicedEllPlan<T>*>(plan)->format()`.
// Everything else should stay on the FormatPlan interface.
#pragma once

#include "formats/format_plan.hpp"
#include "sparse/bellpack.hpp"
#include "sparse/jds.hpp"
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

template <class T>
class JdsPlan final : public FormatPlan<T> {
 public:
  JdsPlan(Jds<T> a, const FormatInfo& info) : a_(std::move(a)), info_(&info) {}
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

 private:
  Jds<T> a_;
  const FormatInfo* info_;
};

/// Every SELL-C-σ preset: `ellpack`, `ellpack_r`, `sliced_ell`,
/// `sell_c_sigma` and `pjds` (sparse/sliced_ell.hpp). They share the host
/// kernels; `full_width` (plain ELLPACK, Fig. 2a) makes every simulated
/// lane run the slice width and leaves row_len[] out of the footprint.
/// A row-sorted image writes y through its row map
/// (SlicedEll::row_map()), so no preset reports a permutation.
template <class T>
class SlicedEllPlan final : public FormatPlan<T> {
 public:
  SlicedEllPlan(SlicedEll<T> a, const FormatInfo& info, bool full_width = false)
      : a_(std::move(a)), info_(&info), full_width_(full_width) {}
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
  std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& dev,
      const gpusim::SimOptions& opt) const override;

 private:
  SlicedEll<T> a_;
  const FormatInfo* info_;
  bool full_width_;
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

#define SPMVM_EXTERN_PLANS(T)               \
  extern template class CsrPlan<T>;         \
  extern template class JdsPlan<T>;         \
  extern template class SlicedEllPlan<T>;   \
  extern template class BellpackPlan<T>

SPMVM_EXTERN_PLANS(float);
SPMVM_EXTERN_PLANS(double);
#undef SPMVM_EXTERN_PLANS

}  // namespace spmvm::formats
