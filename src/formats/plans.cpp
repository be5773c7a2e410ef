#include "formats/plans.hpp"

#include "core/spmmv.hpp"
#include "sparse/spmv_host.hpp"
#include "sparse/to_csr.hpp"

namespace spmvm::formats {

// ---- CSR ----

template <class T>
Footprint CsrPlan<T>::footprint() const {
  return spmvm::footprint(a_);
}

template <class T>
void CsrPlan<T>::spmv(std::span<const T> x, std::span<T> y,
                      int n_threads) const {
  spmvm::spmv(a_, x, y, n_threads);
}

template <class T>
bool CsrPlan<T>::spmv_axpby(std::span<const T> x, std::span<T> y, T alpha,
                            T beta, int n_threads) const {
  spmvm::spmv_axpby(a_, x, y, alpha, beta, n_threads);
  return true;
}

template <class T>
void CsrPlan<T>::spmmv(std::span<const T> x, std::span<T> y, int k,
                       int n_threads) const {
  spmvm::spmmv(a_, x, y, k, n_threads);
}

template <class T>
std::optional<gpusim::KernelResult> CsrPlan<T>::simulate(
    const gpusim::DeviceSpec& dev, const gpusim::SimOptions& opt) const {
  return gpusim::simulate_csr_vector(dev, a_, opt);
}

// ---- JDS ----

template <class T>
Footprint JdsPlan<T>::footprint() const {
  return spmvm::footprint(a_);
}

template <class T>
Csr<T> JdsPlan<T>::to_csr() const {
  return spmvm::to_csr(
      a_, columns_permuted_ ? PermuteColumns::yes : PermuteColumns::no);
}

template <class T>
void JdsPlan<T>::spmv(std::span<const T> x, std::span<T> y,
                      int /*n_threads*/) const {
  spmvm::spmv(a_, x, y);
}

// ---- SELL-C-σ presets ----

template <class T>
Footprint SlicedEllPlan<T>::footprint() const {
  return spmvm::footprint(a_, /*with_row_len=*/!full_width_);
}

template <class T>
Csr<T> SlicedEllPlan<T>::to_csr() const {
  return spmvm::to_csr(a_);
}

template <class T>
void SlicedEllPlan<T>::spmv(std::span<const T> x, std::span<T> y,
                            int n_threads) const {
  spmvm::spmv(a_, x, y, n_threads, info_->name);
}

template <class T>
bool SlicedEllPlan<T>::spmv_axpby(std::span<const T> x, std::span<T> y,
                                  T alpha, T beta, int n_threads) const {
  spmvm::spmv_axpby(a_, x, y, alpha, beta, n_threads, info_->name);
  return true;
}

template <class T>
void SlicedEllPlan<T>::spmmv(std::span<const T> x, std::span<T> y, int k,
                             int n_threads) const {
  spmvm::spmmv(a_, x, y, k, n_threads, info_->name);
}

template <class T>
std::optional<gpusim::KernelResult> SlicedEllPlan<T>::simulate(
    const gpusim::DeviceSpec& dev, const gpusim::SimOptions& opt) const {
  return gpusim::simulate(dev, a_, info_->name, opt, full_width_);
}

// ---- BELLPACK ----

template <class T>
Footprint BellpackPlan<T>::footprint() const {
  return spmvm::footprint(a_);
}

template <class T>
Csr<T> BellpackPlan<T>::to_csr() const {
  return spmvm::to_csr(a_);
}

template <class T>
void BellpackPlan<T>::spmv(std::span<const T> x, std::span<T> y,
                           int n_threads) const {
  spmvm::spmv(a_, x, y, n_threads);
}

#define SPMVM_INSTANTIATE_PLANS(T)   \
  template class CsrPlan<T>;         \
  template class JdsPlan<T>;         \
  template class SlicedEllPlan<T>;   \
  template class BellpackPlan<T>

SPMVM_INSTANTIATE_PLANS(float);
SPMVM_INSTANTIATE_PLANS(double);

}  // namespace spmvm::formats
