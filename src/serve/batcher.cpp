#include "serve/batcher.hpp"

#include <algorithm>

#include "core/spmmv.hpp"

namespace spmvm::serve {

int target_batch_width(std::size_t scalar_size, double alpha, double nnzr,
                       int max_k, double min_gain) {
  if (max_k < 1) return 1;
  int k = 1;
  while (k < max_k) {
    const double bk = spmmv_code_balance(scalar_size, alpha, nnzr, k);
    const double bk1 = spmmv_code_balance(scalar_size, alpha, nnzr, k + 1);
    // B(k) is strictly decreasing in k with a shrinking step, so the
    // first below-threshold step ends the walk.
    if (bk <= 0.0 || (bk - bk1) / bk < min_gain) break;
    ++k;
  }
  return k;
}

void ArrivalGap::note(time_point t) {
  std::lock_guard<std::mutex> lk(m_);
  if (notes_ > 0) {
    const double gap =
        t > last_ ? std::chrono::duration<double>(t - last_).count() : 0.0;
    mean_s_ = notes_ == 1 ? gap : mean_s_ + kWeight * (gap - mean_s_);
  }
  if (notes_ == 0 || t > last_) last_ = t;
  notes_ = std::min(notes_ + 1, 2);
}

double ArrivalGap::mean_gap() const {
  std::lock_guard<std::mutex> lk(m_);
  return mean_s_;
}

}  // namespace spmvm::serve
