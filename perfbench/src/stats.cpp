#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double q) {
  // Rounded first so 0.99 * 1000 lands on 990, not on 991.
  const double r = std::ceil(std::round(q * static_cast<double>(n) * 1e9) / 1e9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = rank_of(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double q) { return sorted[rank_of(sorted.size(), q) - 1]; };
  s.p50 = at(0.5);
  s.tail_pct = 50.0;
  s.tail = s.p50;
  for (double pct : {99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(s.n, pct / 100.0) >= kMinBeyond) {
      s.tail_pct = pct;
      s.tail = at(pct / 100.0);
      break;
    }
  }
  return s;
}

}  // namespace perfbench
