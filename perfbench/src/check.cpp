#include "check.hpp"

#include <cmath>

namespace perfbench {

RowReference reference_product(const spmvm::Csr<double>& a,
                               std::span<const double> x) {
  const auto n = static_cast<std::size_t>(a.n_rows);
  RowReference r;
  r.y.resize(n);
  r.mag.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    long double s = 0.0L, m = 0.0L;
    for (auto p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      const auto j = static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(p)]);
      const long double t = static_cast<long double>(a.val[static_cast<std::size_t>(p)]) * x[j];
      s += t;
      m += std::fabs(t);
    }
    r.y[i] = static_cast<double>(s);
    r.mag[i] = static_cast<double>(m);
  }
  return r;
}

std::size_t count_row_mismatches(const RowReference& ref,
                                 std::span<const double> y, int k, int v) {
  std::size_t bad = 0;
  const auto kk = static_cast<std::size_t>(k);
  const auto vv = static_cast<std::size_t>(v);
  for (std::size_t i = 0; i < ref.y.size(); ++i) {
    const double d = std::fabs(y[i * kk + vv] - ref.y[i]);
    // Written so a NaN in y counts as a mismatch.
    if (!(d <= kRowTol * ref.mag[i] + 1e-300)) ++bad;
  }
  return bad;
}

std::size_t count_row_mismatches(const RowReference& ref,
                                 std::span<const double> y) {
  return count_row_mismatches(ref, y, 1, 0);
}

std::vector<double> transpose_probe(const spmvm::Csr<double>& a,
                                    std::span<const double> w) {
  std::vector<long double> u(static_cast<std::size_t>(a.n_cols), 0.0L);
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.n_rows); ++i)
    for (auto p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p)
      u[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(p)])] +=
          static_cast<long double>(a.val[static_cast<std::size_t>(p)]) * w[i];
  return {u.begin(), u.end()};
}

ProbeCheck probe_check(const spmvm::Csr<double>& a, std::span<const double> w,
                       std::span<const double> u, std::span<const double> x) {
  ProbeCheck c;
  long double e = 0.0L, m = 0.0L;
  for (std::size_t j = 0; j < u.size(); ++j)
    e += static_cast<long double>(u[j]) * x[j];
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.n_rows); ++i) {
    long double row = 0.0L;
    for (auto p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p)
      row += std::fabs(static_cast<long double>(a.val[static_cast<std::size_t>(p)]) *
                       x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(p)])]);
    m += std::fabs(static_cast<long double>(w[i])) * row;
  }
  c.expect = static_cast<double>(e);
  c.mag = static_cast<double>(m);
  return c;
}

bool probe_matches(const ProbeCheck& c, std::span<const double> w,
                   std::span<const double> y) {
  if (y.size() != w.size()) return false;
  long double s = 0.0L;
  for (std::size_t i = 0; i < y.size(); ++i)
    s += static_cast<long double>(w[i]) * y[i];
  return std::fabs(static_cast<double>(s) - c.expect) <= kProbeTol * c.mag + 1e-300;
}

}  // namespace perfbench
