// Output checks. Each is computed by the benchmark's own loops over the
// CSR arrays, independent of the library kernels under test.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace perfbench {

/// Relative tolerance of a product row against the long-double CSR
/// reference, scaled by that row's Σ|a_ij·x_j|. The library promises bit
/// identity only across backends, not across formats, whose kernels sum
/// a row in different orders.
inline constexpr double kRowTol = 1e-12;

/// Reference y = A·x in long double, plus the per-row magnitude
/// Σ|a_ij·x_j| that scales the tolerance.
struct RowReference {
  std::vector<double> y;
  std::vector<double> mag;
};
RowReference reference_product(const spmvm::Csr<double>& a,
                               std::span<const double> x);

/// Number of rows of `y` outside kRowTol of the reference.
std::size_t count_row_mismatches(const RowReference& ref,
                                 std::span<const double> y);

/// Strided variant for one vector of a k-wide interleaved block
/// (y[i*k + v]).
std::size_t count_row_mismatches(const RowReference& ref,
                                 std::span<const double> y, int k, int v);

/// Check of a product without storing it: for a fixed probe w,
/// w·(A·x) must equal (Aᵀw)·x. `expect` is (Aᵀw)·x, `mag` bounds the
/// rounding, Σ_i |w_i| Σ_j |a_ij·x_j|.
struct ProbeCheck {
  double expect = 0.0;
  double mag = 0.0;
};

/// Relative tolerance of w·y against (Aᵀw)·x, scaled by ProbeCheck::mag.
inline constexpr double kProbeTol = 1e-11;

/// u = Aᵀw, accumulated in long double.
std::vector<double> transpose_probe(const spmvm::Csr<double>& a,
                                    std::span<const double> w);

ProbeCheck probe_check(const spmvm::Csr<double>& a, std::span<const double> w,
                       std::span<const double> u, std::span<const double> x);

/// True when w·y matches the expectation within kProbeTol.
bool probe_matches(const ProbeCheck& c, std::span<const double> w,
                   std::span<const double> y);

}  // namespace perfbench
