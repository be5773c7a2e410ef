// The paper's benchmark suite: named matrices plus their published
// reference numbers, so every bench can print paper-vs-measured rows.
#pragma once

#include <string>

#include "matgen/generators.hpp"
#include "sparse/csr.hpp"

namespace spmvm {

/// Published figures for one test matrix (Sec. I-C and Table I).
struct PaperRef {
  index_t dimension = 0;          // full-size N
  double nnzr = 0.0;              // average non-zeros per row
  double data_reduction = -1.0;   // pJDS vs ELLPACK, % (Table I; -1 = n/a)
  double gfs_ellpack_r_dp_ecc = -1.0;  // Table I, DP ECC=1 (-1 = n/a)
  double gfs_pjds_dp_ecc = -1.0;
};

struct NamedMatrix {
  std::string name;
  Csr<double> matrix;
  PaperRef paper;
};

/// Look up one matrix of the full suite by name (DLR1, DLR2, HMEp, sAMG,
/// UHBR); throws spmvm::Error for unknown names.
NamedMatrix make_named(const std::string& name, double scale,
                       std::uint64_t seed = 0x5EED);

}  // namespace spmvm
