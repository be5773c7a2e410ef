// The machine regime every result is recorded with: core count, cache
// sizes and a single-thread triad bandwidth measured in the same run.
#pragma once

#include <cstddef>

namespace perfbench {

struct Regime {
  int nproc = 0;
  std::size_t l2_bytes = 0;  // per core
  std::size_t l3_bytes = 0;  // shared
};

/// Core count and cache sizes as the C library reports them (0 when
/// unknown).
Regime detect_regime();

/// Single-thread triad a[i] = b[i] + s·c[i] over three arrays of
/// `bytes_per_array` bytes each: median of `reps` passes, reported as
/// 3·bytes_per_array / time in GB/s (stores counted once, no
/// write-allocate).
double measure_triad_gbs(std::size_t bytes_per_array, int reps);

}  // namespace perfbench
