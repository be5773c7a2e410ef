#include "regime.hpp"

#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {

namespace {

std::size_t sysconf_bytes(int name) {
  const long v = ::sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

}  // namespace

Regime detect_regime() {
  Regime r;
  r.nproc = static_cast<int>(std::thread::hardware_concurrency());
#ifdef _SC_LEVEL2_CACHE_SIZE
  r.l2_bytes = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  r.l3_bytes = sysconf_bytes(_SC_LEVEL3_CACHE_SIZE);
#endif
  return r;
}

double measure_triad_gbs(std::size_t bytes_per_array, int reps) {
  const std::size_t n = bytes_per_array / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  std::vector<double> times;
  for (int r = 0; r < reps + 1; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    const auto t1 = std::chrono::steady_clock::now();
    if (r > 0)  // the first pass faults the pages in
      times.push_back(std::chrono::duration<double>(t1 - t0).count());
    b[r % n] = a[(r * 7) % n];  // keep the passes dependent
  }
  return 3.0 * static_cast<double>(n * sizeof(double)) / median(times) * 1e-9;
}

}  // namespace perfbench
