// Tests of the benchmark's own helpers: quantile selection, self-time
// folding and the w·y = (Aᵀw)·x output check.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "check.hpp"
#include "fold.hpp"
#include "sparse/coo.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void test_quantiles() {
  using namespace perfbench;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // 1000 .. 1, unsorted
  EXPECT(quantile(v, 0.5) == 500.0);
  EXPECT(quantile(v, 0.99) == 990.0);
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(samples_beyond(999, 0.99) == 9);

  Summary s = summarize(v);
  EXPECT(s.n == 1000 && s.p50 == 500.0 && s.tail_pct == 99.0 && s.tail == 990.0);

  // 999 samples leave 9 above p99, so the tail falls back to p95.
  v.pop_back();
  s = summarize(v);
  EXPECT(s.tail_pct == 95.0);

  // 40 samples: p75 leaves exactly 10 beyond; p90 leaves 4.
  std::vector<double> w;
  for (int i = 1; i <= 40; ++i) w.push_back(i);
  s = summarize(w);
  EXPECT(s.tail_pct == 75.0 && s.tail == 30.0);

  EXPECT(summarize({}).n == 0);
  EXPECT(summarize({7.0}).tail_pct == 50.0 && summarize({7.0}).tail == 7.0);
}

spmvm::obs::TraceEvent ev(const char* name, std::uint32_t tid,
                          std::uint64_t t0_us, std::uint64_t t1_us) {
  spmvm::obs::TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.t0_ns = t0_us * 1000;
  e.t1_ns = t1_us * 1000;
  return e;
}

void test_fold() {
  using namespace perfbench;
  EXPECT(layer_of("pb/exec/apply") == "exec");
  EXPECT(layer_of("pb/bench") == "bench");
  EXPECT(layer_of("kernel/sell") == "formats");
  EXPECT(layer_of("comm/plan_gather") == "dist");
  EXPECT(layer_of("dist/plan_task") == "dist");
  EXPECT(layer_of("msg/send") == "msg");
  EXPECT(layer_of("solver/cg").empty());

  // Thread 1 (benchmark): bench [0,100) ⊃ exec [10,60) ⊃ kernel [20,50),
  // an unmapped span [62,80) ⊃ msg [65,70), and exec [80,90).
  // Thread 2 (worker): serve [0,40) ⊃ kernel [5,25).
  const std::vector<spmvm::obs::TraceEvent> events = {
      ev("pb/exec/apply", 1, 10, 60),  ev("kernel/csr", 1, 20, 50),
      ev("pb/bench/run", 1, 0, 100),   ev("solver/cg", 1, 62, 80),
      ev("msg/send", 1, 65, 70),       ev("pb/exec/apply", 1, 80, 90),
      ev("serve/batch", 2, 0, 40),     ev("kernel/sell", 2, 5, 25),
  };
  const Fold f = fold_self_times(events, {1});
  EXPECT(near(f.bench_self_s.at("bench"), 35e-6));   // 100 - 50 - 5 - 10
  EXPECT(near(f.bench_self_s.at("exec"), 30e-6));    // (50 - 30) + 10
  EXPECT(near(f.bench_self_s.at("formats"), 30e-6));
  EXPECT(near(f.bench_self_s.at("msg"), 5e-6));
  EXPECT(f.bench_self_s.count("solver") == 0);
  EXPECT(near(f.worker_self_s.at("serve"), 20e-6));
  EXPECT(near(f.worker_self_s.at("formats"), 20e-6));
  double sum = 0.0;
  for (const auto& [layer, s] : f.bench_self_s) sum += s;
  EXPECT(near(sum, 100e-6));  // self times tile the root span

  // A span starting where its sibling ends is not its child.
  const Fold g = fold_self_times(
      {ev("pb/bench/run", 1, 0, 20), ev("pb/exec/a", 1, 0, 10),
       ev("pb/exec/b", 1, 10, 20)},
      {1});
  EXPECT(near(g.bench_self_s.at("exec"), 20e-6));
  EXPECT(near(g.bench_self_s.at("bench"), 0.0));
}

void test_probe_check() {
  using namespace perfbench;
  // A = [[2, 0, 1], [0, 3, 0], [4, 0, 5]].
  spmvm::Coo<double> coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(0, 2, 1.0);
  coo.add(1, 1, 3.0);
  coo.add(2, 0, 4.0);
  coo.add(2, 2, 5.0);
  const auto a = spmvm::Csr<double>::from_coo(std::move(coo));
  const std::vector<double> w = {1.0, -2.0, 0.5};
  const std::vector<double> x = {1.0, 2.0, 3.0};
  // Aᵀw = (2·1 + 4·0.5, 3·(-2), 1·1 + 5·0.5) = (4, -6, 3.5).
  const std::vector<double> u = transpose_probe(a, w);
  EXPECT(u.size() == 3 && u[0] == 4.0 && u[1] == -6.0 && u[2] == 3.5);
  const ProbeCheck c = probe_check(a, w, u, x);
  EXPECT(c.expect == 2.5);  // 4 - 12 + 10.5
  // y = A·x = (5, 6, 19); w·y = 5 - 12 + 9.5 = 2.5.
  std::vector<double> y = {5.0, 6.0, 19.0};
  EXPECT(probe_matches(c, w, y));
  y[1] = 6.001;
  EXPECT(!probe_matches(c, w, y));
  y[1] = std::nan("");
  EXPECT(!probe_matches(c, w, y));
  EXPECT(!probe_matches(c, w, std::vector<double>{5.0, 6.0}));

  const RowReference ref = reference_product(a, x);
  EXPECT(ref.y == (std::vector<double>{5.0, 6.0, 19.0}));
  EXPECT(ref.mag == (std::vector<double>{5.0, 6.0, 19.0}));
  EXPECT(count_row_mismatches(ref, std::vector<double>{5.0, 6.0, 19.0}) == 0);
  EXPECT(count_row_mismatches(ref, std::vector<double>{5.0, 6.5, 19.0}) == 1);
  // Interleaved k = 2 block, vector 1 holds the product.
  const std::vector<double> blk = {0.0, 5.0, 0.0, 6.0, 0.0, 19.0};
  EXPECT(count_row_mismatches(ref, blk, 2, 1) == 0);
  EXPECT(count_row_mismatches(ref, blk, 2, 0) == 3);
}

}  // namespace

int main() {
  test_quantiles();
  test_fold();
  test_probe_check();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
