// The serving layer's contracts (DESIGN.md §14): admission control
// sheds load with a reason instead of growing the queue, batched
// block-RHS launches are bit-identical to serving the same requests one
// at a time on every backend and to an original-basis product in every
// format, a worker waits for stragglers only when one is due, shutdown
// drains every accepted ticket, and cancellation/deadlines are honored
// cooperatively. The concurrency cases double as the tsan-concurrency
// preset's coverage of the queue/worker interplay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exec/engine.hpp"
#include "formats/registry.hpp"
#include "perfmodel/balance.hpp"
#include "serve/batcher.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

using namespace spmvm;
using namespace spmvm::serve;

namespace {

using spmvm::testing::random_csr;
using spmvm::testing::random_vector;

std::shared_ptr<Request> make_request(const std::string& matrix) {
  auto r = std::make_shared<Request>();
  r->matrix = matrix;
  return r;
}

/// Serve `xs` against `a` on `backend` in `format` with the given batch
/// ceiling: submit everything while the workers are still parked, then
/// start, so a max_batch > 1 server coalesces deterministically.
/// `model_k` receives the server's batch width for the matrix.
std::vector<std::vector<double>> serve_all(
    const std::string& backend, int max_batch, const Csr<double>& a,
    const std::vector<std::vector<double>>& xs, int* width_seen = nullptr,
    const std::string& format = "csr", int* model_k = nullptr) {
  ServerOptions opt;
  opt.backend = backend;
  opt.format = format;
  opt.n_workers = 1;
  opt.max_batch = max_batch;
  opt.max_batch_wait_s = 0.05;
  Server server(opt);
  server.register_matrix("m", a);
  if (model_k != nullptr) *model_k = server.batch_width("m");
  std::vector<Ticket> tickets;
  tickets.reserve(xs.size());
  for (const auto& x : xs) tickets.push_back(server.submit("m", x));
  server.start();
  std::vector<std::vector<double>> ys;
  for (Ticket& t : tickets) {
    Response r = t.get();
    EXPECT_EQ(r.status, RequestStatus::ok) << to_string(r.status);
    EXPECT_GE(r.batch_width, 1);
    EXPECT_LE(r.batch_width, max_batch);
    if (width_seen != nullptr) *width_seen = std::max(*width_seen, r.batch_width);
    ys.push_back(std::move(r.y));
  }
  server.shutdown();
  return ys;
}

// ---- fault injection: test-only formats in the process registry --------

/// Holds every launch of the `test_gated` format until the test opens it.
class LaunchGate {
 public:
  void reset() {
    std::lock_guard<std::mutex> lk(m_);
    entered_ = 0;
    open_ = false;
  }
  void pass() {
    std::unique_lock<std::mutex> lk(m_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return open_; });
  }
  bool wait_entered(int n, double timeout_s) {
    std::unique_lock<std::mutex> lk(m_);
    return cv_.wait_for(lk, std::chrono::duration<double>(timeout_s),
                        [&] { return entered_ >= n; });
  }
  void open() {
    std::lock_guard<std::mutex> lk(m_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

LaunchGate& launch_gate() {
  static LaunchGate gate;
  return gate;
}

constexpr index_t kFaultyRows = 40;
constexpr const char* kFaultMessage = "injected launch fault";

/// A csr plan whose launches either throw or wait at launch_gate().
class FaultyPlan final : public formats::FormatPlan<double> {
 public:
  enum class Mode { throws, gated };
  FaultyPlan(const Csr<double>& a, const formats::FormatInfo& info, Mode mode)
      : csr_(formats::registry<double>().build("csr", a)),
        info_(&info),
        mode_(mode) {}

  const formats::FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return csr_->n_rows(); }
  index_t n_cols() const override { return csr_->n_cols(); }
  offset_t nnz() const override { return csr_->nnz(); }
  Footprint footprint() const override { return csr_->footprint(); }
  Csr<double> to_csr() const override { return csr_->to_csr(); }
  void spmv(std::span<const double> x, std::span<double> y,
            int n_threads) const override {
    launch();
    csr_->spmv(x, y, n_threads);
  }
  void spmmv(std::span<const double> x, std::span<double> y, int k,
             int n_threads) const override {
    launch();
    csr_->spmmv(x, y, k, n_threads);
  }

 private:
  void launch() const {
    if (mode_ == Mode::throws) throw std::runtime_error(kFaultMessage);
    launch_gate().pass();
  }

  std::shared_ptr<const formats::FormatPlan<double>> csr_;
  const formats::FormatInfo* info_;
  Mode mode_;
};

/// `test_throwing`: matrices with kFaultyRows rows get launches that
/// throw; every other matrix is built as the registry's plain csr plan.
std::unique_ptr<formats::FormatPlan<double>> build_throwing(
    const Csr<double>& a, const formats::PlanOptions& opts,
    const formats::FormatInfo& info) {
  if (a.n_rows != kFaultyRows) {
    const auto* csr = formats::registry<double>().find("csr");
    return csr->builder(a, opts, csr->info);
  }
  return std::make_unique<FaultyPlan>(a, info, FaultyPlan::Mode::throws);
}

/// `test_gated`: every launch waits at launch_gate(), then runs csr.
std::unique_ptr<formats::FormatPlan<double>> build_gated(
    const Csr<double>& a, const formats::PlanOptions&,
    const formats::FormatInfo& info) {
  return std::make_unique<FaultyPlan>(a, info, FaultyPlan::Mode::gated);
}

/// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// The Eq. 1 width the server picks for `a` when its format has a
/// native block kernel.
int model_width(const Csr<double>& a, const ServerOptions& opt) {
  const double nnzr = std::max(
      1.0, static_cast<double>(a.nnz()) / static_cast<double>(a.n_rows));
  return target_batch_width(sizeof(double), perfmodel::alpha_ideal(nnzr),
                            nnzr, opt.max_batch, opt.min_batch_gain);
}

void register_fault_formats() {
  auto& reg = formats::registry<double>();
  if (reg.find("test_throwing") != nullptr) return;
  reg.register_format({"test_throwing", "csr; launches throw on faulty rows",
                       false, false, false, /*native_spmmv=*/true},
                      &build_throwing);
  reg.register_format({"test_gated", "csr; launches wait at the test gate",
                       false, false, false, /*native_spmmv=*/true},
                      &build_gated);
}

}  // namespace

// ---- batcher model ---------------------------------------------------------

TEST(ServeBatcher, WidthRespectsBounds) {
  EXPECT_EQ(target_batch_width(8, 0.2, 7.0, 1, 0.02), 1);
  EXPECT_EQ(target_batch_width(8, 0.2, 7.0, 0, 0.02), 1);
  // A gain threshold above the first step's gain keeps k at 1.
  EXPECT_EQ(target_batch_width(8, 0.2, 7.0, 8, 0.99), 1);
  // A zero threshold walks to the ceiling (B(k) strictly decreases).
  EXPECT_EQ(target_batch_width(8, 0.2, 7.0, 8, 0.0), 8);
}

TEST(ServeBatcher, WidthShrinksWithVectorHeavyBalance) {
  // The matrix term (s+4)/k is what k amortizes; when α and the vector
  // sweeps dominate (dense rows, high α), widening pays off less and
  // the model stops earlier.
  const int sparse_heavy = target_batch_width(8, 0.05, 4.0, 64, 0.02);
  const int vector_heavy = target_batch_width(8, 2.0, 4.0, 64, 0.02);
  EXPECT_LT(vector_heavy, sparse_heavy);
  EXPECT_GE(vector_heavy, 1);
}

TEST(ServeBatcher, WidthMonotoneInThreshold) {
  int prev = 1 << 20;
  for (const double gain : {0.0, 0.01, 0.05, 0.2, 0.8}) {
    const int k = target_batch_width(8, 0.3, 10.0, 32, gain);
    EXPECT_LE(k, prev) << "gain " << gain;
    prev = k;
  }
}

TEST(ServeBatcher, NoNativeBlockKernelMeansWidthOne) {
  // jds and bellpack batch through k single-vector products, so a wider
  // batch only adds latency; the formats with a block kernel keep the
  // Eq. 1 width. Hybrid has no single plan and asks the registry.
  const auto a = random_csr<double>(64, 64, 2, 6, 5);
  const int model = model_width(a, ServerOptions{});
  ASSERT_GT(model, 1);
  // Hybrid `auto` builds one auto plan per part; the `auto` entry itself
  // has no block kernel.
  const std::vector<std::tuple<const char*, const char*, int>> cases = {
      {"host", "jds", 1},          {"host", "bellpack", 1},
      {"host", "csr", model},      {"host", "sell_c_sigma", model},
      {"hybrid", "jds", 1},        {"hybrid", "bellpack", 1},
      {"hybrid", "csr", model},    {"hybrid", "sell_c_sigma", model},
      {"hybrid", "auto", 1}};
  for (const auto& [backend, format, k] : cases) {
    SCOPED_TRACE(std::string(backend) + "/" + format);
    ServerOptions opt;
    opt.backend = backend;
    opt.format = format;
    Server server(opt);
    server.register_matrix("m", a);
    EXPECT_EQ(server.batch_width("m"), k);
  }
}

TEST(ServeBatcher, ArrivalGapIsAnEwmaOfGaps) {
  using namespace std::chrono_literals;
  ArrivalGap g;
  const ArrivalGap::time_point t0{};
  EXPECT_TRUE(std::isinf(g.mean_gap()));  // no arrival yet
  g.note(t0 + 1s);
  EXPECT_TRUE(std::isinf(g.mean_gap()));  // one arrival, no gap
  g.note(t0 + 3s);
  EXPECT_DOUBLE_EQ(g.mean_gap(), 2.0);  // the first gap seeds the mean
  g.note(t0 + 37s);                     // gap 34 s
  EXPECT_DOUBLE_EQ(g.mean_gap(), 2.0 + ArrivalGap::kWeight * 32.0);
  const double before = g.mean_gap();
  // A note older than the latest one is a zero gap and leaves the
  // latest arrival in place.
  g.note(t0 + 10s);
  EXPECT_DOUBLE_EQ(g.mean_gap(), before * (1.0 - ArrivalGap::kWeight));
  const double mid = g.mean_gap();
  g.note(t0 + 38s);  // 1 s after the latest arrival, not 28 s
  EXPECT_DOUBLE_EQ(g.mean_gap(), mid + ArrivalGap::kWeight * (1.0 - mid));
}

TEST(ServeBatcher, ArrivalGapIsSafeForConcurrentNoters) {
  ArrivalGap g;
  std::vector<std::thread> noters;
  for (int t = 0; t < 4; ++t)
    noters.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        g.note(std::chrono::steady_clock::now());
        (void)g.mean_gap();
      }
    });
  for (auto& t : noters) t.join();
  const double gap = g.mean_gap();
  EXPECT_TRUE(std::isfinite(gap));
  EXPECT_GE(gap, 0.0);
}

// ---- admission queue -------------------------------------------------------

TEST(ServeQueue, WatermarkShedsAndCountsDepth) {
  RequestQueue q(/*capacity=*/8, /*watermark=*/4);
  EXPECT_EQ(q.watermark(), 4);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(q.push(make_request("m")), Admit::accepted);
  EXPECT_EQ(q.depth(), 4);
  // Above the watermark the queue sheds instead of growing.
  EXPECT_EQ(q.push(make_request("m")), Admit::rejected_full);
  EXPECT_EQ(q.depth(), 4);
}

TEST(ServeQueue, WatermarkDefaultsToCapacity) {
  RequestQueue q(3);
  EXPECT_EQ(q.watermark(), 3);
  RequestQueue clamped(3, 99);
  EXPECT_EQ(clamped.watermark(), 3);
}

TEST(ServeQueue, ShutdownRejectsNewAndDrainsOld) {
  RequestQueue q(8);
  EXPECT_EQ(q.push(make_request("a")), Admit::accepted);
  EXPECT_EQ(q.push(make_request("b")), Admit::accepted);
  q.shutdown();
  EXPECT_EQ(q.push(make_request("c")), Admit::rejected_shutdown);
  // Queued work still drains FIFO, then pop signals exit.
  auto r1 = q.pop();
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->matrix, "a");
  auto r2 = q.pop();
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->matrix, "b");
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(ServeQueue, PopMatchingIsSelectiveAndFifo) {
  RequestQueue q(16);
  q.push(make_request("a"));
  q.push(make_request("b"));
  q.push(make_request("a"));
  q.push(make_request("a"));
  std::vector<std::shared_ptr<Request>> out;
  EXPECT_EQ(q.pop_matching("a", 2, &out), 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->matrix, "a");
  EXPECT_EQ(out[1]->matrix, "a");
  EXPECT_EQ(q.depth(), 2);  // "b" and one "a" remain
  EXPECT_EQ(q.pop_matching("c", 4, &out), 0);
  auto front = q.pop();
  ASSERT_NE(front, nullptr);
  EXPECT_EQ(front->matrix, "b");
}

TEST(ServeQueue, WaitForPushSeesArrivals) {
  RequestQueue q(8);
  const std::uint64_t seen = q.push_seq();
  // Deadline already passed and nothing new: returns false.
  EXPECT_FALSE(q.wait_for_push(seen, Clock::now()));
  std::thread pusher([&] { q.push(make_request("m")); });
  EXPECT_TRUE(q.wait_for_push(
      seen, Clock::now() + std::chrono::seconds(30)));
  pusher.join();
}

// ---- server: correctness ---------------------------------------------------

TEST(Serve, BatchedBitIdenticalToIndividualOnEveryBackend) {
  const auto a = random_csr<double>(48, 48, 0, 7, 21);
  std::vector<std::vector<double>> xs;
  for (int i = 0; i < 8; ++i)
    xs.push_back(random_vector<double>(48, 100 + static_cast<unsigned>(i)));

  for (const char* backend : {"host", "gpusim", "hybrid", "auto"}) {
    SCOPED_TRACE(backend);
    int width = 0;
    const auto batched = serve_all(backend, /*max_batch=*/8, a, xs, &width);
    const auto individual = serve_all(backend, /*max_batch=*/1, a, xs);
    // The coalescer actually batched (all 8 were queued before start).
    EXPECT_GT(width, 1);
    ASSERT_EQ(batched.size(), individual.size());
    for (std::size_t v = 0; v < batched.size(); ++v) {
      ASSERT_EQ(batched[v].size(), individual[v].size());
      for (std::size_t i = 0; i < batched[v].size(); ++i)
        EXPECT_EQ(batched[v][i], individual[v][i])
            << "vector " << v << " row " << i;
    }
  }
}

TEST(Serve, PermutedFormatsBitIdenticalToOriginalBasisApply) {
  // The server binds in the original basis: the sorted SELL presets
  // write y through their row map, and the backend scatters jds's sorted
  // y back. Every response must equal the original-basis product of a
  // fresh binding, bit for bit: square and rectangular matrices, with
  // 600 rows so sell_c_sigma sorts in more than one σ-window. `auto`
  // probes by timing and may choose differently in two bindings, whose
  // formats may add a row's entries in another order; with at most two
  // entries a row every order gives the same bits, so `auto` is checked
  // on such matrices.
  for (const std::string format : {"sell_c_sigma", "pjds", "jds", "auto"}) {
    const index_t max_len = format == "auto" ? 2 : 7;
    for (const auto& [rows, cols] :
         {std::pair<index_t, index_t>{600, 600}, {300, 200}}) {
      const auto a = random_csr<double>(rows, cols, 0, max_len, 77);
      std::vector<std::vector<double>> xs;
      for (std::uint64_t i = 0; i < 8; ++i)
        xs.push_back(random_vector<double>(cols, 300 + i));
      for (const char* backend : {"host", "gpusim", "hybrid", "auto"}) {
        SCOPED_TRACE(format + " " + std::to_string(rows) + "x" +
                     std::to_string(cols) + " on " + backend);
        int width = 0, model_k = 0;
        const auto ys = serve_all(backend, /*max_batch=*/8, a, xs, &width,
                                  format, &model_k);
        // All 8 were queued before start: the first batch is as wide as
        // the model allows, and only a block kernel makes it wider than 1.
        EXPECT_EQ(width, model_k);
        if (format == "jds") {
          EXPECT_EQ(model_k, 1);
        } else if (format != "auto") {
          EXPECT_GT(model_k, 1);
        }

        exec::Engine<double> engine;
        const auto bound = engine.bind(backend, a, format);
        ASSERT_EQ(ys.size(), xs.size());
        for (std::size_t v = 0; v < xs.size(); ++v) {
          std::vector<double> ref(static_cast<std::size_t>(rows));
          bound->apply(xs[v], ref);
          ASSERT_EQ(ys[v].size(), ref.size());
          for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ys[v][i], ref[i]) << "vector " << v << " row " << i;
        }
      }
    }
  }
}

TEST(Serve, WaitsForStragglersOnlyWhenOneIsDue) {
  // Requests spaced wider than the batching window: none is due within
  // it, so each launches at once instead of waiting out the window. A
  // burst then brings the mean gap under the window, and batches
  // coalesce again.
  const auto a = random_csr<double>(48, 48, 0, 7, 23);
  ServerOptions opt;
  opt.backend = "host";
  opt.n_workers = 1;
  opt.max_batch = 8;
  opt.max_batch_wait_s = 0.05;
  Server server(opt);
  server.register_matrix("m", a);
  ASSERT_GT(server.batch_width("m"), 1);
  server.start();
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Response r =
        server.submit("m", random_vector<double>(48, 500 + i)).get();
    ASSERT_TRUE(r.ok()) << to_string(r.status);
    EXPECT_LT(r.batch_seconds, opt.max_batch_wait_s / 5)
        << "request " << i << " waited for a straggler that was not due";
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
  // The EWMA needs about 22 near-zero gaps to halve the 120 ms mean.
  std::vector<Ticket> burst;
  for (std::uint64_t i = 0; i < 64; ++i)
    burst.push_back(server.submit("m", random_vector<double>(48, 600 + i)));
  int widest = 0;
  for (Ticket& t : burst) {
    const Response r = t.get();
    ASSERT_TRUE(r.ok()) << to_string(r.status);
    widest = std::max(widest, r.batch_width);
  }
  EXPECT_GT(widest, 1);
  server.shutdown();
}

TEST(Serve, ExecuteTimeExcludesLaunchLockWait) {
  // Two workers, one matrix, no batching: each request launches on its
  // own, and the second waits for the first to release the matrix's
  // launch mutex. That wait is batching time. Execute time is taken
  // under the mutex, so the two execute intervals are disjoint and
  // together fit in the wall time around them; counting the wait would
  // add most of one launch on top.
  // Long rows: the launch dominates the per-row staging and scatter.
  const index_t n = 10000;
  const auto a = random_csr<double>(n, n, 100, 120, 41);
  ServerOptions opt;
  opt.backend = "host";
  opt.n_workers = 2;
  opt.max_batch = 1;
  Server server(opt);
  server.register_matrix("m", a);
  Ticket t1 = server.submit("m", random_vector<double>(n, 42));
  Ticket t2 = server.submit("m", random_vector<double>(n, 43));
  const auto t0 = std::chrono::steady_clock::now();
  server.start();
  const Response r1 = t1.get();
  const Response r2 = t2.get();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(r1.ok()) << to_string(r1.status);
  ASSERT_TRUE(r2.ok()) << to_string(r2.status);
  EXPECT_EQ(r1.batch_width, 1);
  EXPECT_EQ(r2.batch_width, 1);
  EXPECT_LE(r1.execute_seconds + r2.execute_seconds, wall);
}

TEST(Serve, ModelBatchWidthIsExposedPerMatrix) {
  ServerOptions opt;
  opt.backend = "host";
  opt.max_batch = 8;
  Server server(opt);
  server.register_matrix("m", random_csr<double>(32, 32, 2, 5, 3));
  const int k = server.batch_width("m");
  EXPECT_GE(k, 1);
  EXPECT_LE(k, 8);
  EXPECT_THROW(server.batch_width("nope"), Error);
}

TEST(Serve, RejectsInvalidRequestsImmediately) {
  Server server;
  server.register_matrix("m", random_csr<double>(16, 16, 1, 3, 9));
  Ticket unknown = server.submit("ghost", std::vector<double>(16, 1.0));
  Response r = unknown.get();
  EXPECT_EQ(r.status, RequestStatus::rejected_invalid);
  EXPECT_NE(r.error.find("ghost"), std::string::npos);
  Ticket wrong = server.submit("m", std::vector<double>(5, 1.0));
  EXPECT_EQ(wrong.get().status, RequestStatus::rejected_invalid);
  EXPECT_EQ(server.stats().rejected_invalid, 2u);
}

// ---- server: overload, drain, cancellation ---------------------------------

TEST(Serve, AdmissionControlShedsOverload) {
  ServerOptions opt;
  opt.queue_capacity = 8;
  opt.admit_watermark = 4;
  Server server(opt);
  server.register_matrix("m", random_csr<double>(16, 16, 1, 3, 5));
  // Workers parked: every accepted request stays queued, so the 5th
  // submission must be shed — the queue cannot grow past the watermark.
  std::vector<Ticket> tickets;
  for (int i = 0; i < 10; ++i)
    tickets.push_back(server.submit("m", std::vector<double>(16, 1.0)));
  EXPECT_EQ(server.queue_depth(), 4);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted, 4u);
  EXPECT_EQ(s.rejected_full, 6u);
  // Shed tickets resolved immediately with the reason.
  EXPECT_EQ(tickets[9].get().status, RequestStatus::rejected_full);
  // Starting late still serves the admitted backlog.
  server.start();
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].get().status,
              RequestStatus::ok);
  server.shutdown();
}

TEST(Serve, ShutdownDrainsEveryAcceptedTicket) {
  ServerOptions opt;
  opt.n_workers = 2;
  opt.queue_capacity = 64;
  opt.max_batch_wait_s = 0.0;
  Server server(opt);
  server.register_matrix("m", random_csr<double>(24, 24, 1, 4, 17));
  server.start();
  std::vector<Ticket> tickets;
  for (int i = 0; i < 32; ++i)
    tickets.push_back(server.submit("m", random_vector<double>(24, 40 + static_cast<unsigned>(i))));
  server.shutdown();
  std::uint64_t ok = 0;
  for (Ticket& t : tickets) {
    const Response r = t.get();  // must not hang: drain resolves all
    EXPECT_EQ(r.status, RequestStatus::ok) << to_string(r.status);
    if (r.ok()) ++ok;
  }
  EXPECT_EQ(server.stats().completed, ok);
  // Post-shutdown submissions are rejected with the reason.
  Ticket late = server.submit("m", std::vector<double>(24, 1.0));
  EXPECT_EQ(late.get().status, RequestStatus::rejected_shutdown);
}

TEST(Serve, CancellationBeforeLaunchIsHonored) {
  ServerOptions opt;
  opt.n_workers = 1;
  Server server(opt);
  server.register_matrix("m", random_csr<double>(16, 16, 1, 3, 2));
  Ticket t = server.submit("m", std::vector<double>(16, 1.0));
  t.cancel();  // workers not started: cancel wins the race by design
  server.start();
  EXPECT_EQ(t.get().status, RequestStatus::cancelled);
  server.shutdown();
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(Serve, CancelRacingTheBatchingWaitResolvesEveryTicketOnce) {
  // One worker and a batching window far longer than the test, with the
  // matrix's arrival gap primed short: a partial batch waits in
  // wait_for_push until its k-th request arrives, and only then weeds
  // out and launches. Each round opens a batch with j requests, lets a
  // second thread cancel one of them after a varied delay, and closes
  // the batch after another. The cancel lands during the wait, around
  // the weed-out pass or after the launch. Every ticket must resolve
  // exactly once, as cancelled or as a product bit-identical to a lone
  // apply, and the server's counts must balance.
  const index_t n = 48;
  const auto a = random_csr<double>(n, n, 0, 7, 29);
  ServerOptions opt;
  opt.backend = "host";
  opt.n_workers = 1;
  opt.max_batch = 8;
  opt.max_batch_wait_s = 5.0;
  Server server(opt);
  server.register_matrix("m", a);
  const int k = server.batch_width("m");
  ASSERT_GT(k, 1);

  exec::Engine<double> engine;
  const auto lone = engine.bind("host", a, "csr");
  std::vector<std::vector<double>> xs, refs;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(k); ++i) {
    xs.push_back(random_vector<double>(n, 700 + i));
    refs.emplace_back(static_cast<std::size_t>(n));
    lone->apply(xs.back(), refs.back());
  }

  std::uint64_t ok = 0, cancelled = 0, seen = 0;
  // Every ticket of a round resolves before the next round opens, so
  // each batch holds exactly one round's k requests.
  const auto settle = [&](std::vector<Ticket>& tickets,
                          const std::vector<bool>& must_cancel) {
    for (std::size_t v = 0; v < tickets.size(); ++v) {
      ASSERT_TRUE(tickets[v].wait_for(30.0)) << "ticket " << v;
      const Response r = tickets[v].get();
      ++seen;
      if (r.status == RequestStatus::cancelled) {
        ++cancelled;
        EXPECT_TRUE(r.y.empty());
        continue;
      }
      ASSERT_EQ(r.status, RequestStatus::ok) << to_string(r.status);
      EXPECT_FALSE(must_cancel[v]) << "ticket " << v << " cancelled "
                                   << "before its batch closed ran";
      ++ok;
      ASSERT_EQ(r.y.size(), refs[v].size());
      for (std::size_t i = 0; i < r.y.size(); ++i)
        ASSERT_EQ(r.y[i], refs[v][i]) << "ticket " << v << " row " << i;
    }
  };

  // Prime the arrival gap with one full batch queued before start.
  {
    std::vector<Ticket> tickets;
    for (const auto& x : xs) tickets.push_back(server.submit("m", x));
    server.start();
    settle(tickets, std::vector<bool>(xs.size(), false));
  }

  constexpr int kCancelDelaysUs[] = {0, 50, 200, 500, 1000, 2000};
  constexpr int kCloseDelaysUs[] = {0, 300, 1000};
  constexpr int kRounds = 36;
  for (int round = 0; round < kRounds; ++round) {
    const int j = 1 + round % (k - 1);  // requests that open the batch
    const int cancel_us = kCancelDelaysUs[round % 6];
    const int close_us = kCloseDelaysUs[(round / 6) % 3];
    std::vector<Ticket> tickets;
    std::vector<bool> must_cancel(static_cast<std::size_t>(k), false);
    for (int v = 0; v < j; ++v)
      tickets.push_back(
          server.submit("m", xs[static_cast<std::size_t>(v)]));
    Ticket target = tickets[static_cast<std::size_t>(round % j)];
    std::thread canceller([target, cancel_us]() mutable {
      std::this_thread::sleep_for(std::chrono::microseconds(cancel_us));
      target.cancel();
    });
    std::this_thread::sleep_for(std::chrono::microseconds(close_us));
    // A cancel that precedes the closing submit reaches the weed-out
    // through the queue's mutex: it must win.
    if (round % 2 == 0) {
      tickets[static_cast<std::size_t>(j - 1)].cancel();
      must_cancel[static_cast<std::size_t>(j - 1)] = true;
    }
    for (int v = j; v < k; ++v)
      tickets.push_back(
          server.submit("m", xs[static_cast<std::size_t>(v)]));
    // The closing request's cancel races the weed-out pass directly;
    // a yield first lets the woken worker get there ahead of it.
    if (round % 2 == 1) {
      if ((round / 2) % 2 == 1) std::this_thread::yield();
      tickets.back().cancel();
    }
    canceller.join();
    SCOPED_TRACE("round " + std::to_string(round));
    settle(tickets, must_cancel);
  }
  server.shutdown();

  EXPECT_GT(ok, 0u);
  EXPECT_GT(cancelled, 0u);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted, seen);
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.cancelled, cancelled);
  EXPECT_EQ(s.timed_out + s.failed + s.rejected_full + s.rejected_shutdown +
                s.rejected_invalid,
            0u);
  EXPECT_EQ(s.accepted, s.completed + s.cancelled);
}

TEST(Serve, DeadlineExpiryBeforeLaunchTimesOut) {
  ServerOptions opt;
  opt.n_workers = 1;
  Server server(opt);
  server.register_matrix("m", random_csr<double>(16, 16, 1, 3, 2));
  Ticket t =
      server.submit("m", std::vector<double>(16, 1.0), /*deadline_s=*/1e-4);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.start();
  EXPECT_EQ(t.get().status, RequestStatus::timed_out);
  server.shutdown();
  EXPECT_EQ(server.stats().timed_out, 1u);
}

TEST(Serve, DeadlinePastTheClockRangeMeansNone) {
  // 1e12 s and +inf overflow the clock's nanosecond ticks; they mean "no
  // deadline", not one in the past.
  ServerOptions opt;
  opt.backend = "host";
  opt.n_workers = 1;
  Server server(opt);
  server.register_matrix("m", random_csr<double>(16, 16, 1, 3, 2));
  server.start();
  for (const double dl :
       {1e9, 1e12, 1e300, std::numeric_limits<double>::infinity()}) {
    const Response r =
        server.submit("m", std::vector<double>(16, 1.0), dl).get();
    EXPECT_EQ(r.status, RequestStatus::ok) << "deadline " << dl << ": "
                                           << to_string(r.status);
  }
  server.shutdown();
  EXPECT_EQ(server.stats().timed_out, 0u);
}

TEST(Serve, NanDeadlineIsRejectedWithReason) {
  ServerOptions opt;
  opt.backend = "host";
  Server server(opt);
  server.register_matrix("m", random_csr<double>(16, 16, 1, 3, 2));
  server.start();
  const Response r = server
                         .submit("m", std::vector<double>(16, 1.0),
                                 std::numeric_limits<double>::quiet_NaN())
                         .get();
  EXPECT_EQ(r.status, RequestStatus::rejected_invalid);
  EXPECT_NE(r.error.find("NaN"), std::string::npos) << r.error;
  server.shutdown();

  // A NaN configured default is rejected the same way.
  opt.default_deadline_s = std::numeric_limits<double>::quiet_NaN();
  Server nan_default(opt);
  nan_default.register_matrix("m", random_csr<double>(16, 16, 1, 3, 2));
  nan_default.start();
  EXPECT_EQ(nan_default.submit("m", std::vector<double>(16, 1.0)).get().status,
            RequestStatus::rejected_invalid);
  EXPECT_EQ(nan_default.stats().rejected_invalid, 1u);
}

TEST(Serve, HugeBatchingWindowSaturates) {
  // 1e297 s past a dequeue time leaves the clock's range: the batching
  // deadline saturates at "never", and shutdown still ends the wait.
  ServerOptions opt;
  opt.backend = "host";
  opt.n_workers = 1;
  opt.max_batch_wait_s = 1e297;
  Server server(opt);
  server.register_matrix("m", random_csr<double>(16, 16, 1, 3, 2));
  ASSERT_GT(server.batch_width("m"), 1);
  server.start();
  Ticket first = server.submit("m", std::vector<double>(16, 1.0));
  Ticket second = server.submit("m", std::vector<double>(16, 2.0));
  server.shutdown();
  EXPECT_EQ(first.get().status, RequestStatus::ok);
  EXPECT_EQ(second.get().status, RequestStatus::ok);
}

TEST(ServeOptions, EnvOutOfRangeOrNonFiniteKeepsTheDefault) {
  const ServerOptions def;
  {
    ScopedEnv w("SPMVM_SERVE_WORKERS", "1e20");
    ScopedEnv q("SPMVM_SERVE_QUEUE_CAP", "-1e20");
    ScopedEnv b("SPMVM_SERVE_MAX_BATCH", "nan");
    ScopedEnv t("SPMVM_SERVE_THREADS", "inf");
    const ServerOptions o = ServerOptions::from_env();
    EXPECT_EQ(o.n_workers, def.n_workers);
    EXPECT_EQ(o.queue_capacity, def.queue_capacity);
    EXPECT_EQ(o.max_batch, def.max_batch);
    EXPECT_EQ(o.kernel_threads, def.kernel_threads);
  }
  {
    ScopedEnv w("SPMVM_SERVE_MAX_WAIT_MS", "inf");
    ScopedEnv d("SPMVM_SERVE_DEADLINE_MS", "nan");
    ScopedEnv g("SPMVM_SERVE_MIN_GAIN", "1e999");  // past double's range
    const ServerOptions o = ServerOptions::from_env();
    EXPECT_EQ(o.max_batch_wait_s, def.max_batch_wait_s);
    EXPECT_EQ(o.default_deadline_s, def.default_deadline_s);
    EXPECT_EQ(o.min_batch_gain, def.min_batch_gain);
  }
  {
    // In-range values still parse; a finite but huge wait is kept and
    // saturates where it is used.
    ScopedEnv w("SPMVM_SERVE_WORKERS", "3");
    ScopedEnv m("SPMVM_SERVE_MAX_WAIT_MS", "1e300");
    const ServerOptions o = ServerOptions::from_env();
    EXPECT_EQ(o.n_workers, 3);
    EXPECT_EQ(o.max_batch_wait_s, 1e300 / 1e3);
  }
}

// ---- server: concurrency (tsan-concurrency preset coverage) ----------------

TEST(Serve, ConcurrentClientsAgainstMultipleMatrices) {
  ServerOptions opt;
  opt.n_workers = 3;
  opt.queue_capacity = 512;
  opt.max_batch = 4;
  opt.max_batch_wait_s = 1e-4;
  Server server(opt);
  server.register_matrix("a", random_csr<double>(32, 32, 1, 5, 7));
  server.register_matrix("b", random_csr<double>(20, 20, 0, 6, 8));
  server.start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const bool first = (c + i) % 2 == 0;
        Ticket t = server.submit(
            first ? "a" : "b",
            std::vector<double>(first ? 32 : 20, 1.0 + 0.25 * i));
        const Response r = t.get();
        if (r.status == RequestStatus::ok)
          ok.fetch_add(1);
        else if (r.status == RequestStatus::rejected_full)
          shed.fetch_add(1);
        else
          other.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + shed.load(), kClients * kPerClient);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(ok.load()));
  EXPECT_GE(s.batches, 1u);
}

TEST(Serve, ConcurrentSubmittersUnderOverloadStayBounded) {
  ServerOptions opt;
  opt.n_workers = 1;
  opt.queue_capacity = 16;
  opt.admit_watermark = 8;
  opt.max_batch_wait_s = 0.0;
  Server server(opt);
  server.register_matrix("m", random_csr<double>(64, 64, 2, 8, 3));
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<int> submitted{0};
  std::vector<std::thread> clients;
  std::mutex tickets_mutex;
  std::vector<Ticket> tickets;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        Ticket t = server.submit("m", std::vector<double>(64, 0.5));
        submitted.fetch_add(1);
        std::lock_guard<std::mutex> lk(tickets_mutex);
        tickets.push_back(std::move(t));
      }
    });
  }
  while (submitted.load() < 400) std::this_thread::yield();
  // Depth is sampled racily, but can never exceed the watermark.
  EXPECT_LE(server.queue_depth(), 8);
  stop.store(true);
  for (auto& t : clients) t.join();
  server.shutdown();
  for (Ticket& t : tickets) {
    const RequestStatus s = t.get().status;
    EXPECT_TRUE(s == RequestStatus::ok || s == RequestStatus::rejected_full ||
                s == RequestStatus::rejected_shutdown)
        << to_string(s);
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted,
            s.completed + s.timed_out + s.cancelled + s.failed +
                static_cast<std::uint64_t>(0));
}

// ---- server: injected launch faults (tsan-concurrency preset coverage) -----

TEST(Serve, LaunchThatThrowsResolvesEveryTicketOnce) {
  register_fault_formats();
  ServerOptions opt;
  opt.backend = "host";
  opt.format = "test_throwing";
  opt.n_workers = 2;
  opt.queue_capacity = 512;
  opt.max_batch = 4;
  opt.max_batch_wait_s = 1e-4;
  Server server(opt);
  const auto good = random_csr<double>(24, 24, 1, 5, 12);
  server.register_matrix("bad", random_csr<double>(kFaultyRows, kFaultyRows,
                                                   1, 5, 11));
  server.register_matrix("good", good);  // bound as plain csr
  server.start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 20;
  std::atomic<int> failed{0}, ok{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const bool bad = (c + i) % 2 == 0;
        const auto x = random_vector<double>(
            bad ? kFaultyRows : good.n_cols,
            static_cast<std::uint64_t>(100 * c + i));
        Ticket t = server.submit(bad ? "bad" : "good", x);
        if (!t.wait_for(30.0)) {
          other.fetch_add(1);
          continue;
        }
        const Response r = t.get();
        if (bad && r.status == RequestStatus::failed &&
            r.error == kFaultMessage && r.batch_width >= 1) {
          failed.fetch_add(1);
        } else if (!bad && r.ok()) {
          ok.fetch_add(1);
          spmvm::testing::expect_vectors_near(
              spmvm::testing::reference_spmv(good, x), r.y, 1e-12);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();  // returns: the failed launches left no worker stuck

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(failed.load(), kClients * kPerClient / 2);
  EXPECT_EQ(ok.load(), kClients * kPerClient / 2);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, static_cast<std::uint64_t>(failed.load()));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(s.accepted, s.completed + s.failed + s.cancelled + s.timed_out);
}

TEST(Serve, ShutdownDuringLaunchResolvesEveryTicketOnce) {
  register_fault_formats();
  LaunchGate& gate = launch_gate();
  gate.reset();
  ServerOptions opt;
  opt.backend = "host";
  opt.format = "test_gated";
  opt.n_workers = 1;
  opt.max_batch_wait_s = 0.0;
  Server server(opt);
  const index_t n = 24;
  server.register_matrix("m", random_csr<double>(n, n, 1, 5, 13));
  server.start();

  // The first launch holds the only worker; the rest queue behind it.
  std::vector<Ticket> tickets;
  tickets.push_back(server.submit("m", random_vector<double>(n, 1)));
  // No early return until the gate opens: ~Server would join the held
  // worker.
  EXPECT_TRUE(gate.wait_entered(1, 30.0)) << "the launch never started";
  for (std::uint64_t i = 2; i <= 6; ++i)
    tickets.push_back(server.submit("m", random_vector<double>(n, i)));
  tickets[0].cancel();  // its launch already started: completes
  tickets[3].cancel();  // still queued: resolves as cancelled

  std::thread stopper([&] { server.shutdown(); });
  // Probe until shutdown stops admission; probes it accepted first are
  // ordinary tickets and must resolve like the rest.
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    Ticket probe = server.submit("m", random_vector<double>(n, 99));
    if (probe.wait_for(0.0) &&
        probe.get().status == RequestStatus::rejected_shutdown)
      break;
    tickets.push_back(std::move(probe));
    if (Clock::now() > give_up) {
      ADD_FAILURE() << "shutdown() never stopped admission";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.open();
  stopper.join();

  std::uint64_t ok = 0, cancelled = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].wait_for(0.0)) << "ticket " << i << " unresolved";
    const RequestStatus st = tickets[i].get().status;
    EXPECT_EQ(st, i == 3 ? RequestStatus::cancelled : RequestStatus::ok)
        << "ticket " << i << ": " << to_string(st);
    ok += st == RequestStatus::ok ? 1 : 0;
    cancelled += st == RequestStatus::cancelled ? 1 : 0;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted, tickets.size());
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.cancelled, cancelled);
  EXPECT_EQ(s.accepted, s.completed + s.failed + s.cancelled + s.timed_out);
}
