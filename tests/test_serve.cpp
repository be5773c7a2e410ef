// The serving layer's contracts (DESIGN.md §14): admission control
// sheds load with a reason instead of growing the queue, batched
// block-RHS launches are bit-identical to serving the same requests one
// at a time on every backend, shutdown drains every accepted ticket,
// and cancellation/deadlines are honored cooperatively. The
// concurrency cases double as the tsan-concurrency preset's coverage
// of the queue/worker interplay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

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

/// Serve `xs` against `a` on `backend` with the given batch ceiling:
/// submit everything while the workers are still parked, then start,
/// so a max_batch > 1 server coalesces deterministically.
std::vector<std::vector<double>> serve_all(
    const std::string& backend, int max_batch, const Csr<double>& a,
    const std::vector<std::vector<double>>& xs, int* width_seen = nullptr) {
  ServerOptions opt;
  opt.backend = backend;
  opt.n_workers = 1;
  opt.max_batch = max_batch;
  opt.max_batch_wait_s = 0.05;
  Server server(opt);
  server.register_matrix("m", a);
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
