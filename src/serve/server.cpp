#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <limits>
#include <span>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "formats/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfmodel/balance.hpp"
#include "serve/batcher.hpp"
#include "util/error.hpp"

namespace spmvm::serve {

namespace {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  // "inf", "nan" and values past double's range (strtod returns ±inf)
  // keep the default like malformed ones.
  return (end != nullptr && *end == '\0' && std::isfinite(parsed))
             ? parsed
             : fallback;
}

int env_int(const char* name, int fallback) {
  const double v = env_double(name, static_cast<double>(fallback));
  // Converting a double past int's range is UB: keep the default.
  constexpr double lo = std::numeric_limits<int>::min() - 1.0;
  constexpr double hi = std::numeric_limits<int>::max() + 1.0;
  return v > lo && v < hi ? static_cast<int>(v) : fallback;
}

std::string env_str(const char* name, std::string fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : fallback;
}

/// `s` seconds in clock ticks, saturating at the duration's range (the
/// plain cast is UB past it; NaN saturates high).
Clock::duration seconds_to_duration(double s) {
  using Period = Clock::duration::period;
  const double ticks = s * Period::den / Period::num;
  // 2^63 ticks for the int64 rep: every double below it converts.
  constexpr double lim =
      -static_cast<double>(std::numeric_limits<Clock::rep>::min());
  if (!(ticks < lim)) return Clock::duration::max();
  if (!(ticks > -lim)) return Clock::duration::min();
  return Clock::duration(static_cast<Clock::rep>(ticks));
}

/// `t` plus `s` seconds; time_point::max() ("never") when the sum
/// leaves the clock's range. Negative and NaN `s` count as zero.
Clock::time_point time_after(Clock::time_point t, double s) {
  if (!(s > 0.0)) return t;
  const Clock::duration d = seconds_to_duration(s);
  return d < Clock::time_point::max() - t ? t + d : Clock::time_point::max();
}

/// Whether launches of `bound` run a native block kernel: only then
/// does a wider batch read the matrix fewer times per request. Without
/// one a k-wide launch is k single-vector products plus interleave
/// copies, so widening adds latency and saves nothing.
bool has_block_kernel(const exec::BoundSpmv<double>& bound,
                      const std::string& format) {
  const formats::FormatPlan<double>* plan = bound.plan();
  if (plan != nullptr && plan->auto_choice() == nullptr)
    return plan->info().native_spmmv;
  // `auto` forwards to the format it chose; hybrid has no single plan,
  // its parts are both built as `format`.
  const auto* entry = formats::registry<double>().find(
      plan != nullptr ? plan->auto_choice()->chosen : format);
  return entry != nullptr && entry->info.native_spmmv;
}

/// The first `n` entries of `buf`, which grows to fit and never shrinks.
std::span<double> first_n(std::vector<double>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return std::span<double>(buf).first(n);
}

double elapsed_seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void register_help() {
  static const bool once = [] {
    obs::set_metric_help("serve.in_flight",
                         "Requests dequeued but not yet resolved");
    obs::set_metric_help("serve.completed",
                         "Requests answered with an executed product");
    obs::set_metric_help("serve.timed_out",
                         "Requests whose deadline expired before launch");
    obs::set_metric_help("serve.cancelled",
                         "Requests cancelled before their launch");
    obs::set_metric_help("serve.failed", "Requests whose launch threw");
    obs::set_metric_help("serve.rejected_invalid",
                         "Requests against unknown matrices or with "
                         "wrong-sized vectors");
    obs::set_metric_help("serve.batches", "Block-RHS launches issued");
    obs::set_metric_help("serve.batched_requests",
                         "Requests served through block launches");
    obs::set_metric_help("serve.batch_width",
                         "Distribution of block-launch widths k");
    obs::set_metric_help("serve.latency.total",
                         "End-to-end request latency (enqueue to response)");
    obs::set_metric_help("serve.latency.queue",
                         "Admission-queue residency per request");
    obs::set_metric_help("serve.latency.batch",
                         "Batch-formation wait per request");
    obs::set_metric_help("serve.latency.execute",
                         "Block-launch wall time per request");
    return true;
  }();
  (void)once;
}

}  // namespace

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::ok: return "ok";
    case RequestStatus::rejected_full: return "rejected_full";
    case RequestStatus::rejected_shutdown: return "rejected_shutdown";
    case RequestStatus::rejected_invalid: return "rejected_invalid";
    case RequestStatus::timed_out: return "timed_out";
    case RequestStatus::cancelled: return "cancelled";
    case RequestStatus::failed: return "failed";
  }
  return "unknown";
}

ServerOptions ServerOptions::from_env() {
  ServerOptions o;
  o.backend = env_str("SPMVM_SERVE_BACKEND", o.backend);
  o.format = env_str("SPMVM_SERVE_FORMAT", o.format);
  o.n_workers = env_int("SPMVM_SERVE_WORKERS", o.n_workers);
  o.queue_capacity = env_int("SPMVM_SERVE_QUEUE_CAP", o.queue_capacity);
  o.admit_watermark = env_int("SPMVM_SERVE_WATERMARK", o.admit_watermark);
  o.max_batch = env_int("SPMVM_SERVE_MAX_BATCH", o.max_batch);
  o.max_batch_wait_s =
      env_double("SPMVM_SERVE_MAX_WAIT_MS", o.max_batch_wait_s * 1e3) / 1e3;
  o.default_deadline_s =
      env_double("SPMVM_SERVE_DEADLINE_MS", o.default_deadline_s * 1e3) / 1e3;
  o.kernel_threads = env_int("SPMVM_SERVE_THREADS", o.kernel_threads);
  o.min_batch_gain = env_double("SPMVM_SERVE_MIN_GAIN", o.min_batch_gain);
  return o;
}

struct Server::Entry {
  std::unique_ptr<exec::BoundSpmv<double>> bound;  // original basis
  std::mutex launch_mutex;  // BoundSpmv handles are not thread-safe
  int target_k = 1;
  index_t n_rows = 0;
  index_t n_cols = 0;
  ArrivalGap arrivals;  // admitted requests, noted at submit
};

struct Server::Staging {
  std::vector<std::shared_ptr<Request>> batch, live;
  std::vector<const double*> xs;
  std::vector<double> X, Y;  // interleaved blocks
  std::vector<std::vector<double>> ys;
};

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)),
      queue_(std::make_unique<RequestQueue>(opt_.queue_capacity,
                                            opt_.admit_watermark)) {
  opt_.n_workers = std::max(1, opt_.n_workers);
  opt_.max_batch = std::max(1, opt_.max_batch);
  register_help();
}

Server::~Server() { shutdown(); }

void Server::register_matrix(const std::string& name, const Csr<double>& a) {
  SPMVM_REQUIRE(!name.empty(), "matrix name must not be empty");
  auto entry = std::make_unique<Entry>();
  entry->n_rows = a.n_rows;
  entry->n_cols = a.n_cols;
  exec::LaunchOptions launch;
  launch.n_threads = opt_.kernel_threads;
  // Original basis: the sorted SELL-C-σ presets write y through their
  // row map; only jds's sorted y is scattered back by the backend.
  entry->bound = engine_.bind(opt_.backend, a, opt_.format, {}, launch);
  const double nnzr =
      a.n_rows > 0 ? static_cast<double>(a.nnz()) /
                         static_cast<double>(a.n_rows)
                   : 1.0;
  entry->target_k =
      has_block_kernel(*entry->bound, opt_.format)
          ? target_batch_width(sizeof(double),
                               perfmodel::alpha_ideal(std::max(1.0, nnzr)),
                               std::max(1.0, nnzr), opt_.max_batch,
                               opt_.min_batch_gain)
          : 1;
  std::lock_guard<std::mutex> lk(matrices_mutex_);
  SPMVM_REQUIRE(matrices_.find(name) == matrices_.end(),
                "matrix '" + name + "' already registered");
  matrices_.emplace(name, std::move(entry));
}

int Server::batch_width(const std::string& name) const {
  Entry* e = find_entry(name);
  SPMVM_REQUIRE(e != nullptr, "unknown matrix '" + name + "'");
  return e->target_k;
}

Server::Entry* Server::find_entry(const std::string& name) const {
  std::lock_guard<std::mutex> lk(matrices_mutex_);
  const auto it = matrices_.find(name);
  return it == matrices_.end() ? nullptr : it->second.get();
}

void Server::start() {
  std::lock_guard<std::mutex> lk(lifecycle_mutex_);
  if (started_ || stopped_) return;
  started_ = true;
  for (int i = 0; i < opt_.n_workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

Ticket Server::submit(const std::string& matrix, std::vector<double> x,
                      double deadline_s) {
  auto req = std::make_shared<Request>();
  req->matrix = matrix;
  req->x = std::move(x);
  Ticket ticket(req);

  Entry* e = find_entry(matrix);
  const double dl = deadline_s < 0.0 ? opt_.default_deadline_s : deadline_s;
  std::string invalid;
  if (e == nullptr)
    invalid = "unknown matrix '" + matrix + "'";
  else if (req->x.size() != static_cast<std::size_t>(e->n_cols))
    invalid = "x has " + std::to_string(req->x.size()) +
              " entries, matrix needs " + std::to_string(e->n_cols);
  else if (std::isnan(dl))
    invalid = "deadline is NaN";
  if (!invalid.empty()) {
    static obs::Counter& c = obs::counter("serve.rejected_invalid");
    c.add();
    Response resp;
    resp.status = RequestStatus::rejected_invalid;
    resp.error = std::move(invalid);
    resolve(req, std::move(resp));
    return ticket;
  }
  if (dl > 0.0) req->deadline = time_after(Clock::now(), dl);

  const Admit admit = queue_->push(req);
  // enqueue_time was stamped by this thread inside push().
  if (admit == Admit::accepted) e->arrivals.note(req->enqueue_time);
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    if (admit == Admit::accepted) ++stats_.accepted;
    if (admit == Admit::rejected_full) ++stats_.rejected_full;
    if (admit == Admit::rejected_shutdown) ++stats_.rejected_shutdown;
  }
  if (admit != Admit::accepted) {
    Response resp;
    resp.status = admit == Admit::rejected_full
                      ? RequestStatus::rejected_full
                      : RequestStatus::rejected_shutdown;
    resp.error = admit == Admit::rejected_full
                     ? "admission queue at watermark"
                     : "server shutting down";
    resolve(req, std::move(resp));
  }
  return ticket;
}

void Server::worker_loop(int idx) {
  obs::set_thread_name("serve worker " + std::to_string(idx));
#ifdef __linux__
  // Under SCHED_BATCH a woken worker does not preempt the running
  // thread. A worker launches right after its wake-up, so under the
  // default policy it could take the core of the client still inside
  // submit() (in one traced run of five, the submit p50 rose from 10 us
  // to 1 ms). Best effort: on failure the worker keeps the default
  // policy.
  const sched_param param{};
  (void)sched_setscheduler(0, SCHED_BATCH, &param);
#endif
  Staging staging;
  for (;;) {
    std::shared_ptr<Request> first = queue_->pop();
    if (!first) return;  // shut down and drained
    serve_batch(std::move(first), staging);
  }
}

void Server::serve_batch(std::shared_ptr<Request> first, Staging& s) {
  static obs::Counter& c_batches = obs::counter("serve.batches");
  static obs::Counter& c_batched = obs::counter("serve.batched_requests");
  static obs::Counter& c_timeout = obs::counter("serve.timed_out");
  static obs::Counter& c_cancel = obs::counter("serve.cancelled");
  static obs::Gauge& g_inflight = obs::gauge("serve.in_flight");
  static obs::HistogramMetric& h_width = obs::histogram("serve.batch_width");
  static obs::LatencyHistogram& l_batch =
      obs::latency_histogram("serve.latency.batch");
  static obs::LatencyHistogram& l_exec =
      obs::latency_histogram("serve.latency.execute");

  Entry* e = find_entry(first->matrix);  // validated at submit
  std::vector<std::shared_ptr<Request>>& batch = s.batch;
  std::vector<std::shared_ptr<Request>>& live = s.live;
  batch.push_back(std::move(first));
  const std::string& matrix = batch.front()->matrix;

  // Coalesce toward the model width: take whatever same-matrix requests
  // are queued now, and wait for stragglers up to the batching deadline
  // only while the matrix's mean arrival gap is shorter than the
  // window. Otherwise the wait would most likely catch nothing.
  if (e->target_k > 1) {
    const Clock::time_point batch_deadline =
        time_after(batch.front()->dequeue_time, opt_.max_batch_wait_s);
    for (;;) {
      const std::uint64_t seen = queue_->push_seq();
      queue_->pop_matching(matrix,
                           e->target_k - static_cast<int>(batch.size()),
                           &batch);
      if (static_cast<int>(batch.size()) >= e->target_k) break;
      if (!(e->arrivals.mean_gap() < opt_.max_batch_wait_s)) break;
      if (!queue_->wait_for_push(seen, batch_deadline)) break;
    }
  }

  const int n_batch = static_cast<int>(batch.size());
  g_inflight.set(static_cast<double>(
      in_flight_.fetch_add(n_batch, std::memory_order_relaxed) + n_batch));

  // Weed out requests that died while queued or during batching.
  const Clock::time_point now = Clock::now();
  for (auto& r : batch) {
    if (r->cancelled.load(std::memory_order_relaxed)) {
      c_cancel.add();
      Response resp;
      resp.status = RequestStatus::cancelled;
      resolve(r, std::move(resp));
    } else if (now > r->deadline) {
      c_timeout.add();
      Response resp;
      resp.status = RequestStatus::timed_out;
      resp.error = "deadline expired before launch";
      resolve(r, std::move(resp));
    } else {
      live.push_back(std::move(r));
    }
  }

  if (!live.empty()) {
    const int k = static_cast<int>(live.size());
    const auto rows = static_cast<std::size_t>(e->n_rows);
    const auto cols = static_cast<std::size_t>(e->n_cols);
    const auto kk = static_cast<std::size_t>(k);
    SPMVM_TRACE_SPAN("serve/batch", static_cast<std::size_t>(k));
    // Interleave X and de-interleave Y in one row-major pass each, the
    // k request vectors side by side: X[r·k + v] = x_v[r] and
    // y_v[r] = Y[r·k + v].
    s.xs.resize(kk);
    for (std::size_t v = 0; v < kk; ++v) s.xs[v] = live[v]->x.data();
    const std::span<double> X = first_n(s.X, cols * kk);
    const std::span<double> Y = first_n(s.Y, rows * kk);
    for (std::size_t r = 0; r < cols; ++r)
      for (std::size_t v = 0; v < kk; ++v) X[r * kk + v] = s.xs[v][r];

    // Both ends are read under the lock: a wait for the other worker's
    // launch of this matrix is batching time, not execute time, and the
    // launches of one matrix get disjoint execute intervals.
    Clock::time_point t_launch, t_done;
    std::string error;
    {
      std::lock_guard<std::mutex> lk(e->launch_mutex);
      t_launch = Clock::now();
      SPMVM_TRACE_SPAN("serve/launch",
                       static_cast<std::size_t>(e->bound->nnz()) * kk);
      try {
        e->bound->apply_block(X, Y, k);
      } catch (const std::exception& ex) {
        error = ex.what();
      }
      t_done = Clock::now();
    }
    const double exec_s = elapsed_seconds(t_launch, t_done);
    c_batches.add();
    c_batched.add(static_cast<std::uint64_t>(k));
    h_width.observe(static_cast<index_t>(k));
    {
      std::lock_guard<std::mutex> lk(stats_mutex_);
      ++stats_.batches;
    }

    // Each response owns its y, so only the outer vector is reused.
    std::vector<std::vector<double>>& ys = s.ys;
    if (error.empty()) {
      ys.resize(kk);
      for (std::size_t v = 0; v < kk; ++v) ys[v].assign(rows, 0.0);
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t v = 0; v < kk; ++v) ys[v][r] = Y[r * kk + v];
    }

    for (std::size_t v = 0; v < kk; ++v) {
      Response resp;
      resp.batch_width = k;
      resp.queue_seconds =
          elapsed_seconds(live[v]->enqueue_time, live[v]->dequeue_time);
      resp.batch_seconds = elapsed_seconds(live[v]->dequeue_time, t_launch);
      resp.execute_seconds = exec_s;
      l_batch.observe_seconds(resp.batch_seconds);
      l_exec.observe_seconds(exec_s);
      if (error.empty()) {
        resp.status = RequestStatus::ok;
        resp.y = std::move(ys[v]);
      } else {
        resp.status = RequestStatus::failed;
        resp.error = error;
      }
      resolve(live[v], std::move(resp));
    }
  }

  g_inflight.set(static_cast<double>(
      in_flight_.fetch_sub(n_batch, std::memory_order_relaxed) - n_batch));
  // Drop the references so each request's x is freed with its ticket.
  batch.clear();
  live.clear();
}

void Server::resolve(const std::shared_ptr<Request>& r, Response resp) {
  static obs::Counter& c_completed = obs::counter("serve.completed");
  static obs::Counter& c_failed = obs::counter("serve.failed");
  static obs::LatencyHistogram& l_total =
      obs::latency_histogram("serve.latency.total");
  static obs::LatencyHistogram& l_queue =
      obs::latency_histogram("serve.latency.queue");
  if (r->enqueue_time != Clock::time_point{}) {
    resp.total_seconds = elapsed_seconds(r->enqueue_time, Clock::now());
    l_total.observe_seconds(resp.total_seconds);
  }
  if (resp.status == RequestStatus::ok) {
    c_completed.add();
    l_queue.observe_seconds(resp.queue_seconds);
  }
  if (resp.status == RequestStatus::failed) c_failed.add();
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    switch (resp.status) {
      case RequestStatus::ok: ++stats_.completed; break;
      case RequestStatus::timed_out: ++stats_.timed_out; break;
      case RequestStatus::cancelled: ++stats_.cancelled; break;
      case RequestStatus::failed: ++stats_.failed; break;
      case RequestStatus::rejected_invalid: ++stats_.rejected_invalid; break;
      default: break;  // queue-level rejects counted at submit
    }
  }
  r->promise.set_value(std::move(resp));
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lk(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_->shutdown();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // Safety net for a server that was never started: resolve anything
  // still queued so no accepted ticket is left hanging.
  while (std::shared_ptr<Request> r = queue_->pop()) {
    Response resp;
    resp.status = RequestStatus::rejected_shutdown;
    resp.error = "server shut down before execution";
    resolve(r, std::move(resp));
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return stats_;
}

}  // namespace spmvm::serve
