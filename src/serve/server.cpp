#include "serve/server.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

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
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

int env_int(const char* name, int fallback) {
  const double v = env_double(name, static_cast<double>(fallback));
  return static_cast<int>(v);
}

std::string env_str(const char* name, std::string fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : fallback;
}

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
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
  std::unique_ptr<exec::BoundSpmv<double>> bound;
  std::mutex launch_mutex;  // BoundSpmv handles are not thread-safe
  int target_k = 1;
  index_t n_rows = 0;
  index_t n_cols = 0;
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
  const double nnzr =
      a.n_rows > 0 ? static_cast<double>(a.nnz()) /
                         static_cast<double>(a.n_rows)
                   : 1.0;
  entry->target_k = target_batch_width(
      sizeof(double), perfmodel::alpha_ideal(std::max(1.0, nnzr)),
      std::max(1.0, nnzr), opt_.max_batch, opt_.min_batch_gain);
  exec::LaunchOptions launch;
  launch.n_threads = opt_.kernel_threads;
  entry->bound = engine_.bind(opt_.backend, a, opt_.format, {}, launch);
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
  if (e == nullptr ||
      req->x.size() != static_cast<std::size_t>(e->n_cols)) {
    static obs::Counter& c = obs::counter("serve.rejected_invalid");
    c.add();
    Response resp;
    resp.status = RequestStatus::rejected_invalid;
    resp.error = e == nullptr ? "unknown matrix '" + matrix + "'"
                              : "x has " + std::to_string(req->x.size()) +
                                    " entries, matrix needs " +
                                    std::to_string(e->n_cols);
    resolve(req, std::move(resp));
    return ticket;
  }
  const double dl = deadline_s < 0.0 ? opt_.default_deadline_s : deadline_s;
  if (dl > 0.0) req->deadline = Clock::now() + seconds_to_duration(dl);

  const Admit admit = queue_->push(req);
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
  for (;;) {
    std::shared_ptr<Request> first = queue_->pop();
    if (!first) return;  // shut down and drained
    serve_batch(std::move(first));
  }
}

void Server::serve_batch(std::shared_ptr<Request> first) {
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
  std::vector<std::shared_ptr<Request>> batch;
  batch.push_back(std::move(first));
  const std::string& matrix = batch.front()->matrix;

  // Coalesce toward the model width: take whatever same-matrix requests
  // are queued now, then wait out the batching deadline for stragglers.
  if (e->target_k > 1) {
    const Clock::time_point batch_deadline =
        batch.front()->dequeue_time +
        seconds_to_duration(opt_.max_batch_wait_s);
    for (;;) {
      const std::uint64_t seen = queue_->push_seq();
      queue_->pop_matching(matrix,
                           e->target_k - static_cast<int>(batch.size()),
                           &batch);
      if (static_cast<int>(batch.size()) >= e->target_k) break;
      if (!queue_->wait_for_push(seen, batch_deadline)) break;
    }
  }

  g_inflight.set(static_cast<double>(
      in_flight_.fetch_add(static_cast<int>(batch.size()),
                           std::memory_order_relaxed) +
      static_cast<int>(batch.size())));

  // Weed out requests that died while queued or during batching.
  const Clock::time_point now = Clock::now();
  std::vector<std::shared_ptr<Request>> live;
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
    // Stage X and scatter Y in one row-major pass each: X and Y are
    // walked in order, the k request vectors side by side.
    std::vector<const double*> xs(kk);
    for (std::size_t v = 0; v < kk; ++v) xs[v] = live[v]->x.data();
    std::vector<double> X(cols * kk), Y(rows * kk);
    for (std::size_t i = 0; i < cols; ++i)
      for (std::size_t v = 0; v < kk; ++v) X[i * kk + v] = xs[v][i];

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

    std::vector<std::vector<double>> ys;
    if (error.empty()) {
      ys.assign(kk, std::vector<double>(rows));
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t v = 0; v < kk; ++v) ys[v][i] = Y[i * kk + v];
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
      in_flight_.fetch_sub(static_cast<int>(batch.size()),
                           std::memory_order_relaxed) -
      static_cast<int>(batch.size())));
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
