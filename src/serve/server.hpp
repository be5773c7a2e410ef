// The spMVM server: admission queue → micro-batcher → execution engine
// (DESIGN.md §14).
//
// A Server owns a private exec::Engine, a set of registered matrices
// (each bound once to the configured backend) and a worker pool.
// Clients submit y = A·x requests against a matrix name and get a
// Ticket; workers drain the admission queue, coalesce same-matrix
// requests into block-RHS spMMV launches whose width comes from the
// Eq. 1 balance model (serve/batcher), and resolve the tickets. A
// worker waits for more requests only while the matrix's arrival rate
// says one is due within the batching window. Matrices are bound in
// the original basis, so the worker's staging passes only interleave x
// and de-interleave y. Because every backend routes all
// widths — including k = 1 — through the same per-format block kernel,
// a coalesced batch is bit-identical to issuing its requests one at a
// time.
//
// Lifecycle: construct → register_matrix()* → start() → submit()* →
// shutdown() (rejects new work, drains in-flight, joins workers). The
// destructor calls shutdown().
#pragma once

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace spmvm::serve {

/// Server configuration. Every field has an SPMVM_SERVE_* environment
/// override (see from_env and DESIGN.md §14).
struct ServerOptions {
  std::string backend = "auto";  ///< host | gpusim | hybrid | auto
  std::string format = "csr";    ///< storage format for bound matrices
  int n_workers = 2;             ///< batch-executing worker threads
  int queue_capacity = 256;      ///< hard bound on queued requests
  int admit_watermark = 0;       ///< shed above this depth (0 → capacity)
  int max_batch = 8;             ///< ceiling on the block width k
  double max_batch_wait_s = 1e-3;   ///< batching deadline per launch
  double default_deadline_s = 0.0;  ///< per-request deadline (0 → none)
  int kernel_threads = 1;        ///< n_threads of each block launch
  double min_batch_gain = 0.02;  ///< balance-model stop threshold

  /// Defaults overridden by SPMVM_SERVE_BACKEND, _FORMAT, _WORKERS,
  /// _QUEUE_CAP, _WATERMARK, _MAX_BATCH, _MAX_WAIT_MS, _DEADLINE_MS,
  /// _THREADS, _MIN_GAIN. Malformed, non-finite or out-of-range values
  /// keep the default.
  static ServerOptions from_env();
};

/// Point-in-time serving statistics (mirrors the obs counters, scoped
/// to this Server instance).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;  ///< block launches issued
};

class Server {
 public:
  explicit Server(ServerOptions opt = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind `a` to the configured backend under `name` and compute its
  /// model batch width. Must precede start(); duplicate names throw.
  void register_matrix(const std::string& name, const Csr<double>& a);

  /// Model-chosen block width for a registered matrix (min of the
  /// Eq. 1 walk and max_batch); 1 when its format has no native block
  /// kernel. Throws for unknown names.
  int batch_width(const std::string& name) const;

  /// Launch the worker pool. Idempotent.
  void start();

  /// Submit y = A·x against a registered matrix. Never blocks: shed or
  /// invalid requests come back as an already-resolved Ticket.
  /// `deadline_s` overrides the configured default (< 0 → default,
  /// 0 or past the clock's range → none, NaN → rejected_invalid): a
  /// request whose deadline passes before its launch resolves as
  /// timed_out.
  Ticket submit(const std::string& matrix, std::vector<double> x,
                double deadline_s = -1.0);

  /// Stop admitting, drain queued and in-flight requests, join the
  /// workers. Every accepted ticket is resolved before this returns.
  void shutdown();

  ServerStats stats() const;
  int queue_depth() const { return queue_->depth(); }
  const ServerOptions& options() const { return opt_; }

 private:
  struct Entry;    // one registered matrix
  struct Staging;  // one worker's batch buffers, reused across batches

  Entry* find_entry(const std::string& name) const;
  void worker_loop(int idx);
  void serve_batch(std::shared_ptr<Request> first, Staging& s);
  void resolve(const std::shared_ptr<Request>& r, Response resp);

  ServerOptions opt_;
  exec::Engine<double> engine_;
  std::unique_ptr<RequestQueue> queue_;
  mutable std::mutex matrices_mutex_;
  std::map<std::string, std::unique_ptr<Entry>> matrices_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopped_ = false;
  mutable std::mutex lifecycle_mutex_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  std::atomic<int> in_flight_{0};
};

}  // namespace spmvm::serve
