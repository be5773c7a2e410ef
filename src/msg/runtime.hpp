// In-process message-passing runtime.
//
// Substitute for MPI on the Dirac cluster (DESIGN.md §2): ranks run as
// threads of one process and exchange byte buffers through per-rank
// mailboxes, with MPI-like nonblocking semantics (isend/irecv +
// wait/waitall, tag and source matching), persistent requests
// (send_init/recv_init/start, the MPI_*_init family), a barrier, and
// the collectives the distributed spMVM needs.
//
// Delivery uses a rendezvous fast path: when the receiver has already
// posted a matching receive, the sender copies the payload straight
// into the posted buffer — one copy, no mailbox allocation. Otherwise
// the eager protocol queues a copy in the destination mailbox and the
// receive drains it later (two copies). The split is observable through
// the obs counters `comm.rendezvous_hits` / `comm.eager_fallbacks`.
// Functional behaviour only — wall-clock performance of a *cluster* is
// produced by dist/cluster_model.
//
// Observability (DESIGN.md §11): Runtime::run assigns each rank thread
// its trace lane (obs::set_rank), every delivery records a `msg/send`
// span and every completion a matching `msg/recv` span linked by a
// flow id (exported as send→recv arrows in Chrome traces), and traffic
// is attributed per peer through the always-on counters
// `comm.bytes_sent{peer=N}` / `comm.bytes_recv{peer=N}`.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace spmvm::msg {

namespace detail {
struct State;
struct RecvSlot;
}

/// Handle for a pending nonblocking operation. Persistent requests
/// (send_init/recv_init) stay bound to their peer/tag/buffer and can be
/// re-activated with Comm::start after every wait.
class Request {
 public:
  Request() = default;

 private:
  friend class Comm;
  enum class Kind { none, send, recv };
  Kind kind_ = Kind::none;
  int peer_ = -1;
  int tag_ = -1;
  std::span<std::byte> buffer_{};            // receive target
  std::span<const std::byte> send_data_{};   // persistent-send payload
  std::shared_ptr<detail::RecvSlot> slot_{}; // posted-receive registration
  bool done_ = false;
  bool persistent_ = false;
  bool active_ = false;  // persistent: started and not yet waited
};

/// Per-rank communicator handed to the rank function by Runtime::run.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Buffered nonblocking send: the payload lands either directly in a
  /// matching posted receive buffer (rendezvous) or as a copy in the
  /// destination mailbox (eager); the request completes at once.
  Request isend(int dest, int tag, std::span<const std::byte> data);

  /// Nonblocking receive of exactly buffer.size() bytes from (source,
  /// tag). The receive is posted immediately: an already-queued eager
  /// message is drained on the spot, otherwise the buffer is registered
  /// for rendezvous delivery. Receiving from self or an out-of-range
  /// rank is rejected up front — such a receive could never complete.
  Request irecv(int source, int tag, std::span<std::byte> buffer);

  // ---- persistent requests (MPI_Send_init / MPI_Recv_init style) ---------

  /// Bind a send to (dest, tag, data) without starting it. The returned
  /// request is inactive; each start() delivers the current contents of
  /// `data`, and wait() re-arms it for the next start().
  Request send_init(int dest, int tag, std::span<const std::byte> data);

  /// Bind a receive to (source, tag, buffer) without posting it. Each
  /// start() posts the receive (registering `buffer` for rendezvous
  /// delivery); wait() completes it and re-arms for the next start().
  /// The registration slot is allocated once, here — steady-state
  /// start/wait cycles perform no heap allocation.
  Request recv_init(int source, int tag, std::span<std::byte> buffer);

  /// Activate a persistent request. Starting an already-active request
  /// is an error.
  void start(Request& req);
  void startall(std::span<Request> reqs);

  /// Deregister a started-but-unmatched persistent receive (teardown of
  /// a communication plan). No-op for completed or inactive requests.
  void cancel(Request& req);

  void wait(Request& req);
  void waitall(std::span<Request> reqs);

  /// Blocking conveniences.
  void send(int dest, int tag, std::span<const std::byte> data);
  void recv(int source, int tag, std::span<std::byte> buffer);

  void barrier();

  /// Sum-reduction over all ranks; every rank receives the total.
  double allreduce_sum(double local);

  /// Gather one value from every rank, in rank order, on every rank.
  std::vector<double> allgather(double local);

  /// Personalized all-to-all exchange of byte buffers: element d of the
  /// result is what rank d sent to this rank. send[rank()] is returned
  /// verbatim (self-message).
  std::vector<std::vector<std::byte>> alltoall(
      const std::vector<std::vector<std::byte>>& send);

  // ---- typed wrappers ----------------------------------------------------

  template <class T>
  Request isend_t(int dest, int tag, std::span<const T> data) {
    return isend(dest, tag, std::as_bytes(data));
  }
  template <class T>
  Request irecv_t(int source, int tag, std::span<T> buffer) {
    return irecv(source, tag, std::as_writable_bytes(buffer));
  }
  template <class T>
  Request send_init_t(int dest, int tag, std::span<const T> data) {
    return send_init(dest, tag, std::as_bytes(data));
  }
  template <class T>
  Request recv_init_t(int source, int tag, std::span<T> buffer) {
    return recv_init(source, tag, std::as_writable_bytes(buffer));
  }
  template <class T>
  void send_t(int dest, int tag, std::span<const T> data) {
    send(dest, tag, std::as_bytes(data));
  }
  template <class T>
  void recv_t(int source, int tag, std::span<T> buffer) {
    recv(source, tag, std::as_writable_bytes(buffer));
  }
  template <class T>
  std::vector<std::vector<T>> alltoall_t(
      const std::vector<std::vector<T>>& send) {
    // memcpy with a null pointer is undefined even for 0 bytes, and an
    // empty vector's data() may be null: skip empty buffers.
    std::vector<std::vector<std::byte>> raw(send.size());
    for (std::size_t d = 0; d < send.size(); ++d) {
      raw[d].resize(send[d].size() * sizeof(T));
      if (!raw[d].empty())
        std::memcpy(raw[d].data(), send[d].data(), raw[d].size());
    }
    const auto got = alltoall(raw);
    std::vector<std::vector<T>> out(got.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      SPMVM_REQUIRE(got[s].size() % sizeof(T) == 0,
                    "alltoall payload size not a multiple of element size");
      out[s].resize(got[s].size() / sizeof(T));
      if (!got[s].empty())
        std::memcpy(out[s].data(), got[s].data(), got[s].size());
    }
    return out;
  }

 private:
  friend class Runtime;
  Comm(int rank, std::shared_ptr<detail::State> state)
      : rank_(rank), state_(std::move(state)) {}

  /// Send-side delivery: rendezvous into a posted receive when one
  /// matches, eager mailbox copy otherwise.
  void deliver(int dest, int tag, std::span<const std::byte> data);
  /// Receive-side posting: drain a queued eager message or register the
  /// buffer for rendezvous delivery.
  void post_recv(Request& req);

  int rank_;
  std::shared_ptr<detail::State> state_;
};

/// Launches N ranks as threads and blocks until all return. The first
/// exception thrown by any rank is rethrown on the caller after joining.
class Runtime {
 public:
  static void run(int n_ranks, const std::function<void(Comm&)>& rank_fn);
};

}  // namespace spmvm::msg
