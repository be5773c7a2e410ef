// Request/response types of the spMVM serving layer (DESIGN.md §14).
//
// A Request is one y = A·x product submitted against a registered
// matrix; the server answers it through a Ticket, a one-shot future
// carrying the Response. Requests are reference-counted shared state:
// the submitting client (via its Ticket), the admission queue and the
// worker that executes the batch all hold the same Request object, so
// cooperative cancellation is a single atomic flag every stage checks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

namespace spmvm::serve {

using Clock = std::chrono::steady_clock;

/// Terminal state of one request. Everything except `ok` means the
/// product did not run (the response carries no y).
enum class RequestStatus : std::uint8_t {
  ok,                 ///< executed; Response::y is valid
  rejected_full,      ///< admission control shed it (queue over watermark)
  rejected_shutdown,  ///< submitted after shutdown() began
  rejected_invalid,   ///< unknown matrix or wrong x size
  timed_out,          ///< deadline expired before the launch
  cancelled,          ///< Ticket::cancel() won the race against execution
  failed,             ///< the launch threw; Response::error has details
};

/// Human-readable status for logs and bench output.
const char* to_string(RequestStatus s);

/// What a Ticket resolves to.
struct Response {
  RequestStatus status = RequestStatus::failed;
  std::vector<double> y;  ///< result vector (original basis), ok only
  int batch_width = 0;    ///< k of the block launch that served this
  double queue_seconds = 0.0;    ///< enqueue → dequeue
  double batch_seconds = 0.0;    ///< dequeue → kernel launch
  double execute_seconds = 0.0;  ///< block-launch wall time, under the
                                 ///< matrix's launch lock
  double total_seconds = 0.0;    ///< enqueue → response
  std::string error;             ///< failure detail (failed only)

  bool ok() const { return status == RequestStatus::ok; }
};

/// Shared state of one in-flight request. Owned jointly by the Ticket,
/// the queue and the executing worker.
struct Request {
  std::string matrix;       ///< registered matrix name
  std::vector<double> x;    ///< input vector, n_cols entries
  Clock::time_point enqueue_time{};
  Clock::time_point dequeue_time{};
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<bool> cancelled{false};
  std::promise<Response> promise;
};

/// One-shot handle to a submitted request. Rejections resolve the
/// ticket immediately, so get() never blocks forever on a shed request.
class Ticket {
 public:
  Ticket() = default;
  explicit Ticket(std::shared_ptr<Request> req)
      : req_(std::move(req)), future_(req_->promise.get_future().share()) {}

  /// Block until the response is ready and return it.
  Response get() { return future_.get(); }

  /// True when the response became ready within `seconds`.
  bool wait_for(double seconds) const {
    return future_.wait_for(std::chrono::duration<double>(seconds)) ==
           std::future_status::ready;
  }

  /// Request cooperative cancellation. A request still in the queue (or
  /// batched but not yet launched) resolves as `cancelled`; one whose
  /// launch already started completes normally.
  void cancel() {
    if (req_) req_->cancelled.store(true, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<Request> req_;
  std::shared_future<Response> future_;
};

}  // namespace spmvm::serve
