// Per-call instrumentation shared by the host spMVM kernels (this
// directory) and the block-RHS kernels (core/spmmv): the trace span's
// bytes, the always-on kernel.calls/nnz/bytes counters and the roofline
// work descriptor. Internal to the kernel sources; not part of the
// public sparse API.
#pragma once

#include <cstdint>

#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace spmvm::detail {

/// Bytes onto `span`; one kernel.calls, `nnz` onto kernel.nnz and
/// `bytes` onto kernel.bytes. noinline: the static-local guards would
/// bloat every kernel's entry block and push the hot loops past the
/// inliner's budget.
[[gnu::noinline]] void record_kernel(obs::SpanGuard& span, std::uint64_t nnz,
                                     std::uint64_t bytes);

/// Roofline work descriptor of one call over `k` vectors: `bytes`
/// streamed (stored footprint + RHS reads + LHS writes, the Eq. 1
/// accounting), flops 2·nnz·k, α at its ideal value 1/N_nzr — the RHS
/// stream is counted exactly once per vector, so the host roof derived
/// from these bytes is the perfect-cache bound.
[[gnu::noinline]] obs::WorkDesc kernel_work(std::uint64_t nnz,
                                            std::uint64_t bytes,
                                            index_t n_rows, int k = 1);

}  // namespace spmvm::detail
