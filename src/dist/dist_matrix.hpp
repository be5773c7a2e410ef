// Per-rank view of a distributed sparse matrix (Sec. III-A).
//
// Each rank owns a contiguous block of rows and the matching block of the
// input/output vectors. Its rows are split into
//   - a *local* part referencing owned vector entries (columns remapped to
//     [0, n_local)), and
//   - a *non-local* part referencing halo entries received from other
//     ranks (columns remapped to halo-buffer slots).
// The communication pattern records, per peer, which owned entries must
// be gathered and sent, and how many halo entries arrive.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "dist/partition.hpp"
#include "formats/registry.hpp"
#include "sparse/csr.hpp"

namespace spmvm::dist {

template <class T>
struct DistMatrix {
  int rank = 0;
  int n_parts = 1;
  RowPartition partition;
  index_t n_local = 0;  // owned rows == owned vector entries
  index_t n_halo = 0;   // remote vector entries this rank needs

  Csr<T> local;     // n_local x n_local, owned columns only
  Csr<T> nonlocal;  // n_local x n_halo, halo columns only

  /// Halo layout: slots are grouped by owning rank, ascending global
  /// index within each group. recv_offset[p] / recv_count[p] describe
  /// rank p's group (recv_count[rank] == 0).
  std::vector<index_t> recv_offset;
  std::vector<index_t> recv_count;
  /// Global column index of each halo slot (diagnostics / tests).
  std::vector<index_t> halo_global;

  /// send_idx[p]: local (0-based) indices of owned entries to gather and
  /// send to rank p, in the order p expects them.
  std::vector<std::vector<index_t>> send_idx;

  /// Kernel plans for the two parts, resolved through the format
  /// registry (distribute() defaults them to "csr"). The halo layout
  /// fixes the row order; every format with a fused kernel keeps it (the
  /// sorted SELL-C-σ presets write through their row map).
  std::string format_name = "csr";
  std::shared_ptr<const formats::FormatPlan<T>> local_plan;
  std::shared_ptr<const formats::FormatPlan<T>> nonlocal_plan;

  /// (Re)build both kernel plans as `format`. Throws, before building,
  /// for formats without a fused y += A·x kernel (jds, bellpack, auto):
  /// the non-local product accumulates in place.
  void build_plans(const formats::FormatRegistry<T>& registry,
                   std::string_view format,
                   const formats::PlanOptions& options = {});

  index_t send_total() const;
  /// Ranks this rank exchanges data with (send or receive).
  int n_peers() const;

  void validate() const;
};

/// Build rank `rank`'s view from the (replicated) global matrix; the send
/// lists are derived from global knowledge. Precondition (Csr::validate's
/// rule): in each of the rank's rows, columns are in range and strictly
/// increase; the parts keep that order. Throws spmvm::Error naming the
/// first row that breaks it.
template <class T>
DistMatrix<T> distribute(const Csr<T>& a, const RowPartition& part, int rank);

#define SPMVM_EXTERN_DIST(T)                                             \
  extern template struct DistMatrix<T>;                                  \
  extern template DistMatrix<T> distribute(const Csr<T>&,                \
                                           const RowPartition&, int)

SPMVM_EXTERN_DIST(float);
SPMVM_EXTERN_DIST(double);
#undef SPMVM_EXTERN_DIST

}  // namespace spmvm::dist
