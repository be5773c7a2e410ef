#include "dist/dist_matrix.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"

namespace spmvm::dist {

template <class T>
index_t DistMatrix<T>::send_total() const {
  index_t total = 0;
  for (const auto& v : send_idx) total += static_cast<index_t>(v.size());
  return total;
}

template <class T>
int DistMatrix<T>::n_peers() const {
  int peers = 0;
  for (int p = 0; p < n_parts; ++p) {
    if (p == rank) continue;
    if (recv_count[static_cast<std::size_t>(p)] > 0 ||
        !send_idx[static_cast<std::size_t>(p)].empty())
      ++peers;
  }
  return peers;
}

template <class T>
void DistMatrix<T>::build_plans(const formats::FormatRegistry<T>& registry,
                                std::string_view format,
                                const formats::PlanOptions& options) {
  // The non-local product accumulates y += nonlocal · halo in place,
  // which needs the format's fused kernel.
  const auto* entry = registry.find(format);
  SPMVM_REQUIRE(entry == nullptr || entry->info.native_axpby,
                std::string("format '") + std::string(format) +
                    "' has no fused y += A*x kernel; the non-local "
                    "product accumulates in place");
  formats::PlanOptions opts = options;
  // Column relabeling never applies: the column spaces (owned block,
  // halo slots) are fixed by the exchange layout.
  opts.permute_columns = PermuteColumns::no;
  auto lp = registry.build(format, local, opts);
  SPMVM_REQUIRE(lp->permutation() == nullptr,
                std::string("format '") + std::string(format) +
                    "' permutes rows; the halo exchange needs the "
                    "original row order");
  local_plan = std::move(lp);
  nonlocal_plan = n_halo > 0 ? registry.build(format, nonlocal, opts)
                             : nullptr;
  format_name = std::string(format);
}

template <class T>
void DistMatrix<T>::validate() const {
  local.validate();
  nonlocal.validate();
  SPMVM_REQUIRE(local.n_rows == n_local && nonlocal.n_rows == n_local,
                "local/nonlocal row counts must match owned rows");
  SPMVM_REQUIRE(local.n_cols == n_local, "local part must be square");
  SPMVM_REQUIRE(nonlocal.n_cols == n_halo, "nonlocal width must be halo size");
  SPMVM_REQUIRE(recv_count.size() == static_cast<std::size_t>(n_parts) &&
                    recv_offset.size() == static_cast<std::size_t>(n_parts) &&
                    send_idx.size() == static_cast<std::size_t>(n_parts),
                "per-peer arrays must have n_parts entries");
  SPMVM_REQUIRE(recv_count[static_cast<std::size_t>(rank)] == 0,
                "no self-communication");
  index_t halo_seen = 0;
  for (int p = 0; p < n_parts; ++p) {
    SPMVM_REQUIRE(recv_offset[static_cast<std::size_t>(p)] == halo_seen,
                  "halo groups must be contiguous in rank order");
    halo_seen += recv_count[static_cast<std::size_t>(p)];
    for (const index_t i : send_idx[static_cast<std::size_t>(p)])
      SPMVM_REQUIRE(i >= 0 && i < n_local, "send index out of owned range");
  }
  SPMVM_REQUIRE(halo_seen == n_halo, "halo groups must cover the halo");
  for (index_t h = 0; h < n_halo; ++h) {
    const int owner = partition.owner(halo_global[static_cast<std::size_t>(h)]);
    SPMVM_REQUIRE(owner != rank, "halo entry owned locally");
  }
}

template <class T>
DistMatrix<T> distribute(const Csr<T>& a, const RowPartition& part,
                         int rank) {
  SPMVM_REQUIRE(a.n_rows == a.n_cols,
                "distributed spMVM expects a square matrix");
  SPMVM_REQUIRE(part.n_rows() == a.n_rows, "partition does not cover matrix");
  SPMVM_REQUIRE(rank >= 0 && rank < part.n_parts(), "rank out of range");

  DistMatrix<T> d;
  d.rank = rank;
  d.n_parts = part.n_parts();
  d.partition = part;
  const index_t row0 = part.begin(rank);
  const index_t row1 = part.end(rank);
  d.n_local = row1 - row0;

  // Pass 1: find all non-owned columns referenced by my rows.
  std::vector<index_t> needed;
  for (index_t i = row0; i < row1; ++i)
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t c = a.col_idx[static_cast<std::size_t>(k)];
      if (c < row0 || c >= row1) needed.push_back(c);
    }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  // Halo layout: `needed` is sorted by global index, hence already grouped
  // by owning rank (contiguous row blocks own contiguous index ranges).
  d.n_halo = static_cast<index_t>(needed.size());
  d.halo_global = needed;
  d.recv_offset.assign(static_cast<std::size_t>(d.n_parts), 0);
  d.recv_count.assign(static_cast<std::size_t>(d.n_parts), 0);
  std::map<index_t, index_t> halo_slot;  // global col -> halo index
  for (index_t h = 0; h < d.n_halo; ++h) {
    halo_slot[needed[static_cast<std::size_t>(h)]] = h;
    d.recv_count[static_cast<std::size_t>(
        part.owner(needed[static_cast<std::size_t>(h)]))]++;
  }
  index_t acc = 0;
  for (int p = 0; p < d.n_parts; ++p) {
    d.recv_offset[static_cast<std::size_t>(p)] = acc;
    acc += d.recv_count[static_cast<std::size_t>(p)];
  }

  // Pass 2: split my rows into local and non-local parts.
  Coo<T> local_coo(d.n_local, d.n_local);
  Coo<T> nonlocal_coo(d.n_local, std::max<index_t>(d.n_halo, 0));
  for (index_t i = row0; i < row1; ++i)
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t c = a.col_idx[static_cast<std::size_t>(k)];
      const T v = a.val[static_cast<std::size_t>(k)];
      if (c >= row0 && c < row1) {
        local_coo.add(i - row0, c - row0, v);
      } else {
        nonlocal_coo.add(i - row0, halo_slot.at(c), v);
      }
    }
  d.local = Csr<T>::from_coo(std::move(local_coo));
  d.nonlocal = Csr<T>::from_coo(std::move(nonlocal_coo));

  // Pass 3 (global knowledge): what every other rank needs from me is what
  // I must send — the same scan run from the peer's perspective.
  d.send_idx.assign(static_cast<std::size_t>(d.n_parts), {});
  for (int p = 0; p < d.n_parts; ++p) {
    if (p == rank) continue;
    std::vector<index_t> wanted;
    for (index_t i = part.begin(p); i < part.end(p); ++i)
      for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
           k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const index_t c = a.col_idx[static_cast<std::size_t>(k)];
        if (c >= row0 && c < row1) wanted.push_back(c - row0);
      }
    std::sort(wanted.begin(), wanted.end());
    wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
    d.send_idx[static_cast<std::size_t>(p)] = std::move(wanted);
  }
  d.build_plans(formats::registry<T>(), "csr");
  return d;
}

#define SPMVM_INSTANTIATE_DIST(T)                                     \
  template struct DistMatrix<T>;                                      \
  template DistMatrix<T> distribute(const Csr<T>&, const RowPartition&, int)

SPMVM_INSTANTIATE_DIST(float);
SPMVM_INSTANTIATE_DIST(double);

}  // namespace spmvm::dist
