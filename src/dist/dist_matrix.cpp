#include "dist/dist_matrix.hpp"

#include <string>
#include <vector>

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
  const auto at = [](auto i) { return static_cast<std::size_t>(i); };

  DistMatrix<T> d;
  d.rank = rank;
  d.n_parts = part.n_parts();
  d.partition = part;
  const index_t row0 = part.begin(rank);
  const index_t row1 = part.end(rank);
  d.n_local = row1 - row0;
  const auto owned = [&](index_t c) { return c >= row0 && c < row1; };

  // Pass 1: one walk over my rows appends every entry to its part in
  // input order, a local one with its owned column (c - row0), a
  // non-local one with its global column until pass 2 assigns its slot.
  Csr<T>& local = d.local;
  Csr<T>& nonlocal = d.nonlocal;
  local.n_rows = local.n_cols = nonlocal.n_rows = d.n_local;
  local.row_ptr.assign(at(d.n_local) + 1, 0);
  nonlocal.row_ptr.assign(at(d.n_local) + 1, 0);
  const offset_t mine = a.row_ptr[at(row1)] - a.row_ptr[at(row0)];
  local.col_idx.reserve(at(mine));
  local.val.reserve(at(mine));
  for (index_t i = row0; i < row1; ++i) {
    index_t prev = -1;
    for (offset_t k = a.row_ptr[at(i)]; k < a.row_ptr[at(i) + 1]; ++k) {
      const index_t c = a.col_idx[at(k)];
      SPMVM_REQUIRE(c > prev, "row " + std::to_string(i) +
                                  ": columns must be in range and "
                                  "strictly increasing");
      prev = c;
      if (owned(c)) {
        local.col_idx.push_back(c - row0);
        local.val.push_back(a.val[at(k)]);
      } else {
        nonlocal.col_idx.push_back(c);
        nonlocal.val.push_back(a.val[at(k)]);
      }
    }
    SPMVM_REQUIRE(prev < a.n_cols, "row " + std::to_string(i) +
                                       ": column index out of range");
    local.row_ptr[at(i - row0) + 1] = static_cast<offset_t>(local.val.size());
    nonlocal.row_ptr[at(i - row0) + 1] =
        static_cast<offset_t>(nonlocal.val.size());
  }

  // Pass 2: the halo is my non-local columns in ascending order, hence
  // grouped by owner (row blocks own contiguous column ranges). A slot
  // array over all columns marks them, numbers them owner by owner, and
  // gives each non-local entry its slot; slots ascend within a row like
  // the columns do.
  constexpr index_t kUnused = -1;
  std::vector<index_t> slot(at(a.n_cols), kUnused);
  for (const index_t c : nonlocal.col_idx) slot[at(c)] = 0;
  d.recv_offset.resize(at(d.n_parts));
  d.recv_count.resize(at(d.n_parts));
  for (int p = 0; p < d.n_parts; ++p) {
    d.recv_offset[at(p)] = d.n_halo;
    for (index_t c = part.begin(p); c < part.end(p); ++c)
      if (slot[at(c)] != kUnused) {
        slot[at(c)] = d.n_halo++;
        d.halo_global.push_back(c);
      }
    d.recv_count[at(p)] = d.n_halo - d.recv_offset[at(p)];
  }
  nonlocal.n_cols = d.n_halo;
  for (index_t& c : nonlocal.col_idx) c = slot[at(c)];

  // Pass 3 (global knowledge): what peer p needs from me is what I send
  // it. One walk over p's entries marks the owned columns it reads; the
  // marks, read in order, are the ascending send list.
  d.send_idx.assign(at(d.n_parts), {});
  std::vector<unsigned char> wanted(at(d.n_local), 0);
  for (int p = 0; p < d.n_parts; ++p) {
    if (p == rank) continue;
    for (offset_t k = a.row_ptr[at(part.begin(p))];
         k < a.row_ptr[at(part.end(p))]; ++k) {
      const index_t c = a.col_idx[at(k)];
      if (owned(c)) wanted[at(c - row0)] = 1;
    }
    auto& send = d.send_idx[at(p)];
    for (index_t j = 0; j < d.n_local; ++j)
      if (wanted[at(j)] != 0) {
        send.push_back(j);
        wanted[at(j)] = 0;
      }
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
