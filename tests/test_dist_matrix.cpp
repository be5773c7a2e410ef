#include "dist/dist_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "matgen/generators.hpp"
#include "matgen/suite.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm::dist {
namespace {

/// distribute() as it was first written: every owned entry through COO
/// and Csr::from_coo, halo slots through a std::map, send lists sorted.
/// The oracle the linear passes must reproduce field by field on input
/// whose columns strictly increase within each row.
template <class T>
DistMatrix<T> distribute_via_coo(const Csr<T>& a, const RowPartition& part,
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

template <class T>
auto bits(const AlignedVector<T>& v) {
  using U = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
  std::vector<U> out;
  for (const T x : v) out.push_back(std::bit_cast<U>(x));
  return out;
}

template <class T>
void expect_same_part(const Csr<T>& got, const Csr<T>& want,
                      const char* part) {
  SCOPED_TRACE(part);
  EXPECT_EQ(got.n_rows, want.n_rows);
  EXPECT_EQ(got.n_cols, want.n_cols);
  EXPECT_TRUE(std::ranges::equal(got.row_ptr, want.row_ptr));
  EXPECT_TRUE(std::ranges::equal(got.col_idx, want.col_idx));
  EXPECT_EQ(bits(got.val), bits(want.val));
}

/// Every field of the two views, values compared bit for bit.
template <class T>
void expect_same_view(const DistMatrix<T>& got, const DistMatrix<T>& want) {
  EXPECT_EQ(got.rank, want.rank);
  EXPECT_EQ(got.n_parts, want.n_parts);
  EXPECT_EQ(got.partition.offsets(), want.partition.offsets());
  EXPECT_EQ(got.n_local, want.n_local);
  EXPECT_EQ(got.n_halo, want.n_halo);
  expect_same_part(got.local, want.local, "local");
  expect_same_part(got.nonlocal, want.nonlocal, "nonlocal");
  EXPECT_EQ(got.halo_global, want.halo_global);
  EXPECT_EQ(got.recv_offset, want.recv_offset);
  EXPECT_EQ(got.recv_count, want.recv_count);
  EXPECT_EQ(got.send_idx, want.send_idx);
  EXPECT_EQ(got.format_name, want.format_name);
  EXPECT_EQ(got.local_plan == nullptr, want.local_plan == nullptr);
  EXPECT_EQ(got.nonlocal_plan == nullptr, want.nonlocal_plan == nullptr);
}

template <class T>
void expect_matches_oracle(const Csr<T>& a, const RowPartition& part) {
  for (int r = 0; r < part.n_parts(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r) + " of " +
                 std::to_string(part.n_parts()));
    const auto d = distribute(a, part, r);
    d.validate();
    expect_same_view(d, distribute_via_coo(a, part, r));
  }
}

/// Square CSR from explicit rows (columns as given, values 1, 2, 3, ...).
Csr<double> csr_of_rows(const std::vector<std::vector<index_t>>& rows) {
  Csr<double> a;
  a.n_rows = a.n_cols = static_cast<index_t>(rows.size());
  a.row_ptr.push_back(0);
  for (const auto& row : rows) {
    for (const index_t c : row) {
      a.col_idx.push_back(c);
      a.val.push_back(static_cast<double>(a.val.size() + 1));
    }
    a.row_ptr.push_back(static_cast<offset_t>(a.col_idx.size()));
  }
  return a;
}

/// Rows {0}, {1}, ..., {n - 1}: no rank needs a halo.
std::vector<std::vector<index_t>> diagonal_rows(index_t n) {
  std::vector<std::vector<index_t>> rows(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) rows[static_cast<std::size_t>(i)] = {i};
  return rows;
}

struct OracleCase {
  std::string name;
  Csr<double> matrix;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  const std::pair<index_t, index_t> lens[] = {{0, 3}, {1, 12}, {20, 60}};
  for (const auto& [lo, hi] : lens)
    for (std::uint64_t seed : {11u, 12u})
      cases.push_back({"random " + std::to_string(lo) + "-" +
                           std::to_string(hi) + " seed " +
                           std::to_string(seed),
                       testing::random_csr<double>(97, 97, lo, hi, seed)});
  cases.push_back({"banded", make_banded<double>(120, 5)});
  cases.push_back({"HMEp", make_named("HMEp", 1024).matrix});
  cases.push_back({"sAMG", make_named("sAMG", 1024).matrix});
  cases.push_back({"1x1", csr_of_rows({{0}})});
  cases.push_back({"all rows empty", csr_of_rows({{}, {}, {}, {}, {}})});
  auto rows = diagonal_rows(40);
  rows[17].clear();
  for (index_t c = 0; c < 40; ++c) rows[17].push_back(c);
  cases.push_back({"one dense row", csr_of_rows(rows)});
  // Row 0 reads only the last columns, which no partition into two or
  // more blocks gives to rank 0.
  rows = diagonal_rows(30);
  rows[0] = {27, 28, 29};
  cases.push_back({"row with only non-local entries", csr_of_rows(rows)});
  cases.push_back({"diagonal only", csr_of_rows(diagonal_rows(25))});
  return cases;
}

TEST(DistributeOracle, MatchesCooBuildOnEveryRankAndPartition) {
  for (const auto& c : oracle_cases()) {
    SCOPED_TRACE(c.name);
    c.matrix.validate();
    for (int n_ranks : {1, 2, 3, 7}) {
      expect_matches_oracle(c.matrix, partition_uniform(c.matrix.n_rows,
                                                        n_ranks));
      expect_matches_oracle(c.matrix,
                            partition_balanced_nnz(c.matrix, n_ranks));
    }
  }
}

TEST(DistributeOracle, DiagonalOnlyHasNoHalo) {
  const auto a = csr_of_rows(diagonal_rows(25));
  for (int r = 0; r < 7; ++r) {
    const auto d = distribute(a, partition_uniform(25, 7), r);
    EXPECT_EQ(d.n_halo, 0);
    EXPECT_EQ(d.send_total(), 0);
    EXPECT_EQ(d.nonlocal_plan, nullptr);
  }
}

TEST(DistributeOracle, PartitionsWithEmptyBlocks) {
  const auto small = testing::random_csr<double>(3, 3, 1, 3, 14);
  expect_matches_oracle(small, partition_uniform(3, 7));
  const auto a = testing::random_csr<double>(10, 10, 1, 6, 15);
  expect_matches_oracle(a, RowPartition({0, 5, 5, 10}));
  expect_matches_oracle(a, RowPartition({0, 0, 10, 10}));
}

TEST(DistributeOracle, SinglePrecisionMatchesToo) {
  const auto a = testing::random_csr<float>(80, 80, 0, 9, 16);
  for (int n_ranks : {1, 2, 3, 7})
    expect_matches_oracle(a, partition_uniform(80, n_ranks));
}

TEST(DistMatrix, RejectsRowWithUnsortedColumns) {
  // Row 1 holds columns 3 then 0; every other row is fine.
  const auto a = csr_of_rows({{0, 1}, {3, 0}, {2}, {3}});
  const auto part = partition_uniform(4, 2);
  try {
    distribute(a, part, 0);
    ADD_FAILURE() << "unsorted row accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(distribute(a, part, 1));  // rank 1 owns only valid rows
}

TEST(DistMatrix, RejectsRowWithDuplicateColumn) {
  const auto a = csr_of_rows({{0}, {1}, {2, 3}, {1, 3, 3}});
  const auto part = partition_uniform(4, 2);
  try {
    distribute(a, part, 1);
    ADD_FAILURE() << "duplicate column accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("row 3"), std::string::npos)
        << e.what();
  }
}

TEST(DistMatrix, RejectsColumnOutOfRange) {
  EXPECT_THROW(distribute(csr_of_rows({{0}, {1, 2}}), partition_uniform(2, 2),
                          1),
               Error);
  EXPECT_THROW(distribute(csr_of_rows({{-1, 0}, {1}}), partition_uniform(2, 1),
                          0),
               Error);
}

TEST(DistMatrix, SplitCoversAllEntries) {
  const auto a = testing::random_csr<double>(120, 120, 0, 10, 1);
  const auto part = partition_uniform(120, 4);
  offset_t total = 0;
  for (int r = 0; r < 4; ++r) {
    const auto d = distribute(a, part, r);
    d.validate();
    total += d.local.nnz() + d.nonlocal.nnz();
  }
  EXPECT_EQ(total, a.nnz());
}

TEST(DistMatrix, LocalPartIsDiagonalBlock) {
  const auto a = testing::random_csr<double>(60, 60, 1, 8, 2);
  const auto part = partition_uniform(60, 3);
  for (int r = 0; r < 3; ++r) {
    const auto d = distribute(a, part, r);
    const index_t row0 = part.begin(r);
    // Every local entry must correspond to an owned column of `a`.
    for (index_t i = 0; i < d.n_local; ++i)
      for (offset_t k = d.local.row_ptr[static_cast<std::size_t>(i)];
           k < d.local.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const index_t c =
            d.local.col_idx[static_cast<std::size_t>(k)] + row0;
        EXPECT_EQ(part.owner(c), r);
      }
  }
}

TEST(DistMatrix, HaloGroupsAreSortedAndOwnedRemotely) {
  const auto a = testing::random_csr<double>(200, 200, 2, 12, 3);
  const auto part = partition_uniform(200, 5);
  const auto d = distribute(a, part, 2);
  d.validate();
  for (index_t h = 1; h < d.n_halo; ++h)
    EXPECT_LT(d.halo_global[static_cast<std::size_t>(h) - 1],
              d.halo_global[static_cast<std::size_t>(h)]);
}

TEST(DistMatrix, SendListsMirrorRecvLists) {
  // What rank r sends to p is exactly what p receives from r.
  const auto a = testing::random_csr<double>(150, 150, 1, 9, 4);
  const auto part = partition_uniform(150, 3);
  std::vector<DistMatrix<double>> views;
  for (int r = 0; r < 3; ++r) views.push_back(distribute(a, part, r));
  for (int r = 0; r < 3; ++r)
    for (int p = 0; p < 3; ++p) {
      if (r == p) continue;
      const auto& send = views[static_cast<std::size_t>(r)]
                             .send_idx[static_cast<std::size_t>(p)];
      const auto& dp = views[static_cast<std::size_t>(p)];
      const auto off = dp.recv_offset[static_cast<std::size_t>(r)];
      const auto cnt = dp.recv_count[static_cast<std::size_t>(r)];
      ASSERT_EQ(static_cast<index_t>(send.size()), cnt);
      for (index_t k = 0; k < cnt; ++k)
        EXPECT_EQ(send[static_cast<std::size_t>(k)] + part.begin(r),
                  dp.halo_global[static_cast<std::size_t>(off + k)]);
    }
}

TEST(DistMatrix, BandedMatrixTalksOnlyToNeighbors) {
  const auto a = make_banded<double>(400, 3);
  const auto part = partition_uniform(400, 8);
  for (int r = 0; r < 8; ++r) {
    const auto d = distribute(a, part, r);
    const int expected = (r == 0 || r == 7) ? 1 : 2;
    EXPECT_EQ(d.n_peers(), expected) << "rank " << r;
    // Narrow band: halo is at most `band` entries per side.
    EXPECT_LE(d.n_halo, 6);
  }
}

TEST(DistMatrix, SinglePartHasNoCommunication) {
  const auto a = testing::random_csr<double>(50, 50, 1, 6, 5);
  const auto d = distribute(a, partition_uniform(50, 1), 0);
  d.validate();
  EXPECT_EQ(d.n_halo, 0);
  EXPECT_EQ(d.n_peers(), 0);
  EXPECT_EQ(d.local.nnz(), a.nnz());
  EXPECT_EQ(d.nonlocal.nnz(), 0);
}

TEST(DistMatrix, RejectsNonSquare) {
  const auto a = testing::random_csr<double>(20, 30, 1, 3, 6);
  EXPECT_THROW(distribute(a, partition_uniform(20, 2), 0), Error);
}

TEST(DistMatrix, RejectsBadRank) {
  const auto a = testing::random_csr<double>(20, 20, 1, 3, 7);
  EXPECT_THROW(distribute(a, partition_uniform(20, 2), 2), Error);
}

}  // namespace
}  // namespace spmvm::dist
