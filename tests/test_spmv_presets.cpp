// The SELL-C-σ presets — ellpack, ellpack_r, sliced_ell, sell_c_sigma and
// pjds — over one storage, one host kernel family and one simulated
// kernel: the storage properties the paper states for ELLPACK and pJDS,
// every kernel bit for bit against a row-order reference in the
// original basis, the simulator's ELLPACK / ELLPACK-R / pJDS numbers,
// and one trace and ledger name per registry format.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "formats/plans.hpp"
#include "formats/registry.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "sparse/footprint.hpp"
#include "sparse/sliced_ell.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm {
namespace {

using testing::random_csr;
using testing::random_vector;

const char* const kPresets[] = {"ellpack", "ellpack_r", "sliced_ell",
                                "sell_c_sigma", "pjds"};

std::size_t at(index_t i) { return static_cast<std::size_t>(i); }

/// Stored position of entry j of (permuted) row i.
template <class T>
std::size_t pos(const SlicedEll<T>& m, index_t i, index_t j) {
  return static_cast<std::size_t>(
      m.slice_ptr[at(i / m.slice_height)] +
      static_cast<offset_t>(j) * m.slice_height + i % m.slice_height);
}

// ---- storage ---------------------------------------------------------------

TEST(SpmvPresetsStorage, EllpackPadsRowsToChunk) {
  const auto a = random_csr<double>(33, 33, 1, 4, 1);
  const auto e = SlicedEll<double>::ellpack(a, 32);
  e.validate();
  EXPECT_EQ(e.n_slices, 1);
  EXPECT_EQ(e.padded_rows, 64);
  EXPECT_EQ(e.slice_width(0), a.max_row_len());
  EXPECT_EQ(e.nnz, a.nnz());
  EXPECT_EQ(SlicedEll<double>::ellpack(random_csr<double>(64, 64, 1, 4, 2), 32)
                .padded_rows,
            64);
}

TEST(SpmvPresetsStorage, EllpackIsTheColumnMajorRectangle) {
  // Fig. 2a: entry (i, j) at j·padded_rows + i, fill zero at column 0.
  const auto a = random_csr<double>(20, 20, 0, 6, 3);
  const auto e = SlicedEll<double>::ellpack(a, 4);
  e.validate();
  const auto rows = at(e.padded_rows);
  for (index_t i = 0; i < e.padded_rows; ++i)
    for (index_t j = 0; j < e.slice_width(0); ++j) {
      const std::size_t k = at(j) * rows + at(i);
      if (i < a.n_rows && j < a.row_len(i)) {
        const auto src = at(a.row_ptr[at(i)] + j);
        EXPECT_EQ(e.val[k], a.val[src]);
        EXPECT_EQ(e.col_idx[k], a.col_idx[src]);
      } else {
        EXPECT_EQ(e.val[k], 0.0);
        EXPECT_EQ(e.col_idx[k], 0);
      }
    }
}

TEST(SpmvPresetsStorage, EllpackFill) {
  // Constant row length: no fill beyond the phantom rows.
  EXPECT_DOUBLE_EQ(
      SlicedEll<double>::ellpack(random_csr<double>(32, 32, 5, 5, 5), 32)
          .fill_fraction(),
      0.0);
  // One full row plus single-entry rows: ELLPACK stores N·N.
  Coo<double> coo(32, 32);
  for (index_t j = 0; j < 32; ++j) coo.add(0, j, 1.0);
  for (index_t i = 1; i < 32; ++i) coo.add(i, 0, 1.0);
  const auto e =
      SlicedEll<double>::ellpack(Csr<double>::from_coo(std::move(coo)), 32);
  EXPECT_EQ(e.stored_entries(), 32 * 32);
  EXPECT_GT(e.fill_fraction(), 0.9);
  // rowmax[] == N^max_nzr everywhere: pJDS stores the same N · width.
  const auto c = random_csr<double>(96, 96, 6, 6, 21);
  EXPECT_EQ(SlicedEll<double>::pjds(c, 32).stored_entries(),
            SlicedEll<double>::ellpack(c, 32).stored_entries());
}

TEST(SpmvPresetsStorage, PjdsPaperToyExample) {
  // Fig. 1 with br = 4: rows sorted by descending length, blocks padded
  // to the block-local maximum.
  Coo<double> coo(8, 8);
  const index_t lens[] = {1, 3, 2, 5, 1, 4, 2, 1};
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < lens[i]; ++j) coo.add(i, j, 1.0 + i);
  const auto p = SlicedEll<double>::pjds(Csr<double>::from_coo(std::move(coo)),
                                         4, PermuteColumns::no);
  p.validate();
  // Sorted lengths 5 4 3 2 | 2 1 1 1 -> block widths 5 and 2.
  EXPECT_EQ(p.slice_width(0), 5);
  EXPECT_EQ(p.slice_width(1), 2);
  EXPECT_EQ(p.stored_entries(), 28);  // ELLPACK would store 8 · 5 = 40
  for (index_t i = 1; i < p.n_rows; ++i)
    EXPECT_GE(p.row_len[at(i - 1)], p.row_len[at(i)]);
}

TEST(SpmvPresetsStorage, PjdsWorstCaseBoundFromPaper) {
  // One full row, single entries elsewhere: pJDS stores at most
  // (br + 1)·N − br entries (Sec. II-A), ELLPACK stores N·N.
  const index_t n = 128, br = 32;
  Coo<double> coo(n, n);
  for (index_t j = 0; j < n; ++j) coo.add(0, j, 1.0);
  for (index_t i = 1; i < n; ++i) coo.add(i, 0, 1.0);
  const auto a = Csr<double>::from_coo(std::move(coo));
  EXPECT_EQ(SlicedEll<double>::ellpack(a, br).stored_entries(),
            static_cast<offset_t>(n) * n);
  EXPECT_LE(SlicedEll<double>::pjds(a, br).stored_entries(),
            static_cast<offset_t>(br + 1) * n - br);
}

TEST(SpmvPresetsStorage, PjdsBlockRowsOneHasNoFillAndLargerNeverStoresLess) {
  const auto a = random_csr<double>(300, 300, 0, 20, 26);
  const auto p1 = SlicedEll<double>::pjds(a, 1);
  EXPECT_EQ(p1.stored_entries(), a.nnz());
  EXPECT_DOUBLE_EQ(p1.fill_fraction(), 0.0);
  offset_t prev = 0;
  for (index_t br : {1, 4, 16, 32, 64}) {
    const auto p = SlicedEll<double>::pjds(a, br);
    p.validate();
    EXPECT_GE(p.stored_entries(), prev) << "br=" << br;
    prev = p.stored_entries();
    for (index_t i = 1; i < p.n_rows; ++i)
      ASSERT_GE(p.row_len[at(i - 1)], p.row_len[at(i)]) << "br=" << br;
  }
}

TEST(SpmvPresetsStorage, PhantomRowsAreEmpty) {
  const auto a = random_csr<double>(37, 37, 1, 6, 29);
  for (const auto& m :
       {SlicedEll<double>::ellpack(a, 16), SlicedEll<double>::pjds(a, 16)}) {
    EXPECT_EQ(m.padded_rows, 48);
    for (index_t i = 37; i < 48; ++i) {
      EXPECT_EQ(m.row_len[at(i)], 0);
      for (index_t j = 0; j < m.slice_width(i / m.slice_height); ++j)
        EXPECT_EQ(m.val[pos(m, i, j)], 0.0);
    }
  }
}

TEST(SpmvPresetsStorage, PermutationFlagRecorded) {
  const auto a = random_csr<double>(40, 40, 1, 5, 27);
  EXPECT_FALSE(SlicedEll<double>::ellpack(a, 8).columns_permuted);
  EXPECT_TRUE(SlicedEll<double>::ellpack(a, 8).perm.is_identity());
  EXPECT_FALSE(
      SlicedEll<double>::pjds(a, 8, PermuteColumns::no).columns_permuted);
  EXPECT_TRUE(
      SlicedEll<double>::pjds(a, 8, PermuteColumns::yes).columns_permuted);
}

TEST(SpmvPresetsStorage, RejectsNonPositiveChunk) {
  const auto a = random_csr<double>(10, 10, 1, 2, 28);
  for (index_t br : {0, -1}) {
    EXPECT_THROW(SlicedEll<double>::ellpack(a, br), Error);
    EXPECT_THROW(SlicedEll<double>::pjds(a, br), Error);
  }
}

TEST(SpmvPresetsStorage, EmptyMatrix) {
  const auto a = Csr<double>::from_coo(Coo<double>(0, 0));
  for (const auto& m :
       {SlicedEll<double>::ellpack(a, 32), SlicedEll<double>::pjds(a, 32)}) {
    m.validate();
    EXPECT_EQ(m.stored_entries(), 0);
    EXPECT_EQ(m.padded_rows, 0);
  }
  for (const char* name : kPresets) {
    const auto plan = formats::registry<double>().build(name, a);
    std::vector<double> x, y;
    plan->spmv(x, y);
    EXPECT_EQ(plan->to_csr().nnz(), 0) << name;
  }
}

// ---- kernels ---------------------------------------------------------------

/// Sequential row-order reference in the original basis: each image row
/// sums its slice's full width from zero, padding included, as every
/// preset's kernel does, and lands in its original row old_of(i).
std::vector<double> row_order(const SlicedEll<double>& m,
                              const std::vector<double>& x) {
  std::vector<double> y(at(m.n_rows));
  for (index_t i = 0; i < m.n_rows; ++i) {
    double acc = 0.0;
    for (index_t j = 0; j < m.slice_width(i / m.slice_height); ++j) {
      const std::size_t k = pos(m, i, j);
      acc += m.val[k] * x[at(m.col_idx[k])];
    }
    y[at(m.perm.old_of(i))] = acc;
  }
  return y;
}

/// Bit equality on the rows `keep` selects (every row by default).
template <class Keep = bool (*)(std::size_t)>
::testing::AssertionResult bit_equal(
    const std::vector<double>& want, const std::vector<double>& got,
    Keep keep = [](std::size_t) { return true; }) {
  if (want.size() != got.size())
    return ::testing::AssertionFailure() << "size " << got.size();
  for (std::size_t i = 0; i < want.size(); ++i)
    if (keep(i) && std::bit_cast<std::uint64_t>(want[i]) !=
                       std::bit_cast<std::uint64_t>(got[i]))
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << got[i] << " != " << want[i];
  return ::testing::AssertionSuccess();
}

Csr<double> kernel_matrix(int which) {
  switch (which) {
    case 0:  // random
      return random_csr<double>(150, 150, 0, 14, 41);
    case 1:  // all rows empty
      return Csr<double>::from_coo(Coo<double>(40, 40));
    case 2: {  // one dense row among short ones
      Coo<double> coo(45, 45);
      for (index_t i = 0; i < 45; ++i) {
        if (i == 11)
          for (index_t j = 0; j < 45; ++j) coo.add(i, j, 0.5 + j);
        else
          coo.add(i, (7 * i) % 45, 1.0 + i);
      }
      return Csr<double>::from_coo(std::move(coo));
    }
    case 3:  // fewer rows than one slice
      return random_csr<double>(20, 20, 0, 9, 42);
    case 4:  // non-square, more rows than columns
      return random_csr<double>(70, 50, 0, 12, 43);
    case 5:  // an ellpack image of several 1024-row tiles
      return random_csr<double>(2500, 2500, 0, 9, 44);
    case 6:  // 0 × 0
      return Csr<double>::from_coo(Coo<double>(0, 0));
    default:  // non-square, more columns than rows, rows up to 40 long
      return random_csr<double>(50, 70, 0, 40, 48);
  }
}

class SpmvPresetsKernels
    : public ::testing::TestWithParam<std::tuple<int, const char*, int>> {};

TEST_P(SpmvPresetsKernels, BitIdenticalToRowOrderReference) {
  // Every preset built with default options works in the original basis:
  // spmv, spmv_axpby and every spmmv column equal the sequential
  // row-order reference, and csr on the rows it sums in the same order.
  const auto& [which, name, chunk] = GetParam();
  const auto a = kernel_matrix(which);
  formats::PlanOptions opts;
  opts.chunk = chunk;
  const auto plan = formats::registry<double>().build(name, a, opts);
  EXPECT_EQ(plan->permutation(), nullptr);
  const auto& m =
      dynamic_cast<const formats::SlicedEllPlan<double>&>(*plan).format();
  EXPECT_FALSE(m.columns_permuted);
  // csr_row_dot sums a row of 32 or more entries in four partial sums.
  const auto csr = formats::registry<double>().build("csr", a);
  const auto short_row = [&a](std::size_t i) {
    return a.row_len(static_cast<index_t>(i)) < 32;
  };
  const auto rows = at(a.n_rows), cols = at(a.n_cols);
  const auto x = random_vector<double>(a.n_cols, 45);
  const auto ref = row_order(m, x);
  std::vector<double> y_csr(rows, -1.0);
  csr->spmv(x, y_csr);
  EXPECT_TRUE(bit_equal(ref, y_csr, short_row)) << "csr";
  const double alpha = 1.5, beta = -0.75;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::string(name) + " threads " + std::to_string(threads));
    std::vector<double> y(rows, -1.0);
    plan->spmv(x, y, threads);
    EXPECT_TRUE(bit_equal(ref, y));

    y = random_vector<double>(a.n_rows, 46);
    std::vector<double> want = y;
    for (std::size_t i = 0; i < rows; ++i) want[i] = beta * y[i] + alpha * ref[i];
    ASSERT_TRUE(plan->spmv_axpby(x, y, alpha, beta, threads));
    EXPECT_TRUE(bit_equal(want, y));

    for (int k : {1, 2, 3, 8, 9}) {
      const auto kk = static_cast<std::size_t>(k);
      const auto xb = random_vector<double>(a.n_cols * k, 47);
      std::vector<double> yb(rows * kk, -1.0), yb_csr(rows * kk, -1.0);
      plan->spmmv(xb, yb, k, threads);
      csr->spmmv(xb, yb_csr, k);
      for (std::size_t v = 0; v < kk; ++v) {
        std::vector<double> xv(cols), yv(rows), yv_csr(rows);
        for (std::size_t i = 0; i < cols; ++i) xv[i] = xb[i * kk + v];
        for (std::size_t i = 0; i < rows; ++i) {
          yv[i] = yb[i * kk + v];
          yv_csr[i] = yb_csr[i * kk + v];
        }
        const auto want_v = row_order(m, xv);
        EXPECT_TRUE(bit_equal(want_v, yv)) << "k " << k << " column " << v;
        EXPECT_TRUE(bit_equal(want_v, yv_csr, short_row))
            << "csr k " << k << " column " << v;
      }
    }
  }
}

TEST(SpmvPresetsBasis, OnlyJdsAndRelabelledPlansReportAPermutation) {
  const auto a = random_csr<double>(150, 150, 0, 14, 41);
  const auto& reg = formats::registry<double>();
  formats::PlanOptions relabel;
  relabel.permute_columns = PermuteColumns::yes;
  for (const char* name : kPresets)
    EXPECT_EQ(reg.build(name, a)->permutation(), nullptr) << name;
  for (const char* name : {"sell_c_sigma", "pjds"}) {
    const auto plan = reg.build(name, a, relabel);
    ASSERT_NE(plan->permutation(), nullptr) << name;
    EXPECT_TRUE(plan->columns_permuted()) << name;
  }
  EXPECT_NE(reg.build("jds", a)->permutation(), nullptr);
  EXPECT_FALSE(reg.build("jds", a)->columns_permuted());
  EXPECT_NE(reg.build("jds", a, relabel)->permutation(), nullptr);
}

std::string kernel_case_name(
    const ::testing::TestParamInfo<std::tuple<int, const char*, int>>& info) {
  static const char* const kNames[] = {
      "Random",    "AllRowsEmpty", "DenseRow", "FewerRowsThanC",
      "NonSquare", "TiledEllpack", "Empty",    "Wide"};
  return std::string(kNames[std::get<0>(info.param)]) + "_" +
         std::get<1>(info.param) + "_C" +
         std::to_string(std::get<2>(info.param));
}

// chunk = C (ELLPACK: the row padding); 32 is the registry default.
INSTANTIATE_TEST_SUITE_P(Matrices, SpmvPresetsKernels,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::ValuesIn(kPresets),
                                            ::testing::Values(1, 8, 32)),
                         kernel_case_name);

TEST(SpmvPresetsShapes, RejectsShortVectors) {
  const auto a = random_csr<double>(10, 10, 1, 2, 14);
  std::vector<double> x(10), y(10), short_x(5), short_y(5);
  for (const char* name : kPresets) {
    SCOPED_TRACE(name);
    const auto plan = formats::registry<double>().build(name, a);
    EXPECT_THROW(plan->spmv(short_x, y), Error);
    EXPECT_THROW(plan->spmv(x, short_y), Error);
    EXPECT_THROW(plan->spmv_axpby(short_x, y, 1.0, 0.0), Error);
    EXPECT_THROW(plan->spmmv(x, y, 2), Error);  // 2 vectors need 20 entries
  }
}

TEST(SpmvPresetsStorage, EllpackImageSpansSeveralTiles) {
  const auto m = SlicedEll<double>::ellpack(kernel_matrix(5), 32);
  EXPECT_EQ(m.n_slices, 1);
  EXPECT_GT(m.slice_height, 2 * 1024);
}

// ---- simulated kernel ------------------------------------------------------

TEST(SpmvPresetsSim, EllpackEllpackRAndPjdsKeepTheirNumbers) {
  // Values of the former Ellpack / Pjds simulations on this matrix: the
  // SELL simulation reproduces them exactly. They were taken with the
  // columns relabelled (the former registry default), so the plans are
  // built that way; ELLPACK and ELLPACK-R do not sort and ignore it.
  struct Want {
    const char* format;
    bool fermi;
    std::uint64_t dram_bytes, warp_steps;
  };
  const Want want[] = {
      {"ellpack", true, 119400, 297},   {"ellpack", false, 239880, 297},
      {"ellpack_r", true, 96540, 289},  {"ellpack_r", false, 208092, 289},
      {"pjds", true, 61436, 154},       {"pjds", false, 146332, 154},
  };
  const auto a = random_csr<double>(333, 333, 0, 27, 2024);
  formats::PlanOptions relabel;
  relabel.permute_columns = PermuteColumns::yes;
  for (const Want& w : want) {
    SCOPED_TRACE(std::string(w.format) + (w.fermi ? " C2070" : " C1060"));
    const auto dev = w.fermi ? gpusim::DeviceSpec::tesla_c2070()
                             : gpusim::DeviceSpec::tesla_c1060();
    const auto r =
        formats::registry<double>().build(w.format, a, relabel)->simulate(dev);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->stats.dram_bytes(), w.dram_bytes);
    EXPECT_EQ(r->stats.warp_steps, w.warp_steps);
    EXPECT_EQ(r->stats.useful_lane_steps, 4495u);
    EXPECT_EQ(r->stats.useful_lane_steps, static_cast<std::uint64_t>(a.nnz()));
  }
  // The default (Listing 2) basis gathers x through the original column
  // labels: the same warp steps, but other RHS transactions on the
  // C1060, which has no L2.
  const auto listing2 = formats::registry<double>().build("pjds", a)->simulate(
      gpusim::DeviceSpec::tesla_c1060());
  EXPECT_EQ(listing2->stats.dram_bytes(), 146652u);
  EXPECT_EQ(listing2->stats.warp_steps, 154u);
}

TEST(SpmvPresetsSim, EllpackRCountsRowLenPlainEllpackDoesNot) {
  const auto a = random_csr<double>(200, 200, 1, 30, 7);
  const auto& reg = formats::registry<double>();
  const auto e = reg.build("ellpack", a), er = reg.build("ellpack_r", a);
  // row_len[] of the 224 padded rows.
  EXPECT_EQ(er->footprint().aux_bytes - e->footprint().aux_bytes,
            static_cast<std::size_t>(224) * sizeof(index_t));
  EXPECT_EQ(e->footprint().stored_entries, er->footprint().stored_entries);
}

// ---- names -----------------------------------------------------------------

/// Ledger keys and span names one call records.
struct Recorded {
  std::set<std::string> host, device, spans;
};

template <class Fn>
Recorded record(Fn&& fn) {
  const bool ledger_was = obs::ledger_enabled();
  const bool tracing_was = obs::tracing_enabled();
  obs::reset_ledger();
  obs::clear_trace();
  obs::set_ledger_enabled(true);
  obs::set_tracing(true);
  fn();
  obs::set_tracing(tracing_was);
  obs::set_ledger_enabled(ledger_was);
  Recorded r;
  for (const obs::EffRecord& e : obs::ledger_snapshot())
    (e.lane == obs::RoofLane::host ? r.host : r.device).insert(e.format);
  for (const obs::TraceEvent& e : obs::collect()) r.spans.insert(e.name);
  obs::reset_ledger();
  obs::clear_trace();
  return r;
}

TEST(SpmvPresetsNames, EveryFormatRecordsItsOwnKeys) {
  const auto a = random_csr<double>(96, 96, 1, 9, 8);
  const std::vector<double> x(96 * 2, 1.0);
  std::vector<double> y(96 * 2);
  formats::PlanOptions opts;
  opts.probe = false;
  std::set<std::string> device_keys;
  std::size_t sim_formats = 0;
  for (const formats::FormatInfo& info : formats::registry<double>().list()) {
    const std::string name = info.name;
    if (name == "auto") continue;
    SCOPED_TRACE(name);
    const auto plan = formats::registry<double>().build(name, a, opts);
    const Recorded host = record([&] {
      plan->spmv(std::span<const double>(x.data(), 96),
                 std::span<double>(y.data(), 96));
    });
    EXPECT_EQ(host.host, std::set<std::string>{name});
    EXPECT_TRUE(host.spans.count("kernel/" + name));
    if (info.native_axpby) {
      EXPECT_TRUE(record([&] {
                    plan->spmv_axpby(std::span<const double>(x.data(), 96),
                                     std::span<double>(y.data(), 96), 1.0, 0.0);
                  }).spans.count("kernel/" + name + "_axpby"));
    }
    if (info.native_spmmv) {
      const Recorded block = record([&] { plan->spmmv(x, y, 2); });
      EXPECT_EQ(block.host, std::set<std::string>{name});
      EXPECT_TRUE(block.spans.count("kernel/" + name + "_block"));
    }
    if (!info.has_sim_kernel) continue;
    ++sim_formats;
    const Recorded sim =
        record([&] { plan->simulate(gpusim::DeviceSpec::tesla_c2070()); });
    ASSERT_EQ(sim.device.size(), 1u);
    device_keys.insert(*sim.device.begin());
    if (name != "csr") {  // csr simulates the CSR-vector kernel
      EXPECT_EQ(sim.device, std::set<std::string>{name});
      EXPECT_TRUE(sim.spans.count("gpusim/" + name));
    }
  }
  // No two formats share a device key (sliced_ell and sell_c_sigma used
  // to merge into "sell").
  EXPECT_EQ(device_keys.size(), sim_formats);
  EXPECT_EQ(sim_formats, 6u);  // csr and the five presets
}

}  // namespace
}  // namespace spmvm
