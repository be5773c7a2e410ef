// Shape tests for the Fig. 4/5 machinery: the cluster model must
// reproduce the qualitative results of the paper's Sec. III-B.
#include "dist/cluster_model.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "formats/registry.hpp"
#include "matgen/generators.hpp"
#include "matgen/suite.hpp"
#include "test_helpers.hpp"

namespace spmvm::dist {
namespace {

double gflops_of(const std::vector<ScalingPoint>& pts, int nodes,
                 CommScheme scheme) {
  for (const auto& p : pts)
    if (p.nodes == nodes && p.scheme == scheme) return p.gflops;
  ADD_FAILURE() << "missing point";
  return 0.0;
}

const std::vector<CommScheme> kAllSchemes = {
    CommScheme::vector_mode, CommScheme::naive_overlap, CommScheme::task_mode};

TEST(NodeTiming, ComponentsArePositive) {
  const auto a = spmvm::testing::random_csr<double>(2048, 2048, 20, 40, 1);
  const auto d = distribute(a, partition_uniform(2048, 4), 1);
  const auto t = node_timing(ClusterSpec::dirac(), d);
  EXPECT_GT(t.t_local, 0.0);
  EXPECT_GT(t.t_nonlocal, 0.0);
  EXPECT_GT(t.t_comm, 0.0);
  EXPECT_GT(t.t_down, 0.0);
  EXPECT_GT(t.t_up, 0.0);
  EXPECT_GT(t.n_peers, 0);
  EXPECT_LT(t.t_full, t.t_local + t.t_nonlocal);
}

TEST(NodeTiming, TaskModeNeverSlowerThanVector) {
  const auto c = ClusterSpec::dirac();
  const auto a = spmvm::testing::random_csr<double>(4096, 4096, 30, 60, 2);
  for (int r = 0; r < 4; ++r) {
    const auto d = distribute(a, partition_uniform(4096, 4), r);
    const auto t = node_timing(c, d);
    EXPECT_LE(t.iteration_seconds(c, CommScheme::task_mode),
              t.iteration_seconds(c, CommScheme::vector_mode) +
                  c.thread_sync_s);
  }
}

TEST(NodeTiming, NoCommunicationMeansSchemesTie) {
  const auto c = ClusterSpec::dirac();
  const auto a = spmvm::testing::random_csr<double>(1024, 1024, 8, 16, 3);
  const auto d = distribute(a, partition_uniform(1024, 1), 0);
  const auto t = node_timing(c, d);
  EXPECT_EQ(t.n_peers, 0);
  EXPECT_DOUBLE_EQ(t.t_comm, 0.0);
  EXPECT_NEAR(t.iteration_seconds(c, CommScheme::vector_mode),
              t.iteration_seconds(c, CommScheme::task_mode),
              c.thread_sync_s + 1e-9);
}

TEST(NodeTiming, PjdsKeepsListing2Basis) {
  // The model runs pJDS as the paper's kernel benchmark does (Listing 2):
  // rows permuted, RHS and col_idx[] in the original basis, chunk = warp
  // size. With the L2 scaled like the matrix, the RHS exceeds it, so the
  // symmetric permutation (the PermuteColumns::yes opt-in) times
  // differently.
  const double scale = 64;
  const auto a = make_named("sAMG", scale).matrix;
  ClusterSpec c = ClusterSpec::dirac();
  c.device.l2_bytes =
      static_cast<std::size_t>(static_cast<double>(c.device.l2_bytes) / scale);
  c.matrix_format = "pjds";
  const auto d = distribute(a, partition_balanced_nnz(a, 4), 1);
  ASSERT_GT(d.nonlocal.nnz(), 0);
  const auto t = node_timing(c, d);

  formats::PlanOptions listing2;
  listing2.chunk = c.device.warp_size;
  gpusim::SimOptions sim;
  sim.ecc = c.ecc;
  const auto seconds = [&](const Csr<double>& part,
                           const formats::PlanOptions& opts) {
    return formats::registry<double>()
        .build("pjds", part, opts)
        ->simulate(c.device, sim)
        .value()
        .seconds;
  };
  EXPECT_EQ(t.t_local, seconds(d.local, listing2));
  EXPECT_EQ(t.t_nonlocal, seconds(d.nonlocal, listing2));

  ASSERT_GT(static_cast<std::size_t>(d.local.n_cols) * sizeof(double),
            c.device.l2_bytes);
  formats::PlanOptions symmetric = listing2;
  symmetric.permute_columns = PermuteColumns::yes;
  EXPECT_NE(t.t_local, seconds(d.local, symmetric));
}

TEST(NodeTiming, RejectsFormatsWithoutSimKernel) {
  const auto a = spmvm::testing::random_csr<double>(1024, 1024, 8, 16, 4);
  const auto d = distribute(a, partition_uniform(1024, 2), 0);
  ClusterSpec c = ClusterSpec::dirac();
  const auto expect_rejected = [](const std::function<void()>& run,
                                  const std::string& name) {
    try {
      run();
      ADD_FAILURE() << "format '" << name << "' was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + name + "'"),
                std::string::npos)
          << e.what();
    }
  };
  for (const char* name : {"jds", "bellpack", "auto", "no_such_format"}) {
    c.matrix_format = name;
    expect_rejected([&] { node_timing(c, d); }, name);
    expect_rejected(
        [&] { strong_scaling(c, a, {2}, {CommScheme::task_mode}); }, name);
    expect_rejected([&] { device_bytes(c, a); }, name);
  }
}

TEST(ClusterFormat, PjdsOptionChangesDeviceBytes) {
  const auto a = spmvm::testing::random_csr<double>(1024, 1024, 1, 40, 8);
  ClusterSpec c = ClusterSpec::dirac();
  const std::size_t ellpack_r = device_bytes(c, a);
  c.matrix_format = "pjds";
  EXPECT_LT(device_bytes(c, a), ellpack_r);
}

TEST(StrongScaling, TaskModeWinsOnCommBoundMatrix) {
  // DLR1-like regime with communication and computation both relevant:
  // task mode must beat the vector modes (Fig. 5a). Once communication
  // dominates completely the schemes converge, so task is only required
  // not to fall below naive by more than its thread-sync overhead.
  GenConfig cfg;
  cfg.scale = 16;
  const auto a = make_dlr1<double>(cfg);
  const auto pts =
      strong_scaling(ClusterSpec::dirac(), a, {4, 8}, kAllSchemes);
  for (int nodes : {4, 8}) {
    const double task = gflops_of(pts, nodes, CommScheme::task_mode);
    const double naive = gflops_of(pts, nodes, CommScheme::naive_overlap);
    const double vec = gflops_of(pts, nodes, CommScheme::vector_mode);
    EXPECT_GT(task, naive) << nodes;
    EXPECT_GE(naive, vec * 0.98) << nodes;
  }
}

TEST(StrongScaling, ThroughputGrowsWithNodesInitially) {
  GenConfig cfg;
  cfg.scale = 32;
  const auto a = make_dlr1<double>(cfg);
  const auto pts = strong_scaling(ClusterSpec::dirac(), a, {1, 2, 4},
                                  {CommScheme::task_mode});
  EXPECT_GT(gflops_of(pts, 2, CommScheme::task_mode),
            gflops_of(pts, 1, CommScheme::task_mode));
  EXPECT_GT(gflops_of(pts, 4, CommScheme::task_mode),
            gflops_of(pts, 2, CommScheme::task_mode));
}

TEST(StrongScaling, ParallelEfficiencyDropsWithScale) {
  // The per-GPU subproblem shrinks: efficiency at many nodes is below
  // efficiency at few nodes (the Fig. 5a performance breakdown).
  GenConfig cfg;
  cfg.scale = 32;
  const auto a = make_dlr1<double>(cfg);
  const auto pts = strong_scaling(ClusterSpec::dirac(), a, {1, 4, 16},
                                  {CommScheme::task_mode});
  const double g1 = gflops_of(pts, 1, CommScheme::task_mode);
  const double e4 = gflops_of(pts, 4, CommScheme::task_mode) / (4 * g1);
  const double e16 = gflops_of(pts, 16, CommScheme::task_mode) / (16 * g1);
  EXPECT_LT(e16, e4);
}

TEST(StrongScaling, SchemesConvergeAtExtremeScaling) {
  // Paper: "At larger node counts the performance of all variants starts
  // to converge" — the gap between task and vector mode shrinks relative
  // to total time as the kernels shrink.
  GenConfig cfg;
  cfg.scale = 64;
  const auto a = make_dlr1<double>(cfg);
  const auto pts =
      strong_scaling(ClusterSpec::dirac(), a, {2, 16}, kAllSchemes);
  const double gap_small =
      gflops_of(pts, 2, CommScheme::task_mode) /
      gflops_of(pts, 2, CommScheme::vector_mode);
  const double gap_large =
      gflops_of(pts, 16, CommScheme::task_mode) /
      gflops_of(pts, 16, CommScheme::vector_mode);
  EXPECT_GT(gap_small, 1.0);
  EXPECT_GT(gap_large, 1.0);
}

TEST(StrongScaling, CapacitySkipsReportedAsZero) {
  // The UHBR-on-C2050 effect of Fig. 5b: points whose per-node matrix
  // exceeds device memory are reported with zero throughput.
  ClusterSpec c = ClusterSpec::dirac();
  c.device.dram_bytes = 1;  // nothing fits
  const auto a = spmvm::testing::random_csr<double>(512, 512, 4, 8, 5);
  const auto pts = strong_scaling(c, a, {2}, {CommScheme::task_mode});
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].gflops, 0.0);
}

TEST(Timeline, TaskModeTimelineHasAllActors) {
  const auto a = spmvm::testing::random_csr<double>(2048, 2048, 20, 40, 6);
  const auto d = distribute(a, partition_uniform(2048, 4), 1);
  const auto c = ClusterSpec::dirac();
  const auto tl = task_mode_timeline(c, node_timing(c, d));
  const std::string out = tl.render();
  EXPECT_NE(out.find("thread 0"), std::string::npos);
  EXPECT_NE(out.find("thread 1"), std::string::npos);
  EXPECT_NE(out.find("GPGPU"), std::string::npos);
  EXPECT_GT(tl.duration(), 0.0);
}

TEST(Timeline, RenderRejectsTinyWidth) {
  Timeline tl;
  tl.add("a", "x", 0.0, 1.0);
  EXPECT_THROW(tl.render(4), Error);
}

TEST(Timeline, EventsValidated) {
  Timeline tl;
  EXPECT_THROW(tl.add("a", "x", 2.0, 1.0), Error);
  EXPECT_THROW(tl.add("a", "x", -1.0, 1.0), Error);
}

}  // namespace
}  // namespace spmvm::dist
