// Observability tour: run a threaded CG solve and a distributed power
// iteration with tracing on, then export the run three ways — Chrome
// trace JSON (chrome://tracing / ui.perfetto.dev), an ASCII timeline of
// the comm phases (the measured Fig. 4), and Prometheus metrics text.
// The distributed section records into rank lanes (one Chrome process
// group per rank) with flow arrows pairing each send with its receive
// — see DESIGN.md §11.
//
// Usage: tracing [trace.json]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sparse/sliced_ell.hpp"
#include "dist/comm_plan.hpp"
#include "dist/timeline.hpp"
#include "gpusim/kernel_sim.hpp"
#include "matgen/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "solver/cg.hpp"
#include "solver/operator.hpp"

using namespace spmvm;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "trace.json";
  obs::set_tracing(true);  // same effect as SPMVM_TRACE=1 in the env
  obs::set_thread_name("main");

  // 1. A threaded CG solve: solver iterations, kernel calls and thread
  //    pool activity all record spans.
  {
    const auto a = std::make_shared<const Csr<double>>(
        make_poisson2d<double>(96, 96));
    const auto op = solver::make_operator<double>(a, 4);
    std::vector<double> b(static_cast<std::size_t>(a->n_rows), 1.0);
    std::vector<double> x(b.size(), 0.0);
    const auto r = solver::cg(op, std::span<const double>(b),
                              std::span<double>(x), 1e-10, 500);
    std::printf("CG: %d iterations, residual %.3e, converged=%d\n",
                r.iterations, r.residual_norm, r.converged);
  }

  // 2. Distributed power iterations in task mode: the comm thread and
  //    the halo-exchange phases of Fig. 4. Runtime::run stamps each
  //    rank thread's lane (obs::set_rank), so these spans land in
  //    per-rank process groups in the Chrome export and the timeline
  //    below prefixes their actors with "rN/".
  {
    const auto a = make_poisson2d<double>(64, 64);
    const auto part = dist::partition_balanced_nnz(a, 2);
    msg::Runtime::run(2, [&](msg::Comm& comm) {
      obs::set_thread_name("rank " + std::to_string(comm.rank()));
      const auto d = dist::distribute(a, part, comm.rank());
      const index_t row0 = part.begin(comm.rank());
      std::vector<double> x0(
          static_cast<std::size_t>(part.end(comm.rank()) - row0), 1.0);
      dist::run_power_iterations(comm, d, std::span<const double>(x0), 3,
                                 dist::CommScheme::task_mode);
    });
  }

  // 3. One simulated GPU kernel: gpusim spans carry the predicted time
  //    and the measured α of Eq. 1 as span args.
  {
    const auto a = make_poisson2d<double>(64, 64);
    const auto p = SlicedEll<double>::pjds(a);
    const auto res =
        gpusim::simulate(gpusim::DeviceSpec::tesla_c2070(), p, "pjds");
    std::printf("gpusim: pJDS on C2070, predicted %.2f us\n",
                res.seconds * 1e6);
  }

  // Export 1: Chrome trace JSON.
  if (obs::write_chrome_trace(out_path)) {
    std::printf("\nwrote %s — open in chrome://tracing or "
                "https://ui.perfetto.dev\n",
                out_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }

  // Export 2: measured ASCII timeline (top-level + comm spans).
  std::printf("\nmeasured timeline (span depth <= 1):\n%s\n",
              dist::timeline_from_trace(obs::collect(), obs::trace_threads())
                  .render()
                  .c_str());

  // Export 3: Prometheus metrics.
  std::printf("metrics:\n%s", obs::prometheus_text().c_str());
  return 0;
}
