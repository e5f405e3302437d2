///
/// \file quickstart.cpp
/// \brief Smallest end-to-end use of the library, entirely through the
/// `nlh::api::session` facade: solve the 2-D nonlocal heat equation with
/// the serial and the distributed backend — both advanced concurrently via
/// `run_async` futures — compare the two fields and (for scenarios with an
/// exact solution) the error against it.
///
/// Usage: quickstart [--n 64] [--eps-factor 4] [--steps 20] [--nodes 2]
///                   [--sd-grid 4] [--scenario manufactured] [--backend ""]
///                   [--dt-safety 0.5] [--conductivity 1.0]
///
/// `--scenario` takes any registered scenario (manufactured,
/// gaussian_pulse, lshape, crack, ...); `--backend` pins the kernel
/// backend (scalar, row_run, simd, avx512) for this session.
///

#include <cmath>
#include <iostream>
#include <stdexcept>

#include "api/session.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const nlh::support::cli cli(argc, argv);

  nlh::api::session_options opt;
  opt.scenario = cli.get("scenario", "manufactured");
  opt.n = cli.get_int("n", 64);
  opt.epsilon_factor = cli.get_int("eps-factor", 4);
  opt.num_steps = cli.get_int("steps", 20);
  opt.dt_safety = cli.get_double("dt-safety", 0.5);
  opt.conductivity = cli.get_double("conductivity", 1.0);
  opt.kernel_backend = cli.get("backend", "");
  opt.sd_grid = cli.get_int("sd-grid", 4);
  opt.nodes = cli.get_int("nodes", 2);

  std::cout << "nonlocalheat quickstart: scenario '" << opt.scenario << "', "
            << opt.n << "x" << opt.n << " mesh, epsilon = " << opt.epsilon_factor
            << "h, " << opt.num_steps << " steps, " << opt.nodes
            << " localities\n\n";

  try {
    // Two tenants in one process: the serial reference and the distributed
    // solve on the same mesh (the session decomposes it into SDs,
    // partitions the SD dual graph METIS-style and runs the asynchronous
    // solver over in-process localities — the eight-step chain the
    // examples used to hand-wire). Each session owns its kernel backend.
    opt.mode = nlh::api::execution_mode::serial;
    nlh::api::session serial(opt);
    auto& sref = serial.solver();

    opt.mode = nlh::api::execution_mode::distributed;
    nlh::api::session dist(opt);
    auto& dref = dist.solver();

    // Futures-first stepping: both runs advance concurrently; get() joins
    // and hands back the per-run metrics snapshot.
    auto serial_done = sref.run_async(opt.num_steps);
    auto dist_done = dref.run_async(opt.num_steps);
    serial_done.get();
    dist_done.get();

    const bool has_exact = serial.active_scenario().has_exact();
    nlh::support::table out({"solver", "dt", "max-rel-error", "ghost-KiB"});
    auto add_row = [&](const char* name, nlh::api::solver_handle& h) {
      auto& row = out.row().add(name).add(h.dt(), 3);
      if (has_exact)
        row.add(h.error_vs_exact(), 3);
      else
        row.add("-");
      row.add(static_cast<double>(h.ghost_bytes()) / 1024.0, 4);
    };
    add_row("serial", sref);
    add_row("distributed", dref);
    out.print(std::cout);

    // The headline property: both backends produce the same bits.
    const auto& g = sref.grid();
    const auto sf = sref.field();
    const auto df = dref.field();
    double max_diff = 0.0;
    for (int i = 0; i < g.n(); ++i)
      for (int j = 0; j < g.n(); ++j)
        max_diff = std::max(max_diff, std::abs(sf[g.flat(i, j)] - df[g.flat(i, j)]));
    std::cout << "\nmax |serial - distributed| = " << max_diff
              << (max_diff == 0.0 ? " (bitwise agreement)" : "") << "\n";
    std::cout << "Kernel backend: " << sref.metrics().kernel_backend << "\n";
    return max_diff == 0.0 ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 1;
  }
}
