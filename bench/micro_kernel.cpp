///
/// \file micro_kernel.cpp
/// \brief google-benchmark microbenchmarks of the nonlocal kernel — DP-update
/// throughput vs horizon factor, SD size, influence function and backend —
/// plus a self-contained guard pass that measures the scalar / row_run /
/// simd / avx512 backends head-to-head and writes BENCH_kernel.json.
///
/// The guard is the regression fence for two ROADMAP items. The relative
/// pass ("SIMD stencil kernel") requires the best vectorized backend to
/// sustain >= 1.5x the scalar entry-list throughput at every epsilon factor
/// >= 4. The blocked pass ("Cache-blocked kernels for large stencils")
/// gates absolute MDPS and the blocked-vs-unblocked paired ratio in the
/// large-stencil regime (eps >= 8) on a grid big enough that the input
/// window leaves L1d. The shape sweep times row_run / simd / avx512 on the
/// rects the distributed solver issues (square widths 8-192 and a 24-DP
/// SD's interior and case-1 strips, eps 4 and 8) and gates the best
/// available backend: >= row_run on every shape, and >= 50% of its own
/// 192-wide rate at widths >= 16. The process exits non-zero unless every
/// fence holds.
/// Set NLH_BENCH_KERNEL_JSON to redirect the report (default:
/// ./BENCH_kernel.json).
///

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dist/ownership.hpp"
#include "dist/step_plan.hpp"
#include "dist/tiling.hpp"
#include "nonlocal/grid2d.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "nonlocal/problem.hpp"
#include "nonlocal/stencil.hpp"
#include "support/stopwatch.hpp"

namespace nl = nlh::nonlocal;

static void BM_KernelVsEpsilon(benchmark::State& state) {
  const int eps_factor = static_cast<int>(state.range(0));
  const int n = 64;
  nl::grid2d grid(n, static_cast<double>(eps_factor) / n);
  nl::influence J;
  nl::stencil st(grid, J);
  nl::stencil_plan plan(st);
  auto u = grid.make_field();
  auto out = grid.make_field();
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = 1e-3 * static_cast<double>(i % 101);
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    nl::apply_nonlocal_operator(grid, plan, 1.0, u, out, all);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  state.counters["stencil_size"] = static_cast<double>(st.size());
}
BENCHMARK(BM_KernelVsEpsilon)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Head-to-head backend comparison at a fixed horizon: range(0) is the
/// epsilon factor, range(1) the kernel_backend enum value.
static void BM_KernelBackends(benchmark::State& state) {
  const int eps_factor = static_cast<int>(state.range(0));
  const auto backend = static_cast<nl::kernel_backend>(state.range(1));
  const int n = 96;
  nl::grid2d grid(n, static_cast<double>(eps_factor) / n);
  nl::influence J;
  nl::stencil st(grid, J);
  nl::stencil_plan plan(st);
  auto u = grid.make_field();
  auto out = grid.make_field();
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = 1e-3 * static_cast<double>(i % 101);
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    nl::apply_nonlocal_operator_raw(u.data(), out.data(), grid.stride(), grid.ghost(),
                                    plan, 1.0, all, backend);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  state.SetLabel(nl::kernel_backend_name(backend));
}
BENCHMARK(BM_KernelBackends)
    ->ArgsProduct({{2, 4, 8, 16},
                   {static_cast<long>(nl::kernel_backend::scalar),
                    static_cast<long>(nl::kernel_backend::row_run),
                    static_cast<long>(nl::kernel_backend::simd),
                    static_cast<long>(nl::kernel_backend::avx512)}});

static void BM_KernelVsBlockSize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  nl::grid2d grid(n, 4.0 / n);
  nl::influence J;
  nl::stencil st(grid, J);
  nl::stencil_plan plan(st);
  auto u = grid.make_field();
  auto out = grid.make_field();
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    nl::apply_nonlocal_operator(grid, plan, 1.0, u, out, all);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KernelVsBlockSize)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

static void BM_KernelInfluenceKinds(benchmark::State& state) {
  const auto kind = static_cast<nl::influence_kind>(state.range(0));
  const int n = 64;
  nl::grid2d grid(n, 4.0 / n);
  nl::influence J(kind);
  nl::stencil st(grid, J);
  nl::stencil_plan plan(st);
  auto u = grid.make_field();
  auto out = grid.make_field();
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    nl::apply_nonlocal_operator(grid, plan, 1.0, u, out, all);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KernelInfluenceKinds)->Arg(0)->Arg(1)->Arg(2);

static void BM_ManufacturedSource(benchmark::State& state) {
  const int n = 64;
  nl::grid2d grid(n, 4.0 / n);
  nl::influence J;
  nl::stencil st(grid, J);
  const double c = J.scaling_constant(2, 1.0, grid.epsilon());
  nl::manufactured_problem prob(grid, st, c);
  auto w = prob.exact_field(0.25);
  auto out = grid.make_field();
  const nl::dp_rect all{0, n, 0, n};
  for (auto _ : state) {
    prob.source_into(0.25, w, out, all);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ManufacturedSource);

// -------------------------------------------------------------- guard pass --

namespace {

/// Million DP updates per second of `rect` for one backend on a padded
/// field (`stride`, `ghost`), self-calibrating the repetition count to
/// ~25 ms of measurement.
double measure_rect_mdps(const std::vector<double>& u, std::vector<double>& out,
                         int stride, int ghost, const nl::stencil_plan& plan,
                         const nl::dp_rect& rect, nl::kernel_backend backend) {
  auto apply = [&](int reps) {
    for (int r = 0; r < reps; ++r) {
      nl::apply_nonlocal_operator_raw(u.data(), out.data(), stride, ghost, plan,
                                      1.0, rect, backend);
      benchmark::DoNotOptimize(out.data());
    }
  };
  apply(1);  // warm-up
  int reps = 1;
  double elapsed = 0.0;
  for (;;) {
    nlh::support::stopwatch sw;
    apply(reps);
    elapsed = sw.elapsed_s();
    if (elapsed >= 0.025 || reps > (1 << 24)) break;
    reps *= 2;
  }
  return static_cast<double>(reps) * static_cast<double>(rect.area()) / elapsed / 1e6;
}

/// measure_rect_mdps over the whole interior of `grid`.
double measure_mdps(const nl::grid2d& grid, const nl::stencil_plan& plan,
                    const std::vector<double>& u, std::vector<double>& out,
                    nl::kernel_backend backend) {
  return measure_rect_mdps(u, out, grid.stride(), grid.ghost(), plan,
                           {0, grid.n(), 0, grid.n()}, backend);
}

/// Relative fence (ROADMAP "SIMD stencil kernel"): measure every backend at
/// every epsilon factor on a small grid and require the best vectorized
/// backend to clear 1.5x the scalar entry-list throughput at every factor
/// >= 4. Appends one JSON row per factor to `rows`.
bool run_relative_guard(std::string& rows, double& min_best_speedup_ge4) {
  const int n = 96;
  const int factors[] = {2, 4, 8, 16};
  constexpr double required_speedup = 1.5;

  bool pass = true;
  bool have_ge4 = false;
  min_best_speedup_ge4 = 0.0;

  std::printf("\nkernel guard, relative pass (n=%d, simd %s, avx512 %s):\n", n,
              nl::kernel_simd_available() ? "available" : "unavailable",
              nl::kernel_avx512_available() ? "available" : "unavailable");
  for (const int f : factors) {
    nl::grid2d grid(n, static_cast<double>(f) / n);
    nl::influence J;
    nl::stencil st(grid, J);
    nl::stencil_plan plan(st);
    auto u = grid.make_field();
    auto out = grid.make_field();
    for (std::size_t i = 0; i < u.size(); ++i)
      u[i] = 1e-3 * static_cast<double>(i % 101);

    const double scalar = measure_mdps(grid, plan, u, out, nl::kernel_backend::scalar);
    const double row_run = measure_mdps(grid, plan, u, out, nl::kernel_backend::row_run);
    const double simd = measure_mdps(grid, plan, u, out, nl::kernel_backend::simd);
    const double avx512 = measure_mdps(grid, plan, u, out, nl::kernel_backend::avx512);
    const double best = std::max({row_run, simd, avx512});
    const double best_speedup = best / scalar;

    if (f >= 4) {
      if (!have_ge4 || best_speedup < min_best_speedup_ge4)
        min_best_speedup_ge4 = best_speedup;
      have_ge4 = true;
      if (best_speedup < required_speedup) pass = false;
    }

    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"eps_factor\": %d, \"stencil_size\": %zu, "
                  "\"scalar_mdps\": %.2f, \"row_run_mdps\": %.2f, "
                  "\"simd_mdps\": %.2f, \"avx512_mdps\": %.2f, "
                  "\"row_run_speedup\": %.3f, \"simd_speedup\": %.3f, "
                  "\"avx512_speedup\": %.3f}",
                  f, st.size(), scalar, row_run, simd, avx512,
                  row_run / scalar, simd / scalar, avx512 / scalar);
    if (!rows.empty()) rows += ",\n";
    rows += row;
    std::printf("  eps=%2d  scalar %8.2f  row_run %8.2f (%.2fx)  simd %8.2f "
                "(%.2fx)  avx512 %8.2f (%.2fx) MDP/s\n",
                f, scalar, row_run, row_run / scalar, simd, simd / scalar,
                avx512, avx512 / scalar);
  }
  return pass;
}

/// Absolute fence for the blocked pipeline (ROADMAP "Cache-blocked kernels
/// for large stencils"): at a large grid, pit the best available backend on
/// its default blocked plan against the pre-blocking baseline — the simd
/// backend on an unblocked (single-block) plan — with alternating paired
/// measurements, and gate on the min of the paired ratios plus an absolute
/// MDPS floor. Thresholds are calibrated to the repo's CI hardware (see
/// docs/kernels.md): with AVX-512 live the deep regime (eps=16, input
/// window past L1d) must clear 2x the unblocked simd baseline; eps=8 still
/// fits L1d, is FMA-bound rather than memory-bound, and fences at 1.25x.
/// Without AVX-512 the gate degrades to "blocking is not a regression".
bool run_blocked_guard(std::string& rows) {
  const int n = 768;
  const int factors[] = {8, 16};
  const int pairs = 3;
  const bool avx512 = nl::kernel_avx512_available();
  const nl::kernel_backend best_backend =
      avx512 ? nl::kernel_backend::avx512 : nl::kernel_backend::simd;

  bool pass = true;
  std::printf("\nkernel guard, blocked pass (n=%d, best backend %s):\n", n,
              nl::kernel_backend_name(best_backend));
  for (const int f : factors) {
    const double required_ratio = avx512 ? (f >= 16 ? 2.0 : 1.25) : 0.85;
    const double required_mdps = avx512 ? (f >= 16 ? 15.0 : 40.0)
                                        : (f >= 16 ? 5.0 : 20.0);

    nl::grid2d grid(n, static_cast<double>(f) / n);
    nl::influence J;
    nl::stencil st(grid, J);
    nl::stencil_plan blocked(st);  // default cache-derived geometry
    nl::stencil_plan unblocked(st);
    unblocked.set_tuning(nl::kernel_tuning_unblocked());
    auto u = grid.make_field();
    auto out = grid.make_field();
    for (std::size_t i = 0; i < u.size(); ++i)
      u[i] = 1e-3 * static_cast<double>(i % 101);

    double min_ratio = 0.0;
    double best_blocked = 0.0;
    double best_unblocked = 0.0;
    for (int p = 0; p < pairs; ++p) {
      // Alternate within the pair so drift (thermal, turbo, noisy
      // neighbors) hits both sides instead of biasing the ratio.
      const double ub =
          measure_mdps(grid, unblocked, u, out, nl::kernel_backend::simd);
      const double bl = measure_mdps(grid, blocked, u, out, best_backend);
      const double ratio = bl / ub;
      if (p == 0 || ratio < min_ratio) min_ratio = ratio;
      best_blocked = std::max(best_blocked, bl);
      best_unblocked = std::max(best_unblocked, ub);
    }

    const bool ok = min_ratio >= required_ratio && best_blocked >= required_mdps;
    if (!ok) pass = false;

    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"eps_factor\": %d, \"best_backend\": \"%s\", "
                  "\"col_tile\": %d, \"row_block\": %d, "
                  "\"unblocked_simd_mdps\": %.2f, \"blocked_best_mdps\": %.2f, "
                  "\"blocked_vs_unblocked_min_paired_ratio\": %.3f, "
                  "\"required_ratio\": %.2f, \"required_mdps\": %.1f, "
                  "\"pass\": %s}",
                  f, nl::kernel_backend_name(best_backend),
                  blocked.blocking().col_tile, blocked.blocking().row_block,
                  best_unblocked, best_blocked, min_ratio, required_ratio,
                  required_mdps, ok ? "true" : "false");
    if (!rows.empty()) rows += ",\n";
    rows += row;
    std::printf("  eps=%2d  unblocked simd %8.2f  blocked %s %8.2f  "
                "min paired ratio %.2fx (need %.2fx, floor %.0f MDP/s) %s\n",
                f, best_unblocked, nl::kernel_backend_name(best_backend),
                best_blocked, min_ratio, required_ratio, required_mdps,
                ok ? "ok" : "FAIL");
  }
  return pass;
}

/// Square rect widths of the shape sweep: SD sizes from below one AVX-512
/// chunk up to the 192-wide reference each backend's own rate is judged by.
constexpr int kSweepWidths[] = {8, 16, 24, 48, 96, 192};

/// Backends the shape sweep times, and the static "best available" order
/// an unpinned plan resolves to when no CMake default is configured.
constexpr nl::kernel_backend kSweepBackends[] = {
    nl::kernel_backend::row_run, nl::kernel_backend::simd,
    nl::kernel_backend::avx512};

int best_available_index() {
  if (nl::kernel_avx512_available()) return 2;
  return nl::kernel_simd_available() ? 1 : 0;
}

/// One shape of the sweep: `rect` in the coordinates of a padded field
/// with an `n` x `n` interior.
struct sweep_shape {
  std::string kind;
  int n;
  nl::dp_rect rect;
};

/// The shapes the solver issues at stencil reach `reach`: the square width
/// sweep, plus the case-2 interior and the distinct case-1 strip shapes of
/// the centre SD of a 3x3 tiling of 24-DP SDs, one SD per locality (so
/// every margin of that SD waits on a ghost), in SD-local coordinates on an
/// SD-sized block exactly as dist_solver applies them.
std::vector<sweep_shape> sweep_shapes(int reach) {
  std::vector<sweep_shape> shapes;
  for (const int w : kSweepWidths) shapes.push_back({"width", w, {0, w, 0, w}});
  constexpr int sd_size = 24;
  const nlh::dist::tiling tl(3, 3, sd_size, reach);
  std::vector<int> owner(static_cast<std::size_t>(tl.num_sds()));
  for (std::size_t i = 0; i < owner.size(); ++i) owner[i] = static_cast<int>(i);
  const nlh::dist::ownership_map own(tl, tl.num_sds(), owner);
  const auto plan = nlh::dist::compile_step_plan(tl, own);
  const auto& sd = plan.sds[static_cast<std::size_t>(tl.sd_at(1, 1))];
  shapes.push_back({"sd24_interior", sd_size, sd.split.interior});
  for (const auto& strip : sd.split.remote_strips) {
    const bool seen = std::any_of(shapes.begin(), shapes.end(), [&](const auto& s) {
      return s.kind == "sd24_strip" && s.rect.rows() == strip.rows() &&
             s.rect.cols() == strip.cols();
    });
    if (!seen) shapes.push_back({"sd24_strip", sd_size, strip});
  }
  return shapes;
}

/// Shape fence (ROADMAP "make the kernel fast on the shapes the solver
/// actually issues"): time row_run, simd and avx512 on every sweep shape at
/// eps factors 4 and 8 — the median of three interleaved rounds — and gate
/// the best available backend on two bounds. Gate 1: it is >= row_run on
/// every shape. Gate 2: at widths >= 16 it reaches >= 50% of its own
/// 192-wide rate. Appends one JSON row per (eps, shape) to `rows` and
/// reports each gate's verdict.
void run_shape_guard(std::string& rows, bool& gate1, bool& gate2) {
  constexpr int rounds = 3;
  constexpr double own_rate_floor = 0.5;
  const int best = best_available_index();
  gate1 = true;
  gate2 = true;
  std::printf("\nkernel guard, shape sweep (best backend %s, median of %d):\n",
              nl::kernel_backend_name(kSweepBackends[best]), rounds);
  for (const int f : {4, 8}) {
    const nl::grid2d plan_grid(192, static_cast<double>(f) / 192);
    const nl::stencil st(plan_grid, nl::influence{});
    const nl::stencil_plan plan(st);
    const int ghost = plan.reach();
    const auto shapes = sweep_shapes(ghost);

    std::vector<std::array<double, 3>> mdps(shapes.size());
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      const int stride = shapes[k].n + 2 * ghost;
      std::vector<double> u(static_cast<std::size_t>(stride) * stride);
      std::vector<double> out(u.size(), 0.0);
      for (std::size_t i = 0; i < u.size(); ++i) u[i] = 1e-3 * static_cast<double>(i % 101);
      std::array<std::array<double, rounds>, 3> samples{};
      for (int r = 0; r < rounds; ++r)
        for (int b = 0; b < 3; ++b)
          samples[b][r] = measure_rect_mdps(u, out, stride, ghost, plan,
                                            shapes[k].rect, kSweepBackends[b]);
      for (int b = 0; b < 3; ++b) {
        std::sort(samples[b].begin(), samples[b].end());
        mdps[k][b] = samples[b][rounds / 2];
      }
    }

    double own_192 = 0.0;
    for (std::size_t k = 0; k < shapes.size(); ++k)
      if (shapes[k].kind == "width" && shapes[k].rect.cols() == 192) own_192 = mdps[k][best];
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      const auto& sh = shapes[k];
      const double vs_row_run = mdps[k][best] / mdps[k][0];
      const double vs_own_192 = mdps[k][best] / own_192;
      const bool ok1 = vs_row_run >= 1.0;
      const bool gated2 = sh.kind == "width" && sh.rect.cols() >= 16;
      const bool ok2 = !gated2 || vs_own_192 >= own_rate_floor;
      gate1 = gate1 && ok1;
      gate2 = gate2 && ok2;

      char row[512];
      std::snprintf(row, sizeof(row),
                    "      {\"eps_factor\": %d, \"kind\": \"%s\", \"rows\": %d, "
                    "\"cols\": %d, \"row_run_mdps\": %.2f, \"simd_mdps\": %.2f, "
                    "\"avx512_mdps\": %.2f, \"best_vs_row_run\": %.3f, "
                    "\"best_vs_own_192\": %.3f, \"gate1\": %s, \"gate2\": %s}",
                    f, sh.kind.c_str(), sh.rect.rows(), sh.rect.cols(), mdps[k][0],
                    mdps[k][1], mdps[k][2], vs_row_run, vs_own_192,
                    ok1 ? "true" : "false",
                    gated2 ? (ok2 ? "true" : "false") : "null");
      if (!rows.empty()) rows += ",\n";
      rows += row;
      std::printf("  eps=%d %-13s %3dx%-3d  row_run %7.1f  simd %7.1f  avx512 %7.1f"
                  "  best/row_run %5.2fx%s  best/own192 %4.2f%s\n",
                  f, sh.kind.c_str(), sh.rect.rows(), sh.rect.cols(), mdps[k][0],
                  mdps[k][1], mdps[k][2], vs_row_run, ok1 ? "" : " FAIL",
                  vs_own_192, ok2 ? "" : " FAIL");
    }
  }
}

/// Run the three guard passes and write BENCH_kernel.json. The process
/// exit code is the AND of the fences.
bool run_kernel_guard(const char* path) {
  std::string relative_rows;
  double min_best_speedup_ge4 = 0.0;
  const bool relative_pass = run_relative_guard(relative_rows, min_best_speedup_ge4);

  std::string blocked_rows;
  const bool blocked_pass = run_blocked_guard(blocked_rows);

  std::string shape_rows;
  bool gate1 = false;
  bool gate2 = false;
  run_shape_guard(shape_rows, gate1, gate2);
  const bool pass = relative_pass && blocked_pass && gate1 && gate2;

  std::FILE* fp = std::fopen(path, "w");
  if (!fp) {
    std::fprintf(stderr, "kernel guard: cannot open %s\n", path);
    return false;
  }
  std::fprintf(fp,
               "{\n"
               "  \"bench\": \"micro_kernel\",\n"
               "  \"n\": 96,\n"
               "  \"simd_available\": %s,\n"
               "  \"simd_compiled_level\": %d,\n"
               "  \"avx512_available\": %s,\n"
               "  \"avx512_compiled_level\": %d,\n"
               "  \"required_speedup_at_eps_ge_4\": 1.50,\n"
               "  \"min_best_speedup_at_eps_ge_4\": %.3f,\n"
               "  \"relative_pass\": %s,\n"
               "  \"results\": [\n%s\n  ],\n"
               "  \"blocked_gate\": {\n"
               "    \"n\": 768,\n"
               "    \"paired_measurements\": 3,\n"
               "    \"pass\": %s,\n"
               "    \"results\": [\n%s\n    ]\n"
               "  },\n"
               "  \"shape_sweep\": {\n"
               "    \"best_backend\": \"%s\",\n"
               "    \"rounds\": 3,\n"
               "    \"gate1_best_ge_row_run_pass\": %s,\n"
               "    \"gate2_min_frac_of_own_192_at_width_ge_16\": 0.50,\n"
               "    \"gate2_pass\": %s,\n"
               "    \"results\": [\n%s\n    ]\n"
               "  },\n"
               "  \"pass\": %s\n"
               "}\n",
               nl::kernel_simd_available() ? "true" : "false",
               nl::kernel_simd_compiled_level(),
               nl::kernel_avx512_available() ? "true" : "false",
               nl::kernel_avx512_compiled_level(), min_best_speedup_ge4,
               relative_pass ? "true" : "false", relative_rows.c_str(),
               blocked_pass ? "true" : "false", blocked_rows.c_str(),
               nl::kernel_backend_name(kSweepBackends[best_available_index()]),
               gate1 ? "true" : "false", gate2 ? "true" : "false",
               shape_rows.c_str(), pass ? "true" : "false");
  std::fclose(fp);
  std::printf("  guard %s -> %s\n", pass ? "PASS" : "FAIL", path);
  return pass;
}

}  // namespace

/// Custom main (this target links plain benchmark::benchmark, not
/// benchmark_main): the usual google-benchmark run, then the guard pass.
/// The guard is skipped when a --benchmark_filter excludes the backend
/// comparison, so filtered runs of unrelated benchmarks keep their exit
/// code and don't pay the measurement pass.
int main(int argc, char** argv) {
  bool guard_wanted = true;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const std::string prefix = "--benchmark_filter=";
    if (arg.rfind(prefix, 0) == 0) {
      const std::string filter = arg.substr(prefix.size());
      guard_wanted = filter.empty() || filter == "all" || filter == ".*" ||
                     filter.find("KernelBackends") != std::string::npos;
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!guard_wanted) return 0;
  const char* path = std::getenv("NLH_BENCH_KERNEL_JSON");
  return run_kernel_guard(path ? path : "BENCH_kernel.json") ? 0 : 1;
}
