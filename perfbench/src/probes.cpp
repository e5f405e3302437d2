///
/// \file probes.cpp
/// \brief Outside-in layer probes: each times public calls of one layer at
/// the exact shapes a workload issues, so a layer change shows here before
/// (or without) moving an end-to-end number.

#include <atomic>
#include <memory>
#include <string>

#include "amt/async.hpp"
#include "amt/thread_pool.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "bench.hpp"
#include "dist/sd_block.hpp"
#include "dist/tiling.hpp"
#include "net/serializer.hpp"
#include "nonlocal/grid2d.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "nonlocal/stencil.hpp"
#include "partition/mesh_dual.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"

namespace perfbench {
namespace {

// Shapes of the workloads (solve.cpp / service.cpp).
constexpr int kN = 384;        ///< solve workloads' mesh
constexpr int kEps = 4;        ///< epsilon factor = ghost width in DPs
constexpr int kSdGrid = 16;    ///< 24-DP SDs
constexpr int kSdSize = kN / kSdGrid;
constexpr int kLocalities = 2; ///< dist_pulse_sd24
constexpr int kThreadsPerLocality = 2;

std::atomic<std::size_t> g_sink{0};

/// Repeat `fn` (one sample per call) until `budget_s` has passed and at
/// least `min_reps` samples exist; returns the samples.
template <class F>
std::vector<double> sample(double budget_s, int min_reps, F&& fn) {
  std::vector<double> out;
  const auto t0 = clock_type::now();
  while (static_cast<int>(out.size()) < min_reps || seconds_since(t0) < budget_s) {
    const auto ts = clock_type::now();
    fn();
    out.push_back(seconds_since(ts));
  }
  return out;
}

/// The owner vector of the dist_pulse_sd24 partition, from the session's
/// own partitioning chain (no solver is built).
std::vector<int> pulse_partition() {
  nlh::api::session_options o;
  o.scenario = "gaussian_pulse";
  o.mode = nlh::api::execution_mode::distributed;
  o.n = kN;
  o.epsilon_factor = kEps;
  o.sd_grid = kSdGrid;
  o.nodes = kLocalities;
  o.threads_per_locality = kThreadsPerLocality;
  nlh::api::session s(o);
  return s.partition();
}

void probe_small_session(std::map<std::string, double>& out) {
  // The svc_mmpp_open job shape.
  nlh::api::session_options o;
  o.scenario = "gaussian_pulse";
  o.n = 24;
  o.epsilon_factor = 2;
  const auto t = sample(0.3, 50, [&] {
    nlh::api::session s(o);
    s.solver();
  });
  out["api.small_session_build_us"] = median(t) * 1e6;
}

void probe_scenario_source(std::map<std::string, double>& out) {
  // serial_manufactured evaluates the source over the whole interior once
  // per step: fill_aux (the exact solution) then source_into.
  const nlh::nonlocal::grid2d grid(kN, static_cast<double>(kEps) / kN);
  const nlh::nonlocal::influence J;
  const nlh::nonlocal::stencil st(grid, J);
  const nlh::nonlocal::stencil_plan plan(st);
  const nlh::api::scenario_context ctx{&grid, &plan,
                                       J.scaling_constant(2, 1.0, grid.epsilon())};
  const nlh::api::manufactured_scenario scn;
  auto aux = grid.make_field();
  auto b = grid.make_field();
  const nlh::nonlocal::dp_rect all{0, kN, 0, kN};
  int k = 0;
  const auto t = sample(0.5, 10, [&] {
    const double time = 1e-4 * ++k;
    scn.fill_aux(ctx, time, all, aux);
    scn.source_into(ctx, time, aux, all, b);
  });
  out["scenario.source_s_per_step"] = median(t);
}

void probe_kernel(std::map<std::string, double>& out, const std::vector<int>& owner) {
  const nlh::nonlocal::grid2d grid(kN, static_cast<double>(kEps) / kN);
  const nlh::nonlocal::influence J;
  const nlh::nonlocal::stencil st(grid, J);
  nlh::nonlocal::stencil_plan plan(st);
  plan.set_backend(nlh::nonlocal::kernel_default_backend());
  const double c = J.scaling_constant(2, 1.0, grid.epsilon());
  rng g(7);

  // Rect mix of the 24-DP SDs: each SD's case-2 interior plus its fine
  // case-1 strips under the workload's partition, each applied on the SD's
  // own padded block (stride sd_size + 2 * ghost), as the solver does.
  const nlh::dist::tiling tl(kSdGrid, kSdGrid, kSdSize, grid.ghost());
  const int stride = kSdSize + 2 * grid.ghost();
  struct sd_work {
    std::vector<double> u, lu;
    std::vector<nlh::nonlocal::dp_rect> rects;
  };
  std::vector<sd_work> sds(static_cast<std::size_t>(tl.num_sds()));
  long long dps = 0;
  double bytes = 0.0;
  for (int sd = 0; sd < tl.num_sds(); ++sd) {
    auto& w = sds[static_cast<std::size_t>(sd)];
    w.u.resize(static_cast<std::size_t>(stride) * stride);
    for (auto& v : w.u) v = g.uniform();
    w.lu.assign(w.u.size(), 0.0);
    const auto split = nlh::dist::compute_case_split(tl, sd, owner);
    if (!split.interior.empty()) w.rects.push_back(split.interior);
    for (const auto& s : nlh::dist::compute_fine_strips(tl, sd, owner)) w.rects.push_back(s.rect);
    for (const auto& r : w.rects) {
      dps += r.area();
      // Computed, not measured: the input window once plus the output once.
      bytes += 8.0 * (static_cast<double>(r.rows() + 2 * grid.ghost()) *
                          (r.cols() + 2 * grid.ghost()) +
                      static_cast<double>(r.area()));
    }
  }
  const auto rect_t = sample(0.6, 10, [&] {
    for (auto& w : sds)
      for (const auto& r : w.rects)
        nlh::nonlocal::apply_nonlocal_operator_raw(w.u.data(), w.lu.data(), stride,
                                                   grid.ghost(), plan, c, r);
  });
  const double rect_mdps = static_cast<double>(dps) / median(rect_t) / 1e6;
  out["kernel.rect_mdps"] = rect_mdps;
  out["kernel.gflops_computed"] = rect_mdps * 1e6 * 2.0 * static_cast<double>(plan.size()) / 1e9;
  out["kernel.bytes_per_dp_computed"] = bytes / static_cast<double>(dps);

  // Full-grid sweep: the shape serial_manufactured issues.
  auto u = grid.make_field();
  auto lu = grid.make_field();
  for (auto& v : u) v = g.uniform();
  const nlh::nonlocal::dp_rect all{0, kN, 0, kN};
  const auto grid_t = sample(0.6, 10, [&] {
    nlh::nonlocal::apply_nonlocal_operator_raw(u.data(), lu.data(), grid.stride(),
                                               grid.ghost(), plan, c, all);
  });
  out["kernel.grid_mdps"] = static_cast<double>(kN) * kN / median(grid_t) / 1e6;
}

void probe_pack(std::map<std::string, double>& out) {
  // One side strip (sd_size x ghost) packed and serialized the way the
  // exchange path does: pack_into pooled scratch, archive_writer over a
  // recycled buffer.
  const nlh::dist::tiling tl(kSdGrid, kSdGrid, kSdSize, kEps);
  const int sd = tl.sd_at(kSdGrid / 2, kSdGrid / 2);
  nlh::dist::sd_block blk(tl, sd);
  rng g(11);
  for (auto& v : blk.u()) v = g.uniform();
  std::vector<double> strip;
  nlh::net::byte_buffer buf;
  constexpr int kBatch = 256;
  const nlh::dist::direction sides[] = {
      nlh::dist::direction::north, nlh::dist::direction::east,
      nlh::dist::direction::south, nlh::dist::direction::west};
  const auto t = sample(0.3, 20, [&] {
    for (int i = 0; i < kBatch; ++i) {
      blk.pack_into(tl, sides[i % 4], strip);
      nlh::net::archive_writer w(std::move(buf));
      w.write(strip);
      buf = w.take();
    }
  });
  g_sink.store(buf.size(), std::memory_order_relaxed);  // keep the work observable
  out["net.pack_us_per_strip"] = median(t) / kBatch * 1e6;
}

void probe_amt(std::map<std::string, double>& out) {
  // No-op tasks on a pool the size of one dist_pulse_sd24 locality, posted
  // in bursts the way a step posts its SD tasks.
  nlh::amt::thread_pool pool(kThreadsPerLocality);
  constexpr int kBurst = 16;
  constexpr int kRounds = 400;
  std::vector<double> lat;
  lat.reserve(kBurst * kRounds);
  std::vector<double> round(kBurst);
  for (int r = 0; r < kRounds; ++r) {
    std::vector<nlh::amt::future<void>> fs;
    fs.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      const auto posted = clock_type::now();
      fs.push_back(nlh::amt::async(pool, [&round, i, posted] {
        round[static_cast<std::size_t>(i)] =
            std::chrono::duration<double, std::micro>(clock_type::now() - posted).count();
      }));
    }
    for (auto& f : fs) f.wait();
    lat.insert(lat.end(), round.begin(), round.end());
  }
  out["amt.post_to_start_us.p50"] = quantile(lat, 0.5);
  out["amt.post_to_start_us.p99"] = quantile(lat, 0.99);
}

void probe_partition(std::map<std::string, double>& out) {
  nlh::partition::mesh_dual_options mo;
  mo.sd_rows = mo.sd_cols = kSdGrid;
  mo.sd_size = kSdSize;
  mo.ghost_width = kEps;
  const auto g = nlh::partition::build_mesh_dual(mo);
  nlh::partition::partition_options po;
  po.k = kLocalities;
  nlh::partition::partition_vector part;
  const auto t = sample(0.3, 5, [&] { part = nlh::partition::multilevel_partition(g, po); });
  out["partition.build_s"] = median(t);
  out["partition.edge_cut"] = static_cast<double>(nlh::partition::edge_cut(g, part));
  out["partition.balance"] = nlh::partition::balance_factor(g, part, po.k);
}

void probe_ckpt(std::map<std::string, double>& out) {
  // batch_hibernate tenant shapes, in its 7:1 serial:distributed mix.
  auto shape = [](bool distributed) {
    nlh::api::session_options o;
    o.custom_scenario = std::make_shared<nlh::api::gaussian_pulse_scenario>(
        0.5, 0.5, 0.08, 1.0, 0.3);
    o.n = 32;
    o.epsilon_factor = 4;
    if (distributed) {
      o.mode = nlh::api::execution_mode::distributed;
      o.sd_grid = 2;
      o.nodes = 2;
      o.threads_per_locality = 1;
    }
    return o;
  };
  nlh::api::session ser(shape(false)), dis(shape(true));
  ser.solver().run(8);
  dis.solver().run(8);
  nlh::api::solver_handle* mix[8];
  for (auto*& h : mix) h = &ser.solver();
  mix[7] = &dis.solver();
  std::vector<double> ex, im;
  nlh::net::byte_buffer reuse;
  // A fixed count: every distributed import starts a fresh solver pool.
  for (int i = 0; i < 64; ++i) {
    auto& h = *mix[i % 8];
    const auto a = clock_type::now();
    auto blob = h.export_and_release(std::move(reuse));
    const auto b = clock_type::now();
    h.import_state(blob.bytes);
    const auto c = clock_type::now();
    ex.push_back(std::chrono::duration<double, std::milli>(b - a).count());
    im.push_back(std::chrono::duration<double, std::milli>(c - b).count());
    reuse = std::move(blob.bytes);
  }
  out["ckpt.export_ms"] = median(ex);
  out["ckpt.import_ms"] = median(im);
}

}  // namespace

void run_layer_probes(std::map<std::string, double>& out) {
  // Nothing here is traced: keep the per-thread trace rings of the pools
  // the probes start at the minimum size.
  ring_capacity rings;
  rings.set(16);
  probe_small_session(out);
  probe_scenario_source(out);
  probe_kernel(out, pulse_partition());
  probe_pack(out);
  probe_amt(out);
  probe_partition(out);
  probe_ckpt(out);
}

}  // namespace perfbench
