///
/// \file main.cpp
/// \brief Command line of the repository benchmark (perfbench/README.md).
///
///   nlh_perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
///                 [--out-dir <dir>]
///
/// --trace 0 measures the workload's end-to-end metrics untraced;
/// --trace 1 runs the layer probes plus a separate traced run of the
/// workload and reports the per-layer metrics. The last line of standard
/// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// `--workload all` runs every workload in both modes (a human-readable
/// sweep; its last line prefixes each metric with the workload name).

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/tracer.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/kernel/block_plan.hpp"

namespace perfbench {
namespace {

struct workload_entry {
  const char* name;
  workload_fn fn;
  bool closed_loop_solve;  ///< traced as interleaved untraced/traced chunks
};

/// BENCHMARK.json lists dist_pulse_sd24 and batch_hibernate only. The
/// others stay runnable by name: serial_manufactured as the serial baseline
/// for changes to the scenario source, dist_lshape_rebalance for the live
/// rebalancer, svc_mmpp_open for the service path. On a shared 4-core
/// virtual machine their runs spread beyond any allowed bound (README.md
/// has the figures).
const workload_entry kWorkloads[] = {
    {"dist_pulse_sd24", run_dist_pulse_sd24, true},
    {"serial_manufactured", run_serial_manufactured, true},
    {"dist_lshape_rebalance", run_dist_lshape_rebalance, true},
    {"svc_mmpp_open", run_svc_mmpp_open, false},
    {"batch_hibernate", run_batch_hibernate, false},
};

/// Layers only one workload exercises. The traced run of every other
/// workload also runs a short traced pass of that workload and takes the
/// metrics with these prefixes from it, so every layer is measured on each
/// workload BENCHMARK.json lists.
struct companion {
  const char* name;
  std::vector<std::string> prefixes;
};
const companion kCompanions[] = {
    {"dist_lshape_rebalance", {"balance."}},
    {"svc_mmpp_open", {"svc.", "bench."}},
    {"batch_hibernate", {"batch.", "ckpt.hibernates", "ckpt.restores", "ckpt.cold_ratio"}},
};
/// Measured seconds of each companion pass.
constexpr double kCompanionSeconds = 4.0;

struct metric_def {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), identical for every workload; the
/// per-workload meaning of the latency pair is in README.md.
const metric_def kEndToEnd[] = {
    {"setup_s", "s"},
    {"mdps", "MDPS"},
    {"latency_p50_ms", "ms"},
    {"latency_p75_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics (--trace 1). A layer a workload does not exercise
/// reports 0; probes run on every workload.
const metric_def kPerLayer[] = {
    {"api.session_build_s", "s"},
    {"api.first_step_s", "s"},
    {"api.small_session_build_us", "us"},
    {"api.self_s.step", "s"},
    {"scenario.source_s_per_step", "s"},
    {"kernel.mdps", "MDPS"},
    {"kernel.rect_mdps", "MDPS"},
    {"kernel.grid_mdps", "MDPS"},
    {"kernel.gflops_computed", "GFLOP/s"},
    {"kernel.bytes_per_dp_computed", "B"},
    {"dist.comm_wait_s_per_step", "s"},
    {"dist.ghost_bytes_per_step", "B"},
    {"dist.messages_per_step", "count"},
    {"dist.early_tasks_per_step", "count"},
    {"dist.busy_frac_min", "fraction"},
    {"dist.busy_frac_max", "fraction"},
    {"dist.plan_compiles", "count"},
    {"dist.speedup_vs_serial", "x"},
    {"dist.step_wall_s", "s"},
    {"dist.self_s.step", "s"},
    {"dist.self_s.drain", "s"},
    {"dist.self_s.pack_send", "s"},
    {"dist.self_s.aux", "s"},
    {"dist.self_s.interior", "s"},
    {"dist.self_s.strip", "s"},
    {"dist.self_s.unpack", "s"},
    {"dist.unaccounted_s", "s"},
    {"net.pack_us_per_strip", "us"},
    {"amt.post_to_start_us.p50", "us"},
    {"amt.post_to_start_us.p99", "us"},
    {"amt.self_s.task", "s"},
    {"partition.build_s", "s"},
    {"partition.edge_cut", "DP"},
    {"partition.balance", "ratio"},
    {"balance.epochs", "count"},
    {"balance.moves", "count"},
    {"balance.imbalance_before", "SD"},
    {"balance.imbalance_after", "SD"},
    {"balance.improving_epoch_frac", "fraction"},
    {"balance.busy_spread", "fraction"},
    {"balance.self_s.epoch", "s"},
    {"ckpt.hibernates", "count"},
    {"ckpt.restores", "count"},
    {"ckpt.cold_ratio", "fraction"},
    {"ckpt.export_ms", "ms"},
    {"ckpt.import_ms", "ms"},
    {"batch.queue_wait_ms.p50", "ms"},
    {"batch.queue_wait_ms.p90", "ms"},
    {"svc.queue_wait_ms.interactive.p50", "ms"},
    {"svc.queue_wait_ms.interactive.p99", "ms"},
    {"svc.queue_wait_ms.batch.p50", "ms"},
    {"svc.queue_wait_ms.batch.p99", "ms"},
    {"svc.queue_wait_ms.soak.p50", "ms"},
    {"svc.queue_wait_ms.soak.p99", "ms"},
    {"svc.submit_us", "us"},
    {"svc.shed_frac.quota", "fraction"},
    {"svc.shed_frac.queue_full", "fraction"},
    {"svc.shed_frac.expired", "fraction"},
    {"svc.quota_delayed", "count"},
    {"obs.trace_overhead_frac", "fraction"},
    {"obs.events_per_step", "count"},
    {"obs.dropped", "count"},
    {"obs.rings", "count"},
    {"bench.gen_late_ms.p50", "ms"},
    {"bench.gen_late_ms.p99", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "nlh_perfbench: %s\nusage: nlh_perfbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();  // drop the NUL padding
    const auto b = brand.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : brand.substr(b);
  }
#endif
  return "unknown";
}

/// Host facts recorded with every run: what the numbers were measured on.
std::vector<std::pair<std::string, std::string>> host_info() {
  const auto cache = nlh::nonlocal::probe_cache_geometry();
  const auto backend = nlh::nonlocal::kernel_default_backend();
  return {
      {"cpu", cpu_model()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"l1d_bytes", std::to_string(cache.l1d_bytes)},
      {"l2_bytes", std::to_string(cache.l2_bytes)},
      {"kernel_backend", nlh::nonlocal::kernel_backend_name(backend)},
      {"avx512_available", nlh::nonlocal::kernel_avx512_available() ? "1" : "0"},
      {"simd_available", nlh::nonlocal::kernel_simd_available() ? "1" : "0"},
  };
}

struct measured {
  std::string stem;  ///< file stem of the run's record and Chrome trace
  wl_result r;
  std::vector<std::pair<std::string, double>> metrics;  ///< JSON metrics, in order
  std::vector<std::string> units;
};

/// Run one workload in one mode and collect its contract metrics.
measured run_one(const workload_entry& w, const run_config& base, bool trace) {
  measured m;
  run_config cfg = base;
  cfg.stem = m.stem = std::string(w.name) + "-seed" + std::to_string(cfg.seed) + "-trace" +
                      (trace ? "1" : "0");
  if (!trace) {
    cfg.mode = run_mode::plain;
    m.r = w.fn(cfg);
    m.metrics = {{"setup_s", median(m.r.setup_s)},
                 {"mdps", m.r.mdps},
                 {"latency_p50_ms", m.r.lat_p50_ms},
                 {"latency_p75_ms", m.r.lat_p75_ms},
                 {"peak_rss_mb", m.r.rss_mb}};
    for (const auto& d : kEndToEnd) m.units.push_back(d.unit);
    return m;
  }
  std::map<std::string, double> layer;
  run_layer_probes(layer);
  if (w.closed_loop_solve) {
    cfg.mode = run_mode::interleaved;
    m.r = w.fn(cfg);
  } else {
    // Untraced and traced halves; the ratio of their rates is the tracing
    // overhead, the traced half supplies the layer metrics.
    run_config half = cfg;
    half.seconds = cfg.seconds / 2;
    half.mode = run_mode::plain;
    const auto plain = w.fn(half);
    half.mode = run_mode::traced;
    m.r = w.fn(half);
    m.r.attempted += plain.attempted;
    m.r.failed += plain.failed;
    if (!plain.correct) {
      m.r.correct = false;
      m.r.problems.insert(m.r.problems.end(), plain.problems.begin(), plain.problems.end());
    }
    if (plain.mdps > 0) m.r.layer["obs.trace_overhead_frac"] = 1.0 - m.r.mdps / plain.mdps;
  }
  for (const auto& [k, v] : m.r.layer) layer[k] = v;
  // Trace rings alive at the end of the run (named rings = pool workers
  // ever started, plus the client when it traced).
  layer["obs.rings"] = static_cast<double>(nlh::obs::tracer::instance().thread_names().size());
  for (const auto& c : kCompanions) {
    if (std::string(c.name) == w.name) continue;
    const workload_entry* cw = nullptr;
    for (const auto& e : kWorkloads)
      if (std::string(e.name) == c.name) cw = &e;
    run_config ccfg = cfg;
    ccfg.mode = cw->closed_loop_solve ? run_mode::interleaved : run_mode::traced;
    ccfg.seconds = kCompanionSeconds;
    ccfg.stem = m.stem + "-" + c.name;
    const auto cr = cw->fn(ccfg);
    m.r.attempted += cr.attempted;
    m.r.failed += cr.failed;
    for (const auto& p : cr.problems) m.r.fail(std::string(c.name) + ": " + p);
    for (const auto& n : cr.notes) m.r.notes.push_back(std::string(c.name) + ": " + n);
    for (const auto& [k, v] : cr.layer)
      for (const auto& p : c.prefixes)
        if (k.compare(0, p.size(), p) == 0) layer[k] = v;
  }
  for (const auto& d : kPerLayer) {
    const auto it = layer.find(d.name);
    m.metrics.emplace_back(d.name, it == layer.end() ? 0.0 : it->second);
    m.units.push_back(d.unit);
    if (it != layer.end()) layer.erase(it);
  }
  for (const auto& [k, v] : layer)
    m.r.fail("internal: layer metric '" + k + "' is not in the per-layer list");
  return m;
}

void print_report(const char* name, const run_config& cfg, bool trace, const measured& m) {
  std::printf("== %s  seed=%llu seconds=%g trace=%d\n", name,
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, trace ? 1 : 0);
  for (const auto& [k, v] : host_info()) std::printf("   host.%s = %s\n", k.c_str(), v.c_str());
  std::printf("   correct = %s  attempted = %lld  failed = %lld  fail_frac = %.6g\n",
              m.r.correct ? "yes" : "NO", m.r.attempted, m.r.failed,
              m.r.attempted > 0 ? static_cast<double>(m.r.failed) / m.r.attempted : 0.0);
  for (const auto& p : m.r.problems) std::printf("   problem: %s\n", p.c_str());
  for (const auto& n : m.r.notes) std::printf("   note: %s\n", n.c_str());
  if (!trace) {
    std::printf("   setup_s samples =");
    for (const double s : m.r.setup_s) std::printf(" %.4f", s);
    std::printf("\n");
    for (const auto& [k, v] : m.r.report) std::printf("   %-28s %.6g\n", k.c_str(), v);
  }
  for (std::size_t i = 0; i < m.metrics.size(); ++i)
    std::printf("   %-36s %-14.6g %s\n", m.metrics[i].first.c_str(), m.metrics[i].second,
                m.units[i].c_str());
  std::fflush(stdout);
}

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<std::pair<std::string, double>>& metrics,
                        const std::vector<std::string>& units) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << json_string(metrics[i].first) << ": {\"value\": " << json_number(metrics[i].second)
       << ", \"unit\": " << json_string(units[i]) << "}";
  }
  os << "}}";
  return os.str();
}

/// The full record of one run next to its Chrome trace: host, report,
/// notes and metrics.
void write_record(const run_config& cfg, const char* name, bool trace, const measured& m) {
  std::ofstream out(cfg.out_dir + "/" + m.stem + ".json");
  out << "{\"workload\": " << json_string(name) << ", \"seed\": " << cfg.seed
      << ", \"seconds\": " << json_number(cfg.seconds) << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"host\": {";
  bool first = true;
  for (const auto& [k, v] : host_info()) {
    out << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  out << "}, \"report\": {";
  first = true;
  for (const auto& [k, v] : m.r.report) {
    out << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  out << "}, \"notes\": [";
  for (std::size_t i = 0; i < m.r.notes.size(); ++i)
    out << (i ? ", " : "") << json_string(m.r.notes[i]);
  out << "], \"result\": "
      << result_json(m.r.correct, m.r.attempted, m.r.failed, m.metrics, m.units) << "}\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out_dir = ".bench_build/results";
  run_config cfg;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
        have_seconds = true;
      } else if (a == "--trace") {
        trace = std::stoi(v);
      } else if (a == "--out-dir") {
        out_dir = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::exception&) {
      usage("malformed value for " + a + ": " + v);
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || (trace != 0 && trace != 1))
    usage("--workload, --seed, --seconds and --trace are required");
  // Below a second the windows and the service's arrival trace run empty.
  if (!(cfg.seconds >= 1.0 && cfg.seconds <= 600.0)) usage("--seconds must be in [1, 600]");
  std::filesystem::create_directories(out_dir);
  cfg.out_dir = out_dir;

  if (workload == "all") {
    bool correct = true;
    long long attempted = 0, failed = 0;
    std::vector<std::pair<std::string, double>> all;
    std::vector<std::string> units;
    for (const auto& w : kWorkloads)
      for (const bool t : {false, true}) {
        const auto m = run_one(w, cfg, t);
        print_report(w.name, cfg, t, m);
        write_record(cfg, w.name, t, m);
        correct = correct && m.r.correct;
        attempted += m.r.attempted;
        failed += m.r.failed;
        for (std::size_t i = 0; i < m.metrics.size(); ++i) {
          all.emplace_back(std::string(w.name) + "." + m.metrics[i].first, m.metrics[i].second);
          units.push_back(m.units[i]);
        }
      }
    std::printf("%s\n", result_json(correct, attempted, failed, all, units).c_str());
    return correct ? 0 : 1;
  }
  for (const auto& w : kWorkloads) {
    if (workload != w.name) continue;
    const auto m = run_one(w, cfg, trace == 1);
    print_report(w.name, cfg, trace == 1, m);
    write_record(cfg, w.name, trace == 1, m);
    std::printf("%s\n",
                result_json(m.r.correct, m.r.attempted, m.r.failed, m.metrics, m.units).c_str());
    return 0;
  }
  usage("unknown workload '" + workload + "'");
}
