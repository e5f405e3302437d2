///
/// \file session.cpp
/// \brief Session facade implementation: option validation, the internal
/// mesh-dual / partition / tiling / ownership chain, and the serial /
/// distributed solver_handle backends.
///

#include "api/session.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "amt/async.hpp"
#include "ckpt/codec.hpp"
#include "dist/dist_solver.hpp"
#include "nonlocal/error.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "obs/metrics_export.hpp"
#include "obs/tracer.hpp"
#include "partition/mesh_dual.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioner.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace nlh::api {

// ------------------------------------------------------------ solver_impl --

/// Pure solver body behind the handle: one virtual per solver observable.
/// The handle owns the threading (locks, driver, observer); implementations
/// stay single-threaded and oblivious to it.
class solver_impl {
 public:
  virtual ~solver_impl() = default;
  virtual void do_step() = 0;
  virtual const nonlocal::grid2d& grid() const = 0;
  virtual std::vector<double> field() const = 0;
  virtual double dt() const = 0;
  virtual int current_step() const = 0;
  virtual std::uint64_t ghost_bytes() const { return 0; }
  virtual nonlocal::kernel_backend backend() const = 0;
  /// Overlap observables (serial defaults: no exchange, nothing to hide).
  virtual std::string overlap_schedule_name() const { return "serial"; }
  virtual double comm_wait_seconds() const { return 0.0; }
  virtual std::uint64_t overlap_early_tasks() const { return 0; }
  virtual bool distributed() const { return false; }
  /// Auto-rebalancing observables (all-zero serial / when disabled).
  virtual balance::rebalance_stats rebalance_stats() const { return {}; }
  /// Append backend-specific instruments to a metrics snapshot (serial has
  /// none beyond what runtime_metrics already carries).
  virtual void metrics_into(obs::metrics_snapshot&) const {}
  /// Serialize the full solver state (self-contained, self-describing)
  /// through `c` into `w`; returns the raw pre-codec payload bytes (the
  /// compression-ratio denominator). import_state() on a freshly
  /// constructed impl of the same options must rebuild bitwise-identical
  /// state — the hibernate→restore guarantee (docs/checkpoint.md).
  virtual std::uint64_t export_state(net::archive_writer& w,
                                     const ckpt::codec& c) = 0;
  virtual void import_state(net::archive_reader& r) = 0;
};

namespace {

/// The session's backend choice as the solver-config optional: pin when
/// the option names one, follow the process default otherwise. Validation
/// already rejected unknown names.
std::optional<nonlocal::kernel_backend> resolve_backend(const session_options& o) {
  if (o.kernel_backend.empty()) return std::nullopt;
  return nonlocal::parse_kernel_backend(o.kernel_backend);
}

/// Body backed by the single-threaded reference solver.
class serial_impl final : public solver_impl {
 public:
  serial_impl(const session_options& opt, std::shared_ptr<const scenario> scn)
      : solver_(make_config(opt), std::move(scn)) {
    solver_.set_initial_condition();
  }

  void do_step() override {
    solver_.step(steps_);
    ++steps_;
  }
  const nonlocal::grid2d& grid() const override { return solver_.grid(); }
  std::vector<double> field() const override { return solver_.field(); }
  double dt() const override { return solver_.dt(); }
  int current_step() const override { return steps_; }
  nonlocal::kernel_backend backend() const override { return solver_.backend(); }
  void metrics_into(obs::metrics_snapshot& snap) const override {
    // Blocked-kernel execution observables (docs/kernels.md) — same names
    // the distributed impl exports, so dashboards don't branch on mode.
    const auto& ks = solver_.kernel_stats();
    snap.add_counter("kernel/applies", ks.applies);
    snap.add_counter("kernel/blocks", ks.blocks);
    snap.add_counter("kernel/dps", ks.dps);
    snap.add_gauge("kernel/mdps", ks.mdps());
    snap.add_gauge("kernel/block_rows",
                   static_cast<double>(solver_.kernel_plan().blocking().row_block));
    snap.add_gauge("kernel/col_tile",
                   static_cast<double>(solver_.kernel_plan().blocking().col_tile));
  }

  std::uint64_t export_state(net::archive_writer& w,
                             const ckpt::codec& c) override {
    w.write(static_cast<std::uint8_t>('S'));
    w.write(static_cast<std::int64_t>(steps_));
    w.write(c.name());
    const auto& u = solver_.field();  // padded layout
    w.write(static_cast<std::uint64_t>(u.size()));
    return c.encode(u.data(), u.size(), nullptr, w).raw_bytes;
  }

  void import_state(net::archive_reader& r) override {
    NLH_ASSERT_MSG(r.read<std::uint8_t>() == 'S',
                   "serial_impl::import_state: wrong state tag");
    steps_ = static_cast<int>(r.read<std::int64_t>());
    const ckpt::codec* c = ckpt::find_codec(r.read_string());
    NLH_ASSERT_MSG(c != nullptr, "serial_impl::import_state: unknown codec");
    std::vector<double> u(static_cast<std::size_t>(r.read<std::uint64_t>()));
    c->decode(r, u.data(), u.size(), nullptr);
    solver_.set_field(std::move(u));
  }

 private:
  static nonlocal::solver_config make_config(const session_options& o) {
    nonlocal::solver_config cfg;
    cfg.n = o.n;
    cfg.epsilon_factor = o.epsilon_factor;
    cfg.conductivity = o.conductivity;
    cfg.dt = o.dt;
    cfg.dt_safety = o.dt_safety;
    cfg.num_steps = o.num_steps;
    cfg.kind = o.kind;
    cfg.integrator = o.integrator;
    cfg.backend = resolve_backend(o);
    cfg.tuning = o.kernel_tuning;
    return cfg;
  }

  nonlocal::serial_solver solver_;
  int steps_ = 0;
};

/// Body backed by the asynchronous distributed solver.
class dist_impl final : public solver_impl {
 public:
  dist_impl(const session_options& opt, std::shared_ptr<const scenario> scn,
            const dist::ownership_map& own)
      : solver_(make_config(opt), own, std::move(scn)) {
    solver_.set_initial_condition();
  }

  void do_step() override { solver_.step(); }
  const nonlocal::grid2d& grid() const override { return solver_.grid(); }
  std::vector<double> field() const override { return solver_.gather(); }
  double dt() const override { return solver_.dt(); }
  int current_step() const override { return solver_.current_step(); }
  std::uint64_t ghost_bytes() const override { return solver_.ghost_bytes(); }
  nonlocal::kernel_backend backend() const override { return solver_.backend(); }
  std::string overlap_schedule_name() const override {
    return dist::overlap_schedule_name(solver_.schedule());
  }
  double comm_wait_seconds() const override { return solver_.stats().wait_seconds; }
  std::uint64_t overlap_early_tasks() const override {
    const auto s = solver_.stats();
    return s.interior_early + s.strips_early;
  }
  bool distributed() const override { return true; }
  balance::rebalance_stats rebalance_stats() const override {
    return solver_.rebalance_stats();
  }
  void metrics_into(obs::metrics_snapshot& snap) const override {
    solver_.metrics_into(snap);
  }

  std::uint64_t export_state(net::archive_writer& w,
                             const ckpt::codec& /*c*/) override {
    // The distributed snapshot rides the solver's own checkpoint path —
    // make_config feeds the same codec choice into
    // dist_config::checkpoint, and the blob is self-describing.
    w.write(static_cast<std::uint8_t>('D'));
    w.write(solver_.checkpoint_full());
    const auto& t = solver_.sd_tiling();
    return static_cast<std::uint64_t>(t.num_sds()) * t.sd_size() * t.sd_size() *
           sizeof(double);
  }

  void import_state(net::archive_reader& r) override {
    NLH_ASSERT_MSG(r.read<std::uint8_t>() == 'D',
                   "dist_impl::import_state: wrong state tag");
    const auto blob = r.read_vector<std::byte>();
    solver_.restore(blob);
  }

 private:
  static dist::dist_config make_config(const session_options& o) {
    dist::dist_config cfg;
    cfg.sd_rows = cfg.sd_cols = o.sd_grid;
    cfg.sd_size = o.n / o.sd_grid;
    cfg.epsilon_factor = o.epsilon_factor;
    cfg.conductivity = o.conductivity;
    cfg.dt = o.dt;
    cfg.dt_safety = o.dt_safety;
    cfg.kind = o.kind;
    cfg.threads_per_locality = o.threads_per_locality;
    // Validation already rejected unknown names.
    if (const auto s = dist::parse_overlap_schedule(o.overlap_schedule))
      cfg.schedule = *s;
    cfg.backend = resolve_backend(o);
    cfg.tuning = o.kernel_tuning;
    cfg.rebalance = o.auto_rebalance;
    // One codec choice drives both the checkpoint path and hibernation.
    cfg.checkpoint.codec = o.hibernation.codec;
    return cfg;
  }

  dist::dist_solver solver_;
};

bool is_power_of_two(int v) { return v >= 1 && (v & (v - 1)) == 0; }

}  // namespace

// ----------------------------------------------------------- solver_handle --

namespace {
/// The one key a handle's session-owned hibernation manager tracks.
constexpr const char* kSelfKey = "session";
}  // namespace

solver_handle::solver_handle(std::shared_ptr<const scenario> scn,
                             std::unique_ptr<solver_impl> impl,
                             impl_factory rebuild,
                             ckpt::hibernation_options hib_opt)
    : scenario_(std::move(scn)),
      impl_(std::move(impl)),
      rebuild_(std::move(rebuild)),
      hib_codec_(ckpt::find_codec(hib_opt.codec)),
      cached_grid_(impl_->grid()),
      cached_dt_(impl_->dt()),
      cached_backend_(impl_->backend()) {
  NLH_ASSERT_MSG(hib_codec_ != nullptr,
                 "solver_handle: unknown hibernation codec (validation gap)");
  if (hib_opt.enabled) {
    hib_ = std::make_unique<ckpt::hibernation_manager>(std::move(hib_opt));
    // Callbacks run on the thread that triggered them, which already holds
    // step_mu_ (recursive) through hibernate()/ensure_resident_locked().
    hib_->add_session(
        kSelfKey,
        {[this](net::byte_buffer reuse) {
           return export_state_locked(std::move(reuse));
         },
         [this](const net::byte_buffer& bytes) { import_state_locked(bytes); }});
  }
}

// Members are destroyed in reverse declaration order: driver_ first, whose
// thread_pool destructor drains queued async steps while impl_ is still
// alive — the join is structural, no per-implementation cleanup needed.
solver_handle::~solver_handle() = default;

runtime_metrics solver_handle::run_steps(int num_steps) {
  if (num_steps < 0)
    throw std::invalid_argument(
        "solver_handle: the number of steps must be non-negative (got " +
        std::to_string(num_steps) + ")");
  std::lock_guard<std::recursive_mutex> step_lk(step_mu_);
  ensure_resident_locked();
  for (int k = 0; k < num_steps; ++k) {
    support::stopwatch sw;
    {
      NLH_TRACE_SPAN_ARG("api/step",
                         static_cast<std::uint64_t>(impl_->current_step()));
      impl_->do_step();
    }
    const double step_s = sw.elapsed_s();
    step_latency_hist_.record(step_s);
    step_observer cb;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      wall_seconds_ += step_s;
      cb = observer_;  // copy: set_observer may swap it mid-run
    }
    if (cb) cb(step_event{impl_->current_step(), impl_->current_step() * dt()});
  }
  return metrics_locked();
}

amt::thread_pool& solver_handle::driver() {
  std::lock_guard<std::mutex> lk(driver_mu_);
  if (!driver_) driver_ = std::make_unique<amt::thread_pool>(1);
  return *driver_;
}

void solver_handle::step() { run_steps(1); }

void solver_handle::run(int steps) { run_steps(steps); }

amt::future<runtime_metrics> solver_handle::step_async() { return run_async(1); }

amt::future<runtime_metrics> solver_handle::run_async(int num_steps) {
  return amt::async(driver(),
                    [this, num_steps] { return run_steps(num_steps); });
}

void solver_handle::set_observer(step_observer cb) {
  std::lock_guard<std::mutex> lk(state_mu_);
  observer_ = std::move(cb);
}

// grid/dt/backend stay lock-free (documented immutable) by serving the
// construction-time cache, so they remain valid while the solver state is
// hibernated and impl_ is gone.
const nonlocal::grid2d& solver_handle::grid() const { return *cached_grid_; }

double solver_handle::dt() const { return cached_dt_; }

nonlocal::kernel_backend solver_handle::backend() const { return cached_backend_; }

std::vector<double> solver_handle::field() const {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  ensure_resident_locked();
  return impl_->field();
}

int solver_handle::current_step() const {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  ensure_resident_locked();
  return impl_->current_step();
}

std::uint64_t solver_handle::ghost_bytes() const {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  ensure_resident_locked();
  return impl_->ghost_bytes();
}

void solver_handle::ensure_resident_locked() const {
  if (impl_) return;
  NLH_ASSERT_MSG(hib_ != nullptr,
                 "solver_handle: state was exported (export_and_release); the "
                 "managing layer must import_state() before use");
  // activate() restores through the import callback; park right away so
  // the single entry goes back to being LRU-eligible for hibernate().
  hib_->activate(kSelfKey);
  hib_->park(kSelfKey);
}

ckpt::snapshot_blob solver_handle::export_state_locked(net::byte_buffer reuse) {
  NLH_ASSERT_MSG(impl_ != nullptr, "solver_handle: state already exported");
  NLH_TRACE_SPAN("api/session_export");
  net::archive_writer w(std::move(reuse));
  const auto raw = impl_->export_state(w, *hib_codec_);
  impl_.reset();  // release the in-memory solver — the point of the exercise
  return {w.take(), raw};
}

void solver_handle::import_state_locked(const net::byte_buffer& bytes) {
  NLH_ASSERT_MSG(impl_ == nullptr, "solver_handle: import over live state");
  NLH_TRACE_SPAN("api/session_import");
  impl_ = rebuild_();
  net::archive_reader r(bytes);
  impl_->import_state(r);
  NLH_ASSERT_MSG(r.exhausted(), "solver_handle: trailing bytes in session blob");
}

void solver_handle::hibernate() {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  if (!hib_)
    throw std::logic_error(
        "solver_handle::hibernate: session_options::hibernation is disabled");
  hib_->hibernate(kSelfKey);  // false (no-op) when already cold
}

bool solver_handle::hibernated() const {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  return impl_ == nullptr;
}

ckpt::snapshot_blob solver_handle::export_and_release(net::byte_buffer reuse) {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  return export_state_locked(std::move(reuse));
}

void solver_handle::import_state(const net::byte_buffer& bytes) {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  import_state_locked(bytes);
}

std::vector<double> solver_handle::exact_now_locked() const {
  if (!scenario_->has_exact())
    throw std::logic_error("solver_handle: scenario '" + scenario_->name() +
                           "' provides no exact solution; error-vs-exact metrics "
                           "are unavailable (check active_scenario().has_exact())");
  const auto& g = impl_->grid();
  auto exact = g.make_field();
  const double t = impl_->current_step() * impl_->dt();
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      exact[g.flat(i, j)] = scenario_->exact(t, g.x(j), g.y(i));
  return exact;
}

double solver_handle::error_vs_exact() const {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  ensure_resident_locked();
  return nonlocal::error_max_relative(impl_->grid(), exact_now_locked(),
                                      impl_->field());
}

double solver_handle::error_ek_vs_exact() const {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  ensure_resident_locked();
  return nonlocal::error_ek(impl_->grid(), exact_now_locked(), impl_->field());
}

runtime_metrics solver_handle::metrics_locked() const {
  ensure_resident_locked();
  runtime_metrics m;
  m.steps = impl_->current_step();
  m.dt = impl_->dt();
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    m.wall_seconds = wall_seconds_;
  }
  m.ghost_bytes = impl_->ghost_bytes();
  m.kernel_backend = nonlocal::kernel_backend_name(impl_->backend());
  m.overlap_schedule = impl_->overlap_schedule_name();
  m.comm_wait_seconds = impl_->comm_wait_seconds();
  m.overlap_early_tasks = impl_->overlap_early_tasks();
  m.is_distributed = impl_->distributed();
  m.step_latency = step_latency_hist_.summary();
  const auto rs = impl_->rebalance_stats();
  m.rebalance_epochs = rs.epochs;
  m.rebalance_moves = rs.moves;
  m.rebalance_imbalance_before = rs.last_imbalance_before;
  m.rebalance_imbalance_after = rs.last_imbalance_after;
  if (hib_) {
    const auto hs = hib_->current_stats();
    m.hibernates = hs.hibernates;
    m.restores = hs.restores;
  }
  return m;
}

runtime_metrics solver_handle::metrics() const {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  return metrics_locked();
}

obs::metrics_snapshot solver_handle::metrics_snapshot() const {
  std::lock_guard<std::recursive_mutex> lk(step_mu_);
  const auto m = metrics_locked();
  obs::metrics_snapshot snap;
  snap.add_counter("api/session/steps", static_cast<std::uint64_t>(m.steps));
  snap.add_counter("api/session/ghost_bytes", m.ghost_bytes);
  snap.add_counter("api/session/overlap_early_tasks", m.overlap_early_tasks);
  snap.add_gauge("api/session/dt", m.dt);
  snap.add_gauge("api/session/wall_seconds", m.wall_seconds);
  snap.add_gauge("api/session/comm_wait_seconds", m.comm_wait_seconds);
  snap.add_gauge("api/session/is_distributed", m.is_distributed ? 1.0 : 0.0);
  snap.add_histogram("api/session/step_latency_seconds", m.step_latency);
  impl_->metrics_into(snap);
  if (hib_) hib_->metrics_into(snap, "api/session/ckpt/");
  return snap;
}

void solver_handle::dump_metrics(const std::string& path) const {
  obs::write_metrics_json(path, metrics_snapshot());
}

// ---------------------------------------------------------------- session --

std::vector<std::string> session::validate(const session_options& opt) {
  std::vector<std::string> errs;
  std::shared_ptr<const scenario> scn = opt.custom_scenario;
  if (!scn) {
    try {
      scn = make_scenario(opt.scenario);
    } catch (const std::invalid_argument& e) {
      errs.push_back(std::string("session_options.scenario: ") + e.what());
    }
  }
  const auto rest = validate_resolved(opt, scn.get());
  errs.insert(errs.end(), rest.begin(), rest.end());
  return errs;
}

std::vector<std::string> session::validate_resolved(const session_options& opt,
                                                    const scenario* scn) {
  std::vector<std::string> errs;
  auto err = [&errs](const std::ostringstream& msg) { errs.push_back(msg.str()); };

  if (opt.n < 1) {
    std::ostringstream m;
    m << "session_options.n: interior DPs per dimension must be positive (got "
      << opt.n << ")";
    err(m);
  }
  if (opt.epsilon_factor < 1) {
    std::ostringstream m;
    m << "session_options.epsilon_factor: must be at least 1 (got "
      << opt.epsilon_factor << ")";
    err(m);
  } else if (opt.n >= 1 && opt.epsilon_factor > opt.n) {
    std::ostringstream m;
    m << "session_options.epsilon_factor: horizon " << opt.epsilon_factor
      << " exceeds the mesh size n = " << opt.n;
    err(m);
  }
  if (opt.conductivity <= 0.0) {
    std::ostringstream m;
    m << "session_options.conductivity: must be positive (got " << opt.conductivity
      << ")";
    err(m);
  }
  if (opt.dt < 0.0) {
    std::ostringstream m;
    m << "session_options.dt: must be non-negative; 0 selects the stability "
         "bound * dt_safety (got "
      << opt.dt << ")";
    err(m);
  }
  if (opt.dt_safety <= 0.0) {
    std::ostringstream m;
    m << "session_options.dt_safety: must be positive (got " << opt.dt_safety
      << ")";
    err(m);
  }
  if (opt.num_steps < 1) {
    std::ostringstream m;
    m << "session_options.num_steps: must be at least 1 (got " << opt.num_steps
      << ")";
    err(m);
  }
  if (!opt.kernel_backend.empty() &&
      !nonlocal::parse_kernel_backend(opt.kernel_backend)) {
    std::ostringstream m;
    m << "session_options.kernel_backend: unknown backend '" << opt.kernel_backend
      << "'; valid: scalar, row_run, simd, avx512 (empty keeps the process "
         "default)";
    err(m);
  }
  // Tuning fields: zero derives, positive overrides (clamped downstream);
  // negative is always a mistake, so name the field instead of clamping it
  // silently.
  if (opt.kernel_tuning.l1d_bytes < 0) {
    std::ostringstream m;
    m << "session_options.kernel_tuning.l1d_bytes: must be non-negative; 0 "
         "probes the machine (got "
      << opt.kernel_tuning.l1d_bytes << ")";
    err(m);
  }
  if (opt.kernel_tuning.l2_bytes < 0) {
    std::ostringstream m;
    m << "session_options.kernel_tuning.l2_bytes: must be non-negative; 0 "
         "probes the machine (got "
      << opt.kernel_tuning.l2_bytes << ")";
    err(m);
  }
  if (opt.kernel_tuning.row_block < 0) {
    std::ostringstream m;
    m << "session_options.kernel_tuning.row_block: must be non-negative; 0 "
         "derives from the stencil reach (got "
      << opt.kernel_tuning.row_block << ")";
    err(m);
  }
  if (opt.kernel_tuning.col_tile < 0) {
    std::ostringstream m;
    m << "session_options.kernel_tuning.col_tile: must be non-negative; 0 "
         "derives from the cache model (got "
      << opt.kernel_tuning.col_tile << ")";
    err(m);
  }

  // Validated regardless of `enabled`: the codec choice also drives the
  // distributed checkpoint path and the export primitives.
  if (const auto herr = opt.hibernation.validate(); !herr.empty()) {
    std::ostringstream m;
    m << "session_options." << herr;
    err(m);
  }

  if (opt.mode == execution_mode::serial && opt.auto_rebalance.enabled) {
    std::ostringstream m;
    m << "session_options.auto_rebalance: live rebalancing needs the "
         "distributed backend (mode = serial has a single locality and "
         "nothing to rebalance)";
    err(m);
  }
  for (auto& e : balance::validate_rebalance_policy(
           opt.auto_rebalance, "session_options.auto_rebalance."))
    errs.push_back(std::move(e));

  if (opt.mode == execution_mode::distributed) {
    if (opt.sd_grid < 1) {
      std::ostringstream m;
      m << "session_options.sd_grid: must be positive (got " << opt.sd_grid << ")";
      err(m);
    } else if (opt.n >= 1) {
      if (opt.n % opt.sd_grid != 0) {
        std::ostringstream m;
        m << "session_options.sd_grid: n = " << opt.n
          << " is not divisible by sd_grid = " << opt.sd_grid
          << "; pick a divisor so SDs tile the mesh";
        err(m);
      } else if (opt.epsilon_factor >= 1 && opt.n / opt.sd_grid < opt.epsilon_factor) {
        std::ostringstream m;
        m << "session_options.sd_grid: SD side n/sd_grid = " << opt.n / opt.sd_grid
          << " is smaller than the ghost width epsilon_factor = "
          << opt.epsilon_factor << "; use fewer, larger SDs";
        err(m);
      }
    }
    if (opt.nodes < 1) {
      std::ostringstream m;
      m << "session_options.nodes: must be at least 1 (got " << opt.nodes << ")";
      err(m);
    }
    if (opt.threads_per_locality < 1) {
      std::ostringstream m;
      m << "session_options.threads_per_locality: must be at least 1 (got "
        << opt.threads_per_locality << ")";
      err(m);
    }
    if (!dist::parse_overlap_schedule(opt.overlap_schedule)) {
      std::ostringstream m;
      m << "session_options.overlap_schedule: unknown schedule '"
        << opt.overlap_schedule
        << "'; valid: coarse, bulk_sync";
      err(m);
    }
    if (opt.integrator != nonlocal::time_integrator::forward_euler) {
      std::ostringstream m;
      m << "session_options.integrator: the distributed solver integrates "
           "forward Euler only; use serial mode for RK schemes";
      err(m);
    }
    if (opt.partitioner == partition_strategy::recursive_bisection &&
        !is_power_of_two(opt.nodes)) {
      std::ostringstream m;
      m << "session_options.partitioner: recursive_bisection requires a "
           "power-of-two node count (got nodes = "
        << opt.nodes << ")";
      err(m);
    }
    if (scn && opt.sd_grid >= 1) {
      const auto mask = scn->sd_mask(opt.sd_grid, opt.sd_grid);
      const auto num_sds =
          static_cast<std::size_t>(opt.sd_grid) * static_cast<std::size_t>(opt.sd_grid);
      if (!mask.empty() && mask.size() != num_sds) {
        std::ostringstream m;
        m << "session_options.scenario: scenario '" << scn->name()
          << "' returned an SD mask of size " << mask.size() << " for a "
          << opt.sd_grid << "x" << opt.sd_grid << " SD grid";
        err(m);
      } else {
        std::size_t active = num_sds;
        if (!mask.empty()) {
          active = 0;
          for (const char a : mask) active += a != 0 ? 1u : 0u;
        }
        if (opt.nodes >= 1 && static_cast<std::size_t>(opt.nodes) > active) {
          std::ostringstream m;
          m << "session_options.nodes: " << opt.nodes << " localities exceed the "
            << active << " active SDs; every locality needs at least one SD";
          err(m);
        }
      }
    }
  }

  return errs;
}

session::session(session_options opt) : opt_(std::move(opt)) {
  std::vector<std::string> errs;
  scenario_ = opt_.custom_scenario;
  if (!scenario_) {
    try {
      scenario_ = make_scenario(opt_.scenario);
    } catch (const std::invalid_argument& e) {
      errs.push_back(std::string("session_options.scenario: ") + e.what());
    }
  }
  const auto rest = validate_resolved(opt_, scenario_.get());
  errs.insert(errs.end(), rest.begin(), rest.end());
  if (!errs.empty()) {
    std::ostringstream msg;
    msg << "invalid session_options (" << errs.size() << " problem"
        << (errs.size() > 1 ? "s" : "") << "):";
    for (const auto& e : errs) msg << "\n  - " << e;
    throw std::invalid_argument(msg.str());
  }

  // The backend choice is applied per solver (the handle pins its
  // stencil_plan at construction) — never to the process default — so
  // sessions with different backends coexist in one process.
  if (opt_.mode == execution_mode::distributed) build_distribution();
}

void session::build_distribution() {
  const int sd_size = opt_.n / opt_.sd_grid;
  tiling_.emplace(opt_.sd_grid, opt_.sd_grid, sd_size, opt_.epsilon_factor);

  const auto raw_mask = scenario_->sd_mask(opt_.sd_grid, opt_.sd_grid);
  if (raw_mask.empty()) {
    mask_.emplace(dist::domain_mask::full(*tiling_));
  } else {
    mask_.emplace(dist::domain_mask::from_predicate(
        *tiling_, [&raw_mask, this](int r, int c) {
          return raw_mask[static_cast<std::size_t>(r) * opt_.sd_grid + c] != 0;
        }));
  }

  partition::mesh_dual_options mopt;
  mopt.sd_rows = mopt.sd_cols = opt_.sd_grid;
  mopt.sd_size = sd_size;
  mopt.ghost_width = opt_.epsilon_factor;
  const auto work = scenario_->sd_work(opt_.sd_grid, opt_.sd_grid);
  if (!work.empty()) {
    // Scenario work values are multipliers; the dual graph wants absolute
    // per-SD vertex weights (DP count * multiplier).
    mopt.sd_work.resize(work.size());
    const double dps = static_cast<double>(sd_size) * sd_size;
    for (std::size_t i = 0; i < work.size(); ++i) mopt.sd_work[i] = work[i] * dps;
  }

  partition::partition_options popt;
  popt.k = opt_.nodes;

  const bool masked = mask_->num_active() != tiling_->num_sds();
  if (masked) {
    const auto dual = partition::build_mesh_dual_masked(mopt, mask_->raw());
    partition::partition_vector mpart;
    switch (opt_.partitioner) {
      case partition_strategy::multilevel:
        mpart = partition::multilevel_partition(dual.g, popt);
        break;
      case partition_strategy::recursive_bisection:
        mpart = partition::recursive_bisection_partition(dual.g, popt);
        break;
      case partition_strategy::block: {
        // Block baseline over the full grid, projected onto active SDs.
        const auto full =
            partition::block_partition(opt_.sd_grid, opt_.sd_grid, opt_.nodes);
        mpart.resize(static_cast<std::size_t>(dual.g.num_vertices()));
        for (partition::vid v = 0; v < dual.g.num_vertices(); ++v)
          mpart[static_cast<std::size_t>(v)] =
              full[static_cast<std::size_t>(dual.to_sd[static_cast<std::size_t>(v)])];
        break;
      }
    }
    edge_cut_ = partition::edge_cut(dual.g, mpart);
    balance_ = partition::balance_factor(dual.g, mpart, opt_.nodes);
    // Project back to full SD ids; inactive SDs are parked on node 0 (the
    // solver and simulator never exchange ghosts for them).
    part_.assign(static_cast<std::size_t>(tiling_->num_sds()), 0);
    for (partition::vid v = 0; v < dual.g.num_vertices(); ++v)
      part_[static_cast<std::size_t>(dual.to_sd[static_cast<std::size_t>(v)])] =
          mpart[static_cast<std::size_t>(v)];
  } else {
    const auto dual = partition::build_mesh_dual(mopt);
    switch (opt_.partitioner) {
      case partition_strategy::multilevel:
        part_ = partition::multilevel_partition(dual, popt);
        break;
      case partition_strategy::recursive_bisection:
        part_ = partition::recursive_bisection_partition(dual, popt);
        break;
      case partition_strategy::block:
        part_ = partition::block_partition(opt_.sd_grid, opt_.sd_grid, opt_.nodes);
        break;
    }
    edge_cut_ = partition::edge_cut(dual, part_);
    balance_ = partition::balance_factor(dual, part_, opt_.nodes);
  }

  own_.emplace(dist::ownership_map::from_partition(*tiling_, opt_.nodes, part_));
}

solver_handle& session::solver() {
  if (!solver_) {
    // The factory rebuilds an identically-configured impl on hibernation
    // restore; the session outlives its handle, so `this` stays valid.
    auto build = [this]() -> std::unique_ptr<solver_impl> {
      if (opt_.mode == execution_mode::serial)
        return std::make_unique<serial_impl>(opt_, scenario_);
      return std::make_unique<dist_impl>(opt_, scenario_, *own_);
    };
    auto impl = build();
    // The handle constructor is private (friended); not make_unique-able.
    solver_.reset(new solver_handle(scenario_, std::move(impl), std::move(build),
                                    opt_.hibernation));
  }
  return *solver_;
}

void session::require_distributed(const char* what) const {
  if (opt_.mode != execution_mode::distributed)
    throw std::logic_error(std::string("session::") + what +
                           ": only available in distributed mode");
}

const dist::tiling& session::sd_tiling() const {
  require_distributed("sd_tiling");
  return *tiling_;
}

const dist::ownership_map& session::ownership() const {
  require_distributed("ownership");
  return *own_;
}

const std::vector<int>& session::partition() const {
  require_distributed("partition");
  return part_;
}

const dist::domain_mask& session::mask() const {
  require_distributed("mask");
  return *mask_;
}

double session::partition_edge_cut() const {
  require_distributed("partition_edge_cut");
  return edge_cut_;
}

double session::partition_balance() const {
  require_distributed("partition_balance");
  return balance_;
}

}  // namespace nlh::api
