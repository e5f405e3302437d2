///
/// \file dist_solver.cpp
/// \brief Implementation of the asynchronous distributed solver: the cached
/// step_plan, futurized ghost exchange, case-1/case-2 compute
/// tasks (through the compiled kernel plan), SD migration and
/// checkpoint/restore.
///

#include "dist/dist_solver.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "amt/async.hpp"
#include "balance/auto_rebalancer.hpp"
#include "net/serializer.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "obs/tracer.hpp"
#include "support/stopwatch.hpp"

namespace nlh::dist {

const char* overlap_schedule_name(overlap_schedule s) {
  switch (s) {
    case overlap_schedule::bulk_sync: return "bulk_sync";
    case overlap_schedule::coarse: return "coarse";
  }
  return "unknown";
}

std::optional<overlap_schedule> parse_overlap_schedule(const std::string& name) {
  if (name == "bulk_sync") return overlap_schedule::bulk_sync;
  if (name == "coarse") return overlap_schedule::coarse;
  return std::nullopt;
}

std::vector<std::string> validate(const dist_config& cfg) {
  std::vector<std::string> errs;
  auto err = [&errs](const std::ostringstream& msg) { errs.push_back(msg.str()); };

  if (cfg.sd_rows < 1 || cfg.sd_cols < 1) {
    std::ostringstream m;
    m << "dist_config.sd_rows/sd_cols: the SD grid must be at least 1x1 (got "
      << cfg.sd_rows << "x" << cfg.sd_cols << ")";
    err(m);
  } else if (cfg.sd_rows != cfg.sd_cols) {
    std::ostringstream m;
    m << "dist_config.sd_rows/sd_cols: the global mesh must be square (got "
      << cfg.sd_rows << "x" << cfg.sd_cols << " SDs)";
    err(m);
  }
  if (cfg.sd_size <= 0) {
    std::ostringstream m;
    m << "dist_config.sd_size: DPs per SD side must be positive (got "
      << cfg.sd_size << ")";
    err(m);
  }
  if (cfg.epsilon_factor < 1) {
    std::ostringstream m;
    m << "dist_config.epsilon_factor: ghost width must be at least 1 (got "
      << cfg.epsilon_factor << ")";
    err(m);
  } else if (cfg.sd_size > 0 && cfg.epsilon_factor > cfg.sd_size) {
    std::ostringstream m;
    m << "dist_config.epsilon_factor: ghost width " << cfg.epsilon_factor
      << " exceeds sd_size " << cfg.sd_size
      << "; one neighbor ring can no longer cover the nonlocal horizon "
         "(shrink epsilon_factor or enlarge the SDs)";
    err(m);
  }
  if (cfg.conductivity <= 0.0) {
    std::ostringstream m;
    m << "dist_config.conductivity: must be positive (got " << cfg.conductivity
      << ")";
    err(m);
  }
  if (cfg.dt < 0.0) {
    std::ostringstream m;
    m << "dist_config.dt: must be non-negative; 0 selects the stability bound "
         "* dt_safety (got "
      << cfg.dt << ")";
    err(m);
  }
  if (cfg.dt_safety <= 0.0) {
    std::ostringstream m;
    m << "dist_config.dt_safety: must be positive (got " << cfg.dt_safety << ")";
    err(m);
  }
  if (cfg.threads_per_locality < 1) {
    std::ostringstream m;
    m << "dist_config.threads_per_locality: must be at least 1 (got "
      << cfg.threads_per_locality << ")";
    err(m);
  }
  for (auto& e : balance::validate_rebalance_policy(cfg.rebalance,
                                                    "dist_config.rebalance."))
    errs.push_back(std::move(e));
  if (ckpt::find_codec(cfg.checkpoint.codec) == nullptr) {
    std::ostringstream m;
    m << "dist_config.checkpoint.codec: unknown codec '" << cfg.checkpoint.codec
      << "' (have:";
    for (const auto& n : ckpt::codec_names()) m << " " << n;
    m << ")";
    err(m);
  }
  return errs;
}

namespace {

/// Throwing gate run before any member construction, so a bad config never
/// reaches the tiling/grid asserts.
dist_config validated(dist_config cfg) {
  const auto errs = validate(cfg);
  if (!errs.empty()) {
    std::ostringstream msg;
    msg << "invalid dist_config (" << errs.size() << " problem"
        << (errs.size() > 1 ? "s" : "") << "):";
    for (const auto& e : errs) msg << "\n  - " << e;
    throw std::invalid_argument(msg.str());
  }
  return cfg;
}

}  // namespace

dist_solver::dist_solver(const dist_config& cfg, ownership_map own,
                         std::shared_ptr<const api::scenario> scn)
    : cfg_(validated(cfg)),
      tiling_(cfg.sd_rows, cfg.sd_cols, cfg.sd_size, cfg.epsilon_factor),
      own_(std::move(own)),
      grid_(cfg.sd_cols * cfg.sd_size,
            static_cast<double>(cfg.epsilon_factor) / (cfg.sd_cols * cfg.sd_size)),
      J_(cfg.kind),
      stencil_(grid_, J_),
      c_(J_.scaling_constant(2, cfg.conductivity, grid_.epsilon())),
      dt_(cfg.dt > 0.0 ? cfg.dt : cfg.dt_safety * nonlocal::stable_dt(c_, stencil_)),
      kernel_plan_(stencil_),
      scenario_(scn ? std::move(scn)
                    : std::make_shared<const api::manufactured_scenario>()),
      comm_(own_.num_nodes()),
      w_field_(grid_.make_field()),
      b_field_(grid_.make_field()) {
  NLH_ASSERT(own_.num_sds() == tiling_.num_sds());
  NLH_ASSERT_MSG(grid_.ghost() == cfg.epsilon_factor,
                 "dist_solver: grid ghost width must equal epsilon_factor");

  pools_.reserve(static_cast<std::size_t>(own_.num_nodes()));
  for (int l = 0; l < own_.num_nodes(); ++l)
    pools_.push_back(std::make_unique<amt::thread_pool>(
        static_cast<unsigned>(cfg.threads_per_locality)));

  blocks_.reserve(static_cast<std::size_t>(tiling_.num_sds()));
  lu_.reserve(static_cast<std::size_t>(tiling_.num_sds()));
  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    blocks_.push_back(std::make_unique<sd_block>(tiling_, sd));
    lu_.emplace_back(
        static_cast<std::size_t>(blocks_.back()->stride()) * blocks_.back()->stride(),
        0.0);
  }
  pack_scratch_.resize(static_cast<std::size_t>(tiling_.num_sds()));
  unpack_scratch_.resize(static_cast<std::size_t>(tiling_.num_sds()));
  migration_epoch_.assign(static_cast<std::size_t>(tiling_.num_sds()), 0);

  if (cfg_.backend) kernel_plan_.set_backend(*cfg_.backend);
  kernel_plan_.set_tuning(cfg_.tuning);
  if (cfg_.rebalance.enabled)
    rebalancer_ = std::make_unique<balance::auto_rebalancer>(cfg_.rebalance);
}

// Out of line: ~unique_ptr<balance::auto_rebalancer> needs the complete type.
dist_solver::~dist_solver() = default;

balance::rebalance_stats dist_solver::rebalance_stats() const {
  return rebalancer_ ? rebalancer_->stats() : balance::rebalance_stats{};
}

net::byte_buffer dist_solver::acquire_buffer() {
  std::lock_guard<std::mutex> lk(buffer_pool_mu_);
  if (buffer_pool_.empty()) return {};
  auto buf = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  return buf;
}

void dist_solver::release_buffer(net::byte_buffer buf) {
  std::lock_guard<std::mutex> lk(buffer_pool_mu_);
  buffer_pool_.push_back(std::move(buf));
}

void dist_solver::unpack_ghost(int sd, direction d, net::byte_buffer buf) {
  NLH_TRACE_SPAN_ARG("dist/unpack", static_cast<std::uint64_t>(sd));
  // Per-SD scratch: one task (or the stepping thread) unpacks all of an
  // SD's ghosts in order, so they never touch it concurrently.
  auto& strip = unpack_scratch_[static_cast<std::size_t>(sd)];
  net::archive_reader r(buf);
  r.read_vector_into(strip);
  blocks_[static_cast<std::size_t>(sd)]->unpack(tiling_, d, strip);
  release_buffer(std::move(buf));
  ghosts_inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

std::uint64_t dist_solver::ghost_tag(int step, std::uint64_t tag_base) const {
  // The historical (step, sd, direction) encoding, affine in the step: the
  // plan caches tag_base = sd * num_directions + direction.
  return static_cast<std::uint64_t>(step) * plan_.tag_stride + tag_base;
}

std::uint64_t dist_solver::migration_tag(int sd) const {
  // Bit 63 separates migration traffic from ghost tags; the per-SD
  // migration epoch in bits [32, 63) makes every migration of one SD a
  // distinct tag, so interleaved migrations cannot cross-deliver.
  const std::uint64_t epoch =
      migration_epoch_[static_cast<std::size_t>(sd)] & 0x7fffffffull;
  return (1ull << 63) | (epoch << 32) | static_cast<std::uint64_t>(sd);
}

std::uint64_t dist_solver::migration_epoch(int sd) const {
  NLH_ASSERT(sd >= 0 && sd < tiling_.num_sds());
  return migration_epoch_[static_cast<std::size_t>(sd)];
}

overlap_stats dist_solver::stats() const {
  overlap_stats s;
  s.messages = stat_messages_.load(std::memory_order_relaxed);
  s.interior_early = stat_interior_early_.load(std::memory_order_relaxed);
  s.strips_early = stat_strips_early_.load(std::memory_order_relaxed);
  s.wait_seconds = wait_seconds_.load(std::memory_order_relaxed);
  return s;
}

nonlocal::kernel_exec_stats dist_solver::kernel_stats() const {
  nonlocal::kernel_exec_stats s;
  s.applies = kernel_applies_.load(std::memory_order_relaxed);
  s.blocks = kernel_blocks_.load(std::memory_order_relaxed);
  s.dps = kernel_dps_.load(std::memory_order_relaxed);
  s.seconds = kernel_seconds_.load(std::memory_order_relaxed);
  return s;
}

void dist_solver::metrics_into(obs::metrics_snapshot& snap) const {
  snap.add_counter("dist/ghost/messages",
                   stat_messages_.load(std::memory_order_relaxed));
  snap.add_counter("dist/ghost/bytes", ghost_bytes_.load(std::memory_order_relaxed));
  snap.add_counter("dist/overlap/interior_early",
                   stat_interior_early_.load(std::memory_order_relaxed));
  snap.add_counter("dist/overlap/strips_early",
                   stat_strips_early_.load(std::memory_order_relaxed));
  snap.add_gauge("dist/step/wait_seconds",
                 wait_seconds_.load(std::memory_order_relaxed));
  snap.add_gauge("dist/step/current", static_cast<double>(step_));
  snap.add_counter("dist/plan/compiles", plan_compiles_);
  // Blocked-kernel execution (docs/kernels.md): counters accumulate across
  // every compute_rect on every locality; the gauges report the plan's
  // chosen block geometry and the effective hot-loop throughput.
  {
    const auto ks = kernel_stats();
    snap.add_counter("kernel/applies", ks.applies);
    snap.add_counter("kernel/blocks", ks.blocks);
    snap.add_counter("kernel/dps", ks.dps);
    snap.add_gauge("kernel/mdps", ks.mdps());
    snap.add_gauge("kernel/block_rows",
                   static_cast<double>(kernel_plan_.blocking().row_block));
    snap.add_gauge("kernel/col_tile",
                   static_cast<double>(kernel_plan_.blocking().col_tile));
  }
  snap.add_histogram("dist/ghost/message_bytes", ghost_msg_bytes_hist_.summary());
  snap.add_histogram("dist/step/drain_wait_seconds", drain_wait_hist_.summary());
  for (int l = 0; l < own_.num_nodes(); ++l)
    snap.add_gauge("amt/pool#" + std::to_string(l) + "/busy_fraction",
                   pools_[static_cast<std::size_t>(l)]->busy_fraction());
  // Plan shape: only meaningful once compiled; a dirty plan (fresh
  // construction, or just after migrate_sd/restore) is skipped rather than
  // reported as all-zero.
  if (!plan_dirty_) {
    snap.add_gauge("dist/plan/messages", static_cast<double>(plan_.total_messages));
    snap.add_gauge("dist/plan/local_fills",
                   static_cast<double>(plan_.total_local_fills));
    snap.add_gauge("dist/plan/boundary_sds",
                   static_cast<double>(plan_.boundary_sds));
  }
  if (ckpt_checkpoints_ > 0) {
    snap.add_counter("dist/ckpt/checkpoints", ckpt_checkpoints_);
    snap.add_counter("dist/ckpt/bytes_raw", ckpt_bytes_raw_);
    snap.add_counter("dist/ckpt/bytes_encoded", ckpt_bytes_encoded_);
    snap.add_counter("dist/ckpt/frames_full", ckpt_frames_full_);
    snap.add_counter("dist/ckpt/frames_delta", ckpt_frames_delta_);
    snap.add_gauge("dist/ckpt/compression_ratio",
                   ckpt_bytes_encoded_
                       ? static_cast<double>(ckpt_bytes_raw_) /
                             static_cast<double>(ckpt_bytes_encoded_)
                       : 0.0);
  }
  if (rebalancer_) {
    const auto& rs = rebalancer_->stats();
    snap.add_counter("balance/checks", rs.checks);
    snap.add_counter("balance/epochs", rs.epochs);
    snap.add_counter("balance/moves", rs.moves);
    snap.add_gauge("balance/imbalance_before", rs.last_imbalance_before);
    snap.add_gauge("balance/imbalance_after", rs.last_imbalance_after);
  }
}

void dist_solver::ensure_plan() {
  if (!plan_dirty_) return;
  plan_ = compile_step_plan(tiling_, own_);
  ++plan_compiles_;
  NLH_TRACE_INSTANT("dist/plan_compile",
                    static_cast<std::uint64_t>(plan_.total_messages));
  recv_slots_.assign(static_cast<std::size_t>(plan_.total_messages),
                     amt::future<net::byte_buffer>{});
  plan_dirty_ = false;
}

const step_plan& dist_solver::plan() {
  ensure_plan();
  return plan_;
}

void dist_solver::set_initial_condition() {
  const int s = tiling_.sd_size();
  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    auto& blk = *blocks_[static_cast<std::size_t>(sd)];
    for (int i = 0; i < s; ++i)
      for (int j = 0; j < s; ++j)
        blk.u()[blk.flat(i, j)] = scenario_->initial(
            grid_.x(blk.origin_col() + j), grid_.y(blk.origin_row() + i));
  }
}

void dist_solver::compute_rect(int sd, const nonlocal::dp_rect& rect, double t_now) {
  if (rect.empty()) return;
  auto& blk = *blocks_[static_cast<std::size_t>(sd)];
  auto& lu = lu_[static_cast<std::size_t>(sd)];

  // The per-SD blocks and the scenario's source term share this solver's
  // compiled plan, dispatching to its pinned backend (or the process
  // default when dist_config::backend was unset).
  const auto kt0 = std::chrono::steady_clock::now();
  nonlocal::apply_nonlocal_operator_raw(blk.u().data(), lu.data(), blk.stride(),
                                        blk.ghost(), kernel_plan_, c_, rect);
  const auto kt1 = std::chrono::steady_clock::now();
  kernel_applies_.fetch_add(1, std::memory_order_relaxed);
  kernel_blocks_.fetch_add(
      static_cast<std::uint64_t>(nonlocal::count_blocks(
          kernel_plan_.blocking(), rect.row_begin, rect.row_end, rect.col_begin,
          rect.col_end)),
      std::memory_order_relaxed);
  kernel_dps_.fetch_add(static_cast<std::uint64_t>(rect.row_end - rect.row_begin) *
                            static_cast<std::uint64_t>(rect.col_end - rect.col_begin),
                        std::memory_order_relaxed);
  // C++17 atomic<double> has no fetch_add; CAS loop (contention is a few
  // tasks per step, so this never spins long).
  const double dsec = std::chrono::duration<double>(kt1 - kt0).count();
  double cur = kernel_seconds_.load(std::memory_order_relaxed);
  while (!kernel_seconds_.compare_exchange_weak(cur, cur + dsec,
                                                std::memory_order_relaxed)) {
  }

  // The scenario source over the matching global rectangle. Rects of
  // concurrent tasks are disjoint, so the shared scratch is race-free.
  const nonlocal::dp_rect grect{rect.row_begin + blk.origin_row(),
                                rect.row_end + blk.origin_row(),
                                rect.col_begin + blk.origin_col(),
                                rect.col_end + blk.origin_col()};
  scenario_->source_into(context(), t_now, w_field_, grect, b_field_);

  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j) {
      const auto idx = blk.flat(i, j);
      const auto gidx = grid_.flat(blk.origin_row() + i, blk.origin_col() + j);
      blk.u_next()[idx] = blk.u()[idx] + dt_ * (lu[idx] + b_field_[gidx]);
    }
}

void dist_solver::step() {
  NLH_TRACE_SPAN_ARG("dist/step", static_cast<std::uint64_t>(step_));
  ensure_plan();
  const double t_now = step_ * dt_;
  const overlap_schedule sched = schedule();

  ghosts_inflight_.store(plan_.total_messages, std::memory_order_release);
  stat_messages_.fetch_add(static_cast<std::uint64_t>(plan_.total_messages),
                           std::memory_order_relaxed);
  pending_.clear();
  aux_pending_.clear();

  // 1. Futurized receives from the cached message table (parking a promise
  // in the destination mailbox — no task is spent); the payload futures
  // are consumed by the strip tasks (coarse) or the drain (bulk_sync).
  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    const int dst = own_.owner(sd);
    for (const auto& rv : plan_.sds[static_cast<std::size_t>(sd)].recvs)
      recv_slots_[static_cast<std::size_t>(rv.slot)] =
          comm_.recv(dst, rv.src_locality, ghost_tag(step_, rv.tag_base));
  }

  // 2. Boundary-first posting: every pack/send task is enqueued before any
  // aux-field or compute work, so ghost messages leave each locality's
  // pool as early as possible.
  for (const auto& snd : plan_.sends) {
    const auto tag = ghost_tag(step_, snd.tag_base);
    pending_.push_back(amt::async(
        *pools_[static_cast<std::size_t>(snd.src_locality)],
        [this, sender_sd = snd.sender_sd, pack_dir = snd.pack_dir,
         src = snd.src_locality, dst = snd.dst_locality, tag] {
          NLH_TRACE_SPAN_ARG("dist/pack_send", static_cast<std::uint64_t>(sender_sd));
          auto& strip = pack_scratch_[static_cast<std::size_t>(sender_sd)]
                                     [static_cast<std::size_t>(pack_dir)];
          blocks_[static_cast<std::size_t>(sender_sd)]->pack_into(tiling_, pack_dir,
                                                                  strip);
          net::archive_writer w(acquire_buffer());
          w.write(strip);
          auto buf = w.take();
          ghost_bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
          ghost_msg_bytes_hist_.record(static_cast<double>(buf.size()));
          comm_.send(src, dst, tag, std::move(buf));
        }));
  }

  // 3. The scenario's auxiliary field on the global grid (manufactured:
  // the analytic w(t_k), so no communication is needed); each locality
  // evaluates its own SDs' rectangles (disjoint writes), boundary SDs
  // first. Everything must land before compute tasks read across SD
  // boundaries, so these futures are awaited below.
  for (const int sd : plan_.post_order) {
    aux_pending_.push_back(amt::async(
        *pools_[static_cast<std::size_t>(own_.owner(sd))], [this, sd, t_now] {
          NLH_TRACE_SPAN_ARG("dist/aux", static_cast<std::uint64_t>(sd));
          const auto& blk = *blocks_[static_cast<std::size_t>(sd)];
          const nonlocal::dp_rect grect{
              blk.origin_row(), blk.origin_row() + tiling_.sd_size(),
              blk.origin_col(), blk.origin_col() + tiling_.sd_size()};
          scenario_->fill_aux(context(), t_now, grect, w_field_);
        }));
  }

  // 4. Same-locality collar fills: direct copies, no serialization. They
  // finish before any unpack is posted (the strip tasks below, or the
  // bulk_sync drain) and write collars the pack tasks never read.
  for (int sd = 0; sd < tiling_.num_sds(); ++sd)
    for (const auto& [d, nb] : plan_.sds[static_cast<std::size_t>(sd)].local_fills)
      blocks_[static_cast<std::size_t>(sd)]->fill_from_local(
          tiling_, d, *blocks_[static_cast<std::size_t>(nb)]);

  // The source evaluation inside compute_rect reads w up to `ghost` cells
  // beyond its own SD: every w rectangle must be in place first.
  for (auto& f : aux_pending_) f.wait();

  if (sched == overlap_schedule::bulk_sync) {
    // Bulk-synchronous baseline: drain every ghost before any compute.
    // This stall is communication wait just like the end-of-step drain, so
    // it counts toward the same observable.
    support::stopwatch drain_sw;
    {
      NLH_TRACE_SPAN("dist/drain");
      for (int sd = 0; sd < tiling_.num_sds(); ++sd)
        for (const auto& rv : plan_.sds[static_cast<std::size_t>(sd)].recvs)
          unpack_ghost(sd, rv.dir,
                       recv_slots_[static_cast<std::size_t>(rv.slot)].get());
    }
    const double drained_s = drain_sw.elapsed_s();
    drain_wait_hist_.record(drained_s);
    // Single writer (the serialized stepping thread): load+store suffices.
    wait_seconds_.store(wait_seconds_.load(std::memory_order_relaxed) + drained_s,
                        std::memory_order_relaxed);
  }

  for (const int sd : plan_.post_order) {
    auto& pool = *pools_[static_cast<std::size_t>(own_.owner(sd))];
    const auto& sd_plan = plan_.sds[static_cast<std::size_t>(sd)];

    // Case 2: needs no foreign data — runs while messages are in flight.
    pending_.push_back(amt::async(pool, [this, sd, rect = sd_plan.split.interior,
                                         t_now] {
      NLH_TRACE_SPAN_ARG("dist/interior", static_cast<std::uint64_t>(sd));
      compute_rect_counted(sd, rect, t_now, stat_interior_early_);
    }));

    if (sched == overlap_schedule::bulk_sync) {
      if (sd_plan.split.remote_strips.empty()) continue;
      pending_.push_back(
          amt::async(pool, [this, sd, &strips = sd_plan.split.remote_strips, t_now] {
            NLH_TRACE_SPAN_ARG("dist/strip", static_cast<std::uint64_t>(sd));
            for (const auto& rect : strips)
              compute_rect_counted(sd, rect, t_now, stat_strips_early_);
          }));
      continue;
    }

    // Case 1 (paper §6.3): all of this SD's strips gate on the arrival of
    // all of its ghosts (amt::dataflow hops onto the owner's pool).
    if (sd_plan.recvs.empty()) continue;
    std::vector<amt::future<net::byte_buffer>> futs;
    futs.reserve(sd_plan.recvs.size());
    for (const auto& rv : sd_plan.recvs)
      futs.push_back(std::move(recv_slots_[static_cast<std::size_t>(rv.slot)]));
    // The plan outlives the step (it recompiles only between steps), so the
    // task may read its receive table and strips by reference.
    pending_.push_back(amt::dataflow(
        pool, std::move(futs),
        [this, sd, &sd_plan, t_now](std::vector<amt::future<net::byte_buffer>> ready) {
          NLH_TRACE_SPAN_ARG("dist/strip", static_cast<std::uint64_t>(sd));
          for (std::size_t i = 0; i < ready.size(); ++i)
            unpack_ghost(sd, sd_plan.recvs[i].dir, ready[i].get());
          for (const auto& rect : sd_plan.split.remote_strips)
            compute_rect_counted(sd, rect, t_now, stat_strips_early_);
        }));
  }

  // 5. End-of-step drain. The stall measured here is the per-step
  // overlap/wait observable exposed through stats() and the api metrics.
  support::stopwatch sw;
  {
    NLH_TRACE_SPAN("dist/drain");
    for (auto& f : pending_) f.wait();
  }
  const double drained_s = sw.elapsed_s();
  drain_wait_hist_.record(drained_s);
  wait_seconds_.store(wait_seconds_.load(std::memory_order_relaxed) + drained_s,
                      std::memory_order_relaxed);

  for (auto& blk : blocks_) blk->swap_fields();
  ++step_;

  // 6. The live Algorithm 1 loop (docs/balance.md): with the step fully
  // drained and the fields swapped, ownership can change safely — any
  // migrations it performs dirty the plan, which recompiles at the top of
  // the next step.
  if (rebalancer_) rebalancer_->on_step(*this);
}

void dist_solver::compute_rect_counted(int sd, const nonlocal::dp_rect& rect,
                                       double t_now,
                                       std::atomic<std::uint64_t>& early_counter) {
  if (rect.empty()) return;
  compute_rect(sd, rect, t_now);
  if (ghosts_inflight_.load(std::memory_order_acquire) > 0)
    early_counter.fetch_add(1, std::memory_order_relaxed);
}

void dist_solver::run(int steps) {
  for (int k = 0; k < steps; ++k) step();
}

std::vector<double> dist_solver::gather() const {
  auto field = grid_.make_field();
  const int s = tiling_.sd_size();
  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    const auto& blk = *blocks_[static_cast<std::size_t>(sd)];
    for (int i = 0; i < s; ++i)
      for (int j = 0; j < s; ++j)
        field[grid_.flat(blk.origin_row() + i, blk.origin_col() + j)] =
            blk.u()[blk.flat(i, j)];
  }
  return field;
}

double dist_solver::busy_fraction(int locality) const {
  NLH_ASSERT(locality >= 0 && locality < own_.num_nodes());
  return pools_[static_cast<std::size_t>(locality)]->busy_fraction();
}

double dist_solver::busy_seconds(int locality) const {
  NLH_ASSERT(locality >= 0 && locality < own_.num_nodes());
  return pools_[static_cast<std::size_t>(locality)]->busy_time_s();
}

void dist_solver::reset_busy_counters() {
  for (auto& pool : pools_) pool->reset_busy_time();
}

void dist_solver::migrate_sd(int sd, int to_node) {
  NLH_ASSERT(sd >= 0 && sd < tiling_.num_sds());
  NLH_ASSERT(to_node >= 0 && to_node < own_.num_nodes());
  const int from = own_.owner(sd);
  if (from == to_node) return;

  // New epoch => new tag: a second migration of this SD can never match a
  // message still in flight from an earlier one.
  ++migration_epoch_[static_cast<std::size_t>(sd)];

  auto& blk = *blocks_[static_cast<std::size_t>(sd)];
  net::archive_writer w;
  w.write(blk.interior());
  comm_.send(from, to_node, migration_tag(sd), w.take());

  const auto buf = comm_.recv(to_node, from, migration_tag(sd)).get();
  net::archive_reader r(buf);
  blk.set_interior(r.read_vector<double>());

  own_.set_owner(sd, to_node);
  plan_dirty_ = true;  // the schedule depends on the ownership map
}

namespace {

/// Snapshot header magic ("NLK1"): rejects the PR-7-era raw format and
/// arbitrary byte garbage before any frame decoding starts.
constexpr std::uint32_t kCkptMagic = 0x4e4c4b31;

}  // namespace

net::byte_buffer dist_solver::checkpoint() {
  return encode_checkpoint(cfg_.checkpoint.incremental);
}

net::byte_buffer dist_solver::checkpoint_full() { return encode_checkpoint(false); }

net::byte_buffer dist_solver::encode_checkpoint(bool incremental) {
  NLH_TRACE_SPAN("dist/checkpoint");
  const ckpt::codec* codec = ckpt::find_codec(cfg_.checkpoint.codec);
  NLH_ASSERT_MSG(codec != nullptr, "dist_solver: unknown checkpoint codec");

  // A delta blob needs a baseline to diff against; the first incremental
  // checkpoint (and any checkpoint when incremental is off) is full.
  const bool delta_kind = incremental && ckpt_baseline_.has_value();
  const std::uint64_t seq = ckpt_seq_++;

  net::archive_writer w;
  w.write(kCkptMagic);
  w.write(static_cast<std::uint8_t>(delta_kind ? 'I' : 'F'));
  w.write(codec->name());
  w.write(seq);
  if (delta_kind) w.write(ckpt_baseline_->seq);
  w.write(static_cast<std::int64_t>(step_));
  w.write(own_.raw());

  ckpt_baseline next_baseline;
  if (incremental && !delta_kind) {
    next_baseline.seq = seq;
    next_baseline.interiors.resize(static_cast<std::size_t>(tiling_.num_sds()));
    next_baseline.epochs = migration_epoch_;
  }

  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    const auto i = static_cast<std::size_t>(sd);
    std::vector<double> vals = blocks_[i]->interior();
    // Per-SD fallback: an SD that migrated since the baseline was anchored
    // gets a full frame (real deployments lose the baseline copy with the
    // move); everything else diffs against the anchor.
    const bool delta_frame =
        delta_kind && migration_epoch_[i] == ckpt_baseline_->epochs[i];
    w.write(static_cast<std::uint8_t>(delta_frame ? 'D' : 'F'));
    w.write(migration_epoch_[i]);
    const auto st = codec->encode(
        vals.data(), vals.size(),
        delta_frame ? ckpt_baseline_->interiors[i].data() : nullptr, w);
    ckpt_bytes_raw_ += st.raw_bytes;
    ckpt_bytes_encoded_ += st.encoded_bytes;
    (delta_frame ? ckpt_frames_delta_ : ckpt_frames_full_) += 1;
    if (incremental && !delta_kind) next_baseline.interiors[i] = std::move(vals);
  }
  ++ckpt_checkpoints_;

  if (incremental && !delta_kind) ckpt_baseline_ = std::move(next_baseline);
  return w.take();
}

void dist_solver::restore(const net::byte_buffer& state) {
  NLH_TRACE_SPAN("dist/restore");
  net::archive_reader r(state);
  NLH_ASSERT_MSG(r.read<std::uint32_t>() == kCkptMagic,
                 "dist_solver::restore: not a checkpoint blob");
  const auto kind = r.read<std::uint8_t>();
  NLH_ASSERT_MSG(kind == 'F' || kind == 'I',
                 "dist_solver::restore: unknown snapshot kind");
  const ckpt::codec* codec = ckpt::find_codec(r.read_string());
  NLH_ASSERT_MSG(codec != nullptr, "dist_solver::restore: unknown codec in blob");
  const auto seq = r.read<std::uint64_t>();
  if (kind == 'I') {
    const auto base_seq = r.read<std::uint64_t>();
    NLH_ASSERT_MSG(ckpt_baseline_.has_value() && ckpt_baseline_->seq == base_seq,
                   "dist_solver::restore: delta snapshot without its baseline");
  }
  step_ = static_cast<int>(r.read<std::int64_t>());
  const auto owners = r.read_vector<int>();
  NLH_ASSERT_MSG(owners.size() == static_cast<std::size_t>(tiling_.num_sds()),
                 "dist_solver::restore: SD count mismatch");
  for (int sd = 0; sd < tiling_.num_sds(); ++sd)
    own_.set_owner(sd, owners[static_cast<std::size_t>(sd)]);

  const auto n_interior =
      static_cast<std::size_t>(tiling_.sd_size()) * tiling_.sd_size();
  std::vector<double> vals(n_interior);
  ckpt_baseline next_baseline;
  if (kind == 'F') {
    next_baseline.seq = seq;
    next_baseline.interiors.resize(static_cast<std::size_t>(tiling_.num_sds()));
    next_baseline.epochs = migration_epoch_;
  }
  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    const auto i = static_cast<std::size_t>(sd);
    const auto frame_kind = r.read<std::uint8_t>();
    NLH_ASSERT_MSG(frame_kind == 'F' || frame_kind == 'D',
                   "dist_solver::restore: unknown frame kind");
    r.read<std::uint64_t>();  // encode-time migration epoch, informational
    const double* prev = nullptr;
    if (frame_kind == 'D') {
      NLH_ASSERT_MSG(ckpt_baseline_.has_value(),
                     "dist_solver::restore: delta frame without a baseline");
      prev = ckpt_baseline_->interiors[i].data();
    }
    codec->decode(r, vals.data(), vals.size(), prev);
    auto& blk = *blocks_[i];
    std::fill(blk.u().begin(), blk.u().end(), 0.0);
    std::fill(blk.u_next().begin(), blk.u_next().end(), 0.0);
    blk.set_interior(vals);
    if (kind == 'F') next_baseline.interiors[i] = vals;
  }
  NLH_ASSERT_MSG(r.exhausted(), "dist_solver::restore: trailing bytes in snapshot");
  // Restoring a full snapshot re-anchors the incremental chain on it, the
  // way taking one does; restoring a delta leaves the baseline standing so
  // its siblings stay restorable.
  if (kind == 'F') ckpt_baseline_ = std::move(next_baseline);
  if (ckpt_seq_ <= seq) ckpt_seq_ = seq + 1;
  plan_dirty_ = true;  // the snapshot may carry a different ownership map
}

}  // namespace nlh::dist
