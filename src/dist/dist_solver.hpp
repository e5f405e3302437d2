#pragma once
///
/// \file dist_solver.hpp
/// \brief The fully asynchronous distributed solver (paper §6): per-SD
/// forward-Euler stepping on per-locality AMT thread pools with futurized
/// ghost exchange over net::comm_world.
///
/// Each timestep executes a cached **step_plan** (docs/overlap.md),
/// compiled once from (tiling, ownership) and invalidated only by
/// migrate_sd/restore: same-locality collars are filled by direct copies;
/// cross-locality strips travel as serialized byte buffers through the
/// mailbox network, with pack/send tasks posted boundary-first so messages
/// leave each locality before any compute is enqueued. Case-2 interior
/// rectangles compute immediately while the messages are in flight; under
/// the default coarse schedule (paper §6.3) each SD's case-1 strips run in
/// one task chained on the arrival of all of its ghosts, which unpacks them
/// in order and then computes the strips. The bulk_sync baseline drains
/// every ghost before any compute and stays selectable for ablation.
/// Per-locality busy-time counters feed Algorithm 1, `migrate_sd`
/// implements its migration primitive, and checkpoint/restore snapshots
/// step counter, ownership and fields into a self-contained byte buffer.
///
/// The solver reproduces the serial reference bitwise for every
/// decomposition, ownership and thread count: every DP update reads the
/// same double values through the same stencil entry order, whether its
/// inputs arrived by collar copy or by message. Both solvers route the
/// update through one compiled stencil_plan that owns its kernel backend
/// (pinned per solver via dist_config::backend, else the process
/// default — docs/kernels.md), so the property holds per backend and
/// solvers with different backends coexist in one process.
///
/// Ghost-strip pooling: the exchange path reuses its buffers across steps
/// — per-(SD, direction) pack scratch, per-SD unpack scratch, and a free
/// list recirculating serialized byte buffers from the receive side back
/// to the senders — so steady-state stepping allocates nothing on the
/// strip path (measured by bench/micro_ghost).
///

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "amt/thread_pool.hpp"
#include "api/scenario.hpp"
#include "balance/policy.hpp"
#include "ckpt/codec.hpp"
#include "dist/ownership.hpp"
#include "dist/sd_block.hpp"
#include "dist/step_plan.hpp"
#include "dist/tiling.hpp"
#include "net/comm_world.hpp"
#include "nonlocal/influence.hpp"
#include "obs/metrics.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/stencil.hpp"

namespace nlh::balance {
class auto_rebalancer;
}

namespace nlh::dist {

/// Task schedule of the ghost exchange (docs/overlap.md).
enum class overlap_schedule {
  /// Drain every ghost before any compute — no communication hiding; the
  /// baseline the overlap gate compares against.
  bulk_sync,
  /// Case-2 overlaps; all of an SD's case-1 strips gate on the arrival of
  /// all of its ghosts (paper §6.3; the default).
  coarse,
};

const char* overlap_schedule_name(overlap_schedule s);
/// Parse "coarse" / "bulk_sync"; nullopt on anything else.
std::optional<overlap_schedule> parse_overlap_schedule(const std::string& name);

struct dist_config {
  int sd_rows = 1;
  int sd_cols = 1;
  int sd_size = 8;              ///< DPs per SD side
  int epsilon_factor = 2;       ///< epsilon = factor * h; also the ghost width
  double conductivity = 1.0;
  double dt = 0.0;              ///< 0 = stability bound * dt_safety
  double dt_safety = 0.5;
  nonlocal::influence_kind kind = nonlocal::influence_kind::constant;
  int threads_per_locality = 1;
  /// Which ghost-exchange schedule step() executes (see overlap_schedule).
  overlap_schedule schedule = overlap_schedule::coarse;
  /// Kernel backend this solver's plan is pinned to; nullopt keeps the
  /// plan following the process default (the historical behaviour).
  std::optional<nonlocal::kernel_backend> backend;
  /// Blocked-execution overrides for the plan's cache model (see
  /// block_plan.hpp); the value-initialized default derives everything.
  /// Execution order only — never changes results or the bitwise
  /// serial/distributed agreement.
  nonlocal::kernel_tuning tuning;
  /// Live Algorithm 1 policy (docs/balance.md): when enabled, the solver
  /// owns a balance::auto_rebalancer and runs it after every completed
  /// step, migrating SDs between its own localities whenever the measured
  /// busy-time imbalance reaches the trigger. Disabled (the default) keeps
  /// the historical static partition.
  balance::rebalance_policy rebalance;
  /// How checkpoint() encodes snapshots (docs/checkpoint.md): which frame
  /// codec compresses the per-SD interiors, and whether consecutive
  /// checkpoints diff against the chain's baseline instead of carrying
  /// full frames.
  ckpt::checkpoint_options checkpoint;
};

/// All validation failures of `cfg`, each naming the offending field
/// ("dist_config.sd_size: ..."); empty = valid. dist_solver construction
/// runs this and throws std::invalid_argument on the first build error,
/// instead of asserting deep inside tiling.
std::vector<std::string> validate(const dist_config& cfg);

/// Cumulative overlap observables of one dist_solver (counted since
/// construction; all schedules maintain them, so the same run can be
/// compared across schedules). "Early" means the task finished while at
/// least one of the current step's ghost messages was still in flight —
/// the direct evidence that compute hid communication.
struct overlap_stats {
  std::uint64_t messages = 0;        ///< cross-locality ghost messages exchanged
  std::uint64_t interior_early = 0;  ///< case-2 rect tasks that finished early
  std::uint64_t strips_early = 0;    ///< case-1 strip tasks that finished early
  double wait_seconds = 0.0;  ///< stepping thread blocked in the end-of-step drain
};

class dist_solver {
 public:
  /// \param scn the workload scenario; null selects the manufactured
  /// problem (the historical hard-wired behaviour, bit for bit).
  /// Throws std::invalid_argument when validate(cfg) reports problems.
  dist_solver(const dist_config& cfg, ownership_map own,
              std::shared_ptr<const api::scenario> scn = nullptr);
  ~dist_solver();

  dist_solver(const dist_solver&) = delete;
  dist_solver& operator=(const dist_solver&) = delete;

  const nonlocal::grid2d& grid() const { return grid_; }
  const tiling& sd_tiling() const { return tiling_; }
  const ownership_map& owners() const { return own_; }
  net::comm_world& comm() { return comm_; }
  const net::comm_world& comm() const { return comm_; }

  double dt() const { return dt_; }
  double scaling_constant() const { return c_; }
  int current_step() const { return step_; }
  const api::scenario& active_scenario() const { return *scenario_; }
  const nonlocal::stencil_plan& kernel_plan() const { return kernel_plan_; }
  /// Backend every DP update of this solver dispatches to (the pinned one
  /// when dist_config::backend was set, else the process default).
  nonlocal::kernel_backend backend() const { return kernel_plan_.backend(); }

  /// Initialize every owned SD to the scenario's initial condition.
  void set_initial_condition();

  /// Advance one asynchronous timestep (ghost exchange + case-1/case-2
  /// compute + field swap) across all localities.
  void step();
  void run(int steps);

  /// Assemble the global padded field from all SD blocks (collar zero).
  std::vector<double> gather() const;

  /// Bytes of serialized ghost strips sent since construction (excludes
  /// migration traffic).
  std::uint64_t ghost_bytes() const { return ghost_bytes_.load(); }

  /// The schedule step() executes (dist_config::schedule).
  overlap_schedule schedule() const { return cfg_.schedule; }

  /// Snapshot of the cumulative overlap observables (see overlap_stats).
  overlap_stats stats() const;

  /// Cumulative kernel execution counters across every compute_rect of
  /// every locality (operator applies, blocks walked, DPs updated, seconds
  /// in the hot loop). Feeds the kernel/* observables in metrics_into.
  nonlocal::kernel_exec_stats kernel_stats() const;

  /// Append this solver's distributed-layer instruments to `snap` under
  /// `dist/...` names (ghost traffic counters, message-size and drain-wait
  /// histograms, per-locality busy fractions, compiled-plan shape gauges).
  /// Call serialized with step()/migrate_sd()/restore(), like gather() —
  /// the api layer does so under its step lock.
  void metrics_into(obs::metrics_snapshot& snap) const;

  /// Times this SD has been migrated since construction — the epoch mixed
  /// into migration tags so interleaved migrations of one SD can't
  /// cross-deliver.
  std::uint64_t migration_epoch(int sd) const;

  /// The compiled schedule of the current (tiling, ownership) pair; compiled
  /// lazily on the first step after construction/migration/restore.
  const step_plan& plan();

  /// Times ensure_plan() actually recompiled the step plan since
  /// construction. Stays at 1 across any number of steps on a static
  /// partition and grows only by epochs that really moved SDs — the cheap
  /// observable auto_rebalance_test uses to prove rebalancing does not
  /// invalidate the cached plan spuriously.
  std::uint64_t plan_compiles() const { return plan_compiles_; }

  /// The live rebalancer, or null when dist_config::rebalance.enabled was
  /// false. Exposed so tests/benches can inject a synthetic busy-time
  /// sampler or observe per-epoch reports; call only serialized with
  /// step(), like gather().
  balance::auto_rebalancer* rebalancer() { return rebalancer_.get(); }
  const balance::auto_rebalancer* rebalancer() const { return rebalancer_.get(); }

  /// Cumulative auto-rebalancing observables; all-zero when rebalancing is
  /// disabled.
  balance::rebalance_stats rebalance_stats() const;

  /// Busy-time fraction of one locality's pool since the last reset — the
  /// observable Algorithm 1 consumes.
  double busy_fraction(int locality) const;
  /// Cumulative busy seconds of the same pool since the last reset
  /// (busy_fraction's numerator). Per measurement window, the max over
  /// localities is the window's critical path — what the balance gate
  /// bench sums into a makespan model that oversubscribed CI boxes cannot
  /// distort the way raw wall-clock is distorted.
  double busy_seconds(int locality) const;
  void reset_busy_counters();

  /// Move one SD to `to_node`: its field travels through the network as a
  /// serialized message and the ownership map is updated. A move to the
  /// current owner is a no-op (no traffic).
  void migrate_sd(int sd, int to_node);

  /// Snapshot the solver — step counter, ownership, every SD's interior
  /// field — through the configured frame codec (docs/checkpoint.md).
  /// With `checkpoint.incremental` (the default) the first call emits a
  /// full snapshot that becomes the chain's baseline; later calls emit
  /// delta frames against it, falling back to a full frame for any SD
  /// that migrated since the baseline. Every blob in the chain stays
  /// restorable while the baseline stands (i.e. until a full snapshot is
  /// taken or restored); restore() asserts the match via sequence numbers.
  net::byte_buffer checkpoint();
  /// Self-contained snapshot regardless of the incremental setting: every
  /// frame full, restorable on any identically-configured solver with no
  /// baseline — the hibernation/export path. Leaves the incremental
  /// chain's baseline untouched.
  net::byte_buffer checkpoint_full();
  void restore(const net::byte_buffer& state);

 private:
  /// One forward-Euler update over a local-coordinate rectangle of `sd`.
  void compute_rect(int sd, const nonlocal::dp_rect& rect, double t_now);
  /// compute_rect plus the early-completion accounting (`early` selects the
  /// interior or strip counter).
  void compute_rect_counted(int sd, const nonlocal::dp_rect& rect, double t_now,
                            std::atomic<std::uint64_t>& early_counter);

  /// Recompile the step plan when ownership changed (migration/restore).
  void ensure_plan();

  std::uint64_t ghost_tag(int step, std::uint64_t tag_base) const;
  std::uint64_t migration_tag(int sd) const;

  /// Pop a recycled serialized-strip buffer (empty when the pool is dry);
  /// the receive side returns consumed buffers through release_buffer, so
  /// steady-state stepping stops allocating on the serialization path.
  net::byte_buffer acquire_buffer();
  void release_buffer(net::byte_buffer buf);
  /// Decode `buf` into `sd`'s collar facing `d` (pooled scratch, no
  /// allocation in steady state) and recycle the buffer.
  void unpack_ghost(int sd, direction d, net::byte_buffer buf);

  api::scenario_context context() const { return {&grid_, &kernel_plan_, c_}; }

  dist_config cfg_;
  tiling tiling_;
  ownership_map own_;
  nonlocal::grid2d grid_;
  nonlocal::influence J_;
  nonlocal::stencil stencil_;
  double c_;
  double dt_;
  nonlocal::stencil_plan kernel_plan_;
  std::shared_ptr<const api::scenario> scenario_;

  /// Declared before comm_ so the pools outlive it: comm_'s destructor
  /// joins the delayed-delivery timer thread, which may still be returning
  /// from a post() into one of these pools after the last step drained.
  std::vector<std::unique_ptr<amt::thread_pool>> pools_;
  net::comm_world comm_;
  std::vector<std::unique_ptr<sd_block>> blocks_;
  std::vector<std::vector<double>> lu_;  ///< per-SD L_h[u] scratch (padded)
  std::vector<double> w_field_;          ///< scenario aux field (global grid)
  std::vector<double> b_field_;          ///< scenario source scratch

  // Pooled exchange buffers. Pack scratch is per (SD, direction): the
  // per-step pack tasks of one SD target distinct directions. Unpack
  // scratch is per SD: one task (coarse) or the stepping thread
  // (bulk_sync) unpacks all of an SD's ghosts in order. Serialized byte
  // buffers recirculate through a mutex-guarded free list.
  std::vector<std::array<std::vector<double>, num_directions>> pack_scratch_;
  std::vector<std::vector<double>> unpack_scratch_;
  std::mutex buffer_pool_mu_;
  std::vector<net::byte_buffer> buffer_pool_;

  // The cached schedule plus its reusable per-step storage: future slots
  // are sized once at plan compile and re-assigned in place each step, so
  // steady-state stepping no longer rebuilds the futs/fut_dirs/pending
  // vectors the pre-plan step() allocated every call.
  step_plan plan_;
  bool plan_dirty_ = true;
  std::uint64_t plan_compiles_ = 0;

  /// The live Algorithm 1 loop (docs/balance.md); null unless
  /// cfg_.rebalance.enabled. step() calls its on_step() after the field
  /// swap, so migrations land between steps and the recompiled plan is
  /// what the next step executes.
  std::unique_ptr<balance::auto_rebalancer> rebalancer_;
  std::vector<amt::future<net::byte_buffer>> recv_slots_;  ///< per message
  std::vector<amt::future<void>> pending_;      ///< end-of-step drain set
  std::vector<amt::future<void>> aux_pending_;  ///< scenario aux-field fills

  /// Per-SD migration counter mixed into migration tags.
  std::vector<std::uint64_t> migration_epoch_;

  /// Incremental-checkpoint chain state (docs/checkpoint.md): the values
  /// and per-SD migration epochs of the chain's anchoring full snapshot,
  /// plus the sequence number restore() uses to reject a delta blob whose
  /// baseline this solver no longer holds.
  struct ckpt_baseline {
    std::uint64_t seq = 0;
    std::vector<std::vector<double>> interiors;  ///< per SD
    std::vector<std::uint64_t> epochs;           ///< migration epoch per SD
  };
  net::byte_buffer encode_checkpoint(bool incremental);
  std::optional<ckpt_baseline> ckpt_baseline_;
  std::uint64_t ckpt_seq_ = 0;

  // dist/ckpt/* observables; written only on the (serialized) checkpoint
  // path, read by metrics_into under the same serialization.
  std::uint64_t ckpt_checkpoints_ = 0;
  std::uint64_t ckpt_bytes_raw_ = 0;
  std::uint64_t ckpt_bytes_encoded_ = 0;
  std::uint64_t ckpt_frames_full_ = 0;
  std::uint64_t ckpt_frames_delta_ = 0;

  // Overlap observables (see overlap_stats). ghosts_inflight_ counts the
  // current step's undelivered/unprocessed ghosts; compute tasks that
  // finish while it is non-zero increment the early counters.
  std::atomic<int> ghosts_inflight_{0};
  std::atomic<std::uint64_t> stat_messages_{0};
  std::atomic<std::uint64_t> stat_interior_early_{0};
  std::atomic<std::uint64_t> stat_strips_early_{0};
  /// Written only by the (serialized) stepping thread; atomic so stats()
  /// snapshots from other threads (monitoring during an async run) are
  /// race-free like the sibling counters.
  std::atomic<double> wait_seconds_{0.0};

  // kernel/* observables: compute_rect tasks on any locality's pool
  // accumulate here (relaxed atomics; read by kernel_stats()).
  std::atomic<std::uint64_t> kernel_applies_{0};
  std::atomic<std::uint64_t> kernel_blocks_{0};
  std::atomic<std::uint64_t> kernel_dps_{0};
  std::atomic<double> kernel_seconds_{0.0};

  int step_ = 0;
  std::atomic<std::uint64_t> ghost_bytes_{0};

  // Observability instruments (docs/observability.md): serialized ghost
  // message sizes in bytes (recorded by pack/send tasks, mutex-guarded
  // internally) and the stepping thread's per-step drain stall in seconds.
  obs::histogram ghost_msg_bytes_hist_{obs::histogram_options{1.0, 1e9, 4}};
  obs::histogram drain_wait_hist_;
};

}  // namespace nlh::dist
