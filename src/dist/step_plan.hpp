#pragma once
///
/// \file step_plan.hpp
/// \brief The compiled per-solver schedule of one distributed timestep.
///
/// A step_plan is compiled once from (tiling, ownership) and reused every
/// step until a migration or restore changes the ownership map: it caches
/// each SD's case-1/case-2 split, its same-locality collar fills and its
/// cross-locality message table (direction, peer locality, tag base) —
/// everything dist_solver::step() used to recompute and re-allocate per
/// step. Ghost
/// tags are an affine function of the step counter (step * tag_stride +
/// tag_base), so the cached bases stay valid for the plan's lifetime.
///
/// The plan cuts each locality's SDs, boundary SDs first, into a few
/// batches (kBatchesPerWorker per pool worker). step() posts two pooled
/// tasks per batch instead of one per message, per SD and per collar: a
/// prepare task that packs and sends the batch's outgoing ghosts before it
/// fills the batch's aux rects and same-locality collars, and, after the
/// aux barrier, an interior task over the batch's case-2 rects. Boundary
/// SDs lead, so the batches that carry messages are posted first and
/// ghosts leave each locality as early as possible.
///

#include <cstdint>
#include <vector>

#include "dist/ownership.hpp"
#include "dist/tiling.hpp"

namespace nlh::dist {

/// One cross-locality ghost message, receiver view.
struct plan_recv {
  direction dir;           ///< collar side it fills on the receiving SD
  int src_locality;        ///< sender's locality at compile time
  std::uint64_t tag_base;  ///< tag = step * step_plan::tag_stride + tag_base
  int slot;                ///< plan-wide message index (future-slot storage)
};

/// The same message, sender view (receiver-major, like the slots).
struct plan_send {
  int sender_sd;
  direction pack_dir;      ///< strip the sender packs (= opposite(recv dir))
  int src_locality;
  int dst_locality;
  std::uint64_t tag_base;  ///< the receiver's tag base (same message)
};

/// The cached per-SD schedule.
struct plan_sd {
  case_split split;  ///< coarse split (interior + full-margin strips)
  std::vector<std::pair<direction, int>> local_fills;  ///< same-locality collars
  std::vector<plan_recv> recvs;
  bool boundary = false;  ///< has at least one cross-locality neighbor
};

/// A run of one locality's SDs stepped by two pooled tasks per step.
struct plan_batch {
  int locality = 0;
  std::vector<int> sds;    ///< SD ids, boundary SDs first
  std::vector<int> sends;  ///< indices into step_plan::sends sent by `sds`
};

/// Batches per pool worker: enough slack for the work-stealing pool to even
/// out unequal batches, few enough that posting stays a handful of tasks.
inline constexpr int kBatchesPerWorker = 4;

struct step_plan {
  std::uint64_t tag_stride = 0;  ///< num_sds * num_directions
  int total_messages = 0;        ///< plan-wide message (slot) count
  std::vector<plan_sd> sds;
  std::vector<plan_send> sends;  ///< every cross-locality message, send view
  /// Locality-major; each locality's SDs appear in exactly one of its
  /// batches, and its first batches hold its boundary SDs.
  std::vector<plan_batch> batches;

  // Aggregate schedule shape, totalled at compile time — exposed as
  // `dist/plan/...` gauges and trace args by the observability layer so an
  // exported snapshot states how much of the step was overlappable.
  int total_local_fills = 0;  ///< same-locality collar copies per step
  int boundary_sds = 0;       ///< SDs with >= 1 cross-locality neighbor
};

/// Compile the schedule for `t` under `own`, batched for pools of
/// `threads_per_locality` workers: min(owned SDs, kBatchesPerWorker *
/// threads_per_locality) batches per locality, as equal in size as
/// possible. Deterministic: the message enumeration (receiver-major,
/// direction order) reproduces the historical tag assignment bit for bit.
step_plan compile_step_plan(const tiling& t, const ownership_map& own,
                            int threads_per_locality);

}  // namespace nlh::dist
