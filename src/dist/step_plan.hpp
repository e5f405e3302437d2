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
/// The sends table is ordered for boundary-first posting: pack/send tasks
/// are enqueued on the sender pools before any aux-field or interior
/// compute work, so messages leave each locality as early as possible.
/// post_order lists SDs boundary-first for the same reason.
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

/// The same message, sender view — the boundary-first posting order.
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

struct step_plan {
  std::uint64_t tag_stride = 0;  ///< num_sds * num_directions
  int total_messages = 0;        ///< plan-wide message (slot) count
  std::vector<plan_sd> sds;
  std::vector<plan_send> sends;  ///< every cross-locality message, send view
  std::vector<int> post_order;   ///< SD ids, boundary SDs first

  // Aggregate schedule shape, totalled at compile time — exposed as
  // `dist/plan/...` gauges and trace args by the observability layer so an
  // exported snapshot states how much of the step was overlappable.
  int total_local_fills = 0;  ///< same-locality collar copies per step
  int boundary_sds = 0;       ///< SDs with >= 1 cross-locality neighbor
};

/// Compile the schedule for `t` under `own`. Deterministic: the message
/// enumeration (receiver-major, direction order) reproduces the historical
/// tag assignment bit for bit.
step_plan compile_step_plan(const tiling& t, const ownership_map& own);

}  // namespace nlh::dist
