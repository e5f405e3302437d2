#pragma once
///
/// \file stencil_plan.hpp
/// \brief Compiled, vectorization-friendly form of the epsilon-ball stencil:
/// per-`di` contiguous `dj` runs with structure-of-arrays weights.
///
/// The raw stencil is a flat `(di, dj, w)` entry list; applying it per output
/// DP gathers one strided value per entry, which defeats auto-vectorization.
/// On a uniform grid the canonical (row-major) entry order makes every row of
/// the epsilon ball a handful of maximal runs of *consecutive* `dj` — one run
/// per `di` except the center row, which splits around the excluded (0,0)
/// entry. Compiling the stencil into those runs once per problem turns the
/// hot loop into unit-stride fused multiply-adds over contiguous row
/// segments (see docs/kernels.md for the transformation and its FP
/// consequences).
///
/// The plan is self-contained: it copies the canonical entry list (the
/// scalar baseline walks it), so it never dangles on the source stencil.
///
/// The plan is also the unit of backend ownership: a plan can be *pinned*
/// to one kernel_backend, and the dispatching entry point
/// (`apply_nonlocal_operator_raw` without an explicit backend argument)
/// resolves through the plan. Unpinned plans follow the process default,
/// which preserves the historical behaviour; pinned plans are what lets
/// two sessions with different backends coexist in one process
/// (docs/kernels.md).
///
/// The plan also owns the **blocked execution geometry** (block_plan.hpp):
/// at construction it derives the (row-block x column-tile) dims from the
/// stencil reach and the probed cache hierarchy; `set_tuning` re-derives
/// them under per-solver overrides. Every backend iterates the same
/// geometry, so row_run and the SIMD paths share one tuning source.
///

#include <cstddef>
#include <optional>
#include <vector>

#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/kernel/block_plan.hpp"
#include "nonlocal/stencil.hpp"

namespace nlh::nonlocal {

/// One maximal run of stencil entries sharing row offset `di` whose column
/// offsets are the consecutive range [dj_begin, dj_begin + length).
struct stencil_run {
  int di;            ///< row offset of every entry in the run
  int dj_begin;      ///< first column offset
  int length;        ///< number of consecutive entries
  int weight_index;  ///< offset of the run's first weight in weights()
};

class stencil_plan {
 public:
  /// Compile `st` (whose entries are canonical row-major order) into runs.
  explicit stencil_plan(const stencil& st);

  /// Maximal consecutive-`dj` runs, ordered row-major by (di, dj_begin).
  const std::vector<stencil_run>& runs() const { return runs_; }

  /// Flat per-entry weights in canonical entry order; a run's weights are
  /// the contiguous slice [weight_index, weight_index + length).
  const std::vector<double>& weights() const { return weights_; }

  /// Canonical entry list (row-major by di, then dj) — the scalar baseline
  /// backend iterates this exactly like the original entry-list kernel.
  const std::vector<stencil_entry>& entries() const { return entries_; }

  std::size_t size() const { return entries_.size(); }

  /// Sum of weights; identical to stencil::weight_sum(), so
  /// stable_dt(c, plan) == stable_dt(c, stencil).
  double weight_sum() const { return weight_sum_; }

  /// Maximum |di| / |dj| over entries — the ghost width actually needed.
  int reach() const { return reach_; }

  /// Pin this plan to `b`: every dispatch through the plan (the
  /// no-backend-argument apply overloads) uses `b` regardless of the
  /// process default. Owning solvers call this once at construction.
  void set_backend(kernel_backend b) { backend_ = b; }
  /// Back to following the process default (the construction state).
  void clear_backend() { backend_.reset(); }
  bool has_pinned_backend() const { return backend_.has_value(); }

  /// The backend a dispatch through this plan resolves to: the pinned one,
  /// else the process default at call time (so unpinned plans keep tracking
  /// set_kernel_default_backend changes).
  kernel_backend backend() const {
    return backend_ ? *backend_ : kernel_default_backend();
  }

  /// Re-derive the blocked execution geometry under `t` (see
  /// block_plan.hpp). Owning solvers call this once at construction, before
  /// the first apply; it is not synchronized against concurrent dispatch.
  void set_tuning(const kernel_tuning& t) {
    tuning_ = t;
    blocking_ = compute_block_geometry(reach_, tuning_);
  }
  const kernel_tuning& tuning() const { return tuning_; }

  /// The (row-block x column-tile) geometry every backend's blocked loop
  /// iterates for this plan.
  const block_geometry& blocking() const { return blocking_; }

 private:
  std::vector<stencil_entry> entries_;
  std::vector<stencil_run> runs_;
  std::vector<double> weights_;
  double weight_sum_ = 0.0;
  int reach_ = 0;
  std::optional<kernel_backend> backend_;
  kernel_tuning tuning_;
  block_geometry blocking_;
};

/// Largest stable forward-Euler timestep for scaling constant c (same bound
/// as the stencil overload; the plan preserves weight_sum exactly).
inline double stable_dt(double c, const stencil_plan& plan) {
  const double denom = c * plan.weight_sum();
  NLH_ASSERT(denom > 0.0);
  return 1.0 / denom;
}

}  // namespace nlh::nonlocal
