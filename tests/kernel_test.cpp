// Tests for the vectorized kernel subsystem (src/nonlocal/kernel/): stencil
// canonicalization, run compilation invariants, bitwise/ULP agreement of the
// scalar / row_run / simd / avx512 backends across horizon factors,
// non-square rects and rects touching the ghost border, the blocked
// execution plan (cache-model clamping, blocked == unblocked bitwise), and
// the masked narrow bodies of the vector backends on every narrow shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nonlocal/grid2d.hpp"
#include "nonlocal/influence.hpp"
#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "nonlocal/serial_solver.hpp"
#include "nonlocal/steady_state.hpp"
#include "support/rng.hpp"

namespace nl = nlh::nonlocal;

namespace {

/// Deterministic pseudo-random field over the whole padded box, collar
/// included, so boundary-touching rects read non-trivial ghost values.
std::vector<double> random_field(const nl::grid2d& g, unsigned seed) {
  auto u = g.make_field();
  nlh::support::rng r(seed);
  for (auto& v : u) v = r.uniform(-1.0, 1.0);
  return u;
}

/// Apply via the raw plan entry point with an explicit backend.
std::vector<double> apply_backend(const nl::grid2d& g, const nl::stencil_plan& plan,
                                  double c, const std::vector<double>& u,
                                  const nl::dp_rect& rect, nl::kernel_backend b) {
  auto out = g.make_field();
  nl::apply_nonlocal_operator_raw(u.data(), out.data(), g.stride(), g.ghost(), plan, c,
                                  rect, b);
  return out;
}

/// Absolute tolerance for cross-backend comparison: the backends sum the
/// same entries in the same order but with different association of the
/// center term (and FMA on the simd path), so agreement is a few ULPs of
/// the natural magnitude scale c * weight_sum * max|u|, not bitwise.
double agreement_tol(const nl::stencil_plan& plan, double c, double umax) {
  return 1e-12 * c * plan.weight_sum() * umax;
}

void expect_rect_near(const nl::grid2d& g, const std::vector<double>& a,
                      const std::vector<double>& b, const nl::dp_rect& rect,
                      double tol) {
  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j)
      ASSERT_NEAR(a[g.flat(i, j)], b[g.flat(i, j)], tol)
          << "at (" << i << ", " << j << ")";
}

/// Every selectable backend (unavailable ones dispatch through their
/// documented fallback chain, so each is always safe to request).
constexpr nl::kernel_backend kAllBackends[] = {
    nl::kernel_backend::scalar, nl::kernel_backend::row_run,
    nl::kernel_backend::simd, nl::kernel_backend::avx512};

/// One rect per (width, height) in 1..40 x 1..9 — every mask width and
/// every 4-row remainder — at offsets that vary the column alignment.
std::vector<nl::dp_rect> narrow_rects(int n) {
  std::vector<nl::dp_rect> rects;
  for (int w = 1; w <= 40; ++w)
    for (int h = 1; h <= 9; ++h) {
      const int r0 = (w + 3 * h) % (n - h);
      const int c0 = (5 * w + h) % (n - w);
      rects.push_back({r0, r0 + h, c0, c0 + w});
    }
  return rects;
}

}  // namespace

// ------------------------------------------------------------- canonical ----

TEST(Stencil, EntriesAreCanonicalRowMajor) {
  for (const int f : {2, 3, 8}) {
    nl::grid2d g(32, static_cast<double>(f) / 32);
    nl::stencil st(g, nl::influence{});
    const auto& e = st.entries();
    ASSERT_FALSE(e.empty());
    EXPECT_TRUE(std::is_sorted(e.begin(), e.end(), nl::stencil_entry_less));
    // No duplicates and no center entry.
    for (std::size_t k = 1; k < e.size(); ++k)
      EXPECT_TRUE(e[k - 1].di != e[k].di || e[k - 1].dj != e[k].dj);
    for (const auto& entry : e) EXPECT_TRUE(entry.di != 0 || entry.dj != 0);
  }
}

// ------------------------------------------------------------ plan layout ----

TEST(StencilPlan, RunsReconstructEntriesExactly) {
  for (const int f : {2, 4, 8, 16}) {
    nl::grid2d g(2 * f, static_cast<double>(f) / (2 * f));
    nl::stencil st(g, nl::influence(nl::influence_kind::gaussian));
    nl::stencil_plan plan(st);

    ASSERT_EQ(plan.size(), st.size());
    ASSERT_EQ(plan.weights().size(), st.size());

    // Expand runs back into (di, dj, w) and compare against the stencil.
    std::vector<nl::stencil_entry> rebuilt;
    for (const auto& r : plan.runs()) {
      ASSERT_GE(r.length, 1);
      for (int e = 0; e < r.length; ++e)
        rebuilt.push_back(nl::stencil_entry{
            r.di, r.dj_begin + e,
            plan.weights()[static_cast<std::size_t>(r.weight_index + e)]});
    }
    ASSERT_EQ(rebuilt.size(), st.entries().size());
    for (std::size_t k = 0; k < rebuilt.size(); ++k) {
      EXPECT_EQ(rebuilt[k].di, st.entries()[k].di);
      EXPECT_EQ(rebuilt[k].dj, st.entries()[k].dj);
      EXPECT_EQ(rebuilt[k].w, st.entries()[k].w);  // exact copy, not recompute
    }
  }
}

TEST(StencilPlan, RunsAreMaximal) {
  // Adjacent runs must not be mergeable: a new run starts only on a di
  // change or a dj gap (the center row splits around the excluded (0,0)).
  nl::grid2d g(32, 4.0 / 32);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto& runs = plan.runs();
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const bool same_di = runs[k - 1].di == runs[k].di;
    if (same_di)
      EXPECT_GT(runs[k].dj_begin, runs[k - 1].dj_begin + runs[k - 1].length);
    else
      EXPECT_LT(runs[k - 1].di, runs[k].di);
  }
  // One run per di row except di == 0, which has exactly two.
  int center_runs = 0;
  for (const auto& r : runs)
    if (r.di == 0) ++center_runs;
  EXPECT_EQ(center_runs, 2);
}

TEST(StencilPlan, PreservesWeightSumReachAndStableDt) {
  nl::grid2d g(24, 3.0 / 24);
  nl::stencil st(g, nl::influence(nl::influence_kind::linear));
  nl::stencil_plan plan(st);
  EXPECT_EQ(plan.weight_sum(), st.weight_sum());
  EXPECT_EQ(plan.reach(), st.reach());
  const double c = 7.5;
  EXPECT_EQ(nl::stable_dt(c, plan), nl::stable_dt(c, st));
}

// ------------------------------------------------------- backend agreement ----

TEST(KernelBackends, ScalarBackendIsBitwiseTheLegacyKernel) {
  for (const int f : {2, 4, 8, 16}) {
    const int n = 32;
    nl::grid2d g(n, static_cast<double>(f) / n);
    nl::stencil st(g, nl::influence{});
    nl::stencil_plan plan(st);
    const auto u = random_field(g, 1234 + static_cast<unsigned>(f));
    const nl::dp_rect all{0, n, 0, n};

    auto legacy = g.make_field();
    nl::apply_nonlocal_operator(g, st, 2.5, u, legacy, all);
    const auto scalar = apply_backend(g, plan, 2.5, u, all, nl::kernel_backend::scalar);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(legacy[g.flat(i, j)], scalar[g.flat(i, j)]);
  }
}

TEST(KernelBackends, AgreeAcrossEpsilonFactors) {
  for (const int f : {2, 4, 8, 16}) {
    const int n = 48;
    nl::grid2d g(n, static_cast<double>(f) / n);
    nl::stencil st(g, nl::influence{});
    nl::stencil_plan plan(st);
    const auto u = random_field(g, 42 + static_cast<unsigned>(f));
    const double c = 1.75;
    const nl::dp_rect all{0, n, 0, n};
    const double tol = agreement_tol(plan, c, 1.0);

    const auto scalar = apply_backend(g, plan, c, u, all, nl::kernel_backend::scalar);
    for (const auto b : {nl::kernel_backend::row_run, nl::kernel_backend::simd,
                         nl::kernel_backend::avx512}) {
      const auto out = apply_backend(g, plan, c, u, all, b);
      expect_rect_near(g, scalar, out, all, tol);
    }
  }
}

TEST(KernelBackends, AgreeOnNonSquareRects) {
  const int n = 40;
  nl::grid2d g(n, 4.0 / n);
  nl::stencil st(g, nl::influence(nl::influence_kind::gaussian));
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 7);
  const double c = 3.0;
  const double tol = agreement_tol(plan, c, 1.0);

  // Wide, tall, thin strips and a single DP — including odd widths that
  // exercise the SIMD remainder lanes.
  const nl::dp_rect rects[] = {
      {3, 7, 0, n}, {0, n, 5, 9}, {11, 12, 2, 37}, {4, 31, 17, 18}, {20, 21, 20, 21},
  };
  for (const auto& rect : rects) {
    const auto scalar = apply_backend(g, plan, c, u, rect, nl::kernel_backend::scalar);
    for (const auto b : {nl::kernel_backend::row_run, nl::kernel_backend::simd,
                         nl::kernel_backend::avx512}) {
      const auto out = apply_backend(g, plan, c, u, rect, b);
      expect_rect_near(g, scalar, out, rect, tol);
    }
  }
}

TEST(KernelBackends, AgreeOnRectsTouchingGhostBorder) {
  const int n = 36;
  nl::grid2d g(n, 6.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 99);  // collar holds non-zero ghost values
  const double c = 0.8;
  const double tol = agreement_tol(plan, c, 1.0);

  // Every edge and corner of the interior, where the reads reach maximally
  // into the ghost collar.
  const nl::dp_rect rects[] = {
      {0, 2, 0, n},          // top edge
      {n - 2, n, 0, n},      // bottom edge
      {0, n, 0, 2},          // left edge
      {0, n, n - 2, n},      // right edge
      {0, 3, 0, 3},          // top-left corner
      {n - 3, n, n - 3, n},  // bottom-right corner
  };
  for (const auto& rect : rects) {
    const auto scalar = apply_backend(g, plan, c, u, rect, nl::kernel_backend::scalar);
    for (const auto b : {nl::kernel_backend::row_run, nl::kernel_backend::simd,
                         nl::kernel_backend::avx512}) {
      const auto out = apply_backend(g, plan, c, u, rect, b);
      expect_rect_near(g, scalar, out, rect, tol);
    }
  }
}

TEST(KernelBackends, RectPartitionInvariantBitwise) {
  // The bitwise serial/distributed guarantee (DESIGN.md) needs every
  // backend to produce identical bits for a DP whether it was computed as
  // part of a full-width row or of a narrow SD rectangle — i.e. regardless
  // of where the DP falls relative to vector-body/tail boundaries.
  const int n = 40;
  nl::grid2d g(n, 4.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 21);
  const double c = 1.1;

  for (const auto b : kAllBackends) {
    const auto full =
        apply_backend(g, plan, c, u, {0, n, 0, n}, nl::kernel_backend(b));
    // Vertical strips of width 5 force different body/tail splits, plus a
    // horizontal split at an odd row.
    auto split = g.make_field();
    for (int cb = 0; cb < n; cb += 5) {
      nl::apply_nonlocal_operator_raw(u.data(), split.data(), g.stride(), g.ghost(),
                                      plan, c, {0, 13, cb, std::min(cb + 5, n)}, b);
      nl::apply_nonlocal_operator_raw(u.data(), split.data(), g.stride(), g.ghost(),
                                      plan, c, {13, n, cb, std::min(cb + 5, n)}, b);
    }
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(full[g.flat(i, j)], split[g.flat(i, j)])
            << nl::kernel_backend_name(b) << " at (" << i << ", " << j << ")";
  }
}

TEST(KernelBackends, AllZeroOnConstantField) {
  // sum w*(u_j - u_i) and sum w*u_j - W*u_i both vanish analytically on a
  // constant field; numerically the hoisted form leaves only rounding noise.
  const int n = 24;
  nl::grid2d g(n, 4.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  auto u = g.make_field();
  for (auto& v : u) v = 3.7;
  const nl::dp_rect all{0, n, 0, n};
  for (const auto b : kAllBackends) {
    const auto out = apply_backend(g, plan, 5.0, u, all, b);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) ASSERT_NEAR(out[g.flat(i, j)], 0.0, 1e-12);
  }
}

// ---------------------------------------------------------------- dispatch ----

TEST(KernelDispatch, DefaultBackendEntryPointMatchesExplicit) {
  const int n = 20;
  nl::grid2d g(n, 2.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 5);
  const nl::dp_rect all{0, n, 0, n};

  const auto saved = nl::kernel_default_backend();
  for (const auto b : kAllBackends) {
    nl::set_kernel_default_backend(b);
    EXPECT_EQ(nl::kernel_default_backend(), b);
    auto via_default = g.make_field();
    nl::apply_nonlocal_operator_raw(u.data(), via_default.data(), g.stride(),
                                    g.ghost(), plan, 1.3, all);
    const auto explicit_out = apply_backend(g, plan, 1.3, u, all, b);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(via_default[g.flat(i, j)], explicit_out[g.flat(i, j)]);
  }
  nl::set_kernel_default_backend(saved);
}

TEST(KernelDispatch, BackendNamesRoundTrip) {
  for (const auto b : kAllBackends) {
    const auto parsed = nl::parse_kernel_backend(nl::kernel_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(nl::parse_kernel_backend("avx2048").has_value());
  EXPECT_FALSE(nl::parse_kernel_backend("").has_value());
}

TEST(KernelDispatch, SimdAvailabilityIsConsistent) {
  // Whatever the build/CPU, dispatch must execute: simd either runs
  // intrinsics or falls back to row_run, never aborts.
  const int level = nl::kernel_simd_compiled_level();
  EXPECT_GE(level, 0);
  EXPECT_LE(level, 2);
  if (nl::kernel_simd_available()) EXPECT_GT(level, 0);

  nl::grid2d g(8, 2.0 / 8);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 11);
  const auto out =
      apply_backend(g, plan, 1.0, u, {0, 8, 0, 8}, nl::kernel_backend::simd);
  EXPECT_EQ(out.size(), g.total());
}

TEST(KernelDispatch, Avx512AvailabilityIsConsistent) {
  // Same contract as simd: requesting avx512 either runs AVX-512F
  // intrinsics or walks the simd -> row_run fallback chain, never aborts.
  const int level = nl::kernel_avx512_compiled_level();
  EXPECT_GE(level, 0);
  EXPECT_LE(level, 1);
  if (nl::kernel_avx512_available()) EXPECT_EQ(level, 1);

  nl::grid2d g(8, 2.0 / 8);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 13);
  const auto out =
      apply_backend(g, plan, 1.0, u, {0, 8, 0, 8}, nl::kernel_backend::avx512);
  EXPECT_EQ(out.size(), g.total());
}

// ----------------------------------------------------------- blocked plan ----

TEST(KernelBlockPlan, ProbedGeometryIsSane) {
  const auto cg = nl::probe_cache_geometry();
  EXPECT_GE(cg.l1d_bytes, 4ll * 1024);
  EXPECT_LE(cg.l1d_bytes, 1ll * 1024 * 1024 * 1024);
  EXPECT_GE(cg.l2_bytes, 4ll * 1024);
  EXPECT_LE(cg.l2_bytes, 1ll * 1024 * 1024 * 1024);
}

TEST(KernelBlockPlan, GeometryClampsDegenerateInputs) {
  // The derivation must be total: any (reach, tuning, cache) combination —
  // zero caches, absurd reaches, out-of-range overrides — yields dims
  // inside the documented bounds.
  const nl::cache_geometry cases[] = {
      {0, 0}, {-5, -5}, {1, 1}, {48 * 1024, 2 * 1024 * 1024},
      {1ll << 40, 1ll << 41}};
  for (const auto& cache : cases) {
    for (const int reach : {-3, 0, 1, 8, 64, 100000}) {
      const auto g = nl::compute_block_geometry(reach, nl::kernel_tuning{}, cache);
      // Derived tiles never starve the widest vector body.
      EXPECT_GE(g.col_tile, nl::kernel_derived_min_col_tile);
      EXPECT_LE(g.col_tile, nl::kernel_max_col_tile);
      EXPECT_EQ(g.col_tile % nl::kernel_min_col_tile, 0);
      EXPECT_GE(g.row_block, nl::kernel_min_row_block);
      EXPECT_LE(g.row_block, nl::kernel_max_row_block);
    }
  }

  // Explicit overrides are honored but clamped, never trusted blindly.
  nl::kernel_tuning t;
  t.row_block = 1;
  t.col_tile = 1;
  auto g = nl::compute_block_geometry(8, t, {48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(g.row_block, nl::kernel_min_row_block);
  EXPECT_EQ(g.col_tile, nl::kernel_min_col_tile);
  t.row_block = 1 << 30;
  t.col_tile = 1 << 30;
  g = nl::compute_block_geometry(8, t, {48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(g.row_block, nl::kernel_max_row_block);
  EXPECT_EQ(g.col_tile, nl::kernel_max_col_tile);
  t.row_block = 24;
  t.col_tile = 64;
  g = nl::compute_block_geometry(8, t, {48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(g.row_block, 24);
  EXPECT_EQ(g.col_tile, 64);
  // Off-quantum explicit tiles are aligned down to the tile quantum.
  t.col_tile = 48;
  g = nl::compute_block_geometry(8, t, {48 * 1024, 2 * 1024 * 1024});
  EXPECT_EQ(g.col_tile, nl::kernel_min_col_tile);

  // A tighter cache budget can only narrow the derived tile.
  const auto wide =
      nl::compute_block_geometry(8, nl::kernel_tuning{}, {256 * 1024, 8 * 1024 * 1024});
  const auto narrow =
      nl::compute_block_geometry(8, nl::kernel_tuning{}, {8 * 1024, 64 * 1024});
  EXPECT_LE(narrow.col_tile, wide.col_tile);
}

TEST(KernelBlockPlan, CountBlocksMatchesAlignedIteration) {
  nl::block_geometry g;
  g.row_block = 4;
  g.col_tile = 16;
  EXPECT_EQ(nl::count_blocks(g, 0, 8, 0, 32), 4);   // 2 row blocks x 2 tiles
  EXPECT_EQ(nl::count_blocks(g, 0, 4, 0, 16), 1);
  EXPECT_EQ(nl::count_blocks(g, 0, 0, 0, 16), 0);   // empty
  // Off-boundary origins get a leading partial block per dimension.
  EXPECT_EQ(nl::count_blocks(g, 2, 6, 8, 24), 4);
  EXPECT_EQ(nl::count_blocks(g, 3, 4, 15, 16), 1);
  // Aligned spans of a decomposition sum to the full-rect count.
  EXPECT_EQ(nl::count_blocks(g, 0, 5, 0, 32) + nl::count_blocks(g, 5, 8, 0, 32),
            nl::count_blocks(g, 0, 8, 0, 32) + 2);  // row split off-boundary
}

TEST(KernelBlocking, BlockedMatchesUnblockedBitwiseOnAwkwardRects) {
  // Blocking only reorders which DP is computed when; each DP's
  // accumulation chain is unchanged, so a plan with aggressive blocking
  // must reproduce the single-block (pre-blocking) execution bit for bit —
  // for every backend, on every awkward rect shape: single rows, widths
  // below/off the tile size, and a reach exceeding the rect height.
  const int n = 56;
  nl::grid2d g(n, 8.0 / n);  // reach 8: wider than several rects below
  nl::stencil st(g, nl::influence{});

  nl::stencil_plan blocked(st);
  nl::kernel_tuning tight;
  tight.row_block = nl::kernel_min_row_block;  // 4-row blocks
  tight.col_tile = nl::kernel_min_col_tile;    // 32-col tiles
  blocked.set_tuning(tight);

  nl::stencil_plan unblocked(st);
  unblocked.set_tuning(nl::kernel_tuning_unblocked());

  const auto u = random_field(g, 77);
  const double c = 2.25;
  std::vector<nl::dp_rect> rects = {
      {0, 1, 0, n},        // 1-row rect, full width
      {5, 6, 3, 11},       // 1-row rect, width < tile
      {10, 16, 20, 33},    // width % tile != 0, reach > height
      {0, n, 0, n},        // full interior, n % tile != 0
      {2, 7, 0, 32},       // aligned tile, off-boundary rows
      {17, 18, 17, 18},    // single DP
  };
  // Every narrow-body mask width and 4-row remainder.
  const auto narrow = narrow_rects(n);
  rects.insert(rects.end(), narrow.begin(), narrow.end());
  for (const auto b : kAllBackends) {
    for (const auto& rect : rects) {
      const auto got = apply_backend(g, blocked, c, u, rect, b);
      const auto want = apply_backend(g, unblocked, c, u, rect, b);
      for (int i = rect.row_begin; i < rect.row_end; ++i)
        for (int j = rect.col_begin; j < rect.col_end; ++j)
          ASSERT_EQ(got[g.flat(i, j)], want[g.flat(i, j)])
              << nl::kernel_backend_name(b) << " at (" << i << ", " << j << ")";
    }
  }
}

TEST(KernelBlocking, StripDecompositionInvariantUnderBlocking) {
  // The distributed solver's fine strips must see the same absolute block
  // boundaries as the full-rect sweep: partition invariance has to hold
  // not just for the default geometry (RectPartitionInvariantBitwise) but
  // under any explicit blocking.
  const int n = 48;
  nl::grid2d g(n, 6.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  nl::kernel_tuning tight;
  tight.row_block = 8;
  tight.col_tile = 32;
  plan.set_tuning(tight);
  const auto u = random_field(g, 31);
  const double c = 1.6;

  for (const auto b : kAllBackends) {
    const auto full = apply_backend(g, plan, c, u, {0, n, 0, n}, b);
    auto split = g.make_field();
    // Strip widths 7 and 9: both off the block boundaries, forcing leading
    // partial blocks inside most strips.
    for (int cb = 0; cb < n; cb += 7) {
      nl::apply_nonlocal_operator_raw(u.data(), split.data(), g.stride(), g.ghost(),
                                      plan, c, {0, 9, cb, std::min(cb + 7, n)}, b);
      nl::apply_nonlocal_operator_raw(u.data(), split.data(), g.stride(), g.ghost(),
                                      plan, c, {9, n, cb, std::min(cb + 7, n)}, b);
    }
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(full[g.flat(i, j)], split[g.flat(i, j)])
            << nl::kernel_backend_name(b) << " at (" << i << ", " << j << ")";
  }
}

// ------------------------------------------------------- narrow bodies ----

namespace {

/// The vector backends whose rects narrower than their wide bodies run the
/// masked narrow body (avx512: 8 lanes, simd/AVX2: 4 lanes; 4 rows a time).
constexpr nl::kernel_backend kNarrowBackends[] = {nl::kernel_backend::simd,
                                                  nl::kernel_backend::avx512};

/// Scalar reference of a hoisted backend's per-DP chain with std::fma:
/// runs in plan order; within a run, alignment-class order (e mod 8, then
/// ascending — the avx512 chain) or natural order (the AVX2 chain); then
/// out = c * fma(-wsum, u_center, acc).
std::vector<double> chain_reference(const nl::grid2d& g, const nl::stencil_plan& plan,
                                    double c, const std::vector<double>& u,
                                    const nl::dp_rect& rect, bool class_order) {
  auto out = g.make_field();
  const double* weights = plan.weights().data();
  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j) {
      double acc = 0.0;
      for (const auto& r : plan.runs()) {
        const double* s = u.data() + g.flat(i + r.di, j + r.dj_begin);
        const double* w = weights + r.weight_index;
        const int classes = class_order ? 8 : 1;
        for (int e0 = 0; e0 < classes && e0 < r.length; ++e0)
          for (int e = e0; e < r.length; e += classes) acc = std::fma(w[e], s[e], acc);
      }
      out[g.flat(i, j)] = c * std::fma(-plan.weight_sum(), u[g.flat(i, j)], acc);
    }
  return out;
}

void expect_rect_bitwise(const nl::grid2d& g, const std::vector<double>& got,
                         const std::vector<double>& want, const nl::dp_rect& rect,
                         const char* what, nl::kernel_backend b) {
  for (int i = rect.row_begin; i < rect.row_end; ++i)
    for (int j = rect.col_begin; j < rect.col_end; ++j)
      ASSERT_EQ(got[g.flat(i, j)], want[g.flat(i, j)])
          << what << ", " << nl::kernel_backend_name(b) << ", rect " << rect.rows()
          << "x" << rect.cols() << " at (" << i << ", " << j << ")";
}

}  // namespace

TEST(KernelNarrow, NarrowRectEqualsCutOfFullWidthRows) {
  // Same bits as the full-width rows, and the masked lanes write nothing
  // outside the rect (the distributed solver's strips abut each other).
  const int n = 56;
  nl::grid2d g(n, 8.0 / n);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const auto u = random_field(g, 92);
  const double c = 0.8;
  constexpr double sentinel = 7.0;
  for (const auto b : kNarrowBackends)
    for (const auto& rect : narrow_rects(n)) {
      std::vector<double> got(g.total(), sentinel);
      nl::apply_nonlocal_operator_raw(u.data(), got.data(), g.stride(), g.ghost(), plan,
                                      c, rect, b);
      const nl::dp_rect rows{rect.row_begin, rect.row_end, 0, n};
      expect_rect_bitwise(g, got, apply_backend(g, plan, c, u, rows, b), rect,
                          "narrow vs full-width rows", b);
      const auto untouched = std::count(got.begin(), got.end(), sentinel);
      ASSERT_EQ(untouched, static_cast<long long>(got.size()) - rect.area())
          << nl::kernel_backend_name(b) << ", rect " << rect.rows() << "x"
          << rect.cols();
    }
}

TEST(KernelNarrow, VectorBackendsWalkTheirDocumentedChain) {
  // avx512 walks each run in alignment-class order, AVX2 in natural
  // order; both hoist the centre term with one fused negate-multiply-add.
  // A std::fma reference of each chain must reproduce every DP bit for
  // bit, whichever body (wide or masked narrow) computed it.
  const bool avx512 = nl::kernel_avx512_available();
  const bool avx2 = nl::kernel_simd_available() && nl::kernel_simd_compiled_level() == 2;
  if (!avx512 && !avx2) GTEST_SKIP() << "no FMA vector backend on this build/CPU";
  for (const int f : {4, 8}) {
    const int n = 56;
    nl::grid2d g(n, static_cast<double>(f) / n);
    nl::stencil st(g, nl::influence{});
    nl::stencil_plan plan(st);
    const auto u = random_field(g, 93 + f);
    const double c = 1.3;
    auto rects = narrow_rects(n);
    rects.push_back({0, n, 0, n});  // wide bodies too
    for (const auto& rect : rects) {
      if (avx512)
        expect_rect_bitwise(g,
                            apply_backend(g, plan, c, u, rect, nl::kernel_backend::avx512),
                            chain_reference(g, plan, c, u, rect, true), rect,
                            "class-order chain", nl::kernel_backend::avx512);
      if (avx2)
        expect_rect_bitwise(g, apply_backend(g, plan, c, u, rect, nl::kernel_backend::simd),
                            chain_reference(g, plan, c, u, rect, false), rect,
                            "natural-order chain", nl::kernel_backend::simd);
    }
  }
}

// ------------------------------------------------------- solver integration ----

TEST(KernelSolvers, SerialSolverErrorIsBackendIndependent) {
  // The measured discretization error must not depend on which backend
  // evaluated the operator (beyond FP noise far below the error itself).
  nl::solver_config cfg;
  cfg.n = 24;
  cfg.epsilon_factor = 3;
  cfg.num_steps = 10;

  const auto saved = nl::kernel_default_backend();
  nl::set_kernel_default_backend(nl::kernel_backend::scalar);
  const auto ref = nl::serial_solver(cfg).run();
  for (const auto b : {nl::kernel_backend::row_run, nl::kernel_backend::simd,
                       nl::kernel_backend::avx512}) {
    nl::set_kernel_default_backend(b);
    const auto res = nl::serial_solver(cfg).run();
    EXPECT_NEAR(res.total_error_e, ref.total_error_e,
                1e-9 * std::abs(ref.total_error_e));
    EXPECT_NEAR(res.final_ek, ref.final_ek, 1e-9 * std::abs(ref.final_ek));
  }
  nl::set_kernel_default_backend(saved);
}

TEST(KernelSolvers, SolverTuningNeverChangesResults) {
  // solver_config::tuning reshapes execution order only: a solver under an
  // aggressive explicit block geometry must reproduce the default-geometry
  // solver bitwise, and its kernel counters must reflect the blocked sweep.
  nl::solver_config cfg;
  cfg.n = 40;
  cfg.epsilon_factor = 8;
  cfg.num_steps = 5;

  nl::serial_solver ref(cfg);
  ref.set_initial_condition();

  cfg.tuning.row_block = nl::kernel_min_row_block;
  cfg.tuning.col_tile = nl::kernel_min_col_tile;
  nl::serial_solver tuned(cfg);
  tuned.set_initial_condition();

  for (int k = 0; k < cfg.num_steps; ++k) {
    ref.step(k);
    tuned.step(k);
  }
  ASSERT_EQ(ref.field().size(), tuned.field().size());
  for (std::size_t i = 0; i < ref.field().size(); ++i)
    ASSERT_EQ(ref.field()[i], tuned.field()[i]) << "at flat index " << i;

  EXPECT_EQ(tuned.kernel_plan().blocking().row_block, nl::kernel_min_row_block);
  EXPECT_EQ(tuned.kernel_plan().blocking().col_tile, nl::kernel_min_col_tile);
  const auto& ks = tuned.kernel_stats();
  EXPECT_EQ(ks.applies, static_cast<std::uint64_t>(cfg.num_steps));
  EXPECT_EQ(ks.dps, static_cast<std::uint64_t>(cfg.num_steps) * cfg.n * cfg.n);
  // 40 rows / 4-row blocks * 40 cols / 32-col tiles = 10 * 2 blocks/apply.
  EXPECT_EQ(ks.blocks, static_cast<std::uint64_t>(cfg.num_steps) * 10 * 2);
  EXPECT_GT(ks.seconds, 0.0);
  EXPECT_GT(ks.mdps(), 0.0);
}

TEST(KernelSolvers, SteadyStateConvergesThroughPlanOverload) {
  nl::grid2d g(16, 2.0 / 16);
  nl::stencil st(g, nl::influence{});
  nl::stencil_plan plan(st);
  const double c = nl::influence{}.scaling_constant(2, 1.0, g.epsilon());
  const auto [b, ustar] = nl::manufactured_steady_problem(g, plan, c);
  auto u = g.make_field();
  const auto res = nl::solve_steady_state(g, plan, c, b, u);
  ASSERT_TRUE(res.converged);
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      EXPECT_NEAR(u[g.flat(i, j)], ustar[g.flat(i, j)], 1e-7);
}
