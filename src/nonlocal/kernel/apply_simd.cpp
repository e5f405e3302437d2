///
/// \file apply_simd.cpp
/// \brief Explicit-SIMD nonlocal kernel: AVX2+FMA when this TU is compiled
/// with the vector flags (CMake adds -mavx2 -mfma here and nowhere else),
/// SSE2 on the plain x86-64 baseline, row_run forwarding elsewhere.
///
/// Only this translation unit may contain AVX2 instructions; dispatch calls
/// apply_simd solely after kernel_simd_available() confirms the running CPU
/// supports what was compiled in.
///

#include <cstddef>

#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/kernel/kernel_detail.hpp"
#include "nonlocal/nonlocal_operator.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#define NLH_SIMD_LEVEL 2
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#define NLH_SIMD_LEVEL 1
#include <emmintrin.h>
#else
#define NLH_SIMD_LEVEL 0
#endif

namespace nlh::nonlocal {

int kernel_simd_compiled_level() { return NLH_SIMD_LEVEL; }

}  // namespace nlh::nonlocal

namespace nlh::nonlocal::kernel_detail {

#if NLH_SIMD_LEVEL == 2

namespace {

/// Narrow-column body: the columns [j, j + 4) — lanes outside the mask
/// `m` off — of `R` consecutive rows starting at `urow`/`orow`, one ymm
/// accumulator per row. Each lane is one DP walking the 16-wide body's
/// chain (natural entry order, fmadd, then fnmadd/mul), so a DP's bits do
/// not depend on which body computed it — serial rows and narrow SD rects
/// slice the same DP into different positions, and the per-backend bitwise
/// serial/distributed guarantee (docs/kernels.md) hinges on that. Masked
/// lanes are neither read nor written.
template <int R>
inline void narrow_rows(const double* urow, double* orow, int stride,
                        const stencil_plan& plan, __m256d vc, __m256d vwsum,
                        int j, __m256i m) {
  const double* weights = plan.weights().data();
  __m256d acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
  for (const auto& run : plan.runs()) {
    const double* s = urow + static_cast<std::ptrdiff_t>(run.di) * stride +
                      run.dj_begin + j;
    const double* w = weights + run.weight_index;
    for (int e = 0; e < run.length; ++e) {
      const __m256d we = _mm256_set1_pd(w[e]);
      for (int r = 0; r < R; ++r)
        acc[r] = _mm256_fmadd_pd(
            we, _mm256_maskload_pd(s + static_cast<std::ptrdiff_t>(r) * stride + e, m),
            acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(r) * stride + j;
    const __m256d center = _mm256_maskload_pd(urow + off, m);
    _mm256_maskstore_pd(orow + off, m,
                        _mm256_mul_pd(vc, _mm256_fnmadd_pd(vwsum, center, acc[r])));
  }
}

/// Columns [j_begin, j_end) of rows [row_begin, row_end): four rows at a
/// time (then the 1-3 leftover rows), 4-lane chunks with the last masked.
inline void narrow_block(const double* u, double* out, int stride, int ghost,
                         const stencil_plan& plan, __m256d vc, __m256d vwsum,
                         int row_begin, int row_end, int j_begin, int j_end) {
  for (int i = row_begin; i < row_end; i += 4) {
    const std::size_t row = static_cast<std::size_t>(i + ghost) * stride + ghost;
    const double* urow = u + row;
    double* orow = out + row;
    for (int j = j_begin; j < j_end; j += 4) {
      const int lanes = j_end - j < 4 ? j_end - j : 4;
      // Lane k is live iff k < lanes (maskload keys on each lane's sign bit).
      const __m256i m = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes),
                                           _mm256_set_epi64x(3, 2, 1, 0));
      switch (row_end - i) {
        case 1: narrow_rows<1>(urow, orow, stride, plan, vc, vwsum, j, m); break;
        case 2: narrow_rows<2>(urow, orow, stride, plan, vc, vwsum, j, m); break;
        case 3: narrow_rows<3>(urow, orow, stride, plan, vc, vwsum, j, m); break;
        default: narrow_rows<4>(urow, orow, stride, plan, vc, vwsum, j, m); break;
      }
    }
  }
}

}  // namespace

#elif NLH_SIMD_LEVEL == 1

namespace {

/// SSE2 tail: plain mul+add, bitwise identical to the vector body's
/// mul_pd/add_pd lanes on the baseline target (no FMA exists to contract
/// into, so the rounding sequence is the same by construction).
inline void run_formula_tail(const double* urow, double* orow, int stride,
                             const stencil_plan& plan, double c, double wsum,
                             int j_begin, int j_end) {
  const double* weights = plan.weights().data();
  for (int j = j_begin; j < j_end; ++j) {
    double acc = 0.0;
    for (const auto& r : plan.runs()) {
      const double* s = urow + static_cast<std::ptrdiff_t>(r.di) * stride +
                        r.dj_begin + j;
      const double* w = weights + r.weight_index;
      for (int e = 0; e < r.length; ++e) acc += w[e] * s[e];
    }
    orow[j] = c * (acc - wsum * urow[j]);
  }
}

}  // namespace

#endif

#if NLH_SIMD_LEVEL == 2

void apply_simd(const double* u, double* out, int stride, int ghost,
                const stencil_plan& plan, double c, const dp_rect& rect) {
  // 16 doubles per iteration: four ymm accumulators stay in registers for
  // the entire stencil sweep, so the only streaming traffic is the loads.
  // The sweep walks the plan's blocked geometry so the column tile's
  // sliding input window stays cache-resident across the row block; which
  // block (or wide/narrow body) a DP lands in never changes its bits,
  // because the masked narrow body walks the wide body's chain lane by lane.
  const block_geometry& g = plan.blocking();
  const int reach = plan.reach();
  const double wsum = plan.weight_sum();
  const double* weights = plan.weights().data();
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vwsum = _mm256_set1_pd(wsum);

  for_each_block(rect, g, [&](const dp_rect& blk, const dp_rect* next) {
    if (next != nullptr) prefetch_block_lead(u, stride, ghost, *next, reach);
    // Every row of the block splits at the same column: the 16-wide body
    // covers [col_begin, j_narrow), the narrow body the rest.
    const int j_narrow =
        blk.col_begin + (blk.col_end - blk.col_begin) / 16 * 16;
    for (int i = blk.row_begin; i < blk.row_end; ++i) {
      const double* urow = u + static_cast<std::size_t>(i + ghost) * stride + ghost;
      double* orow = out + static_cast<std::size_t>(i + ghost) * stride + ghost;
      for (int j = blk.col_begin; j < j_narrow; j += 16) {
        __m256d a0 = _mm256_setzero_pd();
        __m256d a1 = _mm256_setzero_pd();
        __m256d a2 = _mm256_setzero_pd();
        __m256d a3 = _mm256_setzero_pd();
        for (const auto& r : plan.runs()) {
          const double* srow = urow + static_cast<std::ptrdiff_t>(r.di) * stride +
                               r.dj_begin + j;
          const double* w = weights + r.weight_index;
          for (int e = 0; e < r.length; ++e) {
            const __m256d we = _mm256_set1_pd(w[e]);
            const double* s = srow + e;
            a0 = _mm256_fmadd_pd(we, _mm256_loadu_pd(s), a0);
            a1 = _mm256_fmadd_pd(we, _mm256_loadu_pd(s + 4), a1);
            a2 = _mm256_fmadd_pd(we, _mm256_loadu_pd(s + 8), a2);
            a3 = _mm256_fmadd_pd(we, _mm256_loadu_pd(s + 12), a3);
          }
        }
        // out = c * (acc - wsum * u_center)
        a0 = _mm256_fnmadd_pd(vwsum, _mm256_loadu_pd(urow + j), a0);
        a1 = _mm256_fnmadd_pd(vwsum, _mm256_loadu_pd(urow + j + 4), a1);
        a2 = _mm256_fnmadd_pd(vwsum, _mm256_loadu_pd(urow + j + 8), a2);
        a3 = _mm256_fnmadd_pd(vwsum, _mm256_loadu_pd(urow + j + 12), a3);
        _mm256_storeu_pd(orow + j, _mm256_mul_pd(vc, a0));
        _mm256_storeu_pd(orow + j + 4, _mm256_mul_pd(vc, a1));
        _mm256_storeu_pd(orow + j + 8, _mm256_mul_pd(vc, a2));
        _mm256_storeu_pd(orow + j + 12, _mm256_mul_pd(vc, a3));
      }
    }
    narrow_block(u, out, stride, ghost, plan, vc, vwsum, blk.row_begin,
                 blk.row_end, j_narrow, blk.col_end);
  });
}

#elif NLH_SIMD_LEVEL == 1

void apply_simd(const double* u, double* out, int stride, int ghost,
                const stencil_plan& plan, double c, const dp_rect& rect) {
  // SSE2: 8 doubles per iteration in four xmm accumulators (no FMA). Walks
  // the same blocked geometry as the AVX2 path; the mul+add tail matches
  // the vector lanes by construction, so blocking stays bitwise invisible.
  const block_geometry& g = plan.blocking();
  const int reach = plan.reach();
  const double wsum = plan.weight_sum();
  const double* weights = plan.weights().data();
  const __m128d vc = _mm_set1_pd(c);
  const __m128d vwsum = _mm_set1_pd(wsum);

  for_each_block(rect, g, [&](const dp_rect& blk, const dp_rect* next) {
    if (next != nullptr) prefetch_block_lead(u, stride, ghost, *next, reach);
  for (int i = blk.row_begin; i < blk.row_end; ++i) {
    const double* urow = u + static_cast<std::size_t>(i + ghost) * stride + ghost;
    double* orow = out + static_cast<std::size_t>(i + ghost) * stride + ghost;
    int j = blk.col_begin;
    for (; j + 8 <= blk.col_end; j += 8) {
      __m128d a0 = _mm_setzero_pd();
      __m128d a1 = _mm_setzero_pd();
      __m128d a2 = _mm_setzero_pd();
      __m128d a3 = _mm_setzero_pd();
      for (const auto& r : plan.runs()) {
        const double* srow = urow + static_cast<std::ptrdiff_t>(r.di) * stride +
                             r.dj_begin + j;
        const double* w = weights + r.weight_index;
        for (int e = 0; e < r.length; ++e) {
          const __m128d we = _mm_set1_pd(w[e]);
          const double* s = srow + e;
          a0 = _mm_add_pd(a0, _mm_mul_pd(we, _mm_loadu_pd(s)));
          a1 = _mm_add_pd(a1, _mm_mul_pd(we, _mm_loadu_pd(s + 2)));
          a2 = _mm_add_pd(a2, _mm_mul_pd(we, _mm_loadu_pd(s + 4)));
          a3 = _mm_add_pd(a3, _mm_mul_pd(we, _mm_loadu_pd(s + 6)));
        }
      }
      a0 = _mm_sub_pd(a0, _mm_mul_pd(vwsum, _mm_loadu_pd(urow + j)));
      a1 = _mm_sub_pd(a1, _mm_mul_pd(vwsum, _mm_loadu_pd(urow + j + 2)));
      a2 = _mm_sub_pd(a2, _mm_mul_pd(vwsum, _mm_loadu_pd(urow + j + 4)));
      a3 = _mm_sub_pd(a3, _mm_mul_pd(vwsum, _mm_loadu_pd(urow + j + 6)));
      _mm_storeu_pd(orow + j, _mm_mul_pd(vc, a0));
      _mm_storeu_pd(orow + j + 2, _mm_mul_pd(vc, a1));
      _mm_storeu_pd(orow + j + 4, _mm_mul_pd(vc, a2));
      _mm_storeu_pd(orow + j + 6, _mm_mul_pd(vc, a3));
    }
    run_formula_tail(urow, orow, stride, plan, c, wsum, j, blk.col_end);
  }
  });
}

#else

void apply_simd(const double* u, double* out, int stride, int ghost,
                const stencil_plan& plan, double c, const dp_rect& rect) {
  apply_row_run(u, out, stride, ghost, plan, c, rect);
}

#endif

}  // namespace nlh::nonlocal::kernel_detail
