///
/// \file apply_avx512.cpp
/// \brief Explicit AVX-512F nonlocal kernel. CMake compiles this TU — and
/// only this TU — with -mavx512f -mfma when NLH_ENABLE_AVX512 is ON and the
/// compiler accepts the flags; otherwise the portable build below forwards
/// to apply_simd, which keeps the avx512 enum value dispatchable on every
/// build (backend.cpp reports kernel_avx512_compiled_level() == 0 so the
/// runtime gate never *selects* it by default).
///
/// Hot-loop design (docs/kernels.md has the full derivation): the naive
/// per-entry form issues five load-port micro-ops per four FMAs — one
/// weight broadcast plus four mostly line-crossing 64-byte loads — which
/// caps the FMA units well below half rate. This kernel instead groups a
/// run's entries by alignment class (e mod 8): two entries eight apart read
/// input vectors shifted by exactly one zmm, so inside a class the loads
/// rotate through registers and each steady-state step costs one fresh load
/// plus one broadcast for eight (96-col body: twelve) FMAs. Columns left of
/// a block after the 96/32-column bodies — all of a rect narrower than 32,
/// the common case for SD-sized rects — run a masked 8-lane body four rows
/// at a time that shares each weight broadcast across the rows. Every load
/// this kernel performs lies inside the span the naive kernel reads — there
/// are no speculative over-reads past the padded field.
///
/// Bitwise contract: a DP's accumulation chain is
///   for each run (plan order):
///     for e8 = 0 .. min(8, len)-1:          // alignment class
///       for e = e8, e8+8, e8+16, ...:       // ascending within class
///         acc = fma(w[e], u[dj+e], acc)
///   out = c * fnmadd(wsum, u_center, acc)
/// The 96-column body, the 32-column body and every lane of the narrow body
/// walk that same chain, so a DP's bits never depend on which body computed it,
/// on the rect shape, or on the block geometry — the partition-invariance
/// property the distributed solver relies on. Note the class ordering means
/// avx512 output is NOT bit-identical to the simd backend's natural-order
/// chain; cross-backend agreement is ULP-bounded like scalar-vs-simd.
///

#include <cstddef>

#include "nonlocal/kernel/backend.hpp"
#include "nonlocal/kernel/kernel_detail.hpp"
#include "nonlocal/nonlocal_operator.hpp"

#if defined(__AVX512F__) && defined(__FMA__)
#define NLH_AVX512_LEVEL 1
#include <immintrin.h>
#else
#define NLH_AVX512_LEVEL 0
#endif

namespace nlh::nonlocal {

int kernel_avx512_compiled_level() { return NLH_AVX512_LEVEL; }

}  // namespace nlh::nonlocal

namespace nlh::nonlocal::kernel_detail {

#if NLH_AVX512_LEVEL == 1

namespace {

/// Narrow-column body: the columns [j, j + 8) — lanes outside the mask
/// `m` off — of `R` consecutive rows starting at `urow`/`orow`, one zmm
/// accumulator per row. Each lane is one DP walking the same chain as the
/// wide bodies (run order, then alignment class, then ascending within the
/// class), so a DP's bits do not depend on which body computed it. The
/// broadcast weight is shared by the R rows; masked lanes are neither read
/// nor written, so every access lies inside the span a per-DP loop over
/// the same columns would touch.
template <int R>
inline void narrow_rows(const double* urow, double* orow, int stride,
                        const stencil_plan& plan, __m512d vc, __m512d vwsum,
                        int j, __mmask8 m) {
  const double* weights = plan.weights().data();
  __m512d acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_pd();
  for (const auto& run : plan.runs()) {
    const double* s = urow + static_cast<std::ptrdiff_t>(run.di) * stride +
                      run.dj_begin + j;
    const double* w = weights + run.weight_index;
    for (int e8 = 0; e8 < 8 && e8 < run.length; ++e8)
      for (int e = e8; e < run.length; e += 8) {
        const __m512d we = _mm512_set1_pd(w[e]);
        for (int r = 0; r < R; ++r)
          acc[r] = _mm512_fmadd_pd(
              we, _mm512_maskz_loadu_pd(m, s + static_cast<std::ptrdiff_t>(r) * stride + e),
              acc[r]);
      }
  }
  for (int r = 0; r < R; ++r) {
    const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(r) * stride + j;
    const __m512d center = _mm512_maskz_loadu_pd(m, urow + off);
    _mm512_mask_storeu_pd(orow + off, m,
                          _mm512_mul_pd(vc, _mm512_fnmadd_pd(vwsum, center, acc[r])));
  }
}

/// Columns [j_begin, j_end) of rows [row_begin, row_end): four rows at a
/// time (then the 1-3 leftover rows), 8-lane chunks with the last masked.
inline void narrow_block(const double* u, double* out, int stride, int ghost,
                         const stencil_plan& plan, __m512d vc, __m512d vwsum,
                         int row_begin, int row_end, int j_begin, int j_end) {
  for (int i = row_begin; i < row_end; i += 4) {
    const std::size_t row = static_cast<std::size_t>(i + ghost) * stride + ghost;
    const double* urow = u + row;
    double* orow = out + row;
    for (int j = j_begin; j < j_end; j += 8) {
      const int lanes = j_end - j < 8 ? j_end - j : 8;
      const __mmask8 m = static_cast<__mmask8>((1u << lanes) - 1u);
      switch (row_end - i) {
        case 1: narrow_rows<1>(urow, orow, stride, plan, vc, vwsum, j, m); break;
        case 2: narrow_rows<2>(urow, orow, stride, plan, vc, vwsum, j, m); break;
        case 3: narrow_rows<3>(urow, orow, stride, plan, vc, vwsum, j, m); break;
        default: narrow_rows<4>(urow, orow, stride, plan, vc, vwsum, j, m); break;
      }
    }
  }
}

// One FMA step of the register-blocked bodies: broadcast one weight, feed
// every accumulator its rotated input vector.
#define NLH_AVX512_FMA12(we)                                                 \
  do {                                                                       \
    a0 = _mm512_fmadd_pd(we, V0, a0);                                        \
    a1 = _mm512_fmadd_pd(we, V1, a1);                                        \
    a2 = _mm512_fmadd_pd(we, V2, a2);                                        \
    a3 = _mm512_fmadd_pd(we, V3, a3);                                        \
    a4 = _mm512_fmadd_pd(we, V4, a4);                                        \
    a5 = _mm512_fmadd_pd(we, V5, a5);                                        \
    a6 = _mm512_fmadd_pd(we, V6, a6);                                        \
    a7 = _mm512_fmadd_pd(we, V7, a7);                                        \
    a8 = _mm512_fmadd_pd(we, V8, a8);                                        \
    a9 = _mm512_fmadd_pd(we, V9, a9);                                        \
    a10 = _mm512_fmadd_pd(we, V10, a10);                                     \
    a11 = _mm512_fmadd_pd(we, V11, a11);                                     \
  } while (0)

#define NLH_AVX512_FMA4(we)                                                  \
  do {                                                                       \
    a0 = _mm512_fmadd_pd(we, V0, a0);                                        \
    a1 = _mm512_fmadd_pd(we, V1, a1);                                        \
    a2 = _mm512_fmadd_pd(we, V2, a2);                                        \
    a3 = _mm512_fmadd_pd(we, V3, a3);                                        \
  } while (0)

// Finalize one zmm of outputs: out = c * (acc - wsum * u_center).
#define NLH_AVX512_STORE(acc, off)                                           \
  _mm512_storeu_pd(orow + j + (off),                                         \
                   _mm512_mul_pd(vc, _mm512_fnmadd_pd(                       \
                                         vwsum,                              \
                                         _mm512_loadu_pd(urow + j + (off)),  \
                                         (acc))))

}  // namespace

void apply_avx512(const double* u, double* out, int stride, int ghost,
                  const stencil_plan& plan, double c, const dp_rect& rect) {
  const block_geometry& g = plan.blocking();
  const int reach = plan.reach();
  const double wsum = plan.weight_sum();
  const double* weights = plan.weights().data();
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vwsum = _mm512_set1_pd(wsum);

  for_each_block(rect, g, [&](const dp_rect& blk, const dp_rect* next) {
    if (next != nullptr) prefetch_block_lead(u, stride, ghost, *next, reach);
    // Every row of the block splits at the same columns: the wide bodies
    // cover [col_begin, j_narrow), the narrow body the rest.
    const int width = blk.col_end - blk.col_begin;
    const int j_narrow = blk.col_begin + width / 96 * 96 + width % 96 / 32 * 32;
    for (int i = blk.row_begin; i < blk.row_end; ++i) {
      const double* urow =
          u + static_cast<std::size_t>(i + ghost) * stride + ghost;
      double* orow = out + static_cast<std::size_t>(i + ghost) * stride + ghost;
      int j = blk.col_begin;
      // 96-column body: twelve zmm accumulators, twelve rotating input
      // registers. Steady state per entry: one fresh load + one broadcast
      // feed twelve FMAs.
      for (; j + 96 <= blk.col_end; j += 96) {
        __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
        __m512d a2 = _mm512_setzero_pd(), a3 = _mm512_setzero_pd();
        __m512d a4 = _mm512_setzero_pd(), a5 = _mm512_setzero_pd();
        __m512d a6 = _mm512_setzero_pd(), a7 = _mm512_setzero_pd();
        __m512d a8 = _mm512_setzero_pd(), a9 = _mm512_setzero_pd();
        __m512d a10 = _mm512_setzero_pd(), a11 = _mm512_setzero_pd();
        for (const auto& r : plan.runs()) {
          const double* srow = urow +
                               static_cast<std::ptrdiff_t>(r.di) * stride +
                               r.dj_begin + j;
          const double* w = weights + r.weight_index;
          const int len = r.length;
          for (int e8 = 0; e8 < 8 && e8 < len; ++e8) {
            const int nc = (len - e8 + 7) / 8;
            const double* s = srow + e8;
            __m512d V0 = _mm512_loadu_pd(s);
            __m512d V1 = _mm512_loadu_pd(s + 8);
            __m512d V2 = _mm512_loadu_pd(s + 16);
            __m512d V3 = _mm512_loadu_pd(s + 24);
            __m512d V4 = _mm512_loadu_pd(s + 32);
            __m512d V5 = _mm512_loadu_pd(s + 40);
            __m512d V6 = _mm512_loadu_pd(s + 48);
            __m512d V7 = _mm512_loadu_pd(s + 56);
            __m512d V8 = _mm512_loadu_pd(s + 64);
            __m512d V9 = _mm512_loadu_pd(s + 72);
            __m512d V10 = _mm512_loadu_pd(s + 80);
            __m512d V11 = _mm512_loadu_pd(s + 88);
            int t = 0;
            for (; t + 1 < nc; ++t) {
              const __m512d we = _mm512_set1_pd(w[e8 + 8 * t]);
              NLH_AVX512_FMA12(we);
              V0 = V1; V1 = V2; V2 = V3; V3 = V4; V4 = V5; V5 = V6;
              V6 = V7; V7 = V8; V8 = V9; V9 = V10; V10 = V11;
              V11 = _mm512_loadu_pd(s + 8 * (t + 12));
            }
            const __m512d we = _mm512_set1_pd(w[e8 + 8 * t]);
            NLH_AVX512_FMA12(we);
          }
        }
        NLH_AVX512_STORE(a0, 0);
        NLH_AVX512_STORE(a1, 8);
        NLH_AVX512_STORE(a2, 16);
        NLH_AVX512_STORE(a3, 24);
        NLH_AVX512_STORE(a4, 32);
        NLH_AVX512_STORE(a5, 40);
        NLH_AVX512_STORE(a6, 48);
        NLH_AVX512_STORE(a7, 56);
        NLH_AVX512_STORE(a8, 64);
        NLH_AVX512_STORE(a9, 72);
        NLH_AVX512_STORE(a10, 80);
        NLH_AVX512_STORE(a11, 88);
      }
      // 32-column body for tile remainders and 32-95-wide rects (tiles are
      // multiples of 32).
      for (; j + 32 <= blk.col_end; j += 32) {
        __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
        __m512d a2 = _mm512_setzero_pd(), a3 = _mm512_setzero_pd();
        for (const auto& r : plan.runs()) {
          const double* srow = urow +
                               static_cast<std::ptrdiff_t>(r.di) * stride +
                               r.dj_begin + j;
          const double* w = weights + r.weight_index;
          const int len = r.length;
          for (int e8 = 0; e8 < 8 && e8 < len; ++e8) {
            const int nc = (len - e8 + 7) / 8;
            const double* s = srow + e8;
            __m512d V0 = _mm512_loadu_pd(s);
            __m512d V1 = _mm512_loadu_pd(s + 8);
            __m512d V2 = _mm512_loadu_pd(s + 16);
            __m512d V3 = _mm512_loadu_pd(s + 24);
            int t = 0;
            for (; t + 1 < nc; ++t) {
              const __m512d we = _mm512_set1_pd(w[e8 + 8 * t]);
              NLH_AVX512_FMA4(we);
              V0 = V1; V1 = V2; V2 = V3;
              V3 = _mm512_loadu_pd(s + 8 * (t + 4));
            }
            const __m512d we = _mm512_set1_pd(w[e8 + 8 * t]);
            NLH_AVX512_FMA4(we);
          }
        }
        NLH_AVX512_STORE(a0, 0);
        NLH_AVX512_STORE(a1, 8);
        NLH_AVX512_STORE(a2, 16);
        NLH_AVX512_STORE(a3, 24);
      }
    }
    narrow_block(u, out, stride, ghost, plan, vc, vwsum, blk.row_begin,
                 blk.row_end, j_narrow, blk.col_end);
  });
}

#undef NLH_AVX512_FMA12
#undef NLH_AVX512_FMA4
#undef NLH_AVX512_STORE

#else

void apply_avx512(const double* u, double* out, int stride, int ghost,
                  const stencil_plan& plan, double c, const dp_rect& rect) {
  apply_simd(u, out, stride, ghost, plan, c, rect);
}

#endif

}  // namespace nlh::nonlocal::kernel_detail
