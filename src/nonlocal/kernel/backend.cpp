#include "nonlocal/kernel/backend.hpp"

#include <atomic>
#include <cstdio>

namespace nlh::nonlocal {

namespace {

/// Best backend this process can actually run.
kernel_backend best_available_backend() {
  if (kernel_avx512_available()) return kernel_backend::avx512;
  return kernel_simd_available() ? kernel_backend::simd : kernel_backend::row_run;
}

/// CMake default > best available. Resolved once, then cached in the
/// atomic below.
kernel_backend resolve_initial_backend() {
#ifdef NLH_KERNEL_DEFAULT_BACKEND_NAME
  if (const auto parsed = parse_kernel_backend(NLH_KERNEL_DEFAULT_BACKEND_NAME))
    return *parsed;
  std::fprintf(stderr,
               "nlh: ignoring invalid NLH_KERNEL_DEFAULT_BACKEND=\"%s\"\n",
               NLH_KERNEL_DEFAULT_BACKEND_NAME);
#endif
  return best_available_backend();
}

std::atomic<kernel_backend>& default_backend_slot() {
  static std::atomic<kernel_backend> slot{resolve_initial_backend()};
  return slot;
}

}  // namespace

const char* kernel_backend_name(kernel_backend b) {
  switch (b) {
    case kernel_backend::scalar: return "scalar";
    case kernel_backend::row_run: return "row_run";
    case kernel_backend::simd: return "simd";
    case kernel_backend::avx512: return "avx512";
  }
  return "unknown";
}

std::optional<kernel_backend> parse_kernel_backend(const std::string& name) {
  if (name == "scalar") return kernel_backend::scalar;
  if (name == "row_run") return kernel_backend::row_run;
  if (name == "simd") return kernel_backend::simd;
  if (name == "avx512") return kernel_backend::avx512;
  return std::nullopt;
}

bool kernel_simd_available() {
  const int level = kernel_simd_compiled_level();
  if (level == 0) return false;
  if (level == 1) return true;  // SSE2 is part of the baseline target.
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  // AVX2+FMA was force-enabled for the simd TU only; gate on the CPU.
  // (level == 2 implies an x86 build, but the arch guard keeps the x86-only
  // builtin out of non-x86 compilations of this TU.)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool kernel_avx512_available() {
  if (kernel_avx512_compiled_level() == 0) return false;
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  // AVX-512F was force-enabled for the avx512 TU only; gate on the CPU.
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

kernel_backend kernel_default_backend() {
  return default_backend_slot().load(std::memory_order_relaxed);
}

void set_kernel_default_backend(kernel_backend b) {
  default_backend_slot().store(b, std::memory_order_relaxed);
}

}  // namespace nlh::nonlocal
