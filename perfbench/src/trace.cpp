///
/// \file trace.cpp
/// \brief Sample statistics, the benchmark RNG and the self-time breakdown
/// of traced steps (see step_breakdown in bench.hpp).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "obs/config.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

windows::windows(double seconds) {
  const int count = std::max(kMinWindows, static_cast<int>(seconds / kWindowSeconds));
  w_s_ = seconds / count;
  lat_.resize(static_cast<std::size_t>(count));
  work_.assign(static_cast<std::size_t>(count), 0.0);
  busy_.assign(static_cast<std::size_t>(count), 0.0);
}

std::size_t windows::slot(double at_s) const {
  const double k = std::floor(at_s / w_s_);
  return static_cast<std::size_t>(std::clamp(k, 0.0, static_cast<double>(work_.size() - 1)));
}

void windows::add(double at_s, double work, double latency_ms, double busy_s) {
  const auto k = slot(at_s);
  work_[k] += work;
  busy_[k] += busy_s;
  if (latency_ms >= 0.0) lat_[k].push_back(latency_ms);
}

std::vector<double> windows::rates() const {
  std::vector<double> r;
  for (std::size_t k = 0; k < work_.size(); ++k) {
    if (busy_[k] > 0.0) {
      r.push_back(work_[k] / busy_[k]);
    } else if (work_[k] > 0.0 || lat_[k].empty()) {
      r.push_back(work_[k] / w_s_);
    }
  }
  return r;
}

std::string windows::describe() const {
  std::string out = "window rates:";
  char buf[32];
  for (const double r : rates()) {
    std::snprintf(buf, sizeof buf, " %.4g", r);
    out += buf;
  }
  return out;
}

double windows::latency(double q, double over) const {
  std::vector<double> per;
  for (const auto& l : lat_)
    if (!l.empty()) per.push_back(quantile(l, q));
  return quantile(per, over);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------------- rng --

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

rng::rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

// ------------------------------------------------------------------ trace --

ring_capacity::ring_capacity() : saved_(nlh::obs::current_config().ring_capacity) {}

ring_capacity::~ring_capacity() { set(saved_); }

void ring_capacity::set(std::size_t events) {
  auto cfg = nlh::obs::current_config();
  cfg.ring_capacity = events;
  nlh::obs::configure(cfg);
}

void trace_begin_window() {
  nlh::obs::tracer::instance().clear();
  nlh::obs::set_tracing_enabled(true);
}

std::vector<nlh::obs::trace_event> trace_take() {
  nlh::obs::set_tracing_enabled(false);
  auto& tr = nlh::obs::tracer::instance();
  auto events = tr.snapshot();
  tr.clear();
  return events;
}

namespace {

/// One interval during which `name` is the innermost open span of a thread.
struct segment {
  std::int64_t t0, t1;
  const std::string* name;
};

/// A complete ('X') event with its interned name.
struct named_span {
  std::int64_t ts, dur;
  const std::string* name;
};

/// Innermost-span segments of one thread's spans. Spans of one thread nest
/// (they are RAII scopes), so a stack sweep yields them.
std::vector<segment> innermost_segments(std::vector<named_span> spans) {
  std::sort(spans.begin(), spans.end(), [](const named_span& a, const named_span& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
  });
  std::vector<segment> out;
  struct open_span {
    std::int64_t end;
    const std::string* name;
  };
  std::vector<open_span> stack;
  std::int64_t cur = 0;
  auto emit = [&](std::int64_t a, std::int64_t b, const std::string* n) {
    if (b > a) out.push_back({a, b, n});
  };
  for (const auto& s : spans) {
    while (!stack.empty() && stack.back().end <= s.ts) {
      emit(cur, stack.back().end, stack.back().name);
      cur = stack.back().end;
      stack.pop_back();
    }
    if (!stack.empty()) emit(cur, s.ts, stack.back().name);
    cur = s.ts;
    std::int64_t end = s.ts + s.dur;
    if (!stack.empty()) end = std::min(end, stack.back().end);
    stack.push_back({end, s.name});
  }
  while (!stack.empty()) {
    emit(cur, stack.back().end, stack.back().name);
    cur = stack.back().end;
    stack.pop_back();
  }
  return out;
}

}  // namespace

void step_breakdown::add(const std::vector<nlh::obs::trace_event>& events) {
  static const std::string kStep = "bench/step";
  static const std::string kDrain = "dist/drain";

  // Intern names: the recorded pointers are literals from several TUs, so
  // equal names may arrive through different pointers.
  std::unordered_map<std::string, std::unique_ptr<std::string>> interned;
  std::map<std::uint32_t, std::vector<named_span>> by_tid;
  std::uint32_t client = 0;
  bool have_client = false;
  for (const auto& e : events) {
    if (e.phase != 'X' || e.name == nullptr) continue;
    auto& slot = interned[e.name];
    if (!slot) slot = std::make_unique<std::string>(e.name);
    by_tid[e.tid].push_back({e.ts_ns, e.dur_ns, slot.get()});
    if (!have_client && *slot == kStep) {
      client = e.tid;
      have_client = true;
    }
  }
  if (!have_client) return;

  const auto client_segs = innermost_segments(by_tid[client]);
  std::vector<segment> worker;
  for (auto& [tid, spans] : by_tid) {
    if (tid == client) continue;
    auto segs = innermost_segments(spans);
    worker.insert(worker.end(), segs.begin(), segs.end());
  }
  std::sort(worker.begin(), worker.end(),
            [](const segment& a, const segment& b) { return a.t0 < b.t0; });
  std::int64_t max_len = 0;
  for (const auto& s : worker) max_len = std::max(max_len, s.t1 - s.t0);

  // Attribute one drain interval to the worker spans active during it.
  auto attribute_drain = [&](std::int64_t a, std::int64_t b) {
    struct edge {
      std::int64_t t;
      int delta;
      const std::string* name;
    };
    std::vector<edge> edges;
    auto it = std::lower_bound(worker.begin(), worker.end(), a - max_len,
                               [](const segment& s, std::int64_t t) { return s.t0 < t; });
    for (; it != worker.end() && it->t0 < b; ++it) {
      const std::int64_t lo = std::max(a, it->t0);
      const std::int64_t hi = std::min(b, it->t1);
      if (hi <= lo) continue;
      edges.push_back({lo, +1, it->name});
      edges.push_back({hi, -1, it->name});
    }
    std::sort(edges.begin(), edges.end(), [](const edge& x, const edge& y) {
      return x.t != y.t ? x.t < y.t : x.delta < y.delta;
    });
    std::map<const std::string*, int> active;
    int total = 0;
    std::int64_t prev = a;
    auto flush = [&](std::int64_t upto) {
      const double dt = static_cast<double>(upto - prev) * 1e-9;
      if (dt <= 0.0) return;
      if (total == 0) {
        parts_s_[kDrain] += dt;
      } else {
        for (const auto& [n, c] : active)
          if (c > 0) parts_s_[*n] += dt * c / total;
      }
    };
    for (const auto& e : edges) {
      flush(e.t);
      prev = std::max(prev, e.t);
      active[e.name] += e.delta;
      total += e.delta;
    }
    flush(b);
  };

  for (const auto& s : by_tid[client]) {
    if (*s.name != kStep) continue;
    const std::int64_t a = s.ts;
    const std::int64_t b = s.ts + s.dur;
    ++steps_;
    wall_s_ += static_cast<double>(s.dur) * 1e-9;
    auto it = std::lower_bound(client_segs.begin(), client_segs.end(), a,
                               [](const segment& g, std::int64_t t) { return g.t0 < t; });
    for (; it != client_segs.end() && it->t0 < b; ++it) {
      if (*it->name == kDrain) {
        attribute_drain(it->t0, it->t1);
      } else {
        parts_s_[*it->name == kStep ? std::string() : *it->name] +=
            static_cast<double>(it->t1 - it->t0) * 1e-9;
      }
    }
  }
}

std::map<std::string, double> step_breakdown::per_step() const {
  std::map<std::string, double> out;
  if (steps_ == 0) return out;
  for (const auto& [n, s] : parts_s_) out[n] = s / static_cast<double>(steps_);
  return out;
}

double step_breakdown::identity_error_s() const {
  double sum = 0.0;
  for (const auto& [n, s] : parts_s_) sum += s;
  return std::abs(sum - wall_s_);
}

}  // namespace perfbench
