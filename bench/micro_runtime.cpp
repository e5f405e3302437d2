///
/// \file micro_runtime.cpp
/// \brief Microbenchmarks of the mini-AMT runtime: async launch/get
/// round-trip, then-continuation chaining, when_all fan-in, task
/// throughput and the counter registry.
///

#include <benchmark/benchmark.h>

#include "amt/async.hpp"
#include "amt/counters.hpp"
#include "amt/thread_pool.hpp"

namespace amt = nlh::amt;

static void BM_AsyncRoundTrip(benchmark::State& state) {
  amt::thread_pool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto f = amt::async(pool, [] { return 42; });
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsyncRoundTrip)->Arg(1)->Arg(2)->Arg(4);

static void BM_ReadyFutureThenChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto f = amt::make_ready_future<int>(0);
    for (int i = 0; i < depth; ++i)
      f = f.then([](amt::future<int> r) { return r.get() + 1; });
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_ReadyFutureThenChain)->Arg(1)->Arg(8)->Arg(64);

static void BM_WhenAllFanIn(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<amt::future<int>> fs;
    fs.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) fs.push_back(amt::make_ready_future<int>(i));
    auto all = amt::when_all(std::move(fs));
    benchmark::DoNotOptimize(all.get().size());
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_WhenAllFanIn)->Arg(4)->Arg(32)->Arg(256);

static void BM_TaskThroughput(benchmark::State& state) {
  amt::thread_pool pool(static_cast<unsigned>(state.range(0)));
  const int batch = 256;
  for (auto _ : state) {
    std::vector<amt::future<void>> fs;
    fs.reserve(batch);
    for (int i = 0; i < batch; ++i)
      fs.push_back(amt::async(pool, [] { benchmark::ClobberMemory(); }));
    amt::wait_all(fs);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TaskThroughput)->Arg(1)->Arg(2)->Arg(4);

static void BM_CounterPoll(benchmark::State& state) {
  amt::thread_pool pool(1, /*locality=*/17);
  auto& reg = amt::counter_registry::instance();
  const auto path = amt::busy_time_path(17);
  for (auto _ : state) benchmark::DoNotOptimize(reg.value(path));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterPoll);
