#pragma once
///
/// \file async.hpp
/// \brief `async`/`dataflow` — launch callables on a thread pool and get a
/// future, mirroring `hpx::async` / `hpx::dataflow`.
///

#include <tuple>
#include <type_traits>
#include <utility>

#include "amt/future.hpp"
#include "amt/thread_pool.hpp"

namespace nlh::amt {

/// Launch `fn(args...)` on `pool`; returns a future for its result.
/// Exceptions propagate through the future (rethrown from get()).
template <class F, class... Args>
auto async(thread_pool& pool, F&& fn, Args&&... args)
    -> future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>> {
  using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>;
  promise<R> p;
  auto fut = p.get_future();
  pool.post([p = std::move(p), fn = std::forward<F>(fn),
             tup = std::make_tuple(std::forward<Args>(args)...)]() mutable {
    try {
      if constexpr (std::is_void_v<R>) {
        std::apply(fn, std::move(tup));
        p.set_value();
      } else {
        p.set_value(std::apply(fn, std::move(tup)));
      }
    } catch (...) {
      p.set_exception(std::current_exception());
    }
  });
  return fut;
}

/// dataflow: run `fn` on `pool` once every future in `deps` is ready.
/// The callable receives the vector of ready futures.
template <class T, class F>
auto dataflow(thread_pool& pool, std::vector<future<T>> deps, F&& fn)
    -> future<std::invoke_result_t<std::decay_t<F>, std::vector<future<T>>>> {
  using R = std::invoke_result_t<std::decay_t<F>, std::vector<future<T>>>;
  promise<R> p;
  auto out = p.get_future();
  when_all(std::move(deps))
      .then([&pool, p = std::move(p),
             fn = std::forward<F>(fn)](future<std::vector<future<T>>> ready) mutable {
        // Hop onto the pool so heavy continuations never run on the
        // completing (possibly network) thread.
        pool.post([p = std::move(p), fn = std::move(fn), fs = ready.get()]() mutable {
          try {
            if constexpr (std::is_void_v<R>) {
              fn(std::move(fs));
              p.set_value();
            } else {
              p.set_value(fn(std::move(fs)));
            }
          } catch (...) {
            p.set_exception(std::current_exception());
          }
        });
      });
  return out;
}

}  // namespace nlh::amt
