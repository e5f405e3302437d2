///
/// \file scheduler.cpp
/// \brief class_scheduler: deficit round-robin dispatch, deadline
/// shedding, bounded queues, graceful drain.
///

#include "svc/scheduler.hpp"

#include <chrono>
#include <limits>
#include <utility>

#include "obs/tracer.hpp"
#include "support/assert.hpp"

namespace nlh::svc {

class_scheduler::class_scheduler(scheduler_options opt, amt::thread_pool& pool,
                                 std::function<double()> clock)
    : opt_(std::move(opt)), pool_(pool), clock_(std::move(clock)) {
  NLH_ASSERT_MSG(opt_.max_concurrent >= 1,
                 "class_scheduler: max_concurrent must be >= 1");
  NLH_ASSERT_MSG(clock_ != nullptr, "class_scheduler: null clock");
}

class_scheduler::enqueue_result class_scheduler::enqueue(sched_item item) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_) return enqueue_result::draining;
    const int c = static_cast<int>(item.cls);
    // The cap bounds memory in both modes; only weights/deadlines are
    // QoS-specific.
    if (static_cast<int>(queues_[c].size()) >=
        opt_.qos.policy(item.cls).queue_cap)
      return enqueue_result::queue_full;
    NLH_TRACE_INSTANT("svc/enqueue", item.seq);
    queues_[c].push_back(std::move(item));
  }
  pump();
  return enqueue_result::queued;
}

std::deque<sched_item>::iterator class_scheduler::first_ready_locked(
    qos_class c, double now) {
  auto& q = queues_[static_cast<int>(c)];
  for (auto it = q.begin(); it != q.end(); ++it)
    if (it->ready_at_s <= now) return it;
  return q.end();
}

void class_scheduler::pump_locked(std::vector<pending_shed>& sheds) {
  const double now = clock_();
  // Deadline sweep first: expired work never occupies a slot. Quota-delayed
  // items can sit behind ready ones, so the whole queue is swept, not just
  // the front.
  if (opt_.qos.enabled) {
    for (int c = 0; c < qos_class_count; ++c) {
      const auto& pol = opt_.qos.policy(static_cast<qos_class>(c));
      if (pol.deadline_seconds <= 0.0) continue;
      auto& q = queues_[c];
      for (auto it = q.begin(); it != q.end();) {
        if (now - it->enqueued_s > pol.deadline_seconds) {
          NLH_TRACE_INSTANT("svc/shed_expired", it->seq);
          sheds.push_back({std::move(it->shed), "expired"});
          shed_expired_.add();
          it = q.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  if (draining_) return;

  while (running_ < opt_.max_concurrent) {
    int pick = -1;
    std::deque<sched_item>::iterator pick_it;
    if (!opt_.qos.enabled) {
      // No-QoS baseline: one logical FIFO — the globally oldest ready item.
      std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
      for (int c = 0; c < qos_class_count; ++c) {
        const auto it = first_ready_locked(static_cast<qos_class>(c), now);
        if (it != queues_[c].end() && it->seq < best_seq) {
          best_seq = it->seq;
          pick = c;
          pick_it = it;
        }
      }
    } else {
      // Deficit round-robin: among backlogged-and-ready classes with credit
      // left, the largest balance wins (weight, then class order, breaks
      // ties). When every ready class is out of credit, a new round tops
      // all balances up to their weights.
      const auto choose = [&] {
        pick = -1;
        int best_credit = 0, best_weight = -1;
        for (int c = 0; c < qos_class_count; ++c) {
          if (credits_[c] < 1) continue;
          const auto it = first_ready_locked(static_cast<qos_class>(c), now);
          if (it == queues_[c].end()) continue;
          const int w = opt_.qos.policy(static_cast<qos_class>(c)).weight;
          if (pick == -1 || credits_[c] > best_credit ||
              (credits_[c] == best_credit && w > best_weight)) {
            pick = c;
            pick_it = it;
            best_credit = credits_[c];
            best_weight = w;
          }
        }
      };
      choose();
      if (pick == -1) {
        bool any_ready = false;
        for (int c = 0; c < qos_class_count && !any_ready; ++c)
          any_ready =
              first_ready_locked(static_cast<qos_class>(c), now) !=
              queues_[c].end();
        if (!any_ready) break;
        for (int c = 0; c < qos_class_count; ++c)
          credits_[c] = opt_.qos.policy(static_cast<qos_class>(c)).weight;
        ++rounds_;
        choose();
        if (pick == -1) break;  // unreachable: weights are >= 1
      }
      credits_[pick] -= 1;
    }
    if (pick == -1) break;

    sched_item item = std::move(*pick_it);
    queues_[pick].erase(pick_it);
    ++running_;
    ++served_[pick];
    NLH_TRACE_INSTANT("svc/dispatch", item.seq);
    // The task owns `run`; the epilogue frees the slot and re-pumps, so a
    // completion immediately pulls the next eligible item.
    pool_.post([this, run = std::move(item.run)]() mutable {
      run();
      on_item_done();
    });
  }
}

void class_scheduler::run_sheds(std::vector<pending_shed>& sheds) {
  for (auto& s : sheds) s.shed(s.reason);
  sheds.clear();
}

void class_scheduler::pump() {
  std::vector<pending_shed> sheds;
  {
    std::lock_guard<std::mutex> lk(mu_);
    pump_locked(sheds);
  }
  run_sheds(sheds);
  idle_cv_.notify_all();
}

void class_scheduler::on_item_done() {
  std::vector<pending_shed> sheds;
  {
    std::lock_guard<std::mutex> lk(mu_);
    --running_;
    pump_locked(sheds);
    // Notify under the lock: a wait_idle() woken by this completion may
    // destroy the scheduler as soon as it re-acquires mu_, so the worker
    // must be done with idle_cv_ by then.
    idle_cv_.notify_all();
  }
  run_sheds(sheds);
}

void class_scheduler::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] {
    if (running_ > 0) return false;
    for (const auto& q : queues_)
      if (!q.empty()) return false;
    return true;
  });
}

class_scheduler::drain_report class_scheduler::drain(double timeout_s) {
  std::vector<pending_shed> sheds;
  drain_report rep;
  {
    std::unique_lock<std::mutex> lk(mu_);
    draining_ = true;
    rep.in_flight = running_;
    idle_cv_.wait_for(lk, std::chrono::duration<double>(timeout_s),
                      [&] { return running_ == 0; });
    rep.still_running = running_;
    for (auto& q : queues_) {
      for (auto& item : q) {
        NLH_TRACE_INSTANT("svc/shed_drained", item.seq);
        sheds.push_back({std::move(item.shed), "drained"});
        shed_drained_.add();
        ++rep.abandoned;
      }
      q.clear();
    }
  }
  run_sheds(sheds);
  idle_cv_.notify_all();
  return rep;
}

bool class_scheduler::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

int class_scheduler::queue_depth(qos_class c) const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(queues_[static_cast<int>(c)].size());
}

int class_scheduler::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return running_;
}

std::uint64_t class_scheduler::served(qos_class c) const {
  std::lock_guard<std::mutex> lk(mu_);
  return served_[static_cast<int>(c)];
}

std::uint64_t class_scheduler::shed_expired() const {
  return shed_expired_.value();
}

std::uint64_t class_scheduler::shed_drained() const {
  return shed_drained_.value();
}

std::uint64_t class_scheduler::rounds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rounds_;
}

void class_scheduler::metrics_into(obs::metrics_snapshot& snap) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (int c = 0; c < qos_class_count; ++c) {
    const std::string cls = to_string(static_cast<qos_class>(c));
    snap.add_gauge("svc/sched/queue_depth/" + cls,
                   static_cast<double>(queues_[c].size()));
    snap.add_counter("svc/sched/served/" + cls, served_[c]);
  }
  snap.add_counter("svc/sched/shed_expired", shed_expired_.value());
  snap.add_counter("svc/sched/shed_drained", shed_drained_.value());
  snap.add_counter("svc/sched/rounds", rounds_);
  snap.add_gauge("svc/sched/running", static_cast<double>(running_));
}

}  // namespace nlh::svc
