#include "net/mailbox.hpp"

namespace nlh::net {

void mailbox::deliver(int src, std::uint64_t tag, byte_buffer payload) {
  amt::promise<byte_buffer> to_fulfill;
  bool matched = false;
  {
    std::lock_guard lk(m_);
    auto it = waiting_.find({src, tag});
    if (it != waiting_.end()) {
      to_fulfill = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) waiting_.erase(it);
      matched = true;
    } else {
      arrived_[{src, tag}].push_back(std::move(payload));
    }
  }
  // Fulfill outside the lock: the promise may run continuations inline that
  // re-enter the mailbox.
  if (matched) to_fulfill.set_value(std::move(payload));
}

amt::future<byte_buffer> mailbox::recv(int src, std::uint64_t tag) {
  byte_buffer ready;
  bool have = false;
  amt::promise<byte_buffer> p;
  auto fut = p.get_future();
  {
    std::lock_guard lk(m_);
    auto it = arrived_.find({src, tag});
    if (it != arrived_.end()) {
      ready = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) arrived_.erase(it);
      have = true;
    } else {
      waiting_[{src, tag}].push_back(std::move(p));
    }
  }
  if (have) p.set_value(std::move(ready));
  return fut;
}

std::size_t mailbox::pending_messages() const {
  std::lock_guard lk(m_);
  std::size_t n = 0;
  for (const auto& [k, q] : arrived_) n += q.size();
  return n;
}

std::size_t mailbox::pending_receives() const {
  std::lock_guard lk(m_);
  std::size_t n = 0;
  for (const auto& [k, q] : waiting_) n += q.size();
  return n;
}

std::size_t mailbox::tracked_tags() const {
  std::lock_guard lk(m_);
  return arrived_.size() + waiting_.size();
}

}  // namespace nlh::net
