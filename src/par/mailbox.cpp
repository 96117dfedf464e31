#include "par/mailbox.hpp"

#include <algorithm>
#include <thread>

namespace egt::par {

namespace {

// Polls between yields. At ~40 ns a `pause` on current x86 cores a burst
// is a few µs, so a spinner re-checks the clock and hands the CPU to a
// runnable sender well within the budget.
constexpr int kPollsPerBurst = 64;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

void Mailbox::deliver(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(msg));
    delivered_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
}

bool Mailbox::match_locked(int source, int tag, Message& out) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const bool src_ok = source == kAnySource || it->source == source;
    const bool tag_ok = tag == kAnyTag || it->tag == tag;
    if (src_ok && tag_ok) {
      out = std::move(*it);
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

bool Mailbox::match_or_spin(std::unique_lock<std::mutex>& lock, int source,
                            int tag, Message& out,
                            std::chrono::steady_clock::time_point until) {
  if (match_locked(source, tag, out)) return true;
  // The sequence is read under the lock right after a failed match, so
  // any delivery the match missed moves it.
  std::uint64_t seen = delivered_.load(std::memory_order_relaxed);
  lock.unlock();
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < kPollsPerBurst; ++i) {
      if (delivered_.load(std::memory_order_acquire) != seen) {
        lock.lock();
        if (match_locked(source, tag, out)) return true;
        seen = delivered_.load(std::memory_order_relaxed);
        lock.unlock();
      }
      cpu_relax();
    }
    std::this_thread::yield();
  }
  lock.lock();
  return false;
}

Message Mailbox::receive(int source, int tag, bool* parked) {
  std::unique_lock<std::mutex> lock(mutex_);
  Message out;
  const bool matched = match_or_spin(lock, source, tag, out,
                                     std::chrono::steady_clock::now() +
                                         kSpinBudget);
  if (parked != nullptr) *parked = !matched;
  if (!matched) cv_.wait(lock, [&] { return match_locked(source, tag, out); });
  return out;
}

std::optional<Message> Mailbox::receive_for(int source, int tag,
                                            std::chrono::nanoseconds timeout,
                                            bool* parked) {
  const auto now = std::chrono::steady_clock::now();
  const auto deadline = now + timeout;
  std::unique_lock<std::mutex> lock(mutex_);
  Message out;
  const bool matched = match_or_spin(lock, source, tag, out,
                                     std::min(deadline, now + kSpinBudget));
  if (parked != nullptr) *parked = !matched;
  if (matched || cv_.wait_until(lock, deadline, [&] {
        return match_locked(source, tag, out);
      })) {
    return out;
  }
  return std::nullopt;
}

bool Mailbox::try_receive(int source, int tag, Message& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  return match_locked(source, tag, out);
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace egt::par
