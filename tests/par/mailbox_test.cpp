#include "par/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace egt::par {
namespace {

Message make_msg(int src, int tag, int value) {
  Message m;
  m.source = src;
  m.tag = tag;
  m.payload.resize(1);
  m.payload[0] = static_cast<std::byte>(value);
  return m;
}

TEST(Mailbox, DeliverThenReceive) {
  Mailbox box;
  box.deliver(make_msg(1, 5, 42));
  const Message m = box.receive(1, 5);
  EXPECT_EQ(m.source, 1);
  EXPECT_EQ(m.tag, 5);
  EXPECT_EQ(std::to_integer<int>(m.payload[0]), 42);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, WildcardsMatchAnything) {
  Mailbox box;
  box.deliver(make_msg(3, 9, 1));
  const Message m = box.receive(kAnySource, kAnyTag);
  EXPECT_EQ(m.source, 3);
  EXPECT_EQ(m.tag, 9);
}

TEST(Mailbox, SelectiveReceiveSkipsNonMatching) {
  Mailbox box;
  box.deliver(make_msg(1, 1, 10));
  box.deliver(make_msg(2, 2, 20));
  const Message m = box.receive(2, 2);
  EXPECT_EQ(std::to_integer<int>(m.payload[0]), 20);
  EXPECT_EQ(box.pending(), 1u);  // the (1,1) message is still queued
}

TEST(Mailbox, OrderPreservedPerSourceTag) {
  Mailbox box;
  box.deliver(make_msg(1, 1, 10));
  box.deliver(make_msg(1, 1, 11));
  EXPECT_EQ(std::to_integer<int>(box.receive(1, 1).payload[0]), 10);
  EXPECT_EQ(std::to_integer<int>(box.receive(1, 1).payload[0]), 11);
}

TEST(Mailbox, TryReceiveDoesNotBlock) {
  Mailbox box;
  Message m;
  EXPECT_FALSE(box.try_receive(kAnySource, kAnyTag, m));
  box.deliver(make_msg(1, 1, 5));
  EXPECT_FALSE(box.try_receive(1, 2, m));  // wrong tag
  EXPECT_TRUE(box.try_receive(1, 1, m));
  EXPECT_EQ(std::to_integer<int>(m.payload[0]), 5);
}

TEST(Mailbox, BlockingReceiveWakesOnDelivery) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.deliver(make_msg(7, 3, 99));
  });
  const Message m = box.receive(7, 3);  // blocks until the producer runs
  EXPECT_EQ(std::to_integer<int>(m.payload[0]), 99);
  producer.join();
}

TEST(Mailbox, ReceiveForReturnsImmediatelyWhenQueued) {
  Mailbox box;
  box.deliver(make_msg(1, 5, 42));
  const auto m = box.receive_for(1, 5, std::chrono::nanoseconds(0));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(std::to_integer<int>(m->payload[0]), 42);
}

TEST(Mailbox, ReceiveForTimesOutOnSilence) {
  Mailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  const auto m = box.receive_for(1, 5, std::chrono::milliseconds(30));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(m.has_value());
  EXPECT_GE(waited, std::chrono::milliseconds(30));
}

TEST(Mailbox, ReceiveForIgnoresNonMatchingTraffic) {
  // A message for another (source, tag) must neither satisfy the wait nor
  // get consumed by it.
  Mailbox box;
  box.deliver(make_msg(2, 9, 7));
  const auto m = box.receive_for(1, 5, std::chrono::milliseconds(20));
  EXPECT_FALSE(m.has_value());
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, ReceiveForWakesOnDelivery) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.deliver(make_msg(7, 3, 99));
  });
  // Deadline far beyond the delivery: the waiter must wake when the
  // message lands, not when the clock runs out.
  const auto t0 = std::chrono::steady_clock::now();
  const auto m = box.receive_for(7, 3, std::chrono::seconds(30));
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(std::to_integer<int>(m->payload[0]), 99);
  EXPECT_LT(waited, std::chrono::seconds(5));
  producer.join();
}

TEST(Mailbox, QueuedMessageIsTakenWithoutParking) {
  Mailbox box;
  box.deliver(make_msg(1, 5, 42));
  bool parked = true;
  const Message m = box.receive(1, 5, &parked);
  EXPECT_EQ(std::to_integer<int>(m.payload[0]), 42);
  EXPECT_FALSE(parked);
}

TEST(Mailbox, DeliveryInsideTheSpinWindowIsReturned) {
  // One producer answers each round's request at once, well inside
  // kSpinBudget of the receive starting. Every message comes back in
  // order; a host busy enough to hold the producer off the CPU past the
  // budget turns a round into a parked wake, so only some round has to
  // be caught while spinning.
  constexpr int kRounds = 100;
  Mailbox box;
  std::atomic<int> requested{0};
  std::thread producer([&] {
    for (int round = 1; round <= kRounds; ++round) {
      while (requested.load(std::memory_order_acquire) < round) {
        std::this_thread::yield();
      }
      box.deliver(make_msg(4, 2, round));
    }
  });
  int spun = 0;
  for (int round = 1; round <= kRounds; ++round) {
    requested.store(round, std::memory_order_release);
    bool parked = true;
    const Message m = box.receive(4, 2, &parked);
    EXPECT_EQ(std::to_integer<int>(m.payload[0]), round);
    if (!parked) ++spun;
  }
  producer.join();
  EXPECT_GT(spun, 0);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, DeliveryAfterTheBudgetWakesTheParkedReceiver) {
  static_assert(kSpinBudget < std::chrono::milliseconds(20));
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.deliver(make_msg(7, 3, 99));
  });
  bool parked = false;
  const Message m = box.receive(7, 3, &parked);
  EXPECT_EQ(std::to_integer<int>(m.payload[0]), 99);
  EXPECT_TRUE(parked);
  producer.join();
}

TEST(Mailbox, NonMatchingDeliveryDuringTheSpinIsKept) {
  // A delivery for another (source, tag) moves the sequence the spinner
  // polls. It must neither end the receive nor be consumed, and the later
  // matching message must still arrive.
  Mailbox box;
  std::atomic<bool> started{false};
  std::thread producer([&] {
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    box.deliver(make_msg(2, 9, 7));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    box.deliver(make_msg(1, 5, 8));
  });
  started.store(true, std::memory_order_release);
  const Message m = box.receive(1, 5);
  producer.join();
  EXPECT_EQ(m.source, 1);
  EXPECT_EQ(std::to_integer<int>(m.payload[0]), 8);
  ASSERT_EQ(box.pending(), 1u);
  Message other;
  ASSERT_TRUE(box.try_receive(2, 9, other));
  EXPECT_EQ(std::to_integer<int>(other.payload[0]), 7);
}

TEST(Mailbox, ReceiveForShorterThanTheBudgetKeepsItsDeadline) {
  // The spin counts against the deadline: a timeout inside the spin
  // window ends the wait at the deadline, never before it.
  Mailbox box;
  for (const auto timeout :
       {std::chrono::nanoseconds(kSpinBudget) / 5,
        std::chrono::nanoseconds(kSpinBudget) * 4 / 5}) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto m = box.receive_for(1, 5, timeout);
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_FALSE(m.has_value());
    EXPECT_GE(waited, timeout);
  }
}

TEST(Mailbox, ManyProducersAllDelivered) {
  Mailbox box;
  constexpr int kPerThread = 100;
  constexpr int kThreads = 4;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        box.deliver(make_msg(t, 0, i % 256));
      }
    });
  }
  int received = 0;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    (void)box.receive(kAnySource, kAnyTag);
    ++received;
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(received, kThreads * kPerThread);
  EXPECT_EQ(box.pending(), 0u);
}

}  // namespace
}  // namespace egt::par
