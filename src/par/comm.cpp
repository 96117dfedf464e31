#include "par/comm.hpp"

#include <algorithm>
#include <atomic>

#include "obs/tracer.hpp"

namespace egt::par {

Context::Context(int nranks)
    : traffic_(nranks > 0 ? static_cast<std::size_t>(nranks) : 0) {
  EGT_REQUIRE_MSG(nranks > 0, "context needs at least one rank");
  inboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    inboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Context::~Context() {
  {
    std::lock_guard<std::mutex> lock(courier_mu_);
    courier_stop_ = true;
  }
  courier_cv_.notify_all();
  if (courier_.joinable()) courier_.join();
}

void Context::deliver_later(int dest, Message msg,
                            std::chrono::milliseconds delay) {
  EGT_REQUIRE(dest >= 0 && dest < size());
  std::lock_guard<std::mutex> lock(courier_mu_);
  delayed_.push_back(
      {std::chrono::steady_clock::now() + delay, dest, std::move(msg)});
  if (!courier_.joinable()) {
    courier_ = std::thread([this] { courier_main(); });
  }
  courier_cv_.notify_all();
}

void Context::courier_main() {
  std::unique_lock<std::mutex> lock(courier_mu_);
  while (true) {
    if (courier_stop_) return;  // pending messages die with the run
    if (delayed_.empty()) {
      courier_cv_.wait(lock);
      continue;
    }
    auto next = std::min_element(
        delayed_.begin(), delayed_.end(),
        [](const DelayedMessage& a, const DelayedMessage& b) {
          return a.due < b.due;
        });
    const auto now = std::chrono::steady_clock::now();
    if (next->due > now) {
      // Wait on a copy: wait_until reads its deadline after reacquiring
      // the lock, and a deliver_later meanwhile may reallocate delayed_.
      const auto due = next->due;
      courier_cv_.wait_until(lock, due);
      continue;  // re-evaluate: stop flag or an earlier message may exist
    }
    DelayedMessage ready = std::move(*next);
    delayed_.erase(next);
    lock.unlock();
    inbox(ready.dest).deliver(std::move(ready.msg));
    lock.lock();
  }
}

std::uint64_t Context::bytes_sent() const noexcept {
  std::uint64_t total = 0;
  for (int r = 0; r < size(); ++r) total += rank_traffic(r).bytes();
  return total;
}

std::uint64_t Context::messages_sent() const noexcept {
  std::uint64_t total = 0;
  for (int r = 0; r < size(); ++r) total += rank_traffic(r).messages();
  return total;
}

void Context::account_send(int rank, std::size_t bytes,
                           TrafficClass cls) noexcept {
  auto& slot = traffic_[static_cast<std::size_t>(rank)];
  if (cls == TrafficClass::Broadcast) {
    slot.bcast_bytes.fetch_add(bytes, std::memory_order_relaxed);
    slot.bcast_messages.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot.p2p_bytes.fetch_add(bytes, std::memory_order_relaxed);
    slot.p2p_messages.fetch_add(1, std::memory_order_relaxed);
  }
}

RankTraffic Context::rank_traffic(int rank) const noexcept {
  const auto& slot = traffic_[static_cast<std::size_t>(rank)];
  RankTraffic out;
  out.p2p_bytes = slot.p2p_bytes.load(std::memory_order_relaxed);
  out.p2p_messages = slot.p2p_messages.load(std::memory_order_relaxed);
  out.bcast_bytes = slot.bcast_bytes.load(std::memory_order_relaxed);
  out.bcast_messages = slot.bcast_messages.load(std::memory_order_relaxed);
  return out;
}

Comm::Comm(Context& ctx, int rank) : ctx_(&ctx), rank_(rank) {
  EGT_REQUIRE(rank >= 0 && rank < ctx.size());
}

void Comm::send(int dest, int tag, std::vector<std::byte> payload) {
  EGT_REQUIRE(dest >= 0 && dest < size());
  // Flight recorder: one span per send, named by traffic class (the same
  // broadcast/p2p split the TrafficReport accounts), plus the tail of the
  // flow arrow the receiver's "f" event completes. A dropped or delayed
  // message keeps its flow id — a tail with no head is exactly what a
  // lost packet looks like in the timeline.
  obs::TraceSpan span(send_class_ == TrafficClass::Broadcast
                          ? obs::kCommBcastSend
                          : obs::kCommSend,
                      obs::kCatComm, "bytes", payload.size());
  const std::uint64_t flow = obs::Tracer::new_flow_id();
  obs::trace_flow_start(flow);
  // Traffic is accounted at the sender regardless of the message's fate:
  // a dropped packet was still injected into the network.
  ctx_->account_send(rank_, payload.size(), send_class_);
  if (FaultInjector* injector = ctx_->fault_injector()) {
    const FaultDecision decision =
        injector->on_send(rank_, dest, tag, payload.size());
    switch (decision.kind) {
      case FaultDecision::Kind::Drop:
        return;
      case FaultDecision::Kind::Delay:
        ctx_->deliver_later(dest, {rank_, tag, std::move(payload), flow},
                            decision.delay);
        return;
      case FaultDecision::Kind::Deliver:
        break;
    }
  }
  ctx_->inbox(dest).deliver({rank_, tag, std::move(payload), flow});
}

Message Comm::recv(int source, int tag) {
  // The span covers the wait: a long comm.recv is time this rank sat
  // blocked on the network.
  obs::TraceSpan span(obs::kCommRecv, obs::kCatComm);
  Message m = ctx_->inbox(rank_).receive(source, tag);
  obs::trace_flow_end(m.trace_id);
  return m;
}

bool Comm::try_recv(int source, int tag, Message& out) {
  // No span: try_recv is a poll, not a wait.
  if (!ctx_->inbox(rank_).try_receive(source, tag, out)) return false;
  obs::trace_flow_end(out.trace_id);
  return true;
}

std::optional<Message> Comm::recv_for(int source, int tag,
                                      std::chrono::nanoseconds timeout) {
  // Timed-out waits record too: heartbeat silences are the interesting
  // gaps in an ft timeline.
  obs::TraceSpan span(obs::kCommRecv, obs::kCatComm);
  auto m = ctx_->inbox(rank_).receive_for(source, tag, timeout);
  if (m) obs::trace_flow_end(m->trace_id);
  return m;
}

bool Comm::Request::test(Message& out) {
  EGT_REQUIRE_MSG(!done_, "request already completed");
  if (comm_->try_recv(source_, tag_, out)) {
    done_ = true;
    return true;
  }
  return false;
}

Message Comm::Request::wait() {
  EGT_REQUIRE_MSG(!done_, "request already completed");
  done_ = true;
  return comm_->recv(source_, tag_);
}

int Comm::coll_tag() {
  const int tag = kCollectiveTagBase + (coll_seq_ & 0x3fffff);
  ++coll_seq_;
  return tag;
}

void Comm::barrier() {
  // Dissemination barrier: log2(size) rounds of shifted token exchange.
  const int tag = coll_tag();
  for (int mask = 1; mask < size(); mask <<= 1) {
    const int to = (rank_ + mask) % size();
    const int from = (rank_ - mask % size() + size()) % size();
    send(to, tag, {});
    (void)recv(from, tag);
  }
}

void Comm::bcast(std::vector<std::byte>& data, int root) {
  EGT_REQUIRE(root >= 0 && root < size());
  // Binomial tree rooted at `root`, the logical structure of a collective
  // network broadcast (paper §V-B). Relay sends count as Broadcast traffic.
  const ClassScope scope(*this, TrafficClass::Broadcast);
  const int tag = coll_tag();
  const int vrank = (rank_ - root + size()) % size();
  auto real = [&](int v) { return (v + root) % size(); };

  int mask = 1;
  while (mask < size()) {
    if (vrank & mask) {
      Message m = recv(real(vrank ^ mask), tag);
      data = std::move(m.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank | mask) != vrank && (vrank | mask) < size()) {
      send(real(vrank | mask), tag, data);
    }
    mask >>= 1;
  }
}

std::vector<std::vector<std::byte>> Comm::gather(std::vector<std::byte> mine,
                                                 int root) {
  EGT_REQUIRE(root >= 0 && root < size());
  // Direct point-to-point collection at the root: the paper returns SSet
  // fitness values to the Nature Agent with non-blocking torus p2p sends.
  const int tag = coll_tag();
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)] = std::move(mine);
    for (int i = 0; i < size() - 1; ++i) {
      Message m = recv(kAnySource, tag);
      out[static_cast<std::size_t>(m.source)] = std::move(m.payload);
    }
  } else {
    send(root, tag, std::move(mine));
  }
  return out;
}

std::vector<std::vector<std::byte>> Comm::allgather(
    std::vector<std::byte> mine) {
  auto blocks = gather(std::move(mine), 0);
  // Flatten, broadcast, re-split.
  std::vector<std::byte> flat;
  if (rank_ == 0) {
    std::uint64_t n = blocks.size();
    flat.resize(sizeof n);
    std::memcpy(flat.data(), &n, sizeof n);
    for (const auto& b : blocks) {
      std::uint64_t len = b.size();
      const auto off = flat.size();
      flat.resize(off + sizeof len + b.size());
      std::memcpy(flat.data() + off, &len, sizeof len);
      std::memcpy(flat.data() + off + sizeof len, b.data(), b.size());
    }
  }
  bcast(flat, 0);
  std::vector<std::vector<std::byte>> out;
  std::uint64_t n = 0;
  std::size_t off = 0;
  std::memcpy(&n, flat.data(), sizeof n);
  off += sizeof n;
  out.resize(n);
  for (auto& b : out) {
    std::uint64_t len = 0;
    std::memcpy(&len, flat.data() + off, sizeof len);
    off += sizeof len;
    b.assign(flat.begin() + static_cast<std::ptrdiff_t>(off),
             flat.begin() + static_cast<std::ptrdiff_t>(off + len));
    off += len;
  }
  return out;
}

namespace {
void apply_op(std::vector<double>& acc, const std::vector<double>& other,
              Comm::ReduceOp op) {
  EGT_REQUIRE_MSG(acc.size() == other.size(), "reduce length mismatch");
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case Comm::ReduceOp::Sum:
        acc[i] += other[i];
        break;
      case Comm::ReduceOp::Min:
        acc[i] = std::min(acc[i], other[i]);
        break;
      case Comm::ReduceOp::Max:
        acc[i] = std::max(acc[i], other[i]);
        break;
    }
  }
}

std::vector<std::byte> pack(const std::vector<double>& v) {
  std::vector<std::byte> b(v.size() * sizeof(double));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

std::vector<double> unpack(const std::vector<std::byte>& b) {
  std::vector<double> v(b.size() / sizeof(double));
  std::memcpy(v.data(), b.data(), b.size());
  return v;
}
}  // namespace

std::vector<double> Comm::reduce(std::vector<double> mine, ReduceOp op,
                                 int root) {
  // Binomial-tree combine toward the root (deterministic combine order:
  // children merge in fixed vrank order, so floating-point sums are
  // reproducible run to run).
  const int tag = coll_tag();
  const int vrank = (rank_ - root + size()) % size();
  auto real = [&](int v) { return (v + root) % size(); };

  for (int mask = 1; mask < size(); mask <<= 1) {
    if (vrank & mask) {
      send(real(vrank ^ mask), tag, pack(mine));
      return rank_ == root ? mine : std::vector<double>{};
    }
    if (vrank + mask < size()) {
      Message m = recv(real(vrank + mask), tag);
      apply_op(mine, unpack(m.payload), op);
    }
  }
  return rank_ == root ? mine : std::vector<double>{};
}

std::vector<double> Comm::allreduce(std::vector<double> mine, ReduceOp op) {
  const std::size_t len = mine.size();
  auto result = reduce(std::move(mine), op, 0);
  std::vector<std::byte> bytes;
  if (rank_ == 0) bytes = pack(result);
  bcast(bytes, 0);
  auto out = unpack(bytes);
  EGT_REQUIRE(out.size() == len);
  return out;
}

double Comm::reduce_scalar(double mine, ReduceOp op, int root) {
  auto v = reduce({mine}, op, root);
  return v.empty() ? 0.0 : v[0];
}

double Comm::allreduce_scalar(double mine, ReduceOp op) {
  return allreduce({mine}, op)[0];
}

}  // namespace egt::par
