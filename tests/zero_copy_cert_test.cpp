// Zero-copy certification for the routed-event payload plane (DESIGN.md §15).
//
// The claim the copy-discipline lint pass (gmmcs-lint pass 7) exists to
// protect: a routed event's bytes are allocated exactly once — the wire
// frame built at the publishing client — and every hop from there to the
// last of 400 subscribers shares that buffer by refcount. Three
// independent instruments certify it on a warmed broker:
//
//   - payload_copy_count()/payload_bytes_copied(): the counted escape
//     hatches (Payload::copy_of / to_bytes) must not fire at all.
//   - event_encode_count(): exactly one kEvent serialization
//     process-wide (the broker adopts the publisher's frame).
//   - a counting global operator new: exactly one allocation of
//     payload size or larger — the frame itself. Fan-out to 400
//     subscribers adds zero.
//
// The same counters also certify the per-delivery host cost: a warmed
// publish allocates the same number of times, of any size, at 100 and at
// 400 subscribers (zero allocations per delivered copy), and each extra
// copy costs exactly two loop events. The topic is a realistic 39-char
// XGSP media topic, past the standard library's short-string buffer, so a
// client decode that built the topic afresh would show up as one
// allocation per delivery.
//
// Own binary because it replaces global new/delete (like small_fn_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/event.hpp"
#include "common/payload.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace {

// Any single allocation this large is assumed to be a payload buffer:
// the sim's bookkeeping (deque blocks, hash nodes, topic strings) stays
// well under it, and the event payload is chosen well over it.
constexpr std::size_t kLargeAlloc = 4096;
constexpr std::size_t kPayloadBytes = 8192;

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_large_allocs{0};

}  // namespace

// Counting global new/delete: the test binary is single-process and the
// counters only ever diffed around deterministic single-threaded regions.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size >= kLargeAlloc) g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gmmcs::broker {
namespace {

const std::string kTopic = "/xgsp/session/2003-lecture/audio/pcmu-1";

/// Loop events per delivered copy: the broker's dispatch completion and
/// the datagram's arrival at the subscriber. The NIC queue releases a
/// departed datagram's bytes without an event of its own.
constexpr std::uint64_t kEventsPerCopy = 2;

/// Counter deltas across one warmed publish.
struct PublishCost {
  int got = 0;
  std::uint64_t delivered = 0;
  std::uint64_t copies = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t encodes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t large_allocs = 0;
  std::uint64_t events = 0;
};

PublishCost warmed_publish(int subscribers) {
  sim::EventLoop loop;
  sim::Network net{loop, 21};

  sim::Host& bh = net.add_host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(net.add_host("pub"), broker.stream_endpoint());
  std::vector<std::unique_ptr<BrokerClient>> subs;
  PublishCost cost;
  for (int i = 0; i < subscribers; ++i) {
    subs.push_back(std::make_unique<BrokerClient>(
        net.add_host("s" + std::to_string(i)), broker.stream_endpoint()));
    subs.back()->subscribe(kTopic);
    subs.back()->on_event([&](const Event& ev) {
      if (ev.payload.size() == kPayloadBytes && ev.topic == kTopic) ++cost.got;
    });
  }
  loop.run();

  // Warm rounds: grow the loop's job queues, the broker's subscription
  // index, every stream's buffers and every client's topic string to
  // steady-state size so the measured round sees only the traffic itself.
  for (int round = 0; round < 2; ++round) {
    pub.publish(kTopic, Bytes(kPayloadBytes, 0x5a));
    loop.run();
  }
  cost.got = 0;

  // Build the payload before sampling so its own buffer isn't charged
  // to the measured region (it is moved, not copied, into the Payload).
  Bytes body(kPayloadBytes, 0x5a);
  const std::uint64_t copies0 = payload_copy_count();
  const std::uint64_t bytes0 = payload_bytes_copied();
  const std::uint64_t enc0 = event_encode_count();
  const std::uint64_t delivered0 = broker.copies_delivered();
  const std::uint64_t events0 = loop.executed();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t large0 = g_large_allocs.load(std::memory_order_relaxed);

  pub.publish(kTopic, std::move(body));
  loop.run();

  cost.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  cost.large_allocs = g_large_allocs.load(std::memory_order_relaxed) - large0;
  cost.events = loop.executed() - events0;
  cost.delivered = broker.copies_delivered() - delivered0;
  cost.copies = payload_copy_count() - copies0;
  cost.bytes_copied = payload_bytes_copied() - bytes0;
  cost.encodes = event_encode_count() - enc0;
  return cost;
}

TEST(ZeroCopyCert, WarmedFanoutTo400SubscribersAllocatesThePayloadOnce) {
  const PublishCost c = warmed_publish(400);
  EXPECT_EQ(c.got, 400);
  EXPECT_EQ(c.delivered, 400u);
  // Zero deep copies publish→delivery: the escape hatches never fired...
  EXPECT_EQ(c.copies, 0u);
  EXPECT_EQ(c.bytes_copied, 0u);
  // ...the frame was serialized once, at the publishing client...
  EXPECT_EQ(c.encodes, 1u);
  // ...and that serialization is the only payload-sized allocation in
  // the whole process. 400 deliveries cost refcount bumps, not buffers.
  EXPECT_EQ(c.large_allocs, 1u);
}

TEST(ZeroCopyCert, WarmedDeliveryCostsNoAllocationAndTwoLoopEvents) {
  // The topic must not fit a short-string buffer, or its decode is free.
  ASSERT_GT(kTopic.size(), std::string().capacity());
  const PublishCost small = warmed_publish(100);
  const PublishCost large = warmed_publish(400);
  ASSERT_EQ(small.got, 100);
  ASSERT_EQ(large.got, 400);
  // Allocations of every size: the per-publish work (framing, topic
  // normalization) is the same at both fan-outs, and 300 more deliveries
  // (broker dispatch, NIC egress, arrival, client decode) add none.
  EXPECT_EQ(large.allocs, small.allocs);
  // Exactly two loop events per delivered copy, no more and no fewer.
  EXPECT_EQ(large.events - small.events, kEventsPerCopy * (400 - 100));
}

TEST(ZeroCopyCert, InstrumentationIsLive) {
  // Guard against a vacuous certification: prove the counters actually
  // fire when a deep copy does happen.
  const std::uint64_t copies0 = payload_copy_count();
  const std::uint64_t bytes0 = payload_bytes_copied();
  const std::uint64_t large0 = g_large_allocs.load(std::memory_order_relaxed);

  Bytes original(kPayloadBytes, 0x5a);
  Payload p = Payload::copy_of(original);
  Bytes back = p.to_bytes();

  EXPECT_EQ(payload_copy_count() - copies0, 2u);
  EXPECT_EQ(payload_bytes_copied() - bytes0, 2u * kPayloadBytes);
  EXPECT_GE(g_large_allocs.load(std::memory_order_relaxed) - large0, 2u);
  EXPECT_EQ(back.size(), original.size());
}

}  // namespace
}  // namespace gmmcs::broker
