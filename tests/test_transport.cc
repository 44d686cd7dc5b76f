/**
 * @file
 * Tests for the pluggable transport layer: wire framing units, the
 * TCP transport's delivery semantics (real loopback sockets behind
 * the same ClusterNetwork API), accounting parity between the model
 * and tcp transports, the zero-copy receive path over real sockets,
 * request timeout/retry, and the full Skyway round-trip suite
 * (socket streams, parallel fan-out, type-registry LOOKUP) on TCP.
 * The multiplexed-fabric cases — interleaved tags on one pooled
 * connection, credit exhaustion and resume, peer disconnect at and
 * inside a frame edge, a 64-node smoke, parity at 16 nodes — live
 * here too. Labeled `transport` and `concurrency` so the TSan matrix
 * runs the whole binary against the per-node event loops.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/cluster.hh"
#include "net/frame.hh"
#include "net/tcp_transport.hh"
#include "obs/metrics.hh"
#include "sanitize/graphcheck.hh"
#include "skyway/baddr.hh"
#include "skyway/parallel.hh"
#include "skyway/streams.hh"
#include "typereg/registry.hh"
#include "testclasses.hh"

namespace skyway
{
namespace
{

using testing_support::makeList;
using testing_support::makeMixed;
using testing_support::makePoint;
using testing_support::makeTestCatalog;

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string
str(const std::vector<std::uint8_t> &v)
{
    return std::string(v.begin(), v.end());
}

/** Spin until a tagged message arrives (TCP bytes are in flight);
 *  returns its payload. */
std::vector<std::uint8_t>
awaitTag(ClusterNetwork &net, NodeId dst, int tag)
{
    std::vector<std::uint8_t> m;
    while (!net.pollTag(dst, tag, m)) {
    }
    return m;
}

TEST(Frame, HandshakeRoundTrip)
{
    static_assert(frame::handshakeBytes == 8, "u32 magic | i32 src");
    frame::Handshake h{7};
    std::uint8_t buf[frame::handshakeBytes];
    frame::encodeHandshake(buf, h);
    frame::Handshake out{};
    ASSERT_TRUE(frame::decodeHandshake(buf, out));
    EXPECT_EQ(out.src, 7);
}

TEST(Frame, HandshakeRejectsBadMagic)
{
    frame::Handshake h{1};
    std::uint8_t buf[frame::handshakeBytes];
    frame::encodeHandshake(buf, h);
    buf[0] ^= 0xFF;
    frame::Handshake out{};
    EXPECT_FALSE(frame::decodeHandshake(buf, out));
}

TEST(Frame, MuxHeaderRoundTrip)
{
    frame::MuxHeader h{frame::kindStream, 3, -9, 123456};
    std::uint8_t buf[frame::muxHeaderBytes];
    frame::encodeMuxHeader(buf, h);
    frame::MuxHeader out = frame::decodeMuxHeader(buf);
    EXPECT_EQ(out.kind, frame::kindStream);
    EXPECT_EQ(out.origin, 3);
    EXPECT_EQ(out.tag, -9);
    EXPECT_EQ(out.arg, 123456u);
}

TEST(TransportKindTest, NamesParse)
{
    EXPECT_STREQ(transportKindName(TransportKind::Model), "model");
    EXPECT_STREQ(transportKindName(TransportKind::Tcp), "tcp");
    EXPECT_EQ(parseTransportKind("model"), TransportKind::Model);
    EXPECT_EQ(parseTransportKind("tcp"), TransportKind::Tcp);
    EXPECT_FALSE(parseTransportKind("udp").has_value());
}

TEST(TcpCluster, SendPollInOrder)
{
    ClusterNetwork net(3, gigabitEthernet(), TransportKind::Tcp);
    EXPECT_STREQ(net.transportName(), "tcp");
    net.send(0, 1, 7, bytesOf("first"));
    net.send(0, 1, 7, bytesOf("second"));
    // Node 0 is the only sender and tag 7 the only tag, so the
    // payloads alone identify the stream.
    std::vector<std::uint8_t> m = awaitTag(net, 1, 7);
    EXPECT_EQ(str(m), "first");
    m = awaitTag(net, 1, 7);
    EXPECT_EQ(str(m), "second");
    EXPECT_FALSE(net.pollTag(1, 7, m));
}

TEST(TcpCluster, PollTagSkipsOthersAndRetainsOrder)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.send(0, 1, 1, bytesOf("a1"));
    net.send(0, 1, 2, bytesOf("b"));
    net.send(0, 1, 1, bytesOf("a2"));
    // Draining tag 2 first must not disturb tag 1's order.
    EXPECT_EQ(str(awaitTag(net, 1, 2)), "b");
    EXPECT_EQ(str(awaitTag(net, 1, 1)), "a1");
    EXPECT_EQ(str(awaitTag(net, 1, 1)), "a2");
}

TEST(TcpCluster, SelfSendIsFreeAndDelivered)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.send(0, 0, 5, bytesOf("home"));
    EXPECT_EQ(net.totalBytesSent(0), 0u);
    EXPECT_EQ(net.wireNs(0), 0u);
    std::vector<std::uint8_t> m;
    ASSERT_TRUE(net.pollTag(0, 5, m)); // local: no flight time
    EXPECT_EQ(str(m), "home");
}

TEST(TcpCluster, PollTagIntoDeliversIntoPostedStorage)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    std::vector<std::uint8_t> payload(4096);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 13);
    net.send(0, 1, 3, payload);

    std::vector<std::uint8_t> storage(payload.size() + 1, 0xEE);
    std::ptrdiff_t n;
    while ((n = net.pollTagInto(1, 3, [&](std::size_t len) {
                EXPECT_EQ(len, payload.size());
                return storage.data();
            })) < 0) {
    }
    ASSERT_EQ(n, static_cast<std::ptrdiff_t>(payload.size()));
    EXPECT_EQ(0,
              std::memcmp(storage.data(), payload.data(),
                          payload.size()));
    EXPECT_EQ(storage[payload.size()], 0xEE) << "overran the reserve";
    EXPECT_EQ(net.recvIntoBytes(), payload.size());
}

TEST(TcpCluster, PollTagIntoEdgeCases)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    bool reserve_called = false;
    auto reserve = [&](std::size_t) -> std::uint8_t * {
        reserve_called = true;
        return nullptr;
    };
    // Nothing pending: -1, reserve untouched.
    EXPECT_EQ(net.pollTagInto(1, 9, reserve), -1);
    EXPECT_FALSE(reserve_called);

    // Empty payload (end-of-stream marker): 0, reserve untouched.
    net.send(0, 1, 9, {});
    std::ptrdiff_t n;
    while ((n = net.pollTagInto(1, 9, reserve)) < 0) {
    }
    EXPECT_EQ(n, 0);
    EXPECT_FALSE(reserve_called);
    EXPECT_EQ(net.recvIntoBytes(), 0u);
}

TEST(TcpCluster, RequestReply)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.registerHandler(1, [](NodeId src, int tag,
                              const std::vector<std::uint8_t> &p) {
        EXPECT_EQ(src, 0);
        EXPECT_EQ(tag, 9);
        return std::vector<std::uint8_t>(p.rbegin(), p.rend());
    });
    auto reply = net.request(0, 1, 9, bytesOf("abc"));
    EXPECT_EQ(str(reply), "cba");
    EXPECT_GT(net.wireNs(0), 0u);
    // Requests never touch a socket: the cost is modeled only.
    EXPECT_EQ(net.framesSent(), 0u);
}

TEST(TcpCluster, RequestWithoutHandlerPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The fabric is built inside the death statement so the child
    // process gets its own live pump threads.
    EXPECT_DEATH(
        {
            ClusterNetwork net(2, gigabitEthernet(),
                               TransportKind::Tcp);
            net.request(0, 1, 1, {});
        },
        "no registered handler");
}

/** A slow handler is answered, not raced: no timeout fires, no
 *  resend runs the handler a second time, and nothing reconnects. */
TEST(TcpCluster, SlowHandlerRunsOnce)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    std::atomic<int> calls{0};
    net.registerHandler(
        1, [&calls](NodeId, int, const std::vector<std::uint8_t> &p) {
            calls.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            return p;
        });
    auto reply = net.request(0, 1, 4, bytesOf("ping"));
    EXPECT_EQ(str(reply), "ping");
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(net.connectRetries(), 0u);
}

TEST(TcpCluster, ResetAccountingClearsWireCounters)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.send(0, 1, 1, bytesOf("payload"));
    std::vector<std::uint8_t> storage(16);
    while (net.pollTagInto(1, 1,
                           [&](std::size_t) { return storage.data(); })
           < 0) {
    }
    EXPECT_GT(net.framesSent(), 0u);
    EXPECT_GT(net.recvIntoBytes(), 0u);
    EXPECT_GT(net.realWireNs(), 0u);
    EXPECT_GT(net.totalBytesSent(0), 0u);

    EXPECT_GT(net.pooledConnections(), 0u);
    EXPECT_GT(net.epollWakeups(), 0u);

    net.resetAccounting();
    EXPECT_EQ(net.framesSent(), 0u);
    EXPECT_EQ(net.connectRetries(), 0u);
    EXPECT_EQ(net.recvIntoBytes(), 0u);
    EXPECT_EQ(net.realWireNs(), 0u);
    EXPECT_EQ(net.creditStallsNs(), 0u);
    EXPECT_EQ(net.epollWakeups(), 0u);
    EXPECT_EQ(net.pooledConnections(), 0u);
    EXPECT_EQ(net.totalBytesSent(0), 0u);
    EXPECT_EQ(net.wireNs(0), 0u);
    EXPECT_EQ(net.messagesSent(0), 0u);
}

/** Destroying a fabric with still-active streams and pooled
 *  connections must return the process-wide gauges to their prior
 *  level. The unwind walks sendMutex-/poolMutex_-guarded state; it
 *  used to read it unlocked, which the SkywayGuard thread-safety
 *  annotations flagged (docs/STATIC_ANALYSIS.md). */
TEST(TcpCluster, GaugesUnwindOnDestruction)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::Gauge &streams = reg.gauge("net.streams_active");
    obs::Gauge &pooled = reg.gauge("net.pooled_connections");
    std::int64_t streams0 = streams.value();
    std::int64_t pooled0 = pooled.value();
    {
        ClusterNetwork net(3, gigabitEthernet(), TransportKind::Tcp);
        // Streams deliberately left open (no end-of-stream marker)
        // so destruction finds them active.
        net.send(0, 1, 9, bytesOf("left-open"));
        net.send(1, 2, 9, bytesOf("left-open"));
        awaitTag(net, 1, 9);
        awaitTag(net, 2, 9);
        EXPECT_GE(streams.value(), streams0 + 2);
        EXPECT_GE(pooled.value(), pooled0 + 2);
    }
    EXPECT_EQ(streams.value(), streams0);
    EXPECT_EQ(pooled.value(), pooled0);
}

/** The same traffic pattern on both transports must account
 *  identically — bytes, messages, and modeled wire time. */
TEST(TransportParity, AccountingMatchesByteForByte)
{
    auto drive = [](ClusterNetwork &net) {
        net.registerHandler(
            2, [](NodeId, int, const std::vector<std::uint8_t> &p) {
                return std::vector<std::uint8_t>(p.size() * 2, 0xAB);
            });
        net.send(0, 1, 1, std::vector<std::uint8_t>(100));
        net.send(0, 2, 1, std::vector<std::uint8_t>(50));
        net.send(1, 0, 2, std::vector<std::uint8_t>(25));
        net.send(1, 1, 3, std::vector<std::uint8_t>(999)); // loopback
        net.request(0, 2, 4, std::vector<std::uint8_t>(10));
        // Drain so TCP teardown is quiet.
        (void)awaitTag(net, 1, 1);
        (void)awaitTag(net, 2, 1);
        (void)awaitTag(net, 0, 2);
        std::vector<std::uint8_t> m;
        (void)net.pollTag(1, 3, m);
    };
    ClusterNetwork model(3, gigabitEthernet(), TransportKind::Model);
    ClusterNetwork tcp(3, gigabitEthernet(), TransportKind::Tcp);
    drive(model);
    drive(tcp);
    for (NodeId s = 0; s < 3; ++s) {
        EXPECT_EQ(model.messagesSent(s), tcp.messagesSent(s)) << s;
        EXPECT_EQ(model.wireNs(s), tcp.wireNs(s)) << s;
        for (NodeId d = 0; d < 3; ++d)
            EXPECT_EQ(model.bytesSent(s, d), tcp.bytesSent(s, d))
                << s << "->" << d;
    }
    EXPECT_EQ(model.framesSent(), 0u) << "model has no real wire";
    EXPECT_GT(tcp.framesSent(), 0u);
}

TEST(TcpCluster, ConcurrentSendersManyTags)
{
    // Hammer one receiving node from two sender threads across many
    // tags; every payload must arrive intact and in per-tag order.
    ClusterNetwork net(3, gigabitEthernet(), TransportKind::Tcp);
    constexpr int perTag = 20;
    constexpr int tags = 4;
    auto sender = [&net](NodeId src) {
        for (int i = 0; i < perTag; ++i) {
            for (int t = 0; t < tags; ++t) {
                std::vector<std::uint8_t> p(64 + t,
                                            static_cast<std::uint8_t>(
                                                i));
                p[1] = static_cast<std::uint8_t>(src);
                net.send(src, 2, src * tags + t, std::move(p));
            }
        }
    };
    std::thread t1(sender, 0), t2(sender, 1);
    for (int src = 0; src < 2; ++src) {
        for (int t = 0; t < tags; ++t) {
            for (int i = 0; i < perTag; ++i) {
                // Tags are unique per source; the payload names its
                // source as well.
                std::vector<std::uint8_t> m =
                    awaitTag(net, 2, src * tags + t);
                ASSERT_EQ(m.size(), static_cast<std::size_t>(64 + t));
                EXPECT_EQ(m[0], static_cast<std::uint8_t>(i));
                EXPECT_EQ(m[1], static_cast<std::uint8_t>(src));
            }
        }
    }
    t1.join();
    t2.join();
}

TEST(TcpCluster, InterleavedTagsShareOneConnection)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.send(0, 1, 1, bytesOf("a1"));
    net.send(0, 1, 2, bytesOf("b1"));
    net.send(0, 1, 1, bytesOf("a2"));
    net.send(0, 1, 2, bytesOf("b2"));
    // Draining tag 2 ahead of tag 1 forces the parked tag-1 misfits
    // through staging so the shared connection keeps moving; both
    // streams must keep their own order.
    EXPECT_EQ(str(awaitTag(net, 1, 2)), "b1");
    EXPECT_EQ(str(awaitTag(net, 1, 2)), "b2");
    EXPECT_EQ(str(awaitTag(net, 1, 1)), "a1");
    EXPECT_EQ(str(awaitTag(net, 1, 1)), "a2");
    // Two interleaved streams, one pooled pair connection.
    EXPECT_EQ(net.pooledConnections(), 1u);
    std::vector<std::uint8_t> m;
    EXPECT_FALSE(net.pollTag(1, 1, m));
    EXPECT_FALSE(net.pollTag(1, 2, m));
}

TEST(TcpCluster, SelfDeliveriesAndStagedCopiesShareOneQueue)
{
    // Node 1 receives tag 5 from itself and from node 0, while node
    // 0's tag-6 frame, ahead of its tag-5 frames on the connection,
    // is never claimed until the end: the tag-5 consumer must force
    // it into staging. Self-deliveries and the staged copy share one
    // queue; each source's order must hold, and only the parked
    // payloads claimed directly count as zero-copy receives.
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    const std::vector<std::uint8_t> blocker(1000, 0xB6);
    auto self = [](int i) { return bytesOf("self " + std::to_string(i)); };
    auto peer = [](int i) {
        return bytesOf("peer payload " + std::to_string(i));
    };
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    net.send(1, 1, 5, self(0));
    net.send(0, 1, 6, blocker);
    // A drain pass writes streams in tag order: let the blocker leave
    // alone so that it is ahead of the tag-5 frames on the wire.
    while (net.framesSent() == 0)
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    net.send(0, 1, 5, peer(0));
    net.send(0, 1, 5, peer(1));
    net.send(1, 1, 5, self(1));

    int selfNext = 0;
    int peerNext = 0;
    std::vector<std::uint8_t> m;
    while (selfNext < 2 || peerNext < 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "tag 5 stuck behind the parked tag-6 frame";
        if (!net.pollTag(1, 5, m))
            continue;
        if (m == self(selfNext))
            ++selfNext;
        else if (m == peer(peerNext))
            ++peerNext;
        else
            FAIL() << "out of order or unknown: " << str(m);
    }

    // The tag-6 frame now sits staged; a self-delivery made after it
    // queues behind it and is still found by its tag.
    net.send(1, 1, 5, self(2));
    ASSERT_TRUE(net.pollTag(1, 5, m));
    EXPECT_EQ(m, self(2));
    ASSERT_TRUE(net.pollTag(1, 6, m)) << "the staged frame is owned";
    EXPECT_EQ(m, blocker);
    EXPECT_FALSE(net.pollTag(1, 5, m));
    EXPECT_FALSE(net.pollTag(1, 6, m));

    // Zero-copy counts the two peer payloads claimed while parked; the
    // staged blocker and the self-deliveries were copies.
    EXPECT_EQ(net.recvIntoBytes(), peer(0).size() + peer(1).size());
}

TEST(TcpCluster, CreditExhaustionStallsThenResumes)
{
    TransportOptions topts;
    topts.creditWindowBytes = 2048; // two 1 KiB frames in flight
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp,
                       topts);
    constexpr int frames = 10;
    std::vector<std::uint8_t> payload(1024);
    for (int i = 0; i < frames; ++i) {
        payload[0] = static_cast<std::uint8_t>(i);
        net.send(0, 1, 3, payload);
    }
    // Let the sender's loop run the 2 KiB window dry before anyone
    // grants credit back.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int i = 0; i < frames; ++i) {
        std::vector<std::uint8_t> m = awaitTag(net, 1, 3);
        ASSERT_EQ(m.size(), payload.size());
        EXPECT_EQ(m[0], static_cast<std::uint8_t>(i));
    }
    // The stream stalled at least once and resumed on a grant.
    EXPECT_GT(net.creditStallsNs(), 0u);
    EXPECT_GT(net.epollWakeups(), 0u);
}

TEST(TcpCluster, CreditGrantBehindParkedFrameRescued)
{
    // Pair connections are full-duplex: while node 1's frame toward
    // node 0 sits parked (unclaimed) on node 0's end, nothing behind
    // it on that socket is readable. Credit grants therefore never
    // ride the socket — a consumer returns credit to the sender's
    // window in-process — so draining node 1's tag first neither
    // deadlocks nor forces a staging copy: every payload byte of
    // both directions lands zero-copy.
    TransportOptions topts;
    topts.creditWindowBytes = 2048; // exactly one frame in flight
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp,
                       topts);
    constexpr int frames = 4;
    std::vector<std::uint8_t> payload(2048);
    for (int i = 0; i < frames; ++i) {
        payload[0] = static_cast<std::uint8_t>(i);
        net.send(0, 1, 5, payload);
        payload[0] = static_cast<std::uint8_t>(100 + i);
        net.send(1, 0, 6, payload);
    }
    std::vector<std::uint8_t> storage(payload.size());
    auto awaitIntoBounded = [&](NodeId dst, int tag) {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
        std::ptrdiff_t got;
        while ((got = net.pollTagInto(dst, tag, [&](std::size_t) {
                    return storage.data();
                })) < 0) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
        }
        return got == static_cast<std::ptrdiff_t>(payload.size());
    };
    for (int i = 0; i < frames; ++i) {
        ASSERT_TRUE(awaitIntoBounded(1, 5))
            << "deadlocked: grant trapped behind parked frame";
        EXPECT_EQ(storage[0], static_cast<std::uint8_t>(i));
    }
    for (int i = 0; i < frames; ++i) {
        ASSERT_TRUE(awaitIntoBounded(0, 6));
        EXPECT_EQ(storage[0], static_cast<std::uint8_t>(100 + i));
    }
    EXPECT_EQ(net.recvIntoBytes(), 2u * frames * payload.size())
        << "a parked frame was staged (copied) instead of claimed";
    EXPECT_GT(net.creditStallsNs(), 0u);
}

TEST(TcpCluster, CreditWindowSweepLandsEveryByteZeroCopy)
{
    // Two streams each way between two nodes, sized to stall the
    // small windows many times over and never the large ones. A
    // round-robin pollTagInto drain must land every payload byte
    // straight into posted storage, whatever the window.
    constexpr int tags = 2;
    constexpr int frames = 16;
    constexpr std::size_t frameBytes = 1536; // not a window divisor
    const std::size_t windows[] = {2u << 10, 4u << 10, 64u << 10,
                                   1u << 20};
    for (std::size_t window : windows) {
        SCOPED_TRACE("creditWindowBytes=" + std::to_string(window));
        TransportOptions topts;
        topts.creditWindowBytes = window;
        ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp,
                           topts);
        std::vector<std::uint8_t> payload(frameBytes);
        for (int i = 0; i < frames; ++i) {
            for (int t = 0; t < tags; ++t) {
                payload[0] = static_cast<std::uint8_t>(i);
                payload[1] = static_cast<std::uint8_t>(t);
                net.send(0, 1, 10 + t, payload);
                net.send(1, 0, 10 + t, payload);
            }
        }
        std::vector<std::uint8_t> storage(frameBytes);
        int delivered[2][tags] = {};
        int remaining = 2 * tags * frames;
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
        while (remaining > 0) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "stalled with " << remaining << " frames undelivered";
            for (NodeId dst = 0; dst < 2; ++dst) {
                for (int t = 0; t < tags; ++t) {
                    if (delivered[dst][t] == frames)
                        continue;
                    std::ptrdiff_t got = net.pollTagInto(
                        dst, 10 + t,
                        [&](std::size_t) { return storage.data(); });
                    if (got < 0)
                        continue;
                    ASSERT_EQ(got,
                              static_cast<std::ptrdiff_t>(frameBytes));
                    EXPECT_EQ(storage[0], static_cast<std::uint8_t>(
                                              delivered[dst][t]));
                    EXPECT_EQ(storage[1], static_cast<std::uint8_t>(t));
                    ++delivered[dst][t];
                    --remaining;
                }
            }
        }
        EXPECT_EQ(net.recvIntoBytes(),
                  std::uint64_t{2} * tags * frames * frameBytes);
        // Grants travel in-process: only data frames hit the wire.
        EXPECT_EQ(net.framesSent(),
                  std::uint64_t{2} * tags * frames);
    }
}

TEST(TcpCluster, BidirectionalFloodDoesNotWedgeEventLoops)
{
    // Regression for the write-write deadlock: both nodes flood the
    // one full-duplex pair socket with several streams' worth of
    // frames before anyone polls, so each direction's unwritten
    // bytes exceed what the kernel will buffer. With blocking writes
    // in the event loops, node 0's loop and node 1's loop both sat
    // in send(2) against a full peer socket buffer — neither reached
    // epoll_wait again, no inbound frame was ever parked, and the
    // fabric deadlocked. Writes now queue per connection and drain
    // non-blockingly (EPOLLOUT), so the loops keep turning.
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    constexpr int tags = 4;
    constexpr int frames = 2;
    std::vector<std::uint8_t> payload(512 * 1024);
    for (int t = 0; t < tags; ++t) {
        for (int i = 0; i < frames; ++i) {
            payload[0] = static_cast<std::uint8_t>(i);
            payload[1] = static_cast<std::uint8_t>(t);
            net.send(0, 1, 20 + t, payload);
            payload[0] = static_cast<std::uint8_t>(100 + i);
            net.send(1, 0, 20 + t, payload);
        }
    }
    // Give both loops time to wedge against the full socket buffers
    // before any consumer relieves them (the old code deadlocked
    // right here, with every later poll spinning forever).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto awaitTagBounded = [&](NodeId dst, int tag,
                               std::vector<std::uint8_t> &m) {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
        while (!net.pollTag(dst, tag, m)) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
        }
        return true;
    };
    for (int t = 0; t < tags; ++t) {
        for (int i = 0; i < frames; ++i) {
            std::vector<std::uint8_t> m;
            ASSERT_TRUE(awaitTagBounded(1, 20 + t, m))
                << "deadlocked: event loops blocked writing";
            ASSERT_EQ(m.size(), payload.size());
            EXPECT_EQ(m[0], static_cast<std::uint8_t>(i));
            EXPECT_EQ(m[1], static_cast<std::uint8_t>(t));
            ASSERT_TRUE(awaitTagBounded(0, 20 + t, m))
                << "deadlocked: event loops blocked writing";
            EXPECT_EQ(m[0], static_cast<std::uint8_t>(100 + i));
        }
    }
    std::vector<std::uint8_t> m;
    for (int t = 0; t < tags; ++t) {
        EXPECT_FALSE(net.pollTag(0, 20 + t, m)) << t;
        EXPECT_FALSE(net.pollTag(1, 20 + t, m)) << t;
    }
}

namespace
{

/** A raw loopback client socket (a fake peer for disconnect tests). */
int
rawConnect(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)), 0);
    return fd;
}

void
rawSend(int fd, const void *buf, std::size_t len)
{
    ASSERT_EQ(::send(fd, buf, len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
}

} // namespace

TEST(TcpCluster, PeerDisconnectAtFrameEdgeRecovers)
{
    WireCounters wire;
    TcpTransport t(2, wire);
    // A foreign peer handshakes as node 0's data end...
    int fd = rawConnect(t.listenPort(1));
    std::uint8_t shake[frame::handshakeBytes];
    frame::encodeHandshake(shake, frame::Handshake{0});
    rawSend(fd, shake, sizeof(shake));
    // ...delivers one complete frame...
    std::uint8_t hdr[frame::muxHeaderBytes];
    frame::encodeMuxHeader(hdr,
                           frame::MuxHeader{frame::kindStream, 0, 5,
                                            5});
    rawSend(fd, hdr, sizeof(hdr));
    rawSend(fd, "hello", 5);
    std::uint8_t buf[8];
    auto into = [&buf](std::size_t len) {
        EXPECT_LE(len, sizeof(buf));
        return buf;
    };
    std::ptrdiff_t n;
    while ((n = t.pollTagInto(1, 5, into)) < 0) {
    }
    EXPECT_EQ(std::string(reinterpret_cast<char *>(buf),
                          static_cast<std::size_t>(n)),
              "hello");
    EXPECT_EQ(wire.connectionsPooled.load(), 1u);
    // ...then hangs up at a frame edge: an orderly EOF that must drop
    // the pooled pair, not panic. (The delivery's credit grant goes
    // nowhere: node 0 tracks no stream the foreign peer fed.)
    ::close(fd);
    // A real send from node 0 re-establishes a fresh pair connection.
    t.send(0, 1, 5, bytesOf("again"));
    while ((n = t.pollTagInto(1, 5, into)) < 0) {
    }
    EXPECT_EQ(std::string(reinterpret_cast<char *>(buf),
                          static_cast<std::size_t>(n)),
              "again");
    EXPECT_EQ(wire.connectionsPooled.load(), 2u);
}

TEST(TcpCluster, PeerClosingMidFramePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            WireCounters wire;
            TcpTransport t(2, wire);
            int fd = rawConnect(t.listenPort(1));
            std::uint8_t shake[frame::handshakeBytes];
            frame::encodeHandshake(shake, frame::Handshake{0});
            rawSend(fd, shake, sizeof(shake));
            // Half a mux header, then hang up: a torn frame.
            std::uint8_t partial[5];
            std::memset(partial, 0, sizeof(partial));
            partial[0] = frame::kindStream;
            rawSend(fd, partial, sizeof(partial));
            ::close(fd);
            std::this_thread::sleep_for(std::chrono::seconds(5));
        },
        "peer closed mid-frame");
}

TEST(TcpCluster, PeerSendingUnknownFrameKindPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            WireCounters wire;
            TcpTransport t(2, wire);
            int fd = rawConnect(t.listenPort(1));
            std::uint8_t shake[frame::handshakeBytes];
            frame::encodeHandshake(shake, frame::Handshake{0});
            rawSend(fd, shake, sizeof(shake));
            // Stream data (kind 4) is the only mux kind; anything
            // else is protocol damage.
            std::uint8_t hdr[frame::muxHeaderBytes];
            frame::encodeMuxHeader(hdr, frame::MuxHeader{5, 0, 5, 4096});
            rawSend(fd, hdr, sizeof(hdr));
            std::this_thread::sleep_for(std::chrono::seconds(5));
        },
        "unexpected mux frame kind");
}

TEST(TcpCluster, SixtyFourNodeRingAndChordSmoke)
{
    constexpr int N = 64;
    ClusterNetwork net(N, gigabitEthernet(), TransportKind::Tcp);
    for (int i = 0; i < N; ++i) {
        net.send(i, (i + 1) % N, 7,
                 bytesOf("ring " + std::to_string(i)));
        net.send(i, (i + N / 2) % N, 8,
                 bytesOf("chord " + std::to_string(i)));
    }
    for (int i = 0; i < N; ++i) {
        // Each node receives one message per tag, and its payload
        // names the sender.
        EXPECT_EQ(str(awaitTag(net, (i + 1) % N, 7)),
                  "ring " + std::to_string(i));
        EXPECT_EQ(str(awaitTag(net, (i + N / 2) % N, 8)),
                  "chord " + std::to_string(i));
    }
    // 64 ring pairs plus 32 distinct chord pairs; each chord pair
    // carries streams both ways yet is pooled exactly once, even when
    // both endpoints race to establish it.
    EXPECT_EQ(net.pooledConnections(),
              static_cast<std::uint64_t>(N + N / 2));
}

TEST(TransportParity, ParityAtSixteenNodes)
{
    constexpr int N = 16;
    auto drive = [](ClusterNetwork &net) {
        for (int s = 0; s < N; ++s) {
            for (int d = 0; d < N; ++d) {
                if (s == d)
                    continue;
                net.send(s, d, 100 + s,
                         std::vector<std::uint8_t>(
                             static_cast<std::size_t>(
                                 16 + 3 * s + 7 * d)));
            }
        }
        for (int d = 0; d < N; ++d) {
            for (int s = 0; s < N; ++s) {
                if (s == d)
                    continue;
                // Tag 100 + s is unique to source s.
                EXPECT_EQ(awaitTag(net, d, 100 + s).size(),
                          static_cast<std::size_t>(16 + 3 * s +
                                                   7 * d));
            }
        }
    };
    ClusterNetwork model(N, gigabitEthernet(), TransportKind::Model);
    ClusterNetwork tcp(N, gigabitEthernet(), TransportKind::Tcp);
    drive(model);
    drive(tcp);
    for (NodeId s = 0; s < N; ++s) {
        EXPECT_EQ(model.messagesSent(s), tcp.messagesSent(s)) << s;
        EXPECT_EQ(model.wireNs(s), tcp.wireNs(s)) << s;
        EXPECT_EQ(model.totalBytesSent(s), tcp.totalBytesSent(s)) << s;
    }
    // A full 16-node all-to-all needs exactly N·(N−1)/2 connections.
    EXPECT_EQ(tcp.pooledConnections(),
              static_cast<std::uint64_t>(N * (N - 1) / 2));
    EXPECT_EQ(model.pooledConnections(), 0u);
}

/** Skyway over real sockets: the SkywayTest topology on TCP. */
class TcpSkywayTest : public ::testing::Test
{
  protected:
    TcpSkywayTest()
        : catalog_(makeTestCatalog()),
          net_(3, gigabitEthernet(), TransportKind::Tcp),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        // Registry attach traffic (REQUEST_VIEW over real sockets)
        // has flowed by now; start the counters clean.
        net_.resetAccounting();
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(TcpSkywayTest, SocketStreamsRoundTripZeroCopy)
{
    nodeB_.skyway().debug().checkReceivedGraph = true;
    // The fabric-byte equalities below are raw-format invariants
    // (compact segments ship fewer bytes than the rebuilt buffer
    // holds): pin compaction off.
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    nodeB_.skyway().setWireCompactMode(WireCompactMode::Off);

    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);
    nodeA_.skyway().shuffleStart();
    SkywaySocketOutputStream out(nodeA_.skyway(), net_, nodeA_.id(),
                                 nodeB_.id(), 42, 4 << 10);
    SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(), 42);
    out.writeObject(head);
    out.close();
    while (!in.pump()) {
    }
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));

    // Every wire payload byte was recv()'d straight into chunk
    // storage — no staging copy survived the refactor.
    EXPECT_GT(out.totalBytes(), 0u);
    EXPECT_EQ(net_.recvIntoBytes(), out.totalBytes());
    EXPECT_EQ(net_.bytesSent(nodeA_.id(), nodeB_.id()),
              out.totalBytes());
    keep_.push_back(in.releaseBuffer());
}

TEST_F(TcpSkywayTest, ParallelFanOutOverSockets)
{
    constexpr unsigned N = 3;
    LocalRoots roots(nodeA_.heap());
    Address shared = makeMixed(nodeA_, roots, "contended subtree");
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::vector<Address> tops;
    LocalRoots keepRoots(nodeA_.heap());
    for (unsigned t = 0; t < 2 * N; ++t) {
        Address p = nodeA_.heap().allocateInstance(pairK);
        std::size_t rp = keepRoots.push(p);
        field::setRef(nodeA_.heap(), keepRoots.get(rp),
                      pairK->requireField("left"), roots.get(rs));
        field::setRef(nodeA_.heap(), keepRoots.get(rp),
                      pairK->requireField("right"),
                      makePoint(nodeA_, static_cast<int>(t), -1));
        tops.push_back(keepRoots.get(rp));
    }

    nodeA_.skyway().shuffleStart();
    constexpr int baseTag = 500;
    ParallelSendConfig cfg;
    cfg.threads = N;
    // Each fan-out thread streams straight onto the fabric on its own
    // tag — concurrent senders exercising the real socket path.
    ParallelSender psend(
        nodeA_.skyway(),
        [this](unsigned w) {
            return [this, w](const std::uint8_t *d, std::size_t n) {
                net_.send(nodeA_.id(), nodeB_.id(),
                          baseTag + static_cast<int>(w),
                          std::vector<std::uint8_t>(d, d + n));
            };
        },
        cfg);
    ParallelSendReport rep = psend.send(tops);
    EXPECT_GT(rep.totalBytes, 0u);
    for (unsigned w = 0; w < N; ++w)
        net_.send(nodeA_.id(), nodeB_.id(),
                  baseTag + static_cast<int>(w), {});

    // Thread w streamed roots w, w+N, ... in order on its own tag.
    std::size_t received = 0;
    for (unsigned w = 0; w < N; ++w) {
        SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(),
                                   baseTag + static_cast<int>(w));
        while (!in.pump()) {
        }
        std::size_t slot = 0;
        while (in.hasNext()) {
            Address q = in.readObject();
            std::size_t idx = w + slot * N;
            ASSERT_LT(idx, tops.size());
            EXPECT_TRUE(graphsEqual(nodeA_.heap(), tops[idx],
                                    nodeB_.heap(), q));
            ++slot;
            ++received;
        }
        keep_.push_back(in.releaseBuffer());
    }
    EXPECT_EQ(received, tops.size());
}

/**
 * Landing over each transport: the transport writes every segment
 * straight into a prefaulted input-buffer reservation (a modeled DMA,
 * or recv() on tcp), and a later reservation or commit must never
 * change a byte committed before it.
 */
class SkywayLandingTest : public ::testing::TestWithParam<TransportKind>
{
  protected:
    /** One segment as shipped, and the raw stream bytes it carries. */
    struct Segment
    {
        std::vector<std::uint8_t> wire;
        std::vector<std::uint8_t> raw;
    };

    static constexpr int tag = 61;

    SkywayLandingTest()
        : catalog_(makeTestCatalog()),
          net_(3, gigabitEthernet(), GetParam()),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
        nodeB_.skyway().debug().checkReceivedGraph = true;
    }

    /**
     * The raw segments A flushes for @p roots through a buffer of
     * @p buffer_bytes; every other one is re-encoded compact when
     * @p mix_compact (segments encode independently).
     */
    std::vector<Segment>
    segmentsOf(const std::vector<Address> &roots,
               std::size_t buffer_bytes, bool mix_compact = false)
    {
        nodeA_.skyway().shuffleStart();
        std::vector<Segment> segs;
        {
            SkywayObjectOutputStream out(
                nodeA_.skyway(),
                [&segs](const std::uint8_t *d, std::size_t n) {
                    segs.push_back({{d, d + n}, {d, d + n}});
                },
                buffer_bytes);
            for (Address r : roots)
                out.writeObject(r);
            out.flush();
        }
        if (mix_compact) {
            nodeA_.skyway().setWireCompactMode(WireCompactMode::Force);
            CompactEncoder enc(nodeA_.skyway(), nodeA_.heap().format());
            for (std::size_t i = 1; i < segs.size(); i += 2)
                enc.encodeSegment(
                    segs[i].raw.data(), segs[i].raw.size(),
                    [&](const std::uint8_t *d, std::size_t n) {
                        segs[i].wire.assign(d, d + n);
                    });
            nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
        }
        return segs;
    }

    /**
     * Expect the committed bytes at @p at to be @p raw with every
     * record's type id turned into B's klass pointer and every marker
     * into a filler; returns whether a record has reference slots.
     */
    bool
    expectCommittedForm(const std::uint8_t *at,
                        const std::vector<std::uint8_t> &raw)
    {
        ManagedHeap &hb = nodeB_.heap();
        bool refs = false;
        std::size_t off = 0;
        while (off < raw.size()) {
            auto a = reinterpret_cast<Address>(at + off);
            Word first;
            std::memcpy(&first, raw.data() + off, wordSize);
            if (marker::isMarker(first)) {
                EXPECT_TRUE(ManagedHeap::isFiller(a));
                off += ManagedHeap::fillerSize(a);
                continue;
            }
            Word tid;
            std::memcpy(&tid, raw.data() + off + offsetKlass, wordSize);
            Klass *k = nodeB_.resolver().klassForId(
                static_cast<std::int32_t>(tid));
            EXPECT_EQ(hb.klassOf(a), k) << "klass word at offset " << off;
            if (hb.klassOf(a) != k)
                return refs;
            refs |= k->isArray() ? k->elemType() == FieldType::Ref
                                 : !k->refOffsets().empty();
            std::size_t size = hb.objectSize(a);
            EXPECT_EQ(std::memcmp(at + off, raw.data() + off, wordSize),
                      0);
            EXPECT_EQ(std::memcmp(at + off + offsetKlass + wordSize,
                                  raw.data() + off + offsetKlass +
                                      wordSize,
                                  size - offsetKlass - wordSize),
                      0);
            off += size;
        }
        EXPECT_EQ(off, raw.size());
        return refs;
    }

    /**
     * Send @p segs from A to B and land each through reserveChunk /
     * commitChunk. After every commit, each earlier segment's
     * committed bytes are unchanged, and the new one holds klass
     * pointers. Returns where each segment's records landed, and
     * whether they hold references.
     */
    std::vector<std::pair<const std::uint8_t *, bool>>
    land(InputBuffer &buf, const std::vector<Segment> &segs)
    {
        for (const Segment &s : segs)
            net_.send(nodeA_.id(), nodeB_.id(), tag, s.wire);
        std::vector<std::pair<const std::uint8_t *, bool>> at;
        std::vector<std::vector<std::uint8_t>> committed;
        for (const Segment &s : segs) {
            std::uint8_t *reserved = nullptr;
            std::ptrdiff_t n;
            while ((n = net_.pollTagInto(
                        nodeB_.id(), tag, [&](std::size_t len) {
                            return reserved = buf.reserveChunk(len);
                        })) < 0) {
            }
            EXPECT_EQ(static_cast<std::size_t>(n), s.wire.size());
            buf.commitChunk(static_cast<std::size_t>(n));
            for (std::size_t i = 0; i < committed.size(); ++i)
                EXPECT_EQ(std::memcmp(at[i].first, committed[i].data(),
                                      committed[i].size()),
                          0)
                    << "segment " << i << " changed after a later commit";
            bool refs = expectCommittedForm(reserved, s.raw);
            at.emplace_back(reserved, refs);
            committed.emplace_back(reserved, reserved + s.raw.size());
        }
        return at;
    }

    /** Cache identity hashes on every source object, so the graph
     *  check compares them too. */
    void
    hashAll(const std::vector<Address> &roots)
    {
        for (Address r : roots)
            testing_support::forEachReachable(
                nodeA_.heap(), r,
                [this](Address a) { nodeA_.heap().identityHash(a); });
    }

    void
    expectGraphs(const std::vector<Address> &src, const InputBuffer &buf)
    {
        ASSERT_EQ(buf.roots().size(), src.size());
        for (std::size_t i = 0; i < src.size(); ++i) {
            sanitize::GraphCheckResult r = sanitize::checkHeapGraphs(
                nodeA_.heap(), src[i], nodeB_.heap(), buf.roots()[i]);
            EXPECT_TRUE(r.equal) << "root " << i << ": " << r.divergence;
        }
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
};

TEST_P(SkywayLandingTest, CommittedBytesSurviveLaterReservations)
{
    LocalRoots roots(nodeA_.heap());
    makeList(nodeA_, roots, 400);
    std::size_t rm = roots.push(makeMixed(nodeA_, roots, "landing"));
    std::vector<Address> src{roots.get(0), roots.get(rm)};
    hashAll(src);
    // 1000-byte segments: segment 0 ends mid-page, and segment 1 is
    // reserved (and prefaulted) right behind it in the same chunk.
    std::vector<Segment> segs = segmentsOf(src, 1000);
    ASSERT_GT(segs.size(), 3u);
    InputBuffer buf(nodeB_.skyway(), 64 << 10);
    auto at = land(buf, segs);
    auto end0 = reinterpret_cast<std::uintptr_t>(at[0].first) +
                segs[0].raw.size();
    EXPECT_NE(end0 % 4096, 0u);
    EXPECT_EQ(at[1].first, at[0].first + segs[0].raw.size());
    buf.finalize();
    EXPECT_EQ(buf.stats().zeroCopyBytes, buf.stats().bytesReceived +
                                             buf.roots().size() * 8);
    expectGraphs(src, buf);
}

TEST_P(SkywayLandingTest, RawAndCompactSegmentsShareAChunk)
{
    LocalRoots roots(nodeA_.heap());
    makeList(nodeA_, roots, 300);
    std::size_t rm = roots.push(makeMixed(nodeA_, roots, "mixed chunk"));
    std::vector<Address> src{roots.get(0), roots.get(rm)};
    hashAll(src);
    std::vector<Segment> segs = segmentsOf(src, 1000, true);
    ASSERT_GT(segs.size(), 3u);
    ASSERT_LT(segs[1].wire.size(), segs[1].raw.size())
        << "segment 1 travels compact";
    // One chunk takes every segment, so each expansion lands right
    // where its reservation began.
    InputBuffer buf(nodeB_.skyway(), 64 << 10);
    land(buf, segs);
    EXPECT_EQ(buf.chunkCount(), 1u);
    EXPECT_GT(buf.stats().zeroCopyBytes, 0u);
    EXPECT_GT(buf.stats().expandedBytes, 0u);
    buf.finalize();
    expectGraphs(src, buf);
}

TEST_P(SkywayLandingTest, ReferenceFreeChunkBesideChunkWithReferences)
{
    LocalRoots roots(nodeA_.heap());
    for (int i = 0; i < 100; ++i)
        roots.push(makePoint(nodeA_, i, -i));
    std::size_t rl = roots.size();
    makeList(nodeA_, roots, 200);
    std::vector<Address> src;
    for (std::size_t i = 0; i <= rl; ++i)
        src.push_back(roots.get(i));
    hashAll(src);
    // Chunks as large as segments: no segment leaves room for the
    // next, so each lands in its own chunk; the first holds Points only
    // (no reference slots) and the last holds list nodes.
    std::vector<Segment> segs = segmentsOf(src, 2048);
    InputBuffer buf(nodeB_.skyway(), 2048);
    auto at = land(buf, segs);
    EXPECT_EQ(buf.chunkCount(), segs.size());
    EXPECT_FALSE(at.front().second);
    EXPECT_TRUE(at.back().second);
    buf.finalize();
    EXPECT_GT(buf.stats().refsAbsolutized, 0u);
    expectGraphs(src, buf);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, SkywayLandingTest,
    ::testing::Values(TransportKind::Model, TransportKind::Tcp),
    [](const ::testing::TestParamInfo<TransportKind> &p) {
        return std::string(transportKindName(p.param));
    });

TEST_F(TcpSkywayTest, TypeRegistryLookupOverSockets)
{
    // Loading a class the worker's view predates forces a LOOKUP
    // round trip to the driver's daemon; ClusterNetwork serves it on
    // the requester's thread, with no socket in between.
    auto *worker =
        dynamic_cast<TypeRegistryWorker *>(&nodeA_.resolver());
    ASSERT_NE(worker, nullptr);
    auto *registry =
        dynamic_cast<TypeRegistryDriver *>(&driver_.resolver());
    ASSERT_NE(registry, nullptr);
    RegistryStats before = worker->stats();
    RegistryStats servedBefore = registry->stats();

    Klass *k = nodeA_.klasses().load("test.Point3D");
    ASSERT_NE(k, nullptr);
    EXPECT_GE(k->tid(), 0);
    RegistryStats after = worker->stats();
    EXPECT_GT(after.remoteLookupsIssued, before.remoteLookupsIssued);
    // Exactly once: the driver served one LOOKUP per one issued.
    EXPECT_EQ(
        registry->stats().lookupsServed - servedBefore.lookupsServed,
        after.remoteLookupsIssued - before.remoteLookupsIssued);

    // The driver handed out the id it recorded.
    EXPECT_EQ(driver_.resolver().idForClass("test.Point3D"), k->tid());

    // At most once per class per machine: a reload is a cache hit.
    nodeA_.klasses().load("test.Point3D");
    EXPECT_EQ(worker->stats().remoteLookupsIssued,
              after.remoteLookupsIssued);
}

} // namespace
} // namespace skyway
