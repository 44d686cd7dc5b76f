/**
 * @file
 * Tests for the cluster fabric and the I/O cost models: message
 * ordering, request/reply, byte accounting, wire-time charging, and
 * simulated disk behaviour.
 */

#include <gtest/gtest.h>

#include "iomodel/breakdown.hh"
#include "iomodel/disk.hh"
#include "net/cluster.hh"

namespace skyway
{
namespace
{

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(CostModel, GigabitTransferTime)
{
    NetworkCostModel m = gigabitEthernet();
    // 125 MB at 125 MB/s is one second plus latency.
    std::uint64_t ns = m.transferNs(125'000'000);
    EXPECT_NEAR(ns / 1e9, 1.0, 0.01);
    // Latency floor for tiny messages.
    EXPECT_GE(m.transferNs(1), m.latencyNs);
}

TEST(CostModel, InfiniBandIsFaster)
{
    EXPECT_LT(infiniBand40G().transferNs(1 << 20),
              gigabitEthernet().transferNs(1 << 20));
}

std::string
str(const std::vector<std::uint8_t> &v)
{
    return std::string(v.begin(), v.end());
}

TEST(Cluster, SendPollInOrder)
{
    // Per-(src, tag) FIFO: each tag's messages come out in the order
    // they were sent, however the tags interleave.
    ClusterNetwork net(3);
    net.send(0, 1, 7, bytesOf("first"));
    net.send(0, 1, 8, bytesOf("other first"));
    net.send(0, 1, 7, bytesOf("second"));
    net.send(0, 1, 8, bytesOf("other second"));
    std::vector<std::uint8_t> m;
    ASSERT_TRUE(net.pollTag(1, 7, m));
    EXPECT_EQ(str(m), "first");
    ASSERT_TRUE(net.pollTag(1, 7, m));
    EXPECT_EQ(str(m), "second");
    EXPECT_FALSE(net.pollTag(1, 7, m));
    ASSERT_TRUE(net.pollTag(1, 8, m));
    EXPECT_EQ(str(m), "other first");
    ASSERT_TRUE(net.pollTag(1, 8, m));
    EXPECT_EQ(str(m), "other second");
    EXPECT_FALSE(net.pollTag(1, 8, m));
}

TEST(Cluster, PollTagSkipsOthers)
{
    ClusterNetwork net(2);
    net.send(0, 1, 1, bytesOf("a"));
    net.send(0, 1, 2, bytesOf("b"));
    std::vector<std::uint8_t> m;
    ASSERT_TRUE(net.pollTag(1, 2, m));
    EXPECT_EQ(str(m), "b");
    ASSERT_TRUE(net.pollTag(1, 1, m));
    EXPECT_EQ(str(m), "a");
}

TEST(Cluster, PollTagSkipRetainsPerTagOrder)
{
    ClusterNetwork net(2);
    net.send(0, 1, 1, bytesOf("first"));
    net.send(0, 1, 2, bytesOf("other"));
    net.send(0, 1, 1, bytesOf("second"));
    std::vector<std::uint8_t> m;
    // Draining tag 2 out of the middle must not disturb tag 1's
    // delivery order.
    ASSERT_TRUE(net.pollTag(1, 2, m));
    EXPECT_EQ(str(m), "other");
    ASSERT_TRUE(net.pollTag(1, 1, m));
    EXPECT_EQ(str(m), "first");
    ASSERT_TRUE(net.pollTag(1, 1, m));
    EXPECT_EQ(str(m), "second");
}

TEST(Cluster, PollTagEmptiesVectorOnEndOfStream)
{
    // The vector is the posted storage: a reused one is resized to
    // each payload, and an end-of-stream marker leaves it empty.
    ClusterNetwork net(2);
    net.send(0, 1, 4, bytesOf("a longer payload"));
    net.send(0, 1, 4, bytesOf("short"));
    net.send(0, 1, 4, {});
    std::vector<std::uint8_t> m;
    ASSERT_TRUE(net.pollTag(1, 4, m));
    EXPECT_EQ(str(m), "a longer payload");
    ASSERT_TRUE(net.pollTag(1, 4, m));
    EXPECT_EQ(str(m), "short");
    ASSERT_TRUE(net.pollTag(1, 4, m));
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(net.pollTag(1, 4, m));
}

TEST(Cluster, PollTagIntoNothingPending)
{
    ClusterNetwork net(2);
    bool reserve_called = false;
    EXPECT_EQ(net.pollTagInto(1, 5,
                              [&](std::size_t) -> std::uint8_t * {
                                  reserve_called = true;
                                  return nullptr;
                              }),
              -1);
    EXPECT_FALSE(reserve_called);
}

TEST(Cluster, PollTagIntoEmptyPayloadSkipsReserve)
{
    // A zero-length payload is the end-of-stream marker: it must be
    // reported as 0 without asking the receiver for storage.
    ClusterNetwork net(2);
    net.send(0, 1, 5, {});
    bool reserve_called = false;
    EXPECT_EQ(net.pollTagInto(1, 5,
                              [&](std::size_t) -> std::uint8_t * {
                                  reserve_called = true;
                                  return nullptr;
                              }),
              0);
    EXPECT_FALSE(reserve_called);
}

TEST(Cluster, ByteAccountingPerPair)
{
    ClusterNetwork net(3);
    net.send(0, 1, 0, std::vector<std::uint8_t>(100));
    net.send(0, 2, 0, std::vector<std::uint8_t>(50));
    net.send(1, 0, 0, std::vector<std::uint8_t>(25));
    EXPECT_EQ(net.bytesSent(0, 1), 100u);
    EXPECT_EQ(net.bytesSent(0, 2), 50u);
    EXPECT_EQ(net.totalBytesSent(0), 150u);
    EXPECT_EQ(net.totalBytesSent(1), 25u);
    EXPECT_EQ(net.messagesSent(0), 2u);
}

TEST(Cluster, LoopbackIsFreeAndUncounted)
{
    ClusterNetwork net(2);
    net.send(0, 0, 0, std::vector<std::uint8_t>(1000));
    EXPECT_EQ(net.totalBytesSent(0), 0u);
    EXPECT_EQ(net.wireNs(0), 0u);
    std::vector<std::uint8_t> m;
    EXPECT_TRUE(net.pollTag(0, 0, m));
    EXPECT_EQ(m.size(), 1000u);
}

TEST(Cluster, WireTimeCharged)
{
    ClusterNetwork net(2);
    net.send(0, 1, 0, std::vector<std::uint8_t>(1 << 20));
    EXPECT_GT(net.wireNs(0), net.model().latencyNs);
    EXPECT_EQ(net.wireNs(1), 0u);
}

TEST(Cluster, RequestReply)
{
    ClusterNetwork net(2);
    net.registerHandler(1, [](NodeId src, int tag,
                              const std::vector<std::uint8_t> &p) {
        EXPECT_EQ(src, 0);
        EXPECT_EQ(tag, 9);
        std::vector<std::uint8_t> reply(p.rbegin(), p.rend());
        return reply;
    });
    auto reply = net.request(0, 1, 9, bytesOf("abc"));
    EXPECT_EQ(std::string(reply.begin(), reply.end()), "cba");
    EXPECT_GT(net.wireNs(0), 0u);
}

TEST(Cluster, RequestWithoutHandlerPanics)
{
    ClusterNetwork net(2);
    EXPECT_DEATH(net.request(0, 1, 1, {}), "no registered handler");
}

TEST(Cluster, ResetAccounting)
{
    ClusterNetwork net(2);
    net.send(0, 1, 0, std::vector<std::uint8_t>(10));
    net.resetAccounting();
    EXPECT_EQ(net.totalBytesSent(0), 0u);
    EXPECT_EQ(net.wireNs(0), 0u);
    EXPECT_EQ(net.messagesSent(0), 0u);
    // Real-wire counters clear too (and stay zero on the model
    // transport regardless).
    EXPECT_EQ(net.framesSent(), 0u);
    EXPECT_EQ(net.connectRetries(), 0u);
    EXPECT_EQ(net.recvIntoBytes(), 0u);
    EXPECT_EQ(net.realWireNs(), 0u);
}

TEST(Disk, WriteReadRoundTrip)
{
    SimDisk disk;
    std::uint64_t wns = disk.writeFile("part0", bytesOf("payload"));
    EXPECT_GT(wns, 0u);
    ASSERT_TRUE(disk.exists("part0"));
    const auto &f = disk.file("part0");
    EXPECT_EQ(std::string(f.begin(), f.end()), "payload");
    EXPECT_EQ(disk.totalBytesWritten(), 7u);
    EXPECT_GT(disk.chargeRead(f.size()), 0u);
    EXPECT_EQ(disk.totalBytesRead(), 7u);
}

TEST(Disk, AppendAccumulates)
{
    SimDisk disk;
    disk.appendFile("log", "ab", 2);
    disk.appendFile("log", "cd", 2);
    const auto &f = disk.file("log");
    EXPECT_EQ(std::string(f.begin(), f.end()), "abcd");
}

TEST(Disk, MissingFilePanics)
{
    SimDisk disk;
    EXPECT_DEATH(disk.file("nope"), "no such file");
}

TEST(Disk, CostScalesWithBytes)
{
    DiskCostModel m;
    EXPECT_GT(m.writeNs(100 << 20), m.writeNs(1 << 20));
    EXPECT_GE(m.readNs(0), m.perOpNs);
}

TEST(Breakdown, TotalsAndAccumulate)
{
    PhaseBreakdown a{10, 20, 30, 40, 50, 100, 200};
    EXPECT_EQ(a.totalNs(), 150u);
    PhaseBreakdown b = a;
    b += a;
    EXPECT_EQ(b.totalNs(), 300u);
    EXPECT_EQ(b.bytesLocal, 200u);
    EXPECT_EQ(b.bytesRemote, 400u);
}

TEST(Breakdown, CsvShape)
{
    PhaseBreakdown a{1'000'000, 0, 0, 0, 0, 0, 0};
    std::string csv = breakdownCsv(a);
    EXPECT_EQ(csv.substr(0, 5), "1.00,");
    // Header and row have the same number of commas.
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(csv), commas(breakdownCsvHeader()));
}

} // namespace
} // namespace skyway
