/**
 * @file
 * Tests for the parallel shuffle pipeline: ParallelSender fan-out
 * (N worker threads racing the baddr CAS/hash-fallback protocol on a
 * shared subgraph) and the receiver's zero-copy reserve/commit chunk
 * handoff (markers overwritten with fillers in place, run-based
 * relative-address translation, GC walkability of rebuilt chunks).
 * Labeled `concurrency` so the TSan matrix runs the whole binary.
 */

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "skyway/parallel.hh"
#include "testclasses.hh"

namespace skyway
{
namespace
{

using testing_support::makeMixed;
using testing_support::makePoint;
using testing_support::makeTestCatalog;

class ParallelTest : public ::testing::Test
{
  protected:
    ParallelTest()
        : catalog_(makeTestCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {}

    /**
     * N roots that all share one contended subtree: root t is a
     * test.Pair whose left points at the shared test.Mixed graph and
     * whose right is a private test.Point.
     */
    std::vector<std::size_t>
    makeSharedRoots(LocalRoots &roots, unsigned n)
    {
        Address shared = makeMixed(nodeA_, roots, "contended subtree");
        std::size_t rs = roots.push(shared);
        Klass *pairK = nodeA_.klasses().load("test.Pair");
        std::vector<std::size_t> tops;
        for (unsigned t = 0; t < n; ++t) {
            Address p = nodeA_.heap().allocateInstance(pairK);
            std::size_t rp = roots.push(p);
            field::setRef(nodeA_.heap(), roots.get(rp),
                          pairK->requireField("left"), roots.get(rs));
            Address priv = makePoint(nodeA_, static_cast<int>(t), -1);
            field::setRef(nodeA_.heap(), roots.get(rp),
                          pairK->requireField("right"), priv);
            tops.push_back(rp);
        }
        return tops;
    }

    /** Ingest captured segments through the zero-copy API. */
    std::unique_ptr<InputBuffer>
    receiveZeroCopy(const std::vector<std::vector<std::uint8_t>> &segs,
                    std::size_t chunk_bytes = defaultInputChunkBytes)
    {
        auto buf = std::make_unique<InputBuffer>(nodeB_.skyway(),
                                                 chunk_bytes);
        for (const auto &seg : segs) {
            std::uint8_t *dst = buf->reserveChunk(seg.size());
            std::memcpy(dst, seg.data(), seg.size());
            buf->commitChunk(seg.size());
        }
        buf->finalize();
        return buf;
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(ParallelTest, FanOutSharedSubgraphExactlyOncePerStream)
{
    // Four workers race on one shared subtree; every stream must
    // carry a complete copy of its root's graph (losers of the baddr
    // CAS duplicate the shared objects via their hash fallback), and
    // every receiver must rebuild it bit-identically under the full
    // SkywaySan graph audit. The per-stream byte equality below is a
    // raw-format invariant: pin compaction off (test_wirecompact.cc
    // covers the fan-out under force).
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    nodeB_.skyway().setWireCompactMode(WireCompactMode::Off);
    constexpr unsigned N = 4;
    nodeB_.skyway().debug().validateWire = true;
    nodeB_.skyway().debug().checkReceivedGraph = true;

    LocalRoots roots(nodeA_.heap());
    std::vector<std::size_t> tops = makeSharedRoots(roots, N);

    nodeA_.skyway().shuffleStart();
    std::vector<std::vector<std::vector<std::uint8_t>>> segs(N);
    ParallelSendConfig cfg;
    cfg.threads = N;
    ParallelSender psend(
        nodeA_.skyway(),
        [&segs](unsigned w) {
            auto *mine = &segs[w];
            return [mine](const std::uint8_t *d, std::size_t n) {
                mine->emplace_back(d, d + n);
            };
        },
        cfg);

    std::vector<Address> rootAddrs;
    for (std::size_t s : tops)
        rootAddrs.push_back(roots.get(s));
    ParallelSendReport rep = psend.send(rootAddrs);

    // The shared subtree root has one CAS winner; the other N-1
    // streams went through their local hash tables.
    EXPECT_GE(rep.total.hashFallbacks, N - 1);
    EXPECT_EQ(rep.perWorker.size(), N);

    std::uint64_t receivedObjects = 0;
    for (unsigned w = 0; w < N; ++w) {
        // Exactly-once placement per stream: the stream's record
        // count equals its root graph's object count — shared objects
        // are duplicated across streams but never within one.
        GraphMeasure gm =
            measureGraph(nodeA_.heap(), rootAddrs[w % N]);
        EXPECT_EQ(rep.perWorker[w].objectsCopied, gm.objects)
            << "stream " << w;

        std::unique_ptr<InputBuffer> buf = receiveZeroCopy(segs[w]);
        EXPECT_EQ(buf->stats().zeroCopyBytes,
                  psend.stream(w).totalBytes())
            << "stream " << w;
        receivedObjects += buf->stats().objectsReceived;
        ASSERT_EQ(buf->roots().size(), 1u);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), rootAddrs[w],
                                nodeB_.heap(), buf->roots().at(0)))
            << "stream " << w;
        keep_.push_back(std::move(buf));
    }
    EXPECT_EQ(receivedObjects, rep.total.objectsCopied);
}

TEST_F(ParallelTest, ContendedFanOutExercisesClaimProtocol)
{
    // Many roots per worker, all funneling into the same subtree:
    // the claim protocol must show activity (CAS retries and/or hash
    // fallbacks) and still deliver correct graphs.
    constexpr unsigned N = 4;
    LocalRoots roots(nodeA_.heap());
    Address shared = makeMixed(nodeA_, roots, "hot subtree");
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::vector<std::size_t> tops;
    for (unsigned i = 0; i < 64; ++i) {
        Address p = nodeA_.heap().allocateInstance(pairK);
        std::size_t rp = roots.push(p);
        field::setRef(nodeA_.heap(), roots.get(rp),
                      pairK->requireField("left"), roots.get(rs));
        tops.push_back(rp);
    }

    nodeA_.skyway().shuffleStart();
    std::vector<std::vector<std::vector<std::uint8_t>>> segs(N);
    ParallelSendConfig cfg;
    cfg.threads = N;
    ParallelSender psend(
        nodeA_.skyway(),
        [&segs](unsigned w) {
            auto *mine = &segs[w];
            return [mine](const std::uint8_t *d, std::size_t n) {
                mine->emplace_back(d, d + n);
            };
        },
        cfg);

    std::vector<Address> rootAddrs;
    for (std::size_t s : tops)
        rootAddrs.push_back(roots.get(s));
    ParallelSendReport rep = psend.send(rootAddrs);

    EXPECT_GT(rep.total.casRetries + rep.total.hashFallbacks, 0u);
    EXPECT_GE(rep.total.hashFallbacks, N - 1);

    for (unsigned w = 0; w < N; ++w) {
        std::unique_ptr<InputBuffer> buf = receiveZeroCopy(segs[w]);
        // Worker w owned roots w, w+N, w+2N, ... in that order.
        std::size_t r = 0;
        for (std::size_t i = w; i < rootAddrs.size(); i += N, ++r)
            EXPECT_TRUE(graphsEqual(nodeA_.heap(), rootAddrs[i],
                                    nodeB_.heap(),
                                    buf->roots().at(r)))
                << "stream " << w << " root " << r;
        EXPECT_EQ(buf->roots().size(), r);
        keep_.push_back(std::move(buf));
    }
}

TEST_F(ParallelTest, FeedAndReserveCommitRebuildIdentically)
{
    // feed() is reserve + one memcpy + commit: the same wire bytes
    // through feed() and through an explicit reserve/commit must land
    // in the same chunks, count every byte as zero-copy, and yield
    // structurally identical graphs. zero_copy_bytes == wire bytes is
    // a raw-format invariant: pin compaction off.
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    nodeB_.skyway().setWireCompactMode(WireCompactMode::Off);
    LocalRoots roots(nodeA_.heap());
    std::size_t rm =
        roots.push(makeMixed(nodeA_, roots, "dual path"));
    std::size_t rl =
        roots.push(testing_support::makeList(nodeA_, roots, 100));
    nodeA_.skyway().shuffleStart();

    std::vector<std::vector<std::uint8_t>> segs;
    std::uint64_t wireBytes = 0;
    Address m = roots.get(rm);
    {
        SkywayObjectOutputStream out(
            nodeA_.skyway(),
            [&](const std::uint8_t *d, std::size_t n) {
                segs.emplace_back(d, d + n);
                wireBytes += n;
            },
            1 << 10); // tiny buffer: many segments
        out.writeObject(m);
        out.writeObject(roots.get(rl));
        out.flush();
    }
    ASSERT_GT(segs.size(), 1u);

    InputBuffer fed(nodeB_.skyway());
    for (const auto &seg : segs)
        fed.feed(seg.data(), seg.size());
    fed.finalize();
    std::unique_ptr<InputBuffer> zc = receiveZeroCopy(segs);

    EXPECT_EQ(fed.stats().zeroCopyBytes, wireBytes);
    EXPECT_EQ(zc->stats().zeroCopyBytes, wireBytes);
    EXPECT_EQ(fed.chunkCount(), zc->chunkCount());
    EXPECT_EQ(fed.stats().objectsReceived, zc->stats().objectsReceived);
    EXPECT_EQ(fed.stats().bytesReceived, zc->stats().bytesReceived);
    EXPECT_TRUE(graphsEqual(nodeB_.heap(), fed.roots().at(0),
                            nodeB_.heap(), zc->roots().at(0)));
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(),
                            zc->roots().at(0)));
    keep_.push_back(std::move(zc));
}

TEST_F(ParallelTest, ZeroCopyChunksSurviveGc)
{
    // Markers overwritten with fillers must leave the finalized
    // chunks walkable: a full GC on the receiver walks the pinned
    // ranges object by object and must not trip over the holes.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "gc survivor");
    nodeA_.skyway().shuffleStart();

    std::vector<std::vector<std::uint8_t>> segs;
    {
        SkywayObjectOutputStream out(
            nodeA_.skyway(),
            [&](const std::uint8_t *d, std::size_t n) {
                segs.emplace_back(d, d + n);
            },
            2 << 10);
        // Two top-level writes: extra top marks + a backward
        // reference in the stream, all becoming fillers.
        out.writeObject(m);
        out.writeObject(m);
        out.flush();
    }
    std::unique_ptr<InputBuffer> buf =
        receiveZeroCopy(segs, 4 << 10);
    ASSERT_EQ(buf->roots().size(), 2u);
    EXPECT_EQ(buf->roots().at(0), buf->roots().at(1));

    nodeB_.gc().fullGc();
    nodeB_.gc().fullGc();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(),
                            buf->roots().at(0)));
    keep_.push_back(std::move(buf));
}

TEST_F(ParallelTest, SocketPumpIsZeroCopy)
{
    // The socket stream pair must move every payload byte through the
    // reserve/commit handoff — zero_copy_bytes equals the bytes the
    // sender flushed onto the fabric. That equality only holds for
    // the raw format (compact segments are staged and re-expanded):
    // pin compaction off.
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    nodeB_.skyway().setWireCompactMode(WireCompactMode::Off);
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "socket path");
    nodeA_.skyway().shuffleStart();

    SkywaySocketOutputStream out(nodeA_.skyway(), net_, 1, 2, 4242,
                                 4 << 10);
    out.writeObject(m);
    out.close();
    std::uint64_t payload = out.totalBytes();

    SkywaySocketInputStream in(nodeB_.skyway(), net_, 2, 4242);
    while (!in.pump()) {}
    EXPECT_EQ(in.buffer().stats().zeroCopyBytes, payload);
    EXPECT_GT(payload, 0u);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(),
                            in.readObject()));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(ParallelTest, OversizedSegmentGetsOversizedChunk)
{
    // A record bigger than the input chunk size arrives through the
    // zero-copy path in one oversized chunk.
    LocalRoots roots(nodeA_.heap());
    Address big = nodeA_.builder().makeLongArray(
        std::vector<std::int64_t>(4096, 7));
    std::size_t slot = roots.push(big);

    nodeA_.skyway().shuffleStart();
    SkywaySocketOutputStream out(nodeA_.skyway(), net_, 1, 2, 4243);
    out.writeObject(roots.get(slot));
    out.close();

    SkywaySocketInputStream in(nodeB_.skyway(), net_, 2, 4243,
                               1 << 10);
    while (!in.pump()) {}
    EXPECT_GE(in.buffer().stats().oversizedChunks, 1u);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(slot),
                            nodeB_.heap(), in.readObject()));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(ParallelTest, SingleWorkerMatchesPlainStream)
{
    // threads=1 runs inline on the caller and must behave exactly
    // like one SkywayObjectOutputStream.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "inline worker");
    nodeA_.skyway().shuffleStart();

    std::vector<std::vector<std::uint8_t>> segs;
    ParallelSender psend(nodeA_.skyway(), [&segs](unsigned) {
        return [&segs](const std::uint8_t *d, std::size_t n) {
            segs.emplace_back(d, d + n);
        };
    });
    ParallelSendReport rep = psend.send({m});
    EXPECT_EQ(rep.total.hashFallbacks, 0u);
    EXPECT_EQ(rep.total.casRetries, 0u);
    EXPECT_EQ(rep.total.objectsCopied,
              measureGraph(nodeA_.heap(), m).objects);

    std::unique_ptr<InputBuffer> buf = receiveZeroCopy(segs);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(),
                            buf->roots().at(0)));
    keep_.push_back(std::move(buf));
}

} // namespace
} // namespace skyway
