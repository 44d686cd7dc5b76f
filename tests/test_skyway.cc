/**
 * @file
 * Tests for the Skyway core: heap-to-heap transfer correctness
 * (graphs, sharing, cycles, nulls), identity-hash preservation,
 * backward references across writeObject calls, streaming through
 * small output buffers, chunked input buffers with cross-chunk
 * references, multi-phase shuffles, GC interaction on the receiver,
 * multi-threaded senders with shared objects, heterogeneous formats,
 * the field-update API, the file/socket stream variants, and the
 * drop-in Serializer adapter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "obs/metrics.hh"
#include "sanitize/graphcheck.hh"
#include "skyway/streams.hh"
#include "testclasses.hh"

namespace skyway
{
namespace
{

using testing_support::makeCycle;
using testing_support::makeList;
using testing_support::makeMixed;
using testing_support::makePoint;
using testing_support::makeSharedPair;
using testing_support::makeTestCatalog;

/** True when any card over the old-generation objects reachable from
 *  @p root (an old object), and the fillers between them, is dirty. */
bool
anyCardDirtyUnder(const ManagedHeap &h, Address root)
{
    Address lo = root;
    Address hi = root;
    testing_support::forEachReachable(h, root, [&](Address a) {
        if (h.inOld(a)) {
            lo = std::min(lo, a);
            hi = std::max(hi, a + h.objectSize(a));
        }
    });
    std::size_t card = h.config().cardBytes;
    for (std::size_t i = (lo - h.oldBase()) / card;
         i <= (hi - 1 - h.oldBase()) / card; ++i)
        if (h.cardIsDirty(i))
            return true;
    return false;
}

class SkywayTest : public ::testing::Test
{
  protected:
    SkywayTest()
        : catalog_(makeTestCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {}

    /**
     * Transfer @p root from A to B through in-memory segments with the
     * given buffer/chunk sizes; returns the received root.
     */
    Address
    transfer(Address root, std::size_t buffer_bytes = 64 << 10,
             std::size_t chunk_bytes = 64 << 10)
    {
        nodeA_.skyway().shuffleStart();
        SkywayObjectInputStream in(nodeB_.skyway(), chunk_bytes);
        SkywayObjectOutputStream out(
            nodeA_.skyway(),
            [&in](const std::uint8_t *d, std::size_t n) {
                in.feed(d, n);
            },
            buffer_bytes);
        out.writeObject(root);
        out.flush();
        in.finish();
        keep_.push_back(in.releaseBuffer());
        return keep_.back()->roots().at(0);
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(SkywayTest, SimpleObjectArrivesIdentical)
{
    Address p = makePoint(nodeA_, 11, -22);
    Address q = transfer(p);
    ASSERT_NE(q, nullAddr);
    EXPECT_TRUE(nodeB_.heap().inOld(q))
        << "input buffers live in the old generation";
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), p, nodeB_.heap(), q));
}

TEST_F(SkywayTest, MixedGraphArrivesIdentical)
{
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "skyway mixed");
    Address q = transfer(m);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(), q));
}

TEST_F(SkywayTest, IdentityHashPreserved)
{
    Address p = makePoint(nodeA_, 1, 2);
    std::int32_t h = nodeA_.heap().identityHash(p);
    Address q = transfer(p);
    // The receiving node can use the cached hash without rehashing.
    EXPECT_TRUE(mark::hasHash(nodeB_.heap().markOf(q)));
    EXPECT_EQ(nodeB_.heap().identityHash(q), h);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), p, nodeB_.heap(), q, true));
}

TEST_F(SkywayTest, GcAndLockBitsResetOnArrival)
{
    Address p = makePoint(nodeA_, 1, 2);
    nodeA_.heap().identityHash(p);
    Word m = nodeA_.heap().markOf(p);
    nodeA_.heap().setMark(p, mark::withAge(m, 5) | mark::lockMask);
    Address q = transfer(p);
    Word mq = nodeB_.heap().markOf(q);
    EXPECT_EQ(mark::ageOf(mq), 0);
    EXPECT_EQ(mq & mark::lockMask, 0u);
    EXPECT_FALSE(mark::isGcMarked(mq));
}

TEST_F(SkywayTest, SharingAndCyclesPreserved)
{
    LocalRoots roots(nodeA_.heap());
    Address pair = makeSharedPair(nodeA_, roots);
    Address q = transfer(pair);
    Klass *k = nodeB_.klasses().load("test.Pair");
    EXPECT_EQ(field::getRef(nodeB_.heap(), q, k->requireField("left")),
              field::getRef(nodeB_.heap(), q,
                            k->requireField("right")));

    Address cyc = makeCycle(nodeA_, roots);
    Address qc = transfer(cyc);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), cyc, nodeB_.heap(), qc));
}

TEST_F(SkywayTest, NullRootTransfers)
{
    EXPECT_EQ(transfer(nullAddr), nullAddr);
}

TEST_F(SkywayTest, BackwardReferenceDedupsRootsWithinPhase)
{
    // Writing the same root twice in one phase must produce ONE copy
    // on the receiver — stronger than any byte serializer.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "dedup");
    std::size_t rm = roots.push(m);

    nodeA_.skyway().shuffleStart();
    SkywayObjectInputStream in(nodeB_.skyway());
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); });
    out.writeObject(roots.get(rm));
    out.writeObject(roots.get(rm));
    out.flush();
    in.finish();
    ASSERT_EQ(in.buffer().roots().size(), 2u);
    EXPECT_EQ(in.buffer().roots()[0], in.buffer().roots()[1]);
    EXPECT_EQ(out.stats().backRefs, 1u);
    EXPECT_EQ(out.stats().topMarks, 1u);
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, OverlappingGraphsShareWithinPhase)
{
    // Two different roots sharing a subtree: the subtree is copied
    // once; the second graph references it relative to the buffer.
    LocalRoots roots(nodeA_.heap());
    Address shared = makePoint(nodeA_, 9, 9);
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    Address p1 = nodeA_.heap().allocateInstance(pairK);
    std::size_t rp1 = roots.push(p1);
    field::setRef(nodeA_.heap(), roots.get(rp1),
                  pairK->requireField("left"), roots.get(rs));
    Address p2 = nodeA_.heap().allocateInstance(pairK);
    std::size_t rp2 = roots.push(p2);
    field::setRef(nodeA_.heap(), roots.get(rp2),
                  pairK->requireField("right"), roots.get(rs));

    nodeA_.skyway().shuffleStart();
    SkywayObjectInputStream in(nodeB_.skyway());
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); });
    out.writeObject(roots.get(rp1));
    out.writeObject(roots.get(rp2));
    out.flush();
    in.finish();

    Klass *kb = nodeB_.klasses().load("test.Pair");
    Address q1 = in.buffer().roots()[0];
    Address q2 = in.buffer().roots()[1];
    EXPECT_EQ(field::getRef(nodeB_.heap(), q1,
                            kb->requireField("left")),
              field::getRef(nodeB_.heap(), q2,
                            kb->requireField("right")));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, StreamingThroughTinyBuffer)
{
    // A 1 KB output buffer forces many flushes mid-traversal.
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 2000);
    Address q = transfer(head, 1 << 10, 4 << 10);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
}

TEST_F(SkywayTest, OversizedRecordGrowsBuffers)
{
    // One array record far larger than buffer and chunk sizes.
    std::vector<std::int64_t> big(20000, 7);
    Address arr = nodeA_.builder().makeLongArray(big);
    Address q = transfer(arr, 1 << 10, 1 << 10);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), arr, nodeB_.heap(), q));
}

TEST_F(SkywayTest, CrossChunkReferencesAbsolutize)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 5000);
    // Tiny receiver chunks and chunk-sized segments: thousands of
    // records spread over many chunks, with every next-pointer
    // crossing chunk boundaries.
    nodeA_.skyway().shuffleStart();
    SkywayObjectInputStream in(nodeB_.skyway(), 1 << 10);
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); },
        1 << 10);
    out.writeObject(roots.get(0) /* head rooted first */);
    out.writeObject(head);
    out.flush();
    in.finish();
    EXPECT_GT(in.buffer().chunkCount(), 10u);
    Address q = in.buffer().roots()[1];
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, MultiPhaseShufflesInvalidateBaddr)
{
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "multi-phase");
    std::size_t rm = roots.push(m);
    Address q1 = transfer(roots.get(rm)); // phase 1
    Address q2 = transfer(roots.get(rm)); // phase 2: fresh copy
    EXPECT_NE(q1, q2);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rm),
                            nodeB_.heap(), q1));
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rm),
                            nodeB_.heap(), q2));
}

TEST_F(SkywayTest, SenderRequiresShufflePhase)
{
    SkywayObjectOutputStream out(
        nodeA_.skyway(), [](const std::uint8_t *, std::size_t) {});
    if (nodeA_.skyway().currentSid() == 0) {
        Address p = makePoint(nodeA_, 1, 1);
        EXPECT_DEATH(out.writeObject(p), "shuffleStart");
    }
}

TEST_F(SkywayTest, ReceivedObjectsSurviveGc)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 500);
    Address q = transfer(head);

    // Full GC on the receiver: the input buffer is pinned walkable and
    // must survive wholesale.
    nodeB_.gc().fullGc();
    nodeB_.gc().scavenge();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
}

TEST_F(SkywayTest, CardTableCoversReceivedToYoungPointers)
{
    Address p = makePoint(nodeA_, 3, 4);
    Klass *pairK_a = nodeA_.klasses().load("test.Pair");
    Address pair = nodeA_.heap().allocateInstance(pairK_a);
    std::size_t rp = nodeA_.heap().addRoot(pair);
    field::setRef(nodeA_.heap(), nodeA_.heap().root(rp),
                  pairK_a->requireField("left"), p);
    Address q = transfer(nodeA_.heap().root(rp));
    nodeA_.heap().removeRoot(rp);

    // Point a received (old) object at a young object, then scavenge:
    // the write barrier + card scan must keep the young object alive.
    Klass *pairK_b = nodeB_.klasses().load("test.Pair");
    Address young = makePoint(nodeB_, 77, 88);
    nodeB_.heap().storeRef(q, pairK_b->requireField("right").offset,
                           young);
    nodeB_.gc().scavenge();
    Address right = field::getRef(nodeB_.heap(), q,
                                  pairK_b->requireField("right"));
    ASSERT_NE(right, nullAddr);
    EXPECT_EQ((reflect::getField<std::int32_t>(nodeB_.heap(), right,
                                               "x")),
              77);
}

TEST_F(SkywayTest, ReceivedReferencesLeaveCardsClean)
{
    // Intra-buffer references are old to old: with no field update
    // registered, finalize dirties no card, and the collectors still
    // keep every received object and reference intact.
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 3000);
    testing_support::forEachReachable(
        nodeA_.heap(), head,
        [this](Address a) { nodeA_.heap().identityHash(a); });
    Address q = transfer(head, 4 << 10, 8 << 10);
    EXPECT_GT(keep_.back()->chunkCount(), 1u);
    EXPECT_GT(keep_.back()->stats().refsAbsolutized, 0u);
    EXPECT_FALSE(anyCardDirtyUnder(nodeB_.heap(), q));

    for (int i = 0; i < 64; ++i)
        makePoint(nodeB_, i, i); // young garbage for the scavenge
    nodeB_.gc().scavenge();
    nodeB_.gc().fullGc();
    sanitize::GraphCheckResult r =
        sanitize::checkHeapGraphs(nodeA_.heap(), head, nodeB_.heap(), q);
    EXPECT_TRUE(r.equal) << r.divergence;
    EXPECT_EQ(r.objectsCompared, 3000u);
}

TEST_F(SkywayTest, FieldUpdateStoringYoungDirtiesCards)
{
    // A registered update may install an old-to-young pointer, even
    // without the write barrier: finalize dirties the buffer's cards,
    // so a scavenge finds the young target and keeps it.
    nodeB_.skyway().updates().registerUpdate(
        "test.Pair", "right",
        [this](ManagedHeap &h, Address obj, const FieldDesc &f) {
            h.store<Address>(obj, f.offset, makePoint(nodeB_, 77, 88));
        });
    LocalRoots roots(nodeA_.heap());
    Address pair = makeSharedPair(nodeA_, roots);
    Address q = transfer(pair);
    ManagedHeap &hb = nodeB_.heap();
    Klass *pair_k = nodeB_.klasses().load("test.Pair");
    const FieldDesc &right = pair_k->requireField("right");
    ASSERT_TRUE(hb.inYoung(field::getRef(hb, q, right)));
    EXPECT_TRUE(anyCardDirtyUnder(hb, q));
    EXPECT_TRUE(hb.cardIsDirty((q - hb.oldBase()) / hb.config().cardBytes));

    nodeB_.gc().scavenge();
    Address moved = field::getRef(hb, q, right);
    ASSERT_NE(moved, nullAddr);
    EXPECT_FALSE(hb.inEden(moved));
    EXPECT_EQ((reflect::getField<std::int32_t>(hb, moved, "x")), 77);
    Address left = field::getRef(hb, q, pair_k->requireField("left"));
    EXPECT_EQ((reflect::getField<std::int32_t>(hb, left, "x")), 5);
}

TEST_F(SkywayTest, FieldUpdateThatScavengesKeepsEarlierStores)
{
    // An update that allocates may trigger a scavenge partway through
    // finalize. The young Points earlier updates stored without the
    // write barrier must survive it: finalize applies updates only
    // once the chunks are walkable, and dirties each updated record's
    // cards at once.
    constexpr int kPairs = 2000;
    ManagedHeap &ha = nodeA_.heap();
    Klass *pair_a = nodeA_.klasses().load("test.Pair");
    LocalRoots roots(ha);
    std::size_t head = roots.push(nullAddr);
    for (int i = kPairs - 1; i >= 0; --i) {
        std::size_t rp = roots.push(makePoint(nodeA_, i, -i));
        Address p = ha.allocateInstance(pair_a);
        field::setRef(ha, p, pair_a->requireField("left"), roots.get(head));
        field::setRef(ha, p, pair_a->requireField("right"), roots.get(rp));
        roots.set(head, p);
    }

    ManagedHeap &hb = nodeB_.heap();
    Klass *ints = nodeB_.klasses().load("[I");
    nodeB_.skyway().updates().registerUpdate(
        "test.Pair", "right",
        [this, ints](ManagedHeap &h, Address obj, const FieldDesc &f) {
            Address old = h.load<Address>(obj, f.offset);
            auto x = reflect::getField<std::int32_t>(h, old, "x");
            auto y = reflect::getField<std::int32_t>(h, old, "y");
            h.allocateArray(ints, 4096); // 16 KB of young garbage
            h.store<Address>(obj, f.offset, makePoint(nodeB_, x, y));
        });
    std::uint64_t scavenges = hb.stats().scavenges;
    Address q = transfer(roots.get(head));
    EXPECT_GT(hb.stats().scavenges, scavenges)
        << "no scavenge ran during finalize";
    EXPECT_EQ(keep_.back()->stats().fieldUpdatesApplied,
              static_cast<std::uint64_t>(kPairs));

    Klass *pair_b = nodeB_.klasses().load("test.Pair");
    Klass *point_b = nodeB_.klasses().load("test.Point");
    const FieldDesc &left = pair_b->requireField("left");
    const FieldDesc &right = pair_b->requireField("right");
    int broken = 0;
    Address p = q;
    for (int i = 0; i < kPairs; ++i, p = field::getRef(hb, p, left)) {
        ASSERT_NE(p, nullAddr);
        Address r = field::getRef(hb, p, right);
        // Compare the klass word before reading fields: a lost store
        // leaves the slot pointing at reused eden memory.
        if (hb.klassOf(r) != point_b ||
            reflect::getField<std::int32_t>(hb, r, "x") != i ||
            reflect::getField<std::int32_t>(hb, r, "y") != -i)
            ++broken;
    }
    ASSERT_EQ(broken, 0) << "Pairs whose updated right was lost";

    nodeB_.gc().scavenge();
    nodeB_.gc().fullGc();
    sanitize::GraphCheckResult res =
        sanitize::checkHeapGraphs(ha, roots.get(head), hb, q);
    EXPECT_TRUE(res.equal) << res.divergence;
    EXPECT_EQ(res.objectsCompared, 2u * kPairs);
}

TEST_F(SkywayTest, FreedBufferIsCollected)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 200);
    transfer(head);
    std::size_t used = nodeB_.heap().usedOldBytes();
    keep_.back()->free(); // developer frees the input buffer
    nodeB_.gc().fullGc();
    EXPECT_LT(nodeB_.heap().usedOldBytes(), used);
}

TEST_F(SkywayTest, FieldUpdateAppliedOnReceive)
{
    nodeB_.skyway().updates().registerUpdate(
        "test.Point", "y",
        [](ManagedHeap &h, Address obj, const FieldDesc &f) {
            field::set<std::int32_t>(h, obj, f, 4242);
        });
    Address p = makePoint(nodeA_, 1, 2);
    Address q = transfer(p);
    EXPECT_EQ((reflect::getField<std::int32_t>(nodeB_.heap(), q, "x")),
              1);
    EXPECT_EQ((reflect::getField<std::int32_t>(nodeB_.heap(), q, "y")),
              4242);
}

TEST_F(SkywayTest, HeterogeneousFormatAdjustedBySender)
{
    // Receiver runs a vanilla (no-baddr) layout; the sender adjusts
    // each clone while copying. Uses a separate network so node ids
    // stay consistent.
    ClusterNetwork net2(2);
    HeapConfig vanilla;
    vanilla.format.hasBaddr = false;
    Jvm drv(catalog_, net2, 0, 0);
    Jvm recv(catalog_, net2, 1, 0, vanilla);

    LocalRoots roots(drv.heap());
    Address m = makeMixed(drv, roots, "hetero");
    std::int32_t h = drv.heap().identityHash(m);

    drv.skyway().shuffleStart();
    SkywayObjectInputStream in(recv.skyway());
    SkywayObjectOutputStream out(
        drv.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); },
        defaultOutputBufferBytes, recv.heap().format());
    out.writeObject(m);
    out.flush();
    in.finish();
    Address q = in.buffer().roots().at(0);
    EXPECT_TRUE(graphsEqual(drv.heap(), m, recv.heap(), q));
    EXPECT_EQ(recv.heap().identityHash(q), h);
}

TEST_F(SkywayTest, FileStreamsRoundTrip)
{
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "file transfer");
    nodeA_.skyway().shuffleStart();
    SkywayFileOutputStream out(nodeA_.skyway(), nodeB_.disk(),
                               "shuffle_0.bin");
    out.writeObject(m);
    out.flush();
    EXPECT_GT(out.writeIoNs(), 0u);

    SkywayFileInputStream in(nodeB_.skyway(), nodeB_.disk(),
                             "shuffle_0.bin");
    EXPECT_GT(in.readIoNs(), 0u);
    ASSERT_TRUE(in.hasNext());
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(), q));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, FileStreamFramesLandZeroCopy)
{
    // One [u32 length][segment] frame per flush; the reader commits
    // each frame in place, so every segment byte is zero-copy (a
    // raw-format invariant: pin compaction off).
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);
    nodeA_.skyway().shuffleStart();
    SkywayFileOutputStream out(nodeA_.skyway(), nodeB_.disk(),
                               "shuffle_1.bin", 1 << 10);
    out.writeObject(head);
    out.flush();

    const auto &file = nodeB_.disk().file("shuffle_1.bin");
    ByteSource src(file);
    std::size_t frames = 0;
    while (!src.atEnd()) {
        std::uint32_t len = src.readU32();
        ASSERT_LE(len, src.remaining());
        src.view(len);
        ++frames;
    }
    ASSERT_GT(frames, 1u);

    SkywayFileInputStream in(nodeB_.skyway(), nodeB_.disk(),
                             "shuffle_1.bin");
    EXPECT_EQ(in.buffer().stats().zeroCopyBytes,
              file.size() - 4 * frames);
    ASSERT_TRUE(in.hasNext());
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, SocketStreamsRoundTrip)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);
    nodeA_.skyway().shuffleStart();
    SkywaySocketOutputStream out(nodeA_.skyway(), net_, nodeA_.id(),
                                 nodeB_.id(), 42, 4 << 10);
    SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(), 42);
    out.writeObject(head);
    EXPECT_FALSE(in.pump()) << "stream not closed yet";
    out.close();
    ASSERT_TRUE(in.pump());
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
    EXPECT_GT(net_.bytesSent(nodeA_.id(), nodeB_.id()), 0u);
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, MultiThreadedSendersShareObjects)
{
    // Four threads send graphs that all share one subtree, each to
    // its own destination buffer. Every receiver must get a correct
    // copy; the losers of the baddr CAS use their local hash tables.
    LocalRoots roots(nodeA_.heap());
    Address shared = makeMixed(nodeA_, roots, "contended subtree");
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::vector<std::size_t> tops;
    for (int t = 0; t < 4; ++t) {
        Address p = nodeA_.heap().allocateInstance(pairK);
        std::size_t rp = roots.push(p);
        field::setRef(nodeA_.heap(), roots.get(rp),
                      pairK->requireField("left"), roots.get(rs));
        tops.push_back(rp);
    }

    nodeA_.skyway().shuffleStart();
    std::vector<std::vector<std::uint8_t>> outBytes(4);
    std::vector<std::unique_ptr<SkywayObjectOutputStream>> streams;
    for (int t = 0; t < 4; ++t) {
        auto *vec = &outBytes[t];
        streams.push_back(std::make_unique<SkywayObjectOutputStream>(
            nodeA_.skyway(),
            [vec](const std::uint8_t *d, std::size_t n) {
                vec->insert(vec->end(), d, d + n);
            }));
    }

    std::vector<std::thread> threads;
    std::uint64_t fallbacks = 0;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            streams[t]->writeObject(roots.get(tops[t]));
            streams[t]->flush();
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < 4; ++t)
        fallbacks += streams[t]->stats().hashFallbacks;
    // At least three streams lost the CAS race for the shared subtree
    // root (one winner), so fallbacks must have happened.
    EXPECT_GE(fallbacks, 3u);

    for (int t = 0; t < 4; ++t) {
        SkywayObjectInputStream in(nodeB_.skyway());
        in.feed(outBytes[t].data(), outBytes[t].size());
        in.finish();
        Address q = in.buffer().roots().at(0);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(tops[t]),
                                nodeB_.heap(), q))
            << "stream " << t;
        keep_.push_back(in.releaseBuffer());
    }
}

TEST_F(SkywayTest, ConcurrentTidRegistrationIsRaceFree)
{
    // Regression (TSan): Klass::tid_ is published by whichever sender
    // thread first registers the class. Every thread must observe
    // either the registered id (relaxed fast path) or take the
    // serialized registration slow path — never a torn id and never
    // two registrations for one class.
    std::vector<Klass *> ks = {
        nodeA_.klasses().load("test.Point"),
        nodeA_.klasses().load("test.Pair"),
        nodeA_.klasses().load("test.Node"),
        nodeA_.klasses().load("test.Mixed"),
        nodeA_.klasses().arrayOfPrimitive(FieldType::Int),
    };
    constexpr int kThreads = 8;
    std::vector<std::vector<std::int32_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (Klass *k : ks)
                ids[t].push_back(nodeA_.skyway().tidFor(k));
        });
    for (auto &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
    for (std::size_t i = 0; i < ks.size(); ++i) {
        EXPECT_EQ(ks[i]->tid(), ids[0][i]);
        EXPECT_NE(ks[i]->tid(), Klass::unregisteredTid);
    }
}

TEST_F(SkywayTest, SerializerAdapterRoundTrip)
{
    SkywaySerializer ser(nodeA_.skyway());
    SkywaySerializer des(nodeB_.skyway());
    LocalRoots roots(nodeA_.heap());
    std::size_t r1 = roots.push(makeMixed(nodeA_, roots, "adapter"));
    std::size_t r2 = roots.push(makePoint(nodeA_, 5, 6));

    VectorSink sink;
    ser.writeObject(roots.get(r1), sink);
    ser.writeObject(roots.get(r2), sink);
    ser.writeObject(nullAddr, sink);
    ser.endStream(sink);
    EXPECT_GT(ser.sendStats().objectsCopied, 0u);

    ByteSource src(sink.bytes());
    Address q1 = des.readObject(src);
    Address q2 = des.readObject(src);
    Address q3 = des.readObject(src);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(r1),
                            nodeB_.heap(), q1));
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(r2),
                            nodeB_.heap(), q2));
    EXPECT_EQ(q3, nullAddr);
    EXPECT_TRUE(src.atEnd());
}

TEST_F(SkywayTest, SerializerIngestIsZeroCopy)
{
    // Every frame the serializer ingests lands through reserve/commit:
    // the zero-copy bytes the receiver publishes are exactly the sum
    // of the frame lengths (raw format: pin compaction off).
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    SkywaySerializer ser(nodeA_.skyway(), 1 << 10);
    SkywaySerializer des(nodeB_.skyway());
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);
    VectorSink sink;
    ser.writeObject(head, sink);
    ser.endStream(sink);

    ByteSource frames(sink.bytes());
    std::uint64_t frameBytes = 0;
    std::size_t frameCount = 0;
    while (std::uint32_t len = frames.readU32()) {
        frames.view(len);
        frameBytes += len;
        ++frameCount;
    }
    ASSERT_GT(frameCount, 1u);

    obs::Counter &zeroCopy = obs::MetricsRegistry::global().counter(
        "skyway.receiver.zero_copy_bytes");
    std::uint64_t before = zeroCopy.value();
    ByteSource src(sink.bytes());
    Address q = des.readObject(src);
    EXPECT_EQ(zeroCopy.value() - before, frameBytes);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
}

TEST_F(SkywayTest, AdapterByteCompositionAddsUp)
{
    SkywaySerializer ser(nodeA_.skyway());
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "composition");
    VectorSink sink;
    ser.writeObject(m, sink);
    ser.endStream(sink);
    SkywaySendStats s = ser.sendStats();
    EXPECT_EQ(s.headerBytes + s.pointerBytes + s.paddingBytes +
                  s.dataBytes,
              s.bytesCopied);
    EXPECT_GT(s.headerBytes, 0u);
    EXPECT_GT(s.pointerBytes, 0u);
}

TEST_F(SkywayTest, StreamIdWraparoundDoesNotAliasClaims)
{
    // Regression: the stream id lives in two baddr bytes. After
    // 65,536 streams the id wraps; a claim stamped 65,536 streams ago
    // must not be mistaken for the current stream's (the wrap opens a
    // fresh shuffle phase). Found by the micro benchmark's
    // many-iteration loop.
    LocalRoots roots(nodeA_.heap());
    Address p = makePoint(nodeA_, 3, 4);
    std::size_t rp = roots.push(p);
    SkywaySerializer des(nodeB_.skyway(), 64 << 10, 4 << 10);
    for (int i = 0; i < 66000; ++i) {
        SkywaySerializer ser(nodeA_.skyway());
        VectorSink sink;
        ser.writeObject(roots.get(rp), sink);
        ser.endStream(sink);
        ByteSource src(sink.bytes());
        Address q = des.readObject(src);
        ASSERT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rp),
                                nodeB_.heap(), q))
            << "stream " << i;
        des.releaseReceived();
    }
}

TEST_F(SkywayTest, TransferredBytesExceedPayloadButCarryHeaders)
{
    // Skyway ships headers and padding: more bytes than Kryo would,
    // by design (the paper's bandwidth-for-CPU tradeoff).
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "bytes");
    GraphMeasure gm = measureGraph(nodeA_.heap(), m);
    SkywaySerializer ser(nodeA_.skyway());
    VectorSink sink;
    ser.writeObject(m, sink);
    ser.endStream(sink);
    EXPECT_GE(ser.sendStats().bytesCopied, gm.bytes)
        << "whole-object copies (plus marker records)";
}

} // namespace
} // namespace skyway
