/**
 * @file
 * Tests for the adaptive compact wire encoding (docs/WIRE_FORMAT.md):
 * round-trip graph isomorphism for every encoding mode (raw records,
 * padding-stripped instances, varint-narrowed references, RLE'd and
 * plain primitive arrays, reference arrays, mixed per-class segments),
 * the Auto decision policy (fast links pass through, slow links
 * compact, measured feedback demotes bad bets), accounting on both
 * ends, ParallelSender fan-out and TCP transport parity under forced
 * compaction, the SkywaySan corruption kinds for compact segments, and
 * the receiver veto (validated corrupt input dies with a diagnostic
 * instead of crashing the expander).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sanitize/corrupt.hh"
#include "sanitize/graphcheck.hh"
#include "skyway/parallel.hh"
#include "skyway/streams.hh"
#include "skyway/wirecompact.hh"
#include "testclasses.hh"

namespace skyway
{
namespace
{

using sanitize::compactCorruptionKinds;
using sanitize::CorruptionKind;
using sanitize::corruptionKindName;
using sanitize::expectedFaults;
using sanitize::indexStream;
using sanitize::injectCorruption;
using sanitize::WireCheckConfig;
using sanitize::WireFault;
using sanitize::WireIndex;
using sanitize::WireValidator;
using testing_support::makeCycle;
using testing_support::makeList;
using testing_support::makeMixed;
using testing_support::makePoint;
using testing_support::makeSharedPair;
using testing_support::makeTestCatalog;

class WireCompactTest : public ::testing::Test
{
  protected:
    WireCompactTest()
        : catalog_(makeTestCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        // Every test pins the mode it exercises, so the suite is
        // invariant under the SKYWAY_WIRE_COMPACT environment knob.
        nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
        nodeB_.skyway().setWireCompactMode(WireCompactMode::Off);
    }

    WireCheckConfig
    cfg()
    {
        WireCheckConfig c;
        c.wireFormat = nodeB_.heap().format();
        return c;
    }

    /** Serialize the graphs at @p roots under @p mode. */
    std::vector<std::uint8_t>
    capture(const std::vector<Address> &roots, WireCompactMode mode,
            std::size_t buffer_bytes = 64 << 10)
    {
        nodeA_.skyway().setWireCompactMode(mode);
        nodeA_.skyway().shuffleStart();
        std::vector<std::uint8_t> bytes;
        SkywayObjectOutputStream out(
            nodeA_.skyway(),
            [&bytes](const std::uint8_t *d, std::size_t n) {
                bytes.insert(bytes.end(), d, d + n);
            },
            buffer_bytes);
        for (Address r : roots)
            out.writeObject(r);
        out.flush();
        return bytes;
    }

    /** Feed wire bytes into node B and return the first root. */
    Address
    receive(const std::vector<std::uint8_t> &bytes)
    {
        SkywayObjectInputStream in(nodeB_.skyway());
        in.feed(bytes.data(), bytes.size());
        in.finish();
        keep_.push_back(in.releaseBuffer());
        return keep_.back()->roots().at(0);
    }

    /** Ingest one segment through the zero-copy reserve/commit API. */
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

    /** Capture under Force and Off, assert the compact stream is a
     *  genuine compact segment, smaller, and re-expands to a graph
     *  isomorphic to the original through BOTH receive paths. */
    void
    roundTripCompact(Address root, double max_ratio = 1.0)
    {
        std::vector<std::uint8_t> raw =
            capture({root}, WireCompactMode::Off);
        std::vector<std::uint8_t> compact =
            capture({root}, WireCompactMode::Force);
        ASSERT_GE(compact.size(), wordSize);
        EXPECT_TRUE(wire::isCompactSegment(compact.data(),
                                           compact.size()));
        EXPECT_LT(static_cast<double>(compact.size()),
                  max_ratio * static_cast<double>(raw.size()))
            << "compact " << compact.size() << "B vs raw "
            << raw.size() << "B";

        Address viaFeed = receive(compact);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), root, nodeB_.heap(),
                                viaFeed));

        keep_.push_back(receiveZeroCopy({compact}));
        Address viaZeroCopy = keep_.back()->roots().at(0);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), root, nodeB_.heap(),
                                viaZeroCopy));
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(WireCompactTest, OffModeShipsRawSegments)
{
    Address p = makePoint(nodeA_, 3, 4);
    std::vector<std::uint8_t> bytes =
        capture({p}, WireCompactMode::Off);
    EXPECT_FALSE(wire::isCompactSegment(bytes.data(), bytes.size()));
    // Raw streams start with a top mark, as they always have.
    Word first;
    std::memcpy(&first, bytes.data(), wordSize);
    EXPECT_EQ(first, marker::topMark);
}

TEST_F(WireCompactTest, PaddingStrippedInstancesRoundTrip)
{
    // test.Point (two ints) pays 8B padding plus 32B header per 8B of
    // data in raw format — the headline compaction case.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "compact mixed graph");
    roundTripCompact(m);
}

TEST_F(WireCompactTest, VarintReferencesRoundTripLinkedList)
{
    // A long list is reference-dominated: every 8-byte slot word
    // narrows to a short varint. Expect a substantial cut.
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);
    roundTripCompact(head, 0.75);
}

TEST_F(WireCompactTest, SharingAndCyclesSurviveCompaction)
{
    LocalRoots roots(nodeA_.heap());
    Address pair = makeSharedPair(nodeA_, roots);
    roundTripCompact(pair);

    Address cyc = makeCycle(nodeA_, roots);
    std::vector<std::uint8_t> compact =
        capture({cyc}, WireCompactMode::Force);
    Address q = receive(compact);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), cyc, nodeB_.heap(), q));
}

TEST_F(WireCompactTest, ZeroHeavyArrayCompressesWithRle)
{
    // 4096 longs, 1 in 64 nonzero: the RLE coder should collapse the
    // zero runs and beat raw by an order of magnitude.
    std::vector<std::int64_t> data(4096, 0);
    for (std::size_t i = 0; i < data.size(); i += 64)
        data[i] = static_cast<std::int64_t>(i) * 7 + 1;
    Address arr = nodeA_.builder().makeLongArray(data);
    roundTripCompact(arr, 0.2);
}

TEST_F(WireCompactTest, RandomArrayShipsPlainPayload)
{
    // Incompressible payload: Force still compacts (header + varints
    // only), and the payload must survive byte-exactly.
    Rng rng(99);
    std::vector<std::int64_t> data(512);
    for (auto &v : data)
        v = static_cast<std::int64_t>(rng.nextU64());
    Address arr = nodeA_.builder().makeLongArray(data);
    std::vector<std::uint8_t> compact =
        capture({arr}, WireCompactMode::Force);
    // Plain payload: at least the 4096 data bytes are on the wire.
    EXPECT_GE(compact.size(), data.size() * sizeof(std::int64_t));
    Address q = receive(compact);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), arr, nodeB_.heap(), q));
}

TEST_F(WireCompactTest, ReferenceArrayRoundTripsWithNullHoles)
{
    LocalRoots roots(nodeA_.heap());
    Address arr = nodeA_.builder().makeRefArray("test.Point", 10);
    std::size_t ra = roots.push(arr);
    for (std::size_t i = 0; i < 10; i += 2)
        array::setRef(nodeA_.heap(), roots.get(ra), i,
                      makePoint(nodeA_, static_cast<int>(i), -9));
    roundTripCompact(roots.get(ra));
}

TEST_F(WireCompactTest, IdentityHashSurvivesCompaction)
{
    Address p = makePoint(nodeA_, 21, 42);
    std::int32_t h = nodeA_.heap().identityHash(p);
    std::vector<std::uint8_t> compact =
        capture({p}, WireCompactMode::Force);
    Address q = receive(compact);
    EXPECT_TRUE(mark::hasHash(nodeB_.heap().markOf(q)));
    EXPECT_EQ(nodeB_.heap().identityHash(q), h);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), p, nodeB_.heap(), q, true));
}

TEST_F(WireCompactTest, MixedPerClassSegmentCarriesRawRecords)
{
    // Pin the long-array class to raw in the shared cache: its record
    // must travel as a verbatim raw item INSIDE the compact segment
    // while the instance graph beside it compacts.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "compact half");
    Rng rng(7);
    std::vector<std::int64_t> data(256);
    for (auto &v : data)
        v = static_cast<std::int64_t>(rng.nextU64());
    Address longs = nodeA_.builder().makeLongArray(data);
    std::size_t rl = roots.push(longs);

    // Decide "[J" raw up-front (its tid is assigned on first send, so
    // seed it through an Off-mode capture first).
    capture({roots.get(rl)}, WireCompactMode::Off);
    Klass *longArrK = nodeA_.klasses().load("[J");
    ASSERT_NE(longArrK->tid(), Klass::unregisteredTid);
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Force);
    nodeA_.skyway().wireEncodings().setDecision(longArrK->tid(), 0);

    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> bytes;
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&bytes](const std::uint8_t *d, std::size_t n) {
            bytes.insert(bytes.end(), d, d + n);
        },
        64 << 10);
    out.writeObject(m);
    out.writeObject(roots.get(rl));
    out.flush();

    ASSERT_TRUE(wire::isCompactSegment(bytes.data(), bytes.size()));
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), bytes);
    EXPECT_FALSE(index.compactItemOffsets.empty());

    SkywayObjectInputStream in(nodeB_.skyway());
    in.feed(bytes.data(), bytes.size());
    in.finish();
    keep_.push_back(in.releaseBuffer());
    const auto &received = keep_.back()->roots();
    ASSERT_EQ(received.size(), 2u);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(),
                            received.at(0)));
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rl),
                            nodeB_.heap(), received.at(1)));
}

TEST_F(WireCompactTest, AutoPassesThroughOnFastLinks)
{
    // Threshold above 100%: the stage must return the sink unchanged
    // and the stream must be byte-identical to Off mode.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "fast link");
    std::vector<std::uint8_t> raw =
        capture({m}, WireCompactMode::Off);
    nodeA_.skyway().setWireNsPerByte(0.1); // 80 Gb/s-class fabric
    std::vector<std::uint8_t> fast =
        capture({m}, WireCompactMode::Auto);
    EXPECT_EQ(fast, raw);
    nodeA_.skyway().setWireNsPerByte(8.0);
}

TEST_F(WireCompactTest, AutoCompactsOnSlowLinks)
{
    // Default Jvm link cost is gigabit Ethernet (8 ns/byte): the
    // threshold is 6.25% and padded instances clear it easily.
    ASSERT_DOUBLE_EQ(nodeA_.skyway().wireNsPerByte(), 8.0);
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "slow link");
    std::vector<std::uint8_t> bytes =
        capture({m}, WireCompactMode::Auto);
    ASSERT_TRUE(wire::isCompactSegment(bytes.data(), bytes.size()));
    Address q = receive(bytes);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(), q));
}

TEST_F(WireCompactTest, MeasuredFeedbackDemotesOverestimatedClass)
{
    // Large random long arrays: the static estimate (16-element
    // guess) says ~16% saving, but at 4096 elements the header share
    // vanishes and the realized saving is ~0%. After enough measured
    // records the shared cache must demote the class to raw.
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Auto);
    Rng rng(4242);
    LocalRoots roots(nodeA_.heap());
    std::vector<std::size_t> slots;
    for (int i = 0; i < 40; ++i) {
        std::vector<std::int64_t> data(4096);
        for (auto &v : data)
            v = static_cast<std::int64_t>(rng.nextU64());
        slots.push_back(roots.push(nodeA_.builder().makeLongArray(data)));
    }

    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> sink;
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&sink](const std::uint8_t *d, std::size_t n) {
            sink.insert(sink.end(), d, d + n);
        },
        64 << 10); // ~1.9 arrays per segment: many sync points
    for (std::size_t s : slots)
        out.writeObject(roots.get(s));
    out.flush();

    Klass *longArrK = nodeA_.klasses().load("[J");
    ASSERT_NE(longArrK->tid(), Klass::unregisteredTid);
    EXPECT_EQ(nodeA_.skyway().wireEncodings().decision(longArrK->tid()),
              0)
        << "measured feedback failed to demote large random arrays";

    // A fresh stream now ships such arrays raw — byte-identical to
    // Off mode. (Streams consult the shared cache, so no setMode call
    // here: that would reset the decisions we just measured.)
    std::vector<std::int64_t> data(4096);
    for (auto &v : data)
        v = static_cast<std::int64_t>(rng.nextU64());
    Address arr = nodeA_.builder().makeLongArray(data);
    std::size_t ra = roots.push(arr);
    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> after;
    SkywayObjectOutputStream demoted(
        nodeA_.skyway(),
        [&after](const std::uint8_t *d, std::size_t n) {
            after.insert(after.end(), d, d + n);
        },
        64 << 10);
    demoted.writeObject(roots.get(ra));
    demoted.flush();
    std::vector<std::uint8_t> raw =
        capture({roots.get(ra)}, WireCompactMode::Off);
    EXPECT_EQ(after, raw);
}

TEST_F(WireCompactTest, ExpandAccountingExcludesZeroCopy)
{
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "accounting");
    std::vector<std::uint8_t> compact =
        capture({m}, WireCompactMode::Force);

    keep_.push_back(receiveZeroCopy({compact}));
    const SkywayReceiveStats &st = keep_.back()->stats();
    // Compact segments are rebuilt, not aliased: nothing may count as
    // zero-copy, and every received byte is an expanded byte.
    EXPECT_EQ(st.zeroCopyBytes, 0u);
    EXPECT_GT(st.expandedBytes, compact.size());
    EXPECT_EQ(st.expandedBytes, st.bytesReceived);
    EXPECT_GT(st.expandNs, 0u);
    EXPECT_GT(st.objectsReceived, 0u);
}

TEST_F(WireCompactTest, TopMarkEndingASegmentRootsTheNextChunk)
{
    // Root i is Pair(left = Point(i) with a cached hash, right = root
    // i-1's Point), so every root is one top mark plus two records.
    // The output buffer holds k whole roots and one more top mark:
    // the first segment ends with that mark, and its root record
    // arrives in the next segment, which opens a new 4 KiB chunk.
    constexpr std::size_t chunk = 4 << 10;
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    const FieldDesc &left = pairK->requireField("left");
    const FieldDesc &right = pairK->requireField("right");
    std::size_t unit = wordSize + pairK->instanceBytes() +
                       nodeA_.klasses().load("test.Point")->instanceBytes();
    std::size_t cap = (chunk - wordSize) / unit * unit + wordSize;

    LocalRoots roots(nodeA_.heap());
    std::vector<std::size_t> slots;
    for (int i = 0; i < 300; ++i) {
        Address pt = makePoint(nodeA_, i, -i);
        if (i % 2 == 0)
            nodeA_.heap().identityHash(pt);
        std::size_t ps = roots.push(pt);
        Address pair = nodeA_.heap().allocateInstance(pairK);
        field::setRef(nodeA_.heap(), pair, left, roots.get(ps));
        if (!slots.empty())
            field::setRef(nodeA_.heap(), pair, right,
                          field::getRef(nodeA_.heap(),
                                        roots.get(slots.back()), left));
        slots.push_back(roots.push(pair));
    }

    for (WireCompactMode mode :
         {WireCompactMode::Off, WireCompactMode::Force}) {
        SCOPED_TRACE(mode == WireCompactMode::Off ? "raw" : "force");
        nodeA_.skyway().setWireCompactMode(mode);
        nodeA_.skyway().shuffleStart();
        std::vector<std::vector<std::uint8_t>> segs;
        SkywayObjectOutputStream out(
            nodeA_.skyway(),
            [&segs](const std::uint8_t *d, std::size_t n) {
                segs.emplace_back(d, d + n);
            },
            cap);
        for (std::size_t s : slots)
            out.writeObject(roots.get(s));
        out.flush();
        ASSERT_GE(segs.size(), 2u);
        const std::vector<std::uint8_t> &first = segs.front();
        if (mode == WireCompactMode::Off) {
            ASSERT_EQ(first.size(), cap);
            Word last;
            std::memcpy(&last, first.data() + cap - wordSize, wordSize);
            EXPECT_EQ(last, marker::topMark);
        } else {
            ASSERT_TRUE(wire::isCompactSegment(first.data(), first.size()));
            EXPECT_EQ(first.back(), wire::ctTopMark);
        }
        // The first segment expands to cap bytes; the second cannot
        // share its chunk.
        ASSERT_GT(cap + segs[1].size(), chunk);

        keep_.push_back(receiveZeroCopy(segs, chunk));
        const InputBuffer &in = *keep_.back();
        EXPECT_GE(in.chunkCount(), 2u);
        ASSERT_EQ(in.roots().size(), slots.size());
        for (std::size_t i = 0; i < slots.size(); ++i) {
            sanitize::GraphCheckResult r = sanitize::checkHeapGraphs(
                nodeA_.heap(), roots.get(slots[i]), nodeB_.heap(),
                in.roots()[i]);
            EXPECT_TRUE(r.equal) << "root " << i << ": " << r.divergence;
        }
    }
}

TEST_F(WireCompactTest, ParallelFanOutUnderForcedCompaction)
{
    constexpr unsigned N = 4;
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Force);

    LocalRoots roots(nodeA_.heap());
    Address shared = makeMixed(nodeA_, roots, "contended subtree");
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::vector<std::size_t> tops;
    for (unsigned t = 0; t < N; ++t) {
        Address p = nodeA_.heap().allocateInstance(pairK);
        std::size_t rp = roots.push(p);
        field::setRef(nodeA_.heap(), roots.get(rp),
                      pairK->requireField("left"), roots.get(rs));
        field::setRef(nodeA_.heap(), roots.get(rp),
                      pairK->requireField("right"),
                      makePoint(nodeA_, static_cast<int>(t), -1));
        tops.push_back(rp);
    }

    nodeA_.skyway().shuffleStart();
    std::vector<std::vector<std::vector<std::uint8_t>>> segs(N);
    ParallelSendConfig pcfg;
    pcfg.threads = N;
    ParallelSender psend(
        nodeA_.skyway(),
        [&segs](unsigned w) {
            auto *mine = &segs[w];
            return [mine](const std::uint8_t *d, std::size_t n) {
                mine->emplace_back(d, d + n);
            };
        },
        pcfg);
    std::vector<Address> rootAddrs;
    for (std::size_t s : tops)
        rootAddrs.push_back(roots.get(s));
    psend.send(rootAddrs);

    for (unsigned w = 0; w < N; ++w) {
        ASSERT_FALSE(segs[w].empty()) << "worker " << w;
        for (const auto &seg : segs[w])
            EXPECT_TRUE(
                wire::isCompactSegment(seg.data(), seg.size()));
        keep_.push_back(receiveZeroCopy(segs[w]));
        const auto &buf = *keep_.back();
        EXPECT_EQ(buf.stats().zeroCopyBytes, 0u);
        EXPECT_GT(buf.stats().expandedBytes, 0u);
        ASSERT_EQ(buf.roots().size(), 1u) << "worker " << w;
        bool matched = false;
        for (Address r : rootAddrs)
            matched = matched ||
                      graphsEqual(nodeA_.heap(), r, nodeB_.heap(),
                                  buf.roots().at(0));
        EXPECT_TRUE(matched)
            << "worker " << w
            << ": received graph matches no sent root";
    }
}

TEST_F(WireCompactTest, CompactCorruptionKindsRejectedWithExpectedFault)
{
    // Mirror of the raw-stream harness loop over the compact kinds:
    // a graph with instances, references, and both array families so
    // every kind has sites.
    LocalRoots roots(nodeA_.heap());
    Address arr = nodeA_.builder().makeRefArray("test.Mixed", 3);
    std::size_t ra = roots.push(arr);
    for (std::size_t i = 0; i < 3; ++i)
        array::setRef(nodeA_.heap(), roots.get(ra), i,
                      makeMixed(nodeA_, roots,
                                "corruptible " + std::to_string(i)));
    std::vector<std::uint8_t> clean =
        capture({roots.get(ra)}, WireCompactMode::Force);
    ASSERT_TRUE(wire::isCompactSegment(clean.data(), clean.size()));
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);
    ASSERT_FALSE(index.compactItemOffsets.empty());

    for (CorruptionKind kind : compactCorruptionKinds()) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            Rng rng(0xD1E7 + seed * 977);
            std::vector<std::uint8_t> bad =
                injectCorruption(index, cfg(), clean, kind, rng);
            ASSERT_NE(bad, clean)
                << corruptionKindName(kind) << " seed " << seed
                << ": injection was a no-op";

            WireValidator v(nodeB_.resolver(), cfg());
            v.feed(bad.data(), bad.size());
            v.finish();
            ASSERT_FALSE(v.ok())
                << corruptionKindName(kind) << " seed " << seed
                << ": corrupted compact stream validated clean";

            const std::vector<WireFault> &expect =
                expectedFaults(kind);
            WireFault got = v.diagnostics().front().fault;
            bool matched = false;
            for (WireFault f : expect)
                matched = matched || f == got;
            EXPECT_TRUE(matched)
                << corruptionKindName(kind) << " seed " << seed
                << ": first diagnostic "
                << v.diagnostics().front().str()
                << " not in the expected fault set";
        }
    }
}

TEST_F(WireCompactTest, ValidatedReceiverVetoesCorruptCompactInput)
{
    // With SKYWAY_WIRE_CHECK semantics on, a corrupt compact segment
    // must die in the validator with a SkywaySan diagnostic BEFORE
    // the expander touches it — a veto, not a crash.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "veto me");
    std::vector<std::uint8_t> clean =
        capture({m}, WireCompactMode::Force);
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);
    Rng rng(31337);
    std::vector<std::uint8_t> bad = injectCorruption(
        index, cfg(), clean, CorruptionKind::CompactBadTag, rng);

    nodeB_.skyway().debug().validateWire = true;
    EXPECT_DEATH(
        {
            InputBuffer buf(nodeB_.skyway(), defaultInputChunkBytes);
            std::uint8_t *dst = buf.reserveChunk(bad.size());
            std::memcpy(dst, bad.data(), bad.size());
            buf.commitChunk(bad.size());
            buf.finalize();
        },
        "SkywaySan");
    nodeB_.skyway().debug().validateWire = false;
}

TEST_F(WireCompactTest, EnvironmentKnobParses)
{
    const char *old = std::getenv("SKYWAY_WIRE_COMPACT");
    std::string saved = old ? old : "";

    ::setenv("SKYWAY_WIRE_COMPACT", "off", 1);
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Off);
    ::setenv("SKYWAY_WIRE_COMPACT", "auto", 1);
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Auto);
    ::setenv("SKYWAY_WIRE_COMPACT", "force", 1);
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Force);
    ::setenv("SKYWAY_WIRE_COMPACT", "bogus", 1);
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Off);
    ::unsetenv("SKYWAY_WIRE_COMPACT");
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Off);

    if (old)
        ::setenv("SKYWAY_WIRE_COMPACT", saved.c_str(), 1);
}

/** TCP-transport parity: the compact stream over real sockets. */
class TcpWireCompactTest : public ::testing::Test
{
  protected:
    TcpWireCompactTest()
        : catalog_(makeTestCatalog()),
          net_(3, gigabitEthernet(), TransportKind::Tcp),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        net_.resetAccounting();
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(TcpWireCompactTest, SocketStreamsMatchModelTransportUnderForce)
{
    constexpr std::size_t kBuf = 4 << 10;
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Force);
    nodeB_.skyway().setWireCompactMode(WireCompactMode::Force);

    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);

    // Model-transport reference: same graph, same buffer size,
    // in-memory sink.
    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> reference;
    {
        SkywayObjectOutputStream ref(
            nodeA_.skyway(),
            [&reference](const std::uint8_t *d, std::size_t n) {
                reference.insert(reference.end(), d, d + n);
            },
            kBuf);
        ref.writeObject(head);
        ref.flush();
    }

    nodeA_.skyway().shuffleStart();
    SkywaySocketOutputStream out(nodeA_.skyway(), net_, nodeA_.id(),
                                 nodeB_.id(), 77, kBuf);
    SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(), 77);
    out.writeObject(head);
    out.close();
    while (!in.pump()) {
    }
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));

    // Parity: the socket fabric carried exactly the bytes the model
    // path produced — the compact rewrite is transport-independent.
    // (totalBytes() counts the semantic raw stream ahead of the
    // compaction stage, so it exceeds the fabric count.)
    ASSERT_TRUE(
        wire::isCompactSegment(reference.data(), reference.size()));
    EXPECT_EQ(net_.bytesSent(nodeA_.id(), nodeB_.id()),
              reference.size());
    EXPECT_GT(out.totalBytes(), reference.size());

    keep_.push_back(in.releaseBuffer());
    const SkywayReceiveStats &st = keep_.back()->stats();
    EXPECT_EQ(st.zeroCopyBytes, 0u);
    EXPECT_GT(st.expandedBytes,
              net_.bytesSent(nodeA_.id(), nodeB_.id()))
        << "expansion must rebuild more bytes than the wire carried";
}

} // namespace
} // namespace skyway
