/**
 * @file
 * Failure-injection tests: malformed or truncated byte streams,
 * invalid buffer protocol usage, and misuse of the runtime APIs must
 * fail loudly (panic/fatal) rather than corrupt heaps silently. The
 * runtime manipulates raw memory, so every guard here is
 * load-bearing.
 */

#include <gtest/gtest.h>

#include "sd/javaserializer.hh"
#include "sd/kryoserializer.hh"
#include "skyway/streams.hh"
#include "testclasses.hh"

namespace skyway
{
namespace
{

using testing_support::makePoint;
using testing_support::makeTestCatalog;

class FailureTest : public ::testing::Test
{
  protected:
    FailureTest()
        : catalog_(makeTestCatalog()),
          net_(2),
          a_(catalog_, net_, 0, 0),
          b_(catalog_, net_, 1, 0)
    {
        // These tests exercise the raw parser's own guards; with the
        // SkywaySan validator enabled (e.g. SKYWAY_WIRE_CHECK in the
        // environment) it would reject the stream first with a
        // different message.
        a_.skyway().debug() = DebugFlags{};
        b_.skyway().debug() = DebugFlags{};
        // Same reason for the compact encoding (SKYWAY_WIRE_COMPACT
        // in the environment): these guards are the *raw* parser's.
        a_.skyway().setWireCompactMode(WireCompactMode::Off);
        b_.skyway().setWireCompactMode(WireCompactMode::Off);
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm a_, b_;
};

TEST_F(FailureTest, TruncatedJavaStreamDies)
{
    JavaSerializer ser(SdEnv{a_.heap(), a_.klasses()});
    VectorSink sink;
    ser.writeObject(makePoint(a_, 1, 2), sink);
    // Drop the tail.
    std::vector<std::uint8_t> cut(sink.bytes().begin(),
                                  sink.bytes().end() - 5);
    JavaSerializer des(SdEnv{b_.heap(), b_.klasses()});
    ByteSource src(cut);
    EXPECT_DEATH(des.readObject(src), "past end");
}

TEST_F(FailureTest, GarbageJavaStreamDies)
{
    std::vector<std::uint8_t> junk(64, 0x5a);
    JavaSerializer des(SdEnv{b_.heap(), b_.klasses()});
    ByteSource src(junk);
    EXPECT_DEATH(des.readObject(src), "");
}

TEST_F(FailureTest, ReadPastLastObjectDies)
{
    JavaSerializer ser(SdEnv{a_.heap(), a_.klasses()});
    VectorSink sink;
    ser.writeObject(makePoint(a_, 1, 2), sink);
    JavaSerializer des(SdEnv{b_.heap(), b_.klasses()});
    ByteSource src(sink.bytes());
    des.readObject(src);
    EXPECT_DEATH(des.readObject(src), "past end");
}

TEST_F(FailureTest, KryoUnknownRegistrationIdDies)
{
    KryoRegistry small;
    kryoRegisterBuiltins(small);
    KryoRegistry big;
    kryoRegisterBuiltins(big);
    big.registerClass("test.Point");

    // Writer registered more classes than the reader: the wire id
    // falls off the reader's table — the classic inconsistent-
    // registration bug Kryo users hit (paper section 2.1).
    KryoSerializer ser(SdEnv{a_.heap(), a_.klasses()}, big);
    VectorSink sink;
    ser.writeObject(makePoint(a_, 3, 4), sink);
    KryoSerializer des(SdEnv{b_.heap(), b_.klasses()}, small);
    ByteSource src(sink.bytes());
    EXPECT_DEATH(des.readObject(src), "");
}

TEST_F(FailureTest, SkywayUnknownMarkerWordDies)
{
    SkywayObjectInputStream in(b_.skyway());
    Word bogus = marker::reserved | 0xDEAD;
    EXPECT_DEATH(
        in.feed(reinterpret_cast<const std::uint8_t *>(&bogus),
                sizeof(bogus)),
        "unknown marker");
}

TEST_F(FailureTest, SkywayTruncatedWordDies)
{
    // A segment shorter than one word: the receiver must refuse it
    // before reading the first word.
    SkywayObjectInputStream in(b_.skyway());
    std::uint8_t bytes[3] = {0, 0, 0};
    EXPECT_DEATH(in.feed(bytes, sizeof(bytes)), "truncated");
}

TEST_F(FailureTest, SkywayTruncatedRecordHeaderDies)
{
    // One zero word is a record's mark word with no klass word after
    // it: the receiver must refuse it before reading past the segment.
    SkywayObjectInputStream in(b_.skyway());
    Word zero = 0;
    EXPECT_DEATH(in.feed(reinterpret_cast<const std::uint8_t *>(&zero),
                         sizeof(zero)),
                 "truncated");
}

TEST_F(FailureTest, SkywayFeedAfterFinalizeDies)
{
    a_.skyway().shuffleStart();
    SkywayObjectInputStream in(b_.skyway());
    SkywayObjectOutputStream out(
        a_.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); });
    out.writeObject(makePoint(a_, 1, 1));
    out.flush();
    in.finish();
    std::uint8_t byte = 0;
    EXPECT_DEATH(in.feed(&byte, 0);
                 in.buffer().feed(&byte, 1), "");
}

TEST_F(FailureTest, SkywayReadBeforeFinishDies)
{
    SkywayObjectInputStream in(b_.skyway());
    EXPECT_DEATH(in.readObject(), "before finish");
}

TEST_F(FailureTest, SkywayRecordSpanningSegmentDies)
{
    // Split a record across two feed calls: the receiver requires
    // whole records per segment (the sender guarantees it).
    a_.skyway().shuffleStart();
    std::vector<std::uint8_t> bytes;
    SkywayObjectOutputStream out(
        a_.skyway(),
        [&bytes](const std::uint8_t *d, std::size_t n) {
            bytes.insert(bytes.end(), d, d + n);
        });
    out.writeObject(makePoint(a_, 1, 2));
    out.flush();
    ASSERT_GT(bytes.size(), 16u);

    SkywayObjectInputStream in(b_.skyway());
    EXPECT_DEATH(in.feed(bytes.data(), bytes.size() - 8), "spans");
}

TEST_F(FailureTest, SkywayBadRelativeAddressDies)
{
    // Hand-craft a record whose reference slot points outside the
    // buffer: absolutization must refuse.
    a_.skyway().shuffleStart();
    std::vector<std::uint8_t> bytes;
    LocalRoots roots(a_.heap());
    Address pair =
        a_.heap().allocateInstance(a_.klasses().load("test.Pair"));
    std::size_t rp = roots.push(pair);
    Address child = makePoint(a_, 1, 1);
    field::setRef(a_.heap(), roots.get(rp),
                  a_.klasses().load("test.Pair")->requireField("left"),
                  child);
    SkywayObjectOutputStream out(
        a_.skyway(),
        [&bytes](const std::uint8_t *d, std::size_t n) {
            bytes.insert(bytes.end(), d, d + n);
        });
    out.writeObject(roots.get(rp));
    out.flush();

    // Corrupt the Pair's "left" slot (first payload word after the
    // header of the first record, which follows the 8-byte top mark).
    std::size_t slot_off =
        8 + b_.heap().format().headerBytes();
    Word huge = 1u << 30;
    std::memcpy(bytes.data() + slot_off, &huge, sizeof(huge));

    SkywayObjectInputStream in(b_.skyway());
    in.feed(bytes.data(), bytes.size());
    EXPECT_DEATH(in.finish(), "relative address");

    // The same across many chunks. Roots: a 400-node list L, L again
    // (a backward reference), then the Pair. A 1 KiB output buffer and
    // 1 KiB input chunks spread the stream over many chunks; the
    // validator is off, so the translation itself must refuse each
    // forged slot.
    a_.skyway().shuffleStart();
    std::size_t rl = roots.push(testing_support::makeList(a_, roots, 400));
    std::vector<std::uint8_t> multi;
    std::vector<std::size_t> segs;
    SkywayObjectOutputStream chunked(
        a_.skyway(),
        [&](const std::uint8_t *d, std::size_t n) {
            multi.insert(multi.end(), d, d + n);
            segs.push_back(n);
        },
        1 << 10);
    chunked.writeObject(roots.get(rl));
    std::uint64_t back_ref = chunked.totalBytes();
    chunked.writeObject(roots.get(rl));
    // A relative address is a stream offset: the Pair's record follows
    // its 8-byte top mark.
    std::uint64_t pair_rec = chunked.totalBytes() + wordSize;
    chunked.writeObject(roots.get(rp));
    chunked.flush();
    ASSERT_EQ(multi.size(), chunked.totalBytes());

    auto receive = [&](const std::vector<std::uint8_t> &wire) {
        SkywayObjectInputStream sin(b_.skyway(), 1 << 10);
        std::size_t off = 0;
        for (std::size_t n : segs) {
            sin.feed(wire.data() + off, n);
            off += n;
        }
        sin.finish();
        return sin.buffer().chunkCount();
    };
    auto forge = [&](std::uint64_t at, Word slot) {
        std::vector<std::uint8_t> wire = multi;
        std::memcpy(wire.data() + at, &slot, sizeof(slot));
        return wire;
    };
    EXPECT_GT(receive(multi), 4u) << "the clean stream spans chunks";

    // A reference slot past the committed end of the stream.
    std::vector<std::uint8_t> past = forge(
        pair_rec + b_.heap().format().headerBytes(), multi.size() + 65);
    EXPECT_DEATH(receive(past), "relative address");

    // A backward reference naming the Pair record, a real record start
    // that is not committed yet when the marker is read.
    Word marker_word;
    std::memcpy(&marker_word, multi.data() + back_ref, sizeof(Word));
    ASSERT_EQ(marker_word, marker::backRef);
    std::vector<std::uint8_t> ahead =
        forge(back_ref + wordSize, pair_rec + 1);
    EXPECT_DEATH(receive(ahead), "relative address");
}

TEST_F(FailureTest, ByteSourceGuards)
{
    std::vector<std::uint8_t> buf{1, 2, 3};
    ByteSource src(buf);
    src.readU8();
    EXPECT_DEATH(src.readU32(), "past end");
    // Malformed varint (all continuation bits).
    std::vector<std::uint8_t> vi(11, 0xff);
    ByteSource vsrc(vi);
    EXPECT_DEATH(vsrc.readVarU64(), "varint too long");
}

TEST_F(FailureTest, OutputBufferNonSequentialWriteDies)
{
    OutputBuffer ob(1024, [](const std::uint8_t *, std::size_t) {});
    ob.claim(16);
    ob.writeAt(0, 16);
    EXPECT_DEATH(ob.writeAt(64, 16), "non-sequential");
}

TEST_F(FailureTest, HeapOldGenExhaustionIsFatalNotSilent)
{
    HeapConfig tiny;
    tiny.edenBytes = 64 << 10;
    tiny.survivorBytes = 16 << 10;
    tiny.oldBytes = 64 << 10;
    ManagedHeap heap(tiny);
    EXPECT_DEATH(heap.allocateOldRaw(1 << 20), "exhausted");
}

} // namespace
} // namespace skyway
