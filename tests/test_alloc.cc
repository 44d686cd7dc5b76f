/**
 * @file
 * Allocation regression tests: the steady-state per-record loops of
 * the runtime must not touch the C++ free store. This binary replaces
 * the global operator new with a counting one and checks, for each
 * loop, that running it 4N times allocates no more than running it N
 * times plus a small constant (container growth and per-segment
 * setup). A passing invariant check that builds its message string,
 * or any other per-record allocation, makes the 4N count grow with N.
 *
 * Loops covered: heap allocation plus field lookup, a sender →
 * reserve/commit → finalize transfer under both raw and forced compact
 * encoding, and ByteSource reads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "skyway/streams.hh"
#include "testclasses.hh"

namespace
{
std::atomic<std::uint64_t> allocationCount{0};
} // namespace

#ifndef SKYWAY_SANITIZER_BUILD
// Sanitizer runtimes interpose the allocator themselves; the counting
// replacement exists only in uninstrumented builds.

void *
operator new(std::size_t n)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

#endif // SKYWAY_SANITIZER_BUILD

namespace skyway
{
namespace
{

using testing_support::makePoint;
using testing_support::makeTestCatalog;

/** Records per loop at the small size; the large size is 4x this. */
constexpr std::size_t recordsN = 1000;

/**
 * Growth allowance for 4N over N: amortized container doubling
 * (run lists, root lists) adds a few allocations per 4x, never one per
 * record.
 */
constexpr std::int64_t slack = 16;

/** Free-store allocations made while @p f runs. */
template <typename F>
std::int64_t
allocationsDuring(F &&f)
{
    std::uint64_t before =
        allocationCount.load(std::memory_order_relaxed);
    f();
    return static_cast<std::int64_t>(
        allocationCount.load(std::memory_order_relaxed) - before);
}

/**
 * Run @p loop once to warm first-use caches, then at N and 4N
 * records; the 4N run may allocate at most @c slack more times.
 */
template <typename Loop>
void
expectFlat(Loop &&loop)
{
    loop(recordsN);
    std::int64_t at_n = allocationsDuring([&] { loop(recordsN); });
    std::int64_t at_4n =
        allocationsDuring([&] { loop(4 * recordsN); });
    EXPECT_LE(at_4n - at_n, slack)
        << "allocations grow with the record count: " << at_n
        << " at N=" << recordsN << ", " << at_4n << " at 4N";
}

class AllocTest : public ::testing::Test
{
  protected:
    AllocTest()
        : catalog_(makeTestCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        // The SkywaySan validators (SKYWAY_WIRE_CHECK and friends)
        // index every record by design; this test measures the
        // production path, so it runs with them off in any
        // environment.
        nodeA_.skyway().debug() = DebugFlags{};
        nodeB_.skyway().debug() = DebugFlags{};
    }

    void
    SetUp() override
    {
#ifdef SKYWAY_SANITIZER_BUILD
        GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
};

TEST_F(AllocTest, HeapAllocationAndFieldLookupDoNotAllocate)
{
    ManagedHeap &h = nodeA_.heap();
    Klass *point = nodeA_.klasses().load("test.Point");
    Klass *ints = nodeA_.klasses().load("[I");
    const std::string x = "x";
    const std::string y = "y";
    expectFlat([&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            Address p = h.allocateInstance(point);
            field::set<std::int32_t>(h, p, point->requireField(x), 1);
            field::set<std::int32_t>(h, p, point->requireField(y), 2);
            h.allocateArray(ints, 2);
        }
    });
}

TEST_F(AllocTest, TransferDoesNotAllocatePerRecord)
{
    LocalRoots roots(nodeA_.heap());
    for (std::size_t i = 0; i < 4 * recordsN; ++i)
        roots.push(makePoint(nodeA_, static_cast<std::int32_t>(i), 7));

    for (WireCompactMode mode :
         {WireCompactMode::Off, WireCompactMode::Force}) {
        SCOPED_TRACE(mode == WireCompactMode::Off ? "Off" : "Force");
        nodeA_.skyway().setWireCompactMode(mode);
        expectFlat([&](std::size_t n) {
            nodeA_.skyway().shuffleStart();
            InputBuffer in(nodeB_.skyway());
            {
                SkywayObjectOutputStream out(
                    nodeA_.skyway(),
                    [&in](const std::uint8_t *d, std::size_t len) {
                        std::memcpy(in.reserveChunk(len), d, len);
                        in.commitChunk(len);
                    });
                for (std::size_t i = 0; i < n; ++i)
                    out.writeObject(roots.get(i));
                out.flush();
            }
            in.finalize();
            ASSERT_EQ(in.roots().size(), n);
        });
    }
}

TEST_F(AllocTest, ByteSourceReadsDoNotAllocate)
{
    std::vector<std::uint8_t> bytes(4 * recordsN * sizeof(std::uint64_t),
                                    0x5a);
    std::uint64_t sum = 0;
    expectFlat([&](std::size_t n) {
        ByteSource src(bytes);
        for (std::size_t i = 0; i < n; ++i)
            sum += src.readU64();
    });
    EXPECT_NE(sum, 0u);
}

} // namespace
} // namespace skyway
