/**
 * @file
 * Adaptive per-class compact wire encoding (docs/WIRE_FORMAT.md).
 *
 * Skyway's known cost is byte inflation: raw transfer ships object
 * headers, alignment padding, and 8-byte reference slots alongside
 * the actual data. The compact encoder sits behind the sender's
 * flush tee and rewrites a flushed segment class by class: classes
 * whose estimated saving beats the CPU cost of re-encoding travel as
 * tagged compact items (no padding, varint-narrowed in-segment
 * references, optional zero-run RLE for dense primitive arrays);
 * everything else travels verbatim inside the same segment. The
 * receiver re-expands compact items at commit, writing full
 * heap-format records into the same chunks with the klass pointer
 * already in each klass word, as the raw commit leaves them — heap
 * semantics, baddr relocation, and everything downstream of the
 * expander are unchanged.
 *
 * Compact segment layout (all varints LEB128):
 *
 *   [8B marker::compactSeg][varint payloadLen][payload = items...]
 *
 *   item := 0x01                                   top mark
 *         | 0x02 varint(slotWord)                  backward reference
 *         | 0x03 varint(rawLen) rawBytes           raw record, verbatim
 *         | 0x04 varint(tid) varint(mark) fields   instance, packed
 *         | 0x05 varint(tid) varint(mark) varint(n) payload
 *                                                  primitive array
 *         | 0x06 varint(tid) varint(mark) varint(n) varint(slot)*n
 *                                                  reference array
 *         | 0x07 varint(tid) varint(mark) varint(n) rlePairs
 *                                                  primitive array, RLE
 *
 * The per-class raw/compact choice is driven by a static layout
 * estimate the sender computes from the class and the wire format,
 * refined by measured per-class byte accounting; the threshold scales
 * with the link's ns-per-byte cost so compaction pays no CPU tax
 * where bandwidth is free (see WirePolicy).
 */

#ifndef SKYWAY_SKYWAY_WIRECOMPACT_HH
#define SKYWAY_SKYWAY_WIRECOMPACT_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <vector>

#include "klass/objectformat.hh"
#include "skyway/outputbuffer.hh"
#include "support/thread_annotations.hh"

namespace skyway
{

class Klass;
class SkywayContext;

/** Send-path compaction switch (env `SKYWAY_WIRE_COMPACT`). */
enum class WireCompactMode
{
    /** Every segment travels raw — the seed wire format. */
    Off,
    /** Per-class adaptive choice (the default policy, see WirePolicy). */
    Auto,
    /** Every eligible record travels compact, regardless of the win
     *  estimate — for tests and the forced CI pass. */
    Force,
};

/** Parse `SKYWAY_WIRE_COMPACT` (off|auto|force; unset/unknown = Off). */
WireCompactMode wireCompactModeFromEnv();

namespace wire
{

/** Compact item tags (one byte each, see file header for layouts). */
constexpr std::uint8_t ctTopMark = 0x01;
constexpr std::uint8_t ctBackRef = 0x02;
constexpr std::uint8_t ctRawRecord = 0x03;
constexpr std::uint8_t ctInstance = 0x04;
constexpr std::uint8_t ctPrimArray = 0x05;
constexpr std::uint8_t ctRefArray = 0x06;
constexpr std::uint8_t ctPrimArrayRle = 0x07;

/** Zero runs shorter than this stay literal in the RLE coder. */
constexpr std::size_t rleMinZeroRun = 16;

/** LEB128 append / measure (shared by the encoder and the SkywaySan
 *  corruption harness — inline so the sanitize library needs no link
 *  dependency on the send path). */
inline void
putVarU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

inline std::size_t
varLen(std::uint64_t v)
{
    std::size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

/**
 * Estimated compact saving for one class, as a percent of its raw
 * wire bytes (0–100). Pure layout arithmetic: header + padding +
 * (8 − ~2) per reference slot over the raw record size, using a
 * 16-element guess for arrays (the measured feedback loop corrects
 * for real array sizes). Every node computes it for itself from the
 * klass it holds; nothing carries it across the wire.
 */
int staticSavingPercent(const Klass *k, const ObjectFormat &wire_fmt);

/** True when @p data begins with a complete compact-segment preamble. */
bool isCompactSegment(const std::uint8_t *data, std::size_t len);

/**
 * The adaptive decision policy. A class is compacted when its
 * estimated saving (percent of raw bytes) is at least
 * `100 * kEncodeCpuNsPerByte / wire_ns_per_byte`: spending one
 * CPU-ns must buy at least one wire-ns. On links cheaper than the
 * encoder itself (threshold > 100) Auto mode disables the stage
 * entirely and flushes pass straight through.
 */
struct WirePolicy
{
    /** Measured cost of the compact rewrite, ns per raw byte. */
    static constexpr double kEncodeCpuNsPerByte = 0.5;

    static double
    minSavingPercent(double wire_ns_per_byte)
    {
        if (wire_ns_per_byte <= 0)
            return 101.0; // free wire: never worth CPU
        return 100.0 * kEncodeCpuNsPerByte / wire_ns_per_byte;
    }
};

/**
 * Receiver hooks for expandCompactSegment. `place(bytes, klass)` must
 * return heap-chunk storage for one full-format record of that klass
 * (the expander writes header + payload; callers do root, chunk and
 * stats bookkeeping). `onMarker` is invoked for top marks and backward
 * references in stream order and takes their 8 or 16 stream bytes
 * (the receiver: a filler).
 */
struct ExpandHooks
{
    std::function<Klass *(std::int32_t tid)> klassFor;
    std::function<void(bool is_back_ref, Word slot)> onMarker;
    std::function<std::uint8_t *(std::size_t bytes, const Klass *k)>
        place;
};

/**
 * Re-expand one compact segment starting at @p data into full
 * heap-format records via @p hooks, producing the byte stream the raw
 * sender would have flushed except that each klass word holds the
 * klass pointer `klassFor` returned, not the type id: expanded
 * records leave in the same local format the raw commit leaves them
 * in. A raw item must be exactly its klass's record size. Returns the
 * consumed wire bytes (preamble + payload). Panics on malformed input
 * — run the WireValidator first (SKYWAY_WIRE_CHECK) to veto instead.
 */
std::size_t expandCompactSegment(const std::uint8_t *data,
                                 std::size_t len,
                                 const ObjectFormat &wire_fmt,
                                 const ExpandHooks &hooks);

} // namespace wire

/**
 * Shared per-context memory of per-class encoding decisions, keyed by
 * global type id: every stream's encoder consults and updates it, so
 * a class judged (or measured) not worth compacting is skipped by all
 * subsequent streams, and `compact_classes` can be published as one
 * gauge. Thread-safe (ParallelSender workers encode concurrently).
 */
class WireEncodingCache
{
  public:
    /** Cached decision for @p tid: -1 unknown, 0 raw, 1 compact. */
    int decision(std::int32_t tid) const EXCLUDES(mutex_);

    void setDecision(std::int32_t tid, int d) EXCLUDES(mutex_);

    /**
     * Fold one segment's measured bytes for @p tid into the running
     * account and demote the class to raw when, over at least
     * `kMinMeasuredRecords` records, the realized saving falls below
     * @p min_saving_pct (the static estimate was too optimistic —
     * e.g. arrays much larger than the 16-element guess whose header
     * share vanishes). Returns the possibly-updated decision.
     */
    int recordMeasured(std::int32_t tid, std::uint64_t raw_bytes,
                       std::uint64_t compact_bytes,
                       std::uint64_t records,
                       double min_saving_pct) EXCLUDES(mutex_);

    /** Classes currently decided compact (the gauge value). */
    std::size_t compactClassCount() const EXCLUDES(mutex_);

    /** Forget everything (mode changes invalidate decisions). */
    void reset() EXCLUDES(mutex_);

    /** Demotion needs this many measured records to act. */
    static constexpr std::uint64_t kMinMeasuredRecords = 32;

  private:
    struct Entry
    {
        int decision = -1;
        std::uint64_t rawBytes = 0;
        std::uint64_t compactBytes = 0;
        std::uint64_t records = 0;
    };

    mutable Mutex mutex_;
    std::unordered_map<std::int32_t, Entry> entries_ GUARDED_BY(mutex_);
};

/**
 * The send-path compaction stage: rewrites whole flushed segments.
 * One instance per output stream (ParallelSender workers each own
 * one); per-class decisions are memoized locally and synchronized
 * with the context's WireEncodingCache at segment boundaries, and
 * metric deltas publish on destruction.
 */
class CompactEncoder
{
  public:
    CompactEncoder(SkywayContext &ctx, ObjectFormat wire_format);
    ~CompactEncoder();

    CompactEncoder(const CompactEncoder &) = delete;
    CompactEncoder &operator=(const CompactEncoder &) = delete;

    /**
     * Encode one flushed segment and hand the chosen representation
     * (compact, or the untouched input when nothing wins) to @p sink.
     */
    void encodeSegment(const std::uint8_t *data, std::size_t len,
                       const OutputBuffer::FlushFn &sink);

  private:
    int decisionFor(std::int32_t tid, const Klass *k);
    Klass *klassFor(std::int32_t tid);
    bool anyCompactClass(const std::uint8_t *data, std::size_t len);
    void buildCompact(const std::uint8_t *data, std::size_t len);
    void appendRecord(const std::uint8_t *rec, std::size_t size,
                      std::int32_t tid, const Klass *k, bool compact);
    void syncMeasured();

    SkywayContext &ctx_;
    ObjectFormat wireFmt_;
    WireCompactMode mode_;
    double minSavingPct_;
    std::vector<std::uint8_t> enc_;
    std::vector<std::uint8_t> out_;
    std::vector<std::uint8_t> rle_;
    std::unordered_map<std::int32_t, int> memo_;
    std::unordered_map<std::int32_t, Klass *> klassMemo_;

    struct Measured
    {
        std::uint64_t rawBytes = 0;
        std::uint64_t compactBytes = 0;
        std::uint64_t records = 0;
    };
    std::unordered_map<std::int32_t, Measured> measured_;

    // Unpublished metric deltas (published at destruction).
    std::uint64_t savedBytes_ = 0;
    std::uint64_t compactRecords_ = 0;
    std::uint64_t compactSegments_ = 0;
};

/**
 * Wrap @p sink with this stream's compaction stage. Returns @p sink
 * unchanged when the stage cannot win: mode Off, or an Auto-mode
 * link so fast that even a 100%-saving class would cost more CPU
 * than it buys (the "no CPU tax where bandwidth is free" guarantee).
 */
OutputBuffer::FlushFn compactStage(SkywayContext &ctx,
                                   ObjectFormat wire_format,
                                   OutputBuffer::FlushFn sink);

} // namespace skyway

#endif // SKYWAY_SKYWAY_WIRECOMPACT_HH
