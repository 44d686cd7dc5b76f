/**
 * @file
 * SkywaySan wire-format validator (docs/SANITIZER.md).
 *
 * Skyway ships objects in heap format: there is no deserializer on the
 * receiving side to reject a malformed stream, so a single bad
 * relativized offset or forged type ID silently corrupts the receiving
 * heap. The WireValidator analyzes a flushed output-buffer stream
 * *without materializing it* and checks every invariant the format
 * promises (paper sections 4.1-4.3):
 *
 *  - every klass word resolves in the type registry;
 *  - every relativized reference offset lands on a decoded object
 *    start within the stream (a stream offset, markers included,
 *    compact segments at their expanded size);
 *  - top marks and backward references delimit well-formed root
 *    records;
 *  - the baddr header word is cleared on the wire (the sender's claim
 *    bits never leave the machine);
 *  - mark words carry only the transfer-surviving bits (the cached
 *    hashcode and its computed flag — mark::resetForTransfer);
 *  - object sizes and alignment match each klass's field layout, and
 *    no record spans a flushed segment.
 *
 * The validator is incremental: feed() consumes segments in flush
 * order (the same protocol as InputBuffer::feed) and finish() settles
 * the deferred checks (forward references, unterminated top marks).
 * It never panics on corrupt input — every violation becomes a
 * WireDiagnostic with a fault category and a stream offset, which is
 * what the corruption-injection harness (corrupt.hh) asserts against.
 */

#ifndef SKYWAY_SANITIZE_WIRECHECK_HH
#define SKYWAY_SANITIZE_WIRECHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "klass/objectformat.hh"
#include "support/types.hh"

namespace skyway
{

class Klass;
class TypeResolver;

namespace sanitize
{

/** Violation categories; each injected corruption class maps to one. */
enum class WireFault
{
    /** Marker bits set but neither a top mark nor a backward ref. */
    UnknownMarker,
    /** Klass word does not resolve in the type registry. */
    UnresolvableTypeId,
    /** A record (or marker operand) extends past its segment. */
    TruncatedRecord,
    /** Record size/alignment inconsistent with the klass layout. */
    MisalignedRecord,
    /** A reference slot does not name a decoded object start. */
    DanglingReference,
    /** Mark word carries bits that must not survive transfer. */
    BadMarkWord,
    /** Nonzero baddr word: sender claim state leaked onto the wire. */
    BadBaddrWord,
    /** Top mark / backward reference does not delimit a root record. */
    BadRootRecord,
    /**
     * A compact segment (docs/WIRE_FORMAT.md) is malformed: unknown
     * item tag, an item overrunning the declared payload, a length
     * that disagrees with the klass layout, or a truncated varint.
     */
    BadCompactItem,
};

const char *wireFaultName(WireFault f);

/** One violation, located by its physical (flushed-byte) offset. */
struct WireDiagnostic
{
    WireFault fault;
    std::uint64_t offset;
    std::string detail;

    /** "fault-name @+offset: detail" */
    std::string str() const;
};

struct WireCheckConfig
{
    /** The format records were laid out against (receiver format). */
    ObjectFormat wireFormat{};
    /** Stop collecting after this many diagnostics. */
    std::size_t maxDiagnostics = 16;
};

/** What a validated stream contained (cross-checkable with stats). */
struct WireSummary
{
    std::uint64_t records = 0;
    std::uint64_t topMarks = 0;
    std::uint64_t backRefs = 0;
    std::uint64_t refSlots = 0;
    /** Stream bytes at expanded sizes, markers included (equal to
     *  physicalBytes for a raw stream). */
    std::uint64_t logicalBytes = 0;
    /** All fed bytes, markers included. */
    std::uint64_t physicalBytes = 0;
};

/**
 * Byte map of a valid stream, built as a side product of validation.
 * The corruption harness uses it to aim precise mutations.
 */
struct WireIndex
{
    struct Record
    {
        std::uint64_t physOffset;
        std::uint64_t logOffset;
        std::size_t size;
        bool isArray;
    };

    std::vector<Record> records;
    /** Physical offsets of top-mark marker words. */
    std::vector<std::uint64_t> topMarkOffsets;
    /** Physical offsets of backward-reference marker words. */
    std::vector<std::uint64_t> backRefOffsets;
    /** Physical offsets of non-null reference slot words. */
    std::vector<std::uint64_t> refSlotOffsets;
    /** Physical offsets of compact item tag bytes (one per item). */
    std::vector<std::uint64_t> compactItemOffsets;
};

class WireValidator
{
  public:
    /**
     * @param resolver registry endpoint used to resolve klass words;
     *                 forged ids resolve to nullptr (never panic)
     * @param cfg      wire geometry and reporting limits
     */
    explicit WireValidator(TypeResolver &resolver,
                           WireCheckConfig cfg = WireCheckConfig{});

    /** Analyze one flushed segment (whole records, flush order). */
    void feed(const std::uint8_t *data, std::size_t len);

    /**
     * Settle deferred checks: every collected forward reference must
     * land on a decoded record start, and no top mark may be left
     * without its record. Idempotent; feeding may continue afterwards
     * (the sender validates at every flush).
     */
    void finish();

    bool ok() const { return diags_.empty(); }
    const std::vector<WireDiagnostic> &diagnostics() const
    {
        return diags_;
    }

    /** First diagnostic formatted, or "" when the stream is clean. */
    std::string firstFault() const;

    const WireSummary &summary() const { return sum_; }
    const WireIndex &index() const { return index_; }

  private:
    struct PendingRef
    {
        std::uint64_t target;     // logical offset the slot names
        std::uint64_t slotOffset; // physical offset of the slot word
    };

    void report(WireFault f, std::uint64_t off, std::string detail);
    bool isRecordStart(std::uint64_t logical) const;
    Klass *resolveTid(std::int32_t tid);
    /** Shared raw/compact accounting for markers and records. */
    void scanTopMark(std::uint64_t phys);
    void scanBackRef(std::uint64_t phys, std::uint64_t slot_phys,
                     Word slot);
    void endRecord(std::size_t size);
    /** Scan one record at @p rec; returns its size, 0 on fatal fault. */
    std::size_t scanRecord(const std::uint8_t *rec,
                           std::size_t remaining,
                           std::uint64_t phys_off);

    /**
     * Scan one compact segment (marker + varint payload length +
     * tagged items) at @p data, validating each item against the
     * same invariants the raw scan enforces and accounting records
     * at their *expanded* logical sizes, so references between raw
     * and compact segments of one stream cross-check. Returns the
     * consumed wire bytes, 0 on a fatal fault. Never panics — this
     * is the veto the receiver's expander relies on.
     */
    std::size_t scanCompactSegment(const std::uint8_t *data,
                                   std::size_t remaining,
                                   std::uint64_t phys_off);

    TypeResolver &resolver_;
    WireCheckConfig cfg_;

    std::vector<WireDiagnostic> diags_;
    WireSummary sum_;
    WireIndex index_;

    /** Logical offsets of decoded record starts (ascending). */
    std::vector<std::uint64_t> recordStarts_;
    std::vector<PendingRef> pendingRefs_;

    std::uint64_t physical_ = 0;
    std::uint64_t logical_ = 0;

    /** A top mark was scanned and its record has not yet followed. */
    bool awaitingTopRecord_ = false;
    std::uint64_t awaitingTopOffset_ = 0;

    /** Dense tid -> klass cache (mirrors InputBuffer's). */
    std::vector<Klass *> tidCache_;
};

} // namespace sanitize
} // namespace skyway

#endif // SKYWAY_SANITIZE_WIRECHECK_HH
