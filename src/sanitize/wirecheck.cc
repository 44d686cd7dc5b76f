#include "sanitize/wirecheck.hh"

#include <algorithm>
#include <cstring>

#include "klass/klass.hh"
#include "skyway/baddr.hh"
#include "skyway/wirecompact.hh"
#include "support/logging.hh"
#include "typereg/registry.hh"

namespace skyway
{
namespace sanitize
{

namespace
{

Word
wordAt(const std::uint8_t *p)
{
    Word w;
    std::memcpy(&w, p, wordSize);
    return w;
}

/** An array length past this is corruption, not data (2^40 elements
 *  would overflow the 40-bit relative address space by itself). */
constexpr std::uint64_t maxPlausibleArrayLength = 1ull << 40;

/**
 * Bounds-checked compact-payload reader. Unlike the receiver
 * expander's cursor this one never panics: any overrun or truncated
 * varint sets fail and the scanner turns it into a diagnostic.
 */
struct SafeCursor
{
    const std::uint8_t *p;
    std::size_t len;
    std::size_t off = 0;
    bool fail = false;

    bool
    atEnd() const
    {
        return fail || off >= len;
    }

    bool
    u8(std::uint8_t &out)
    {
        if (fail || off >= len) {
            fail = true;
            return false;
        }
        out = p[off++];
        return true;
    }

    bool
    varU64(std::uint64_t &out)
    {
        out = 0;
        unsigned shift = 0;
        while (true) {
            if (fail || off >= len || shift >= 64) {
                fail = true;
                return false;
            }
            std::uint8_t b = p[off++];
            out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return true;
            shift += 7;
        }
    }

    const std::uint8_t *
    bytes(std::size_t n)
    {
        if (fail || len - off < n) {
            fail = true;
            return nullptr;
        }
        const std::uint8_t *r = p + off;
        off += n;
        return r;
    }
};

} // namespace

const char *
wireFaultName(WireFault f)
{
    switch (f) {
    case WireFault::UnknownMarker:
        return "unknown-marker";
    case WireFault::UnresolvableTypeId:
        return "unresolvable-type-id";
    case WireFault::TruncatedRecord:
        return "truncated-record";
    case WireFault::MisalignedRecord:
        return "misaligned-record";
    case WireFault::DanglingReference:
        return "dangling-reference";
    case WireFault::BadMarkWord:
        return "bad-mark-word";
    case WireFault::BadBaddrWord:
        return "bad-baddr-word";
    case WireFault::BadRootRecord:
        return "bad-root-record";
    case WireFault::BadCompactItem:
        return "bad-compact-item";
    }
    return "?";
}

std::string
WireDiagnostic::str() const
{
    return std::string(wireFaultName(fault)) + " @+" +
           std::to_string(offset) + ": " + detail;
}

WireValidator::WireValidator(TypeResolver &resolver, WireCheckConfig cfg)
    : resolver_(resolver), cfg_(cfg)
{
}

void
WireValidator::report(WireFault f, std::uint64_t off, std::string detail)
{
    if (diags_.size() < cfg_.maxDiagnostics)
        diags_.push_back(WireDiagnostic{f, off, std::move(detail)});
}

bool
WireValidator::isRecordStart(std::uint64_t logical) const
{
    return std::binary_search(recordStarts_.begin(), recordStarts_.end(),
                              logical);
}

Klass *
WireValidator::resolveTid(std::int32_t tid)
{
    if (tid < 0)
        return nullptr;
    auto idx = static_cast<std::size_t>(tid);
    if (idx < tidCache_.size() && tidCache_[idx])
        return tidCache_[idx];
    Klass *k = resolver_.tryKlassForId(tid);
    if (!k)
        return nullptr;
    if (idx >= tidCache_.size())
        tidCache_.resize(idx + 1, nullptr);
    tidCache_[idx] = k;
    return k;
}

std::size_t
WireValidator::scanRecord(const std::uint8_t *rec, std::size_t remaining,
                          std::uint64_t phys_off)
{
    const ObjectFormat &wf = cfg_.wireFormat;

    if (remaining < wf.headerBytes()) {
        report(WireFault::TruncatedRecord, phys_off,
               "segment ends inside a record header (" +
                   std::to_string(remaining) + " of " +
                   std::to_string(wf.headerBytes()) + " header bytes)");
        return 0;
    }

    // Mark word: only the cached hashcode survives transfer
    // (mark::resetForTransfer); anything else is machine-local state
    // that must not be on the wire.
    Word m = wordAt(rec + offsetMark);
    if ((m & ~(mark::hashMask | mark::hashComputedBit)) != 0)
        report(WireFault::BadMarkWord, phys_off + offsetMark,
               "mark word carries non-transfer bits (lock/GC/age or "
               "reserved)");
    else if (!mark::hasHash(m) && (m & mark::hashMask) != 0)
        report(WireFault::BadMarkWord, phys_off + offsetMark,
               "hash bits present without the hash-computed flag");

    // Klass word: a wire type id, which must resolve in the registry.
    Word tid_word = wordAt(rec + offsetKlass);
    if (tid_word > 0x7fffffffull) {
        report(WireFault::UnresolvableTypeId, phys_off + offsetKlass,
               "klass word " + std::to_string(tid_word) +
                   " is not a type id");
        return 0;
    }
    Klass *k = resolveTid(static_cast<std::int32_t>(tid_word));
    if (!k) {
        report(WireFault::UnresolvableTypeId, phys_off + offsetKlass,
               "type id " + std::to_string(tid_word) +
                   " is not in the registry");
        return 0;
    }

    // Baddr word: the sender's claim state never leaves the machine.
    if (wf.hasBaddr) {
        Word b = wordAt(rec + offsetBaddr);
        if (b != 0)
            report(WireFault::BadBaddrWord, phys_off + offsetBaddr,
                   "baddr not cleared on the wire (sid=" +
                       std::to_string(baddr::sidOf(b)) + " tid=" +
                       std::to_string(baddr::tidOf(b)) + " rel=" +
                       std::to_string(baddr::relOf(b)) + ")");
    }

    // Size from the klass layout. A heterogeneous-format sender has
    // already rewritten the record into the wire format, so instance
    // sizes shift by the header delta and arrays are computed directly
    // against the wire geometry.
    std::ptrdiff_t delta =
        static_cast<std::ptrdiff_t>(k->format().headerBytes()) -
        static_cast<std::ptrdiff_t>(wf.headerBytes());
    std::size_t size = 0;
    std::uint64_t array_len = 0;
    if (k->isArray()) {
        if (remaining < wf.arrayHeaderBytes()) {
            report(WireFault::TruncatedRecord, phys_off,
                   "segment ends inside an array header");
            return 0;
        }
        array_len = wordAt(rec + wf.arrayLengthOffset());
        if (array_len > maxPlausibleArrayLength) {
            report(WireFault::MisalignedRecord,
                   phys_off + wf.arrayLengthOffset(),
                   "implausible array length " +
                       std::to_string(array_len) + " for " + k->name());
            return 0;
        }
        size = wordAlign(wf.arrayHeaderBytes() +
                         static_cast<std::size_t>(array_len) *
                             k->elemSize());
    } else {
        size = static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>(k->instanceBytes()) - delta);
    }

    if (size % wordSize != 0 || size < wf.headerBytes()) {
        report(WireFault::MisalignedRecord, phys_off,
               k->name() + " record size " + std::to_string(size) +
                   " is not a word-aligned object size");
        return 0;
    }
    if (size > remaining) {
        report(WireFault::TruncatedRecord, phys_off,
               k->name() + " record needs " + std::to_string(size) +
                   " bytes, segment has " + std::to_string(remaining));
        return 0;
    }

    // Reference slots: collect for the deferred (forward-reference)
    // check. Slot offsets are laid out against the klass's own format;
    // shift by the header delta to land on the wire offsets.
    auto noteSlot = [&](std::size_t wire_off) {
        Word slot = wordAt(rec + wire_off);
        if (slot == 0)
            return;
        pendingRefs_.push_back(
            PendingRef{slot - 1, phys_off + wire_off});
        index_.refSlotOffsets.push_back(phys_off + wire_off);
        ++sum_.refSlots;
    };
    if (k->isArray()) {
        if (k->elemType() == FieldType::Ref) {
            std::size_t base = wf.arrayHeaderBytes();
            for (std::uint64_t i = 0; i < array_len; ++i)
                noteSlot(base + static_cast<std::size_t>(i) * wordSize);
        }
    } else {
        for (std::uint32_t off : k->refOffsets())
            noteSlot(static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(off) - delta));
    }

    index_.records.push_back(
        WireIndex::Record{phys_off, logical_, size, k->isArray()});
    return size;
}

void
WireValidator::scanTopMark(std::uint64_t phys)
{
    if (awaitingTopRecord_)
        report(WireFault::BadRootRecord, phys,
               "duplicated top mark: previous top mark at +" +
                   std::to_string(awaitingTopOffset_) + " has no record");
    awaitingTopRecord_ = true;
    awaitingTopOffset_ = phys;
    index_.topMarkOffsets.push_back(phys);
    ++sum_.topMarks;
    logical_ += wordSize;
}

void
WireValidator::scanBackRef(std::uint64_t phys, std::uint64_t slot_phys,
                           Word slot)
{
    if (awaitingTopRecord_) {
        report(WireFault::BadRootRecord, phys,
               "top mark at +" + std::to_string(awaitingTopOffset_) +
                   " followed by a marker, not a record");
        awaitingTopRecord_ = false;
    }
    // Backward references name objects decoded earlier in this
    // stream, so the check is immediate.
    if (slot != 0 && !isRecordStart(slot - 1))
        report(WireFault::BadRootRecord, slot_phys,
               "backward root reference " + std::to_string(slot - 1) +
                   " is not a decoded object start");
    index_.backRefOffsets.push_back(phys);
    ++sum_.backRefs;
    logical_ += 2 * wordSize;
}

void
WireValidator::endRecord(std::size_t size)
{
    recordStarts_.push_back(logical_);
    awaitingTopRecord_ = false;
    ++sum_.records;
    logical_ += size;
}

std::size_t
WireValidator::scanCompactSegment(const std::uint8_t *data,
                                  std::size_t remaining,
                                  std::uint64_t phys_off)
{
    const ObjectFormat &wf = cfg_.wireFormat;

    SafeCursor pre{data + wordSize, remaining - wordSize};
    std::uint64_t payload_len = 0;
    if (!pre.varU64(payload_len)) {
        report(WireFault::BadCompactItem, phys_off,
               "compact segment preamble truncated");
        return 0;
    }
    std::size_t head = wordSize + pre.off;
    if (payload_len > remaining - head) {
        report(WireFault::TruncatedRecord, phys_off,
               "compact segment payload (" +
                   std::to_string(payload_len) +
                   " bytes) overruns the segment");
        return 0;
    }

    // The shared accounting below (recordStarts_, logical_, pending
    // references, top-mark pairing) uses *expanded* sizes (records,
    // and 8 or 16 bytes per marker), so raw and compact segments of
    // one stream cross-check seamlessly.
    SafeCursor cur{data + head, static_cast<std::size_t>(payload_len)};
    auto itemFault = [&](std::uint64_t at, const std::string &what) {
        report(WireFault::BadCompactItem, at, what);
        return static_cast<std::size_t>(0);
    };
    while (!cur.atEnd()) {
        std::uint64_t item_phys = phys_off + head + cur.off;
        std::uint8_t tag = 0;
        cur.u8(tag);
        index_.compactItemOffsets.push_back(item_phys);

        if (tag == wire::ctTopMark) {
            scanTopMark(item_phys);
            continue;
        }
        if (tag == wire::ctBackRef) {
            std::uint64_t slot = 0;
            if (!cur.varU64(slot))
                return itemFault(item_phys,
                                 "backward reference missing its "
                                 "slot varint");
            scanBackRef(item_phys, item_phys, slot);
            continue;
        }

        std::size_t size = 0;
        bool is_array = false;
        if (tag == wire::ctRawRecord) {
            std::uint64_t raw_len = 0;
            if (!cur.varU64(raw_len))
                return itemFault(item_phys,
                                 "raw item missing its length varint");
            std::uint64_t rec_phys = phys_off + head + cur.off;
            const std::uint8_t *rec =
                cur.bytes(static_cast<std::size_t>(raw_len));
            if (!rec)
                return itemFault(item_phys,
                                 "raw item overruns the compact "
                                 "payload");
            size = scanRecord(rec, static_cast<std::size_t>(raw_len),
                              rec_phys);
            if (size == 0)
                return 0;
            if (size != raw_len)
                return itemFault(
                    item_phys, "raw item length " +
                                   std::to_string(raw_len) +
                                   " does not match the record size " +
                                   std::to_string(size));
            // scanRecord indexed the record and queued its slots.
            is_array = index_.records.back().isArray;
        } else if (tag == wire::ctInstance ||
                   tag == wire::ctPrimArray ||
                   tag == wire::ctRefArray ||
                   tag == wire::ctPrimArrayRle) {
            std::uint64_t tid = 0, m = 0;
            if (!cur.varU64(tid) || !cur.varU64(m))
                return itemFault(item_phys,
                                 "compact record header truncated");
            if (tid > 0x7fffffffull) {
                report(WireFault::UnresolvableTypeId, item_phys,
                       "compact type id " + std::to_string(tid) +
                           " is not a type id");
                return 0;
            }
            Klass *k = resolveTid(static_cast<std::int32_t>(tid));
            if (!k) {
                report(WireFault::UnresolvableTypeId, item_phys,
                       "compact type id " + std::to_string(tid) +
                           " is not in the registry");
                return 0;
            }
            if ((m & ~(mark::hashMask | mark::hashComputedBit)) != 0)
                report(WireFault::BadMarkWord, item_phys,
                       "compact mark carries non-transfer bits");
            else if (!mark::hasHash(m) && (m & mark::hashMask) != 0)
                report(WireFault::BadMarkWord, item_phys,
                       "hash bits present without the hash-computed "
                       "flag");

            if (tag == wire::ctInstance) {
                if (k->isArray())
                    return itemFault(item_phys,
                                     "instance tag with array class " +
                                         k->name());
                std::ptrdiff_t delta =
                    static_cast<std::ptrdiff_t>(
                        k->format().headerBytes()) -
                    static_cast<std::ptrdiff_t>(wf.headerBytes());
                size = static_cast<std::size_t>(
                    static_cast<std::ptrdiff_t>(k->instanceBytes()) -
                    delta);
                for (const FieldDesc &f : k->fields()) {
                    if (f.type == FieldType::Ref) {
                        std::uint64_t slot_phys =
                            phys_off + head + cur.off;
                        std::uint64_t slot = 0;
                        if (!cur.varU64(slot))
                            return itemFault(
                                item_phys,
                                k->name() +
                                    " instance item truncated");
                        if (slot != 0) {
                            pendingRefs_.push_back(
                                PendingRef{slot - 1, slot_phys});
                            index_.refSlotOffsets.push_back(slot_phys);
                            ++sum_.refSlots;
                        }
                    } else if (!cur.bytes(fieldSize(f.type))) {
                        return itemFault(item_phys,
                                         k->name() +
                                             " instance item "
                                             "truncated");
                    }
                }
            } else {
                is_array = true;
                std::uint64_t n = 0;
                if (!cur.varU64(n))
                    return itemFault(item_phys,
                                     "compact array missing its "
                                     "length varint");
                if (n > maxPlausibleArrayLength) {
                    report(WireFault::MisalignedRecord, item_phys,
                           "implausible array length " +
                               std::to_string(n) + " for " +
                               k->name());
                    return 0;
                }
                if (!k->isArray())
                    return itemFault(item_phys,
                                     "array tag with non-array "
                                     "class " +
                                         k->name());
                bool is_ref = k->elemType() == FieldType::Ref;
                if ((tag == wire::ctRefArray) != is_ref)
                    return itemFault(item_phys,
                                     "array tag does not match " +
                                         k->name() +
                                         "'s element type");
                size = wordAlign(wf.arrayHeaderBytes() +
                                 static_cast<std::size_t>(n) *
                                     k->elemSize());
                if (tag == wire::ctRefArray) {
                    for (std::uint64_t i = 0; i < n; ++i) {
                        std::uint64_t slot_phys =
                            phys_off + head + cur.off;
                        std::uint64_t slot = 0;
                        if (!cur.varU64(slot))
                            return itemFault(item_phys,
                                             "reference array item "
                                             "truncated");
                        if (slot != 0) {
                            pendingRefs_.push_back(
                                PendingRef{slot - 1, slot_phys});
                            index_.refSlotOffsets.push_back(slot_phys);
                            ++sum_.refSlots;
                        }
                    }
                } else if (tag == wire::ctPrimArray) {
                    if (!cur.bytes(static_cast<std::size_t>(n) *
                                   k->elemSize()))
                        return itemFault(item_phys,
                                         "primitive array payload "
                                         "overruns the compact "
                                         "payload");
                } else {
                    std::size_t total =
                        static_cast<std::size_t>(n) * k->elemSize();
                    std::size_t got = 0;
                    while (got < total) {
                        std::uint64_t lit = 0, zeros = 0;
                        if (!cur.varU64(lit) || got + lit > total ||
                            !cur.bytes(static_cast<std::size_t>(lit)))
                            return itemFault(item_phys,
                                             "RLE literal run "
                                             "overruns the array");
                        got += static_cast<std::size_t>(lit);
                        if (!cur.varU64(zeros) || got + zeros > total)
                            return itemFault(item_phys,
                                             "RLE zero run overruns "
                                             "the array");
                        got += static_cast<std::size_t>(zeros);
                    }
                }
            }
            index_.records.push_back(WireIndex::Record{
                item_phys, logical_, size, is_array});
        } else {
            return itemFault(item_phys, "unknown compact item tag " +
                                            std::to_string(tag));
        }

        endRecord(size);
    }
    return head + static_cast<std::size_t>(payload_len);
}

void
WireValidator::feed(const std::uint8_t *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        if (diags_.size() >= cfg_.maxDiagnostics)
            break;
        std::uint64_t phys = physical_ + off;
        std::size_t remaining = len - off;
        if (remaining < wordSize) {
            report(WireFault::TruncatedRecord, phys,
                   "segment tail smaller than one word");
            break;
        }

        Word first = wordAt(data + off);
        if (marker::isMarker(first)) {
            if (first == marker::compactSeg) {
                std::size_t used =
                    scanCompactSegment(data + off, remaining, phys);
                if (used == 0)
                    break; // fatal: cannot re-synchronize
                off += used;
                continue;
            }
            if (first == marker::topMark) {
                scanTopMark(phys);
                off += wordSize;
                continue;
            }
            if (first == marker::backRef) {
                if (remaining < 2 * wordSize) {
                    report(WireFault::TruncatedRecord, phys,
                           "backward reference missing its slot word");
                    break;
                }
                scanBackRef(phys, phys + wordSize,
                            wordAt(data + off + wordSize));
                off += 2 * wordSize;
                continue;
            }
            report(WireFault::UnknownMarker, phys,
                   "marker bits set but word " + std::to_string(first) +
                       " is neither a top mark nor a backward "
                       "reference");
            break;
        }

        std::size_t size = scanRecord(data + off, remaining, phys);
        if (size == 0)
            break; // fatal: cannot re-synchronize within this segment
        endRecord(size);
        off += size;
    }
    physical_ += len;
    sum_.physicalBytes = physical_;
    sum_.logicalBytes = logical_;
}

void
WireValidator::finish()
{
    for (const PendingRef &p : pendingRefs_) {
        if (p.target >= logical_)
            report(WireFault::DanglingReference, p.slotOffset,
                   "reference " + std::to_string(p.target) +
                       " is outside [0, " + std::to_string(logical_) +
                       ")");
        else if (!isRecordStart(p.target))
            report(WireFault::DanglingReference, p.slotOffset,
                   "reference " + std::to_string(p.target) +
                       " does not land on a decoded object start");
    }
    pendingRefs_.clear();
    if (awaitingTopRecord_) {
        report(WireFault::BadRootRecord, awaitingTopOffset_,
               "top mark at end of stream has no record");
        awaitingTopRecord_ = false;
    }
}

std::string
WireValidator::firstFault() const
{
    return diags_.empty() ? std::string() : diags_.front().str();
}

} // namespace sanitize
} // namespace skyway
