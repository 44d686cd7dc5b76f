#include "sanitize/corrupt.hh"

#include <cstring>

#include "skyway/baddr.hh"
#include "skyway/wirecompact.hh"
#include "support/logging.hh"

namespace skyway
{
namespace sanitize
{

namespace
{

Word
readWord(const std::vector<std::uint8_t> &v, std::uint64_t off)
{
    Word w;
    std::memcpy(&w, v.data() + off, wordSize);
    return w;
}

void
writeWord(std::vector<std::uint8_t> &v, std::uint64_t off, Word w)
{
    std::memcpy(v.data() + off, &w, wordSize);
}

void
insertWord(std::vector<std::uint8_t> &v, std::uint64_t off, Word w)
{
    std::uint8_t bytes[wordSize];
    std::memcpy(bytes, &w, wordSize);
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(off), bytes,
             bytes + wordSize);
}

template <typename T>
const T &
pick(const std::vector<T> &v, Rng &rng, const char *what)
{
    if (v.empty())
        panic(std::string("injectCorruption: stream has no ") + what);
    return v[rng.nextBounded(v.size())];
}

} // namespace

const char *
corruptionKindName(CorruptionKind kind)
{
    switch (kind) {
    case CorruptionKind::ForgedTypeId:
        return "forged-type-id";
    case CorruptionKind::DanglingOffset:
        return "dangling-offset";
    case CorruptionKind::Truncation:
        return "truncation";
    case CorruptionKind::DuplicatedTopMark:
        return "duplicated-top-mark";
    case CorruptionKind::ClobberedMark:
        return "clobbered-mark";
    case CorruptionKind::StaleBaddr:
        return "stale-baddr";
    case CorruptionKind::BogusMarker:
        return "bogus-marker";
    case CorruptionKind::HeaderBitFlip:
        return "header-bit-flip";
    case CorruptionKind::CompactTruncation:
        return "compact-truncation";
    case CorruptionKind::CompactBadTag:
        return "compact-bad-tag";
    case CorruptionKind::CompactForgedTypeId:
        return "compact-forged-type-id";
    }
    return "?";
}

const std::vector<CorruptionKind> &
allCorruptionKinds()
{
    static const std::vector<CorruptionKind> kinds = {
        CorruptionKind::ForgedTypeId,    CorruptionKind::DanglingOffset,
        CorruptionKind::Truncation,      CorruptionKind::DuplicatedTopMark,
        CorruptionKind::ClobberedMark,   CorruptionKind::StaleBaddr,
        CorruptionKind::BogusMarker,     CorruptionKind::HeaderBitFlip,
    };
    return kinds;
}

const std::vector<CorruptionKind> &
compactCorruptionKinds()
{
    static const std::vector<CorruptionKind> kinds = {
        CorruptionKind::CompactTruncation,
        CorruptionKind::CompactBadTag,
        CorruptionKind::CompactForgedTypeId,
    };
    return kinds;
}

WireIndex
indexStream(TypeResolver &resolver, const WireCheckConfig &cfg,
            const std::vector<std::uint8_t> &stream)
{
    WireValidator v(resolver, cfg);
    if (!stream.empty())
        v.feed(stream.data(), stream.size());
    v.finish();
    if (!v.ok())
        panic("indexStream: stream is not clean: " + v.firstFault());
    return v.index();
}

std::vector<std::uint8_t>
injectCorruption(const WireIndex &index, const WireCheckConfig &cfg,
                 std::vector<std::uint8_t> stream, CorruptionKind kind,
                 Rng &rng)
{
    switch (kind) {
    case CorruptionKind::ForgedTypeId: {
        // An id far past anything a registry of loaded classes could
        // have assigned.
        const auto &r = pick(index.records, rng, "records");
        writeWord(stream, r.physOffset + offsetKlass,
                  0x7f000000ull + rng.nextBounded(1u << 20));
        break;
    }
    case CorruptionKind::DanglingOffset: {
        std::uint64_t slot_off =
            pick(index.refSlotOffsets, rng, "reference slots");
        // Either escape the logical address space (a raw stream's
        // size: markers count) entirely or land mid-object (record
        // headers are >= 2 words, so start + one word is never an
        // object start).
        std::uint64_t target =
            (rng.nextBounded(2) == 0)
                ? stream.size() + wordSize * (1 + rng.nextBounded(1024))
                : pick(index.records, rng, "records").logOffset +
                      wordSize;
        writeWord(stream, slot_off, target + 1);
        break;
    }
    case CorruptionKind::Truncation: {
        const auto &r = pick(index.records, rng, "records");
        std::uint64_t cut =
            r.physOffset + 1 + rng.nextBounded(r.size - 1);
        stream.resize(static_cast<std::size_t>(cut));
        break;
    }
    case CorruptionKind::DuplicatedTopMark: {
        std::uint64_t off = pick(index.topMarkOffsets, rng, "top marks");
        insertWord(stream, off, marker::topMark);
        break;
    }
    case CorruptionKind::ClobberedMark: {
        // Lock, GC-mark, and age bits are machine-local and must be
        // zero on the wire.
        const auto &r = pick(index.records, rng, "records");
        Word m = readWord(stream, r.physOffset + offsetMark);
        writeWord(stream, r.physOffset + offsetMark,
                  m | (1ull << rng.nextBounded(6)));
        break;
    }
    case CorruptionKind::StaleBaddr: {
        panicIf(!cfg.wireFormat.hasBaddr,
                "StaleBaddr needs a baddr word in the wire format");
        const auto &r = pick(index.records, rng, "records");
        writeWord(stream, r.physOffset + offsetBaddr,
                  baddr::compose(
                      static_cast<std::uint8_t>(1 + rng.nextBounded(255)),
                      static_cast<std::uint16_t>(rng.nextBounded(65536)),
                      rng.nextBounded(baddr::maxRel)));
        break;
    }
    case CorruptionKind::BogusMarker: {
        // Both reserved bits set, but neither marker code: a word no
        // real object header and no marker can produce.
        const auto &r = pick(index.records, rng, "records");
        insertWord(stream, r.physOffset,
                   marker::reserved | (0x1000 + rng.nextBounded(0x1000)));
        break;
    }
    case CorruptionKind::HeaderBitFlip: {
        // Restricted to bits whose flip is guaranteed detectable:
        // mark-word bits that must be zero on the wire, any baddr bit,
        // or a klass-word bit high enough to leave the id range.
        const auto &r = pick(index.records, rng, "records");
        std::size_t words = cfg.wireFormat.hasBaddr ? 3 : 2;
        switch (rng.nextBounded(words)) {
        case 0: {
            static const int bits[] = {0, 1, 2, 3, 4, 5, 62, 63};
            Word m = readWord(stream, r.physOffset + offsetMark);
            writeWord(stream, r.physOffset + offsetMark,
                      m ^ (1ull << bits[rng.nextBounded(8)]));
            break;
        }
        case 1: {
            int bit = 31 + static_cast<int>(rng.nextBounded(32));
            Word k = readWord(stream, r.physOffset + offsetKlass);
            writeWord(stream, r.physOffset + offsetKlass,
                      k ^ (1ull << bit));
            break;
        }
        default: {
            Word b = readWord(stream, r.physOffset + offsetBaddr);
            writeWord(stream, r.physOffset + offsetBaddr,
                      b ^ (1ull << rng.nextBounded(64)));
            break;
        }
        }
        break;
    }
    case CorruptionKind::CompactTruncation: {
        // Cut the stream at or after a compact item: the enclosing
        // segment's declared payload length now overruns the bytes
        // that remain (or the preamble itself is gone).
        std::uint64_t off =
            pick(index.compactItemOffsets, rng, "compact items");
        std::uint64_t cut =
            off + rng.nextBounded(stream.size() - off);
        stream.resize(static_cast<std::size_t>(cut));
        break;
    }
    case CorruptionKind::CompactBadTag: {
        // A tag byte no encoder emits (valid tags are 0x01..0x07).
        std::uint64_t off =
            pick(index.compactItemOffsets, rng, "compact items");
        stream[static_cast<std::size_t>(off)] = static_cast<std::uint8_t>(
            0x10 + rng.nextBounded(0xe0));
        break;
    }
    case CorruptionKind::CompactForgedTypeId: {
        // Splice a 5-byte varint of an id no registry ever assigned
        // over the tid varint of a compact record item. The scan
        // stops at the forged item, so the byte-count change behind
        // it never matters.
        std::vector<std::uint64_t> sites;
        for (std::uint64_t off : index.compactItemOffsets) {
            std::uint8_t tag = stream[static_cast<std::size_t>(off)];
            if (tag >= wire::ctInstance && tag <= wire::ctPrimArrayRle)
                sites.push_back(off);
        }
        std::uint64_t off = pick(sites, rng, "compact records");
        std::size_t tid_at = static_cast<std::size_t>(off) + 1;
        std::size_t tid_len = 1;
        while (stream[tid_at + tid_len - 1] & 0x80)
            ++tid_len;
        std::vector<std::uint8_t> forged;
        wire::putVarU64(forged,
                        0x7f000000ull + rng.nextBounded(1u << 20));
        stream.erase(stream.begin() +
                         static_cast<std::ptrdiff_t>(tid_at),
                     stream.begin() +
                         static_cast<std::ptrdiff_t>(tid_at + tid_len));
        stream.insert(stream.begin() +
                          static_cast<std::ptrdiff_t>(tid_at),
                      forged.begin(), forged.end());
        break;
    }
    }
    return stream;
}

const std::vector<WireFault> &
expectedFaults(CorruptionKind kind)
{
    static const std::vector<WireFault> forged = {
        WireFault::UnresolvableTypeId};
    static const std::vector<WireFault> dangling = {
        WireFault::DanglingReference};
    static const std::vector<WireFault> truncated = {
        WireFault::TruncatedRecord};
    static const std::vector<WireFault> root = {WireFault::BadRootRecord};
    static const std::vector<WireFault> markw = {WireFault::BadMarkWord};
    static const std::vector<WireFault> baddrw = {
        WireFault::BadBaddrWord};
    static const std::vector<WireFault> markerw = {
        WireFault::UnknownMarker};
    static const std::vector<WireFault> flip = {
        WireFault::BadMarkWord, WireFault::UnresolvableTypeId,
        WireFault::BadBaddrWord};
    static const std::vector<WireFault> compactCut = {
        WireFault::TruncatedRecord, WireFault::BadCompactItem};
    static const std::vector<WireFault> compactItem = {
        WireFault::BadCompactItem};
    switch (kind) {
    case CorruptionKind::ForgedTypeId:
        return forged;
    case CorruptionKind::DanglingOffset:
        return dangling;
    case CorruptionKind::Truncation:
        return truncated;
    case CorruptionKind::DuplicatedTopMark:
        return root;
    case CorruptionKind::ClobberedMark:
        return markw;
    case CorruptionKind::StaleBaddr:
        return baddrw;
    case CorruptionKind::BogusMarker:
        return markerw;
    case CorruptionKind::HeaderBitFlip:
        return flip;
    case CorruptionKind::CompactTruncation:
        return compactCut;
    case CorruptionKind::CompactBadTag:
        return compactItem;
    case CorruptionKind::CompactForgedTypeId:
        return forged;
    }
    return flip;
}

} // namespace sanitize
} // namespace skyway
