/**
 * @file
 * Encoding of the Skyway `baddr` header word (paper sections 4.2 and
 * its "Support for Threads" discussion):
 *
 *     byte  7      shuffle-phase id (sID)
 *     bytes 5..6   sending stream/thread id
 *     bytes 0..4   relative address of the object's clone in that
 *                  stream's output buffer (40 bits)
 *
 * A baddr is *valid* only when its sID equals the current shuffle
 * phase; contents from earlier phases are stale by construction, so
 * the word never needs clearing between phases.
 */

#ifndef SKYWAY_SKYWAY_BADDR_HH
#define SKYWAY_SKYWAY_BADDR_HH

#include <cstdint>

#include "support/types.hh"

namespace skyway
{
namespace baddr
{

constexpr int sidShift = 56;
constexpr int tidShift = 40;
constexpr Word relMask = (1ull << 40) - 1;
constexpr Word tidMask = 0xffffull << tidShift;

/** Largest relative buffer address representable (40 bits = 1 TB). */
constexpr std::uint64_t maxRel = relMask;

constexpr Word
compose(std::uint8_t sid, std::uint16_t tid, std::uint64_t rel)
{
    return (static_cast<Word>(sid) << sidShift) |
           (static_cast<Word>(tid) << tidShift) | (rel & relMask);
}

constexpr std::uint8_t
sidOf(Word w)
{
    return static_cast<std::uint8_t>(w >> sidShift);
}

constexpr std::uint16_t
tidOf(Word w)
{
    return static_cast<std::uint16_t>((w & tidMask) >> tidShift);
}

constexpr std::uint64_t
relOf(Word w)
{
    return w & relMask;
}

} // namespace baddr

/**
 * In-buffer marker words (the paper's "top marks" and backward
 * references). Both set the mark word's reserved top bits, which are
 * zero in every real object header (see objectformat.hh), so a
 * receiver scanning the stream at record boundaries can never confuse
 * a marker with an object's mark word. Markers take stream space like
 * records, so a relative address is the record's stream offset.
 */
namespace marker
{

constexpr Word reserved = 0x3ull << 62;

/** The next record in the stream is a top-level object. */
constexpr Word topMark = reserved | 0x70AD;

/**
 * A top-level object that was already copied earlier in this phase;
 * one slot word follows (0 = null root, else stream offset + 1).
 */
constexpr Word backRef = reserved | 0xBACF;

/**
 * A compact-encoded segment follows (docs/WIRE_FORMAT.md): a varint
 * payload length and then tagged compact items, re-expanded to full
 * heap format by the receiver's linear scan. Never appears inside a
 * raw record run — only at a segment boundary.
 */
constexpr Word compactSeg = reserved | 0xC0DE;

constexpr bool
isMarker(Word w)
{
    return (w & reserved) == reserved;
}

} // namespace marker
} // namespace skyway

#endif // SKYWAY_SKYWAY_BADDR_HH
