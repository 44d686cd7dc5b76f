/**
 * @file
 * Wire framing for the TCP transport (the byte-level story, with
 * diagrams, is docs/TRANSPORT.md). Everything on a socket is
 * little-endian fixed-width fields (both ends are the same loopback
 * host; no varints on this path — headers must be parseable with a
 * fixed-size read).
 *
 * Connection handshake (sent once by the connecting side):
 *
 *     u32 magic 'SKYW' | i32 src node id
 *
 * Every connection is a pair connection: exactly one per node
 * pair carries every stream between the two nodes as tagged,
 * length-prefixed mux frames, in both directions. A stream is
 * identified by (sender, receiver, tag); on a pair connection the
 * endpoints are fixed, so the frame header only needs the writer's
 * node id (validation), the tag, and one argument word.
 *
 * Mux frame:     u8 kind | i32 origin | i32 tag | u32 arg
 *                kind 4 = stream data: origin is the writer (the
 *                stream's sender), arg is the payload length, and
 *                `arg` payload bytes follow (arg == 0 is the
 *                end-of-stream marker, no payload). It is the only
 *                mux kind: credit grants never cross the wire
 *                (docs/TRANSPORT.md §4), and request/reply never
 *                touches a socket (ClusterNetwork serves it).
 */

#ifndef SKYWAY_NET_FRAME_HH
#define SKYWAY_NET_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace skyway
{
namespace frame
{

constexpr std::uint32_t handshakeMagic = 0x534B5957; // "SKYW"

constexpr std::uint8_t kindStream = 4;

constexpr std::size_t handshakeBytes = 4 + 4;
constexpr std::size_t muxHeaderBytes = 1 + 4 + 4 + 4;

inline void
putU32(std::uint8_t *p, std::uint32_t v)
{
    std::memcpy(p, &v, 4);
}

inline std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline void
putI32(std::uint8_t *p, std::int32_t v)
{
    std::memcpy(p, &v, 4);
}

inline std::int32_t
getI32(const std::uint8_t *p)
{
    std::int32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

struct Handshake
{
    std::int32_t src;
};

inline void
encodeHandshake(std::uint8_t (&buf)[handshakeBytes], const Handshake &h)
{
    putU32(buf, handshakeMagic);
    putI32(buf + 4, h.src);
}

/** False when the magic does not match (not a Skyway peer). */
inline bool
decodeHandshake(const std::uint8_t (&buf)[handshakeBytes], Handshake &h)
{
    if (getU32(buf) != handshakeMagic)
        return false;
    h.src = getI32(buf + 4);
    return true;
}

/**
 * One multiplexed frame header on a pair connection: @p kind is
 * kindStream, @p origin the stream's sender and @p arg the payload
 * length (0 = end of stream).
 */
struct MuxHeader
{
    std::uint8_t kind;
    std::int32_t origin;
    std::int32_t tag;
    std::uint32_t arg;
};

inline void
encodeMuxHeader(std::uint8_t (&buf)[muxHeaderBytes], const MuxHeader &h)
{
    buf[0] = h.kind;
    putI32(buf + 1, h.origin);
    putI32(buf + 5, h.tag);
    putU32(buf + 9, h.arg);
}

inline MuxHeader
decodeMuxHeader(const std::uint8_t (&buf)[muxHeaderBytes])
{
    return MuxHeader{buf[0], getI32(buf + 1), getI32(buf + 5),
                     getU32(buf + 9)};
}

} // namespace frame
} // namespace skyway

#endif // SKYWAY_NET_FRAME_HH
