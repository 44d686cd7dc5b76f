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
 *     u32 magic 'SKYW' | u8 channel (0 = data, 1 = control)
 *     | i32 src node id | i32 reserved (0)
 *
 * The data plane is *multiplexed*: exactly one connection per node
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
 *                (docs/TRANSPORT.md §4).
 * Control frame: u8 kind (2 = request, 3 = reply) | i32 src
 *                | i32 tag | u32 reqId | u32 len | payload.
 *                reqId lets a requester that timed out and resent
 *                discard the stale earlier reply.
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

constexpr std::uint8_t channelData = 0;
constexpr std::uint8_t channelControl = 1;

constexpr std::uint8_t kindRequest = 2;
constexpr std::uint8_t kindReply = 3;
constexpr std::uint8_t kindStream = 4;

constexpr std::size_t handshakeBytes = 4 + 1 + 4 + 4;
constexpr std::size_t muxHeaderBytes = 1 + 4 + 4 + 4;
constexpr std::size_t controlHeaderBytes = 1 + 4 + 4 + 4 + 4;

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
    std::uint8_t channel;
    std::int32_t src;
};

inline void
encodeHandshake(std::uint8_t (&buf)[handshakeBytes], const Handshake &h)
{
    putU32(buf, handshakeMagic);
    buf[4] = h.channel;
    putI32(buf + 5, h.src);
    putI32(buf + 9, 0); // reserved
}

/** False when the magic does not match (not a Skyway peer). */
inline bool
decodeHandshake(const std::uint8_t (&buf)[handshakeBytes], Handshake &h)
{
    if (getU32(buf) != handshakeMagic)
        return false;
    h.channel = buf[4];
    h.src = getI32(buf + 5);
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

struct ControlHeader
{
    std::uint8_t kind;
    std::int32_t src;
    std::int32_t tag;
    std::uint32_t reqId;
    std::uint32_t len;
};

inline void
encodeControlHeader(std::uint8_t (&buf)[controlHeaderBytes],
                    const ControlHeader &h)
{
    buf[0] = h.kind;
    putI32(buf + 1, h.src);
    putI32(buf + 5, h.tag);
    putU32(buf + 9, h.reqId);
    putU32(buf + 13, h.len);
}

inline ControlHeader
decodeControlHeader(const std::uint8_t (&buf)[controlHeaderBytes])
{
    return ControlHeader{buf[0], getI32(buf + 1), getI32(buf + 5),
                         getU32(buf + 9), getU32(buf + 13)};
}

} // namespace frame
} // namespace skyway

#endif // SKYWAY_NET_FRAME_HH
