/**
 * @file
 * The pluggable transport behind the cluster fabric. ClusterNetwork
 * keeps the consumer-facing API (send/pollTagInto/request) and all the
 * accounting, and serves request/reply itself; how one-way messages
 * actually move between nodes is a Transport:
 *
 *  - ModelTransport: the in-process mailboxes the repository started
 *    with — messages move instantly, wire time exists only on the
 *    simulated per-node clocks (net/model_transport.hh);
 *  - TcpTransport: real loopback TCP sockets — one multiplexed
 *    connection per node pair carrying tagged, length-prefixed
 *    frames, demultiplexed by one epoll event loop per node, with
 *    bounded per-stream credit for backpressure (net/tcp_transport.hh
 *    and docs/TRANSPORT.md).
 *
 * Both present identical delivery semantics (reliable, per-(src,tag)
 * FIFO, zero-length payload = end of stream), so every consumer —
 * SkywaySocket streams, parallel sender fan-out, the
 * minispark/miniflink shuffle fetch — runs unmodified on either, and
 * `bytesSent`/`messagesSent` match byte-for-byte between a modeled
 * and a real run of the same workload.
 */

#ifndef SKYWAY_NET_TRANSPORT_HH
#define SKYWAY_NET_TRANSPORT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace skyway
{

/** A node id within one cluster. */
using NodeId = int;

/** A message a transport holds for its destination node until a
 *  consumer claims it through pollTagInto (transport-internal). */
struct NetMessage
{
    NodeId src;
    int tag;
    std::vector<std::uint8_t> payload;
};

/** Which Transport implementation a fabric runs on. */
enum class TransportKind
{
    Model,
    Tcp,
};

const char *transportKindName(TransportKind kind);

/** Parse "model"/"tcp"; nullopt on anything else. */
std::optional<TransportKind> parseTransportKind(std::string_view name);

/**
 * Construction-time knobs for a transport. Only the TCP transport
 * reads them; the model transport has no wire to tune. Environment
 * variables override these defaults so benches can sweep without a
 * rebuild: SKYWAY_NET_CREDIT_BYTES (see docs/TRANSPORT.md §6).
 */
struct TransportOptions
{
    /**
     * Per-stream receive credit window in bytes: a sender may have at
     * most this many un-granted payload bytes on the wire per
     * (src, dst, tag) stream before its frames wait in the send queue
     * (time spent waiting counts in `net.credit_stalls_ns`). The
     * receiver grants credit back as payloads are delivered into
     * consumer storage. Must be > 0.
     */
    std::size_t creditWindowBytes = std::size_t{1} << 20;
};

/**
 * Per-fabric wire counters a Transport maintains while it moves
 * bytes. Owned by the ClusterNetwork (so resetAccounting() clears
 * them between bench phases) and mirrored into the process-wide
 * `net.*` metrics registry by the transport that updates them. All
 * stay zero on the model transport.
 */
struct WireCounters
{
    /** Frames written to a socket (data and end-of-stream), counted
     *  before their first byte is written. */
    std::atomic<std::uint64_t> framesSent{0};
    /** Connect attempts beyond the first. */
    std::atomic<std::uint64_t> connectRetries{0};
    /** Payload bytes recv()'d straight into ReserveFn storage. */
    std::atomic<std::uint64_t> recvIntoBytes{0};
    /** Wall nanoseconds spent in socket writes. */
    std::atomic<std::uint64_t> realWireNs{0};
    /** Wall nanoseconds streams spent stalled on exhausted credit. */
    std::atomic<std::uint64_t> creditStallsNs{0};
    /** Event-loop epoll_wait() returns that reported a ready socket
     *  (listener or pair; the wake pipe alone is not one). */
    std::atomic<std::uint64_t> epollWakeups{0};
    /** Data connections established into the pair pool (cumulative). */
    std::atomic<std::uint64_t> connectionsPooled{0};

    void
    reset()
    {
        framesSent.store(0, std::memory_order_relaxed);
        connectRetries.store(0, std::memory_order_relaxed);
        recvIntoBytes.store(0, std::memory_order_relaxed);
        realWireNs.store(0, std::memory_order_relaxed);
        creditStallsNs.store(0, std::memory_order_relaxed);
        epollWakeups.store(0, std::memory_order_relaxed);
        connectionsPooled.store(0, std::memory_order_relaxed);
    }
};

/**
 * The transport interface proper. Implementations deliver one-way
 * messages; they do not charge wire time, count bytes or serve
 * requests — that is ClusterNetwork's job, which is what keeps the
 * accounting identical across transports.
 */
class Transport
{
  public:
    /**
     * Returns destination storage for an incoming payload of the
     * given size — how a receiver posts a buffer for the transport to
     * deliver into (Skyway input buffers hand out old-gen chunk
     * space).
     */
    using ReserveFn = std::function<std::uint8_t *(std::size_t)>;

    virtual ~Transport() = default;

    virtual const char *name() const = 0;

    /** Enqueue a one-way message toward @p dst; never blocks the
     *  caller on the receiver (fire-and-forget, like a mailbox or an
     *  unbounded socket send queue). */
    virtual void send(NodeId src, NodeId dst, int tag,
                      std::vector<std::uint8_t> payload) = 0;

    /**
     * The one receive probe. Dequeues the next message for @p dst
     * with tag @p tag, retaining others (per-(src, tag) delivery
     * order is preserved), and delivers its payload *into
     * caller-posted storage*: the transport asks @p reserve for a
     * destination of the payload's size and moves the bytes straight
     * there — a modeled NIC DMA, or a literal recv() into old-gen
     * chunk storage on the TCP transport.
     *
     * Returns the payload size, 0 for an empty (end-of-stream)
     * payload — @p reserve is not called — or -1 when no message
     * with the tag has *arrived*: on a real transport bytes may still
     * be in flight, so callers that expect more data retry (every
     * consumer in this repository already loops).
     */
    virtual std::ptrdiff_t pollTagInto(NodeId dst, int tag,
                                       const ReserveFn &reserve) = 0;
};

/** Construct the transport behind one fabric of @p node_count nodes. */
std::unique_ptr<Transport> makeTransport(TransportKind kind,
                                         int node_count,
                                         WireCounters &wire,
                                         const TransportOptions &options = {});

} // namespace skyway

#endif // SKYWAY_NET_TRANSPORT_HH
