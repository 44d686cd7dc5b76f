/**
 * @file
 * The pluggable transport behind the cluster fabric. ClusterNetwork
 * keeps the consumer-facing API (send/pollTagInto/request) and all the
 * accounting; how bytes actually move between nodes is a Transport:
 *
 *  - ModelTransport: the in-process mailboxes the repository started
 *    with — messages move instantly, wire time exists only on the
 *    simulated per-node clocks (net/model_transport.hh);
 *  - TcpTransport: real loopback TCP sockets — one multiplexed data
 *    connection per node pair carrying tagged, length-prefixed
 *    frames, demultiplexed by one epoll event loop per node, with
 *    bounded per-stream credit for backpressure (net/tcp_transport.hh
 *    and docs/TRANSPORT.md).
 *
 * Both present identical delivery semantics (reliable, per-(src,tag)
 * FIFO, zero-length payload = end of stream), so every consumer —
 * SkywaySocket streams, the type-registry LOOKUP daemon, parallel
 * sender fan-out, the minispark/miniflink shuffle fetch — runs
 * unmodified on either, and `bytesSent`/`messagesSent` match
 * byte-for-byte between a modeled and a real run of the same
 * workload.
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
 * Knobs for one blocking request/reply round trip. The model
 * transport completes synchronously and ignores them; the TCP
 * transport waits @p timeoutMs for the reply and resends the request
 * up to @p maxRetries times before giving up (each resend counts in
 * `net.connect_retries`). Handlers must therefore be idempotent —
 * the type-registry protocol (register-on-first-sight) is.
 */
struct RequestOptions
{
    std::uint64_t timeoutMs = 2000;
    int maxRetries = 3;
};

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
    /** Frames written to a socket (data and end-of-stream, requests,
     *  replies), counted before their first byte is written. */
    std::atomic<std::uint64_t> framesSent{0};
    /** Connect attempts beyond the first, plus request resends. */
    std::atomic<std::uint64_t> connectRetries{0};
    /** Payload bytes recv()'d straight into ReserveFn storage. */
    std::atomic<std::uint64_t> recvIntoBytes{0};
    /** Wall nanoseconds spent in socket writes. */
    std::atomic<std::uint64_t> realWireNs{0};
    /** Wall nanoseconds streams spent stalled on exhausted credit. */
    std::atomic<std::uint64_t> creditStallsNs{0};
    /** Event-loop epoll_wait() returns that reported a ready socket
     *  (listener, pair or control; the wake pipe alone is not one). */
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
 * The transport interface proper. Implementations deliver messages;
 * they do not charge wire time or count bytes — that is
 * ClusterNetwork's job, which is what keeps the accounting identical
 * across transports.
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

    /**
     * A synchronous request handler a node may register (the type
     * registry driver's daemon, paper Algorithm 1 part 2). Receives
     * the request payload, returns the reply payload. On the TCP
     * transport it runs on the destination node's event loop.
     */
    using RequestHandler =
        std::function<std::vector<std::uint8_t>(NodeId src, int tag,
                                                const std::vector<
                                                    std::uint8_t> &)>;

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

    /** Register @p handler as @p node's synchronous request daemon. */
    virtual void registerHandler(NodeId node, RequestHandler handler) = 0;

    /** Blocking request/reply round trip toward @p dst's daemon. */
    virtual std::vector<std::uint8_t>
    request(NodeId src, NodeId dst, int tag,
            const std::vector<std::uint8_t> &payload,
            const RequestOptions &opts) = 0;
};

/** Construct the transport behind one fabric of @p node_count nodes. */
std::unique_ptr<Transport> makeTransport(TransportKind kind,
                                         int node_count,
                                         WireCounters &wire,
                                         const TransportOptions &options = {});

} // namespace skyway

#endif // SKYWAY_NET_TRANSPORT_HH
