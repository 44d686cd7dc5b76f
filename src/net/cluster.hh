/**
 * @file
 * The cluster fabric: a set of numbered nodes exchanging byte-payload
 * messages over reliable in-order channels. A message is sent with
 * send() and received with one probe, pollTagInto(), into storage
 * the receiver posts (pollTag() posts a vector). How the bytes move
 * is a pluggable Transport (net/transport.hh) — in-process mailboxes on
 * the model transport, real loopback TCP sockets on the tcp
 * transport. Request/reply (the type-registry LOOKUP daemon) is
 * served here on both: request() calls the destination's registered
 * handler on the requester's thread, the way one process hosting
 * every node can. Either way the *accounting* lives here: wire cost is
 * charged to per-node simulated clocks through the NetworkCostModel,
 * and per-pair byte counters feed the "remote bytes" columns of the
 * evaluation figures — which is why `bytesSent`/`messagesSent` for
 * the same workload match byte-for-byte across transports.
 */

#ifndef SKYWAY_NET_CLUSTER_HH
#define SKYWAY_NET_CLUSTER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/costmodel.hh"
#include "net/transport.hh"
#include "support/logging.hh"
#include "support/thread_annotations.hh"

namespace skyway
{

/**
 * The cluster fabric. Thread-safe: Skyway's multi-threaded senders may
 * push concurrently, and accounting reads (wireNs/bytesSent/
 * messagesSent) are safe against concurrent senders — the counters
 * are atomics, not mutex-guarded snapshots.
 */
class ClusterNetwork
{
  public:
    /**
     * A synchronous request handler a node may register (the type
     * registry driver's daemon, paper Algorithm 1 part 2). Receives
     * the request payload, returns the reply payload. It runs on the
     * requester's thread, so concurrent requesters run it
     * concurrently.
     */
    using RequestHandler =
        std::function<std::vector<std::uint8_t>(NodeId src, int tag,
                                                const std::vector<
                                                    std::uint8_t> &)>;
    using ReserveFn = Transport::ReserveFn;

    explicit ClusterNetwork(int node_count,
                            NetworkCostModel model = gigabitEthernet(),
                            TransportKind transport =
                                TransportKind::Model,
                            const TransportOptions &options = {});
    ~ClusterNetwork();

    int nodeCount() const { return nodeCount_; }
    const NetworkCostModel &model() const { return model_; }

    /** Which transport implementation carries the bytes. */
    TransportKind transportKind() const { return kind_; }
    const char *transportName() const { return transport_->name(); }

    /** Enqueue a one-way message; charges wire time to the sender. */
    void send(NodeId src, NodeId dst, int tag,
              std::vector<std::uint8_t> payload);

    /**
     * The receive probe: dequeues the next message for @p dst with
     * tag @p tag, skipping (and retaining) others, and delivers its
     * payload *into caller-posted storage*: the transport asks
     * @p reserve for a destination of the payload's size and moves
     * the bytes straight there — a modeled NIC DMA on the model
     * transport, a literal recv() into the posted buffer on the tcp
     * transport. The receiver-side staging copy is gone either way.
     *
     * Returns the payload size, 0 for an empty (end-of-stream)
     * payload — @p reserve is not called — or -1 when no message with
     * the tag is pending.
     */
    std::ptrdiff_t pollTagInto(NodeId dst, int tag,
                               const ReserveFn &reserve);

    /**
     * pollTagInto with @p payload as the posted storage: sized to the
     * message (emptied for an end-of-stream marker). A caller that
     * keeps one vector across messages reuses its capacity. False
     * when none is pending.
     */
    bool
    pollTag(NodeId dst, int tag, std::vector<std::uint8_t> &payload)
    {
        std::ptrdiff_t n = pollTagInto(dst, tag, [&](std::size_t len) {
            payload.resize(len);
            return payload.data();
        });
        if (n == 0)
            payload.clear();
        return n >= 0;
    }

    /** Register @p handler as @p node's synchronous request daemon. */
    void registerHandler(NodeId node, RequestHandler handler);

    /**
     * Synchronous request/reply: calls @p dst's handler on the
     * caller's thread (panics when @p dst registered none). Charges
     * request wire time to @p src and reply wire time to @p src as
     * well — the requester blocks for the full RTT — identically on
     * every transport.
     */
    std::vector<std::uint8_t> request(NodeId src, NodeId dst, int tag,
                                      const std::vector<std::uint8_t> &
                                          payload);

    /// @name Accounting
    /// @{

    /** Simulated send-side wire nanoseconds charged to @p node. */
    std::uint64_t
    wireNs(NodeId node) const
    {
        return wireNs_[node].load(std::memory_order_relaxed);
    }

    /** Bytes @p src has pushed toward @p dst. */
    std::uint64_t
    bytesSent(NodeId src, NodeId dst) const
    {
        return bytes_[src * nodeCount_ + dst].load(
            std::memory_order_relaxed);
    }

    /** Total bytes sent by @p src to any remote node. */
    std::uint64_t totalBytesSent(NodeId src) const;

    /** Total message count from @p src. */
    std::uint64_t
    messagesSent(NodeId src) const
    {
        return msgs_[src].load(std::memory_order_relaxed);
    }

    /// @name Real-wire counters (all zero on the model transport)
    /// @{
    std::uint64_t
    framesSent() const
    {
        return wire_.framesSent.load(std::memory_order_relaxed);
    }
    std::uint64_t
    connectRetries() const
    {
        return wire_.connectRetries.load(std::memory_order_relaxed);
    }
    std::uint64_t
    recvIntoBytes() const
    {
        return wire_.recvIntoBytes.load(std::memory_order_relaxed);
    }
    std::uint64_t
    realWireNs() const
    {
        return wire_.realWireNs.load(std::memory_order_relaxed);
    }
    std::uint64_t
    creditStallsNs() const
    {
        return wire_.creditStallsNs.load(std::memory_order_relaxed);
    }
    std::uint64_t
    epollWakeups() const
    {
        return wire_.epollWakeups.load(std::memory_order_relaxed);
    }
    /** Data connections established into the pair pool (cumulative). */
    std::uint64_t
    pooledConnections() const
    {
        return wire_.connectionsPooled.load(std::memory_order_relaxed);
    }
    /// @}

    void resetAccounting();

    /// @}

  private:
    void charge(NodeId src, NodeId dst, std::size_t bytes);

    int nodeCount_;
    NetworkCostModel model_;
    TransportKind kind_;
    WireCounters wire_;
    std::unique_ptr<Transport> transport_;
    std::vector<std::atomic<std::uint64_t>> wireNs_;
    std::vector<std::atomic<std::uint64_t>> bytes_;
    std::vector<std::atomic<std::uint64_t>> msgs_;
    Mutex handlerMutex_;
    std::vector<RequestHandler> handlers_ GUARDED_BY(handlerMutex_);
};

} // namespace skyway

#endif // SKYWAY_NET_CLUSTER_HH
