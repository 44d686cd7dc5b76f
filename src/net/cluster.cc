#include "net/cluster.hh"

#include "obs/metrics.hh"

namespace skyway
{

namespace
{

/** Registry-backed fabric counters, resolved once per process. */
struct NetMetrics
{
    obs::Counter &bytesSent;
    obs::Counter &messagesSent;
    obs::Counter &wireNs;
    obs::Counter &requests;
    obs::Histogram &messageBytes;

    static NetMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static NetMetrics m{
            r.counter("net.bytes_sent"),
            r.counter("net.messages_sent"),
            r.counter("net.wire_ns"),
            r.counter("net.requests"),
            // 64 B .. ~16 MB in x4 steps: spans a type-registry
            // request through a full output-buffer flush.
            r.histogram("net.message_bytes",
                        obs::exponentialBounds(64, 4.0, 10)),
        };
        return m;
    }
};

} // namespace

ClusterNetwork::ClusterNetwork(int node_count, NetworkCostModel model,
                               TransportKind transport,
                               const TransportOptions &options)
    : nodeCount_(node_count),
      model_(model),
      kind_(transport),
      wireNs_(node_count),
      bytes_(static_cast<std::size_t>(node_count) * node_count),
      msgs_(node_count),
      handlers_(node_count)
{
    panicIf(node_count <= 0, "ClusterNetwork: need at least one node");
    transport_ = makeTransport(kind_, node_count, wire_, options);
}

ClusterNetwork::~ClusterNetwork() = default;

void
ClusterNetwork::charge(NodeId src, NodeId dst, std::size_t bytes)
{
    if (src == dst)
        return; // loopback is free and not counted as remote bytes
    std::uint64_t ns = model_.transferNs(bytes);
    wireNs_[src].fetch_add(ns, std::memory_order_relaxed);
    bytes_[src * nodeCount_ + dst].fetch_add(bytes,
                                             std::memory_order_relaxed);
    msgs_[src].fetch_add(1, std::memory_order_relaxed);

    NetMetrics &m = NetMetrics::get();
    m.bytesSent.add(bytes);
    m.messagesSent.inc();
    m.wireNs.add(ns);
    m.messageBytes.record(bytes);
}

void
ClusterNetwork::send(NodeId src, NodeId dst, int tag,
                     std::vector<std::uint8_t> payload)
{
    panicIf(dst < 0 || dst >= nodeCount_, "send: bad destination");
    charge(src, dst, payload.size());
    transport_->send(src, dst, tag, std::move(payload));
}

std::ptrdiff_t
ClusterNetwork::pollTagInto(NodeId dst, int tag,
                            const ReserveFn &reserve)
{
    return transport_->pollTagInto(dst, tag, reserve);
}

void
ClusterNetwork::registerHandler(NodeId node, RequestHandler handler)
{
    MutexLock lock(handlerMutex_);
    handlers_[node] = std::move(handler);
}

std::vector<std::uint8_t>
ClusterNetwork::request(NodeId src, NodeId dst, int tag,
                        const std::vector<std::uint8_t> &payload)
{
    RequestHandler handler;
    {
        MutexLock lock(handlerMutex_);
        handler = handlers_[dst];
    }
    panicIf(!handler, "request: node has no registered handler");
    charge(src, dst, payload.size());
    NetMetrics::get().requests.inc();
    // Lock dropped: handlers may re-enter the fabric.
    std::vector<std::uint8_t> reply = handler(src, tag, payload);
    // The requester blocks for the reply as well.
    if (src != dst) {
        std::uint64_t ns = model_.transferNs(reply.size());
        wireNs_[src].fetch_add(ns, std::memory_order_relaxed);
        NetMetrics::get().wireNs.add(ns);
    }
    return reply;
}

std::uint64_t
ClusterNetwork::totalBytesSent(NodeId src) const
{
    std::uint64_t total = 0;
    for (int d = 0; d < nodeCount_; ++d)
        total += bytes_[src * nodeCount_ + d].load(
            std::memory_order_relaxed);
    return total;
}

void
ClusterNetwork::resetAccounting()
{
    for (auto &v : wireNs_)
        v.store(0, std::memory_order_relaxed);
    for (auto &v : bytes_)
        v.store(0, std::memory_order_relaxed);
    for (auto &v : msgs_)
        v.store(0, std::memory_order_relaxed);
    wire_.reset();
}

} // namespace skyway
