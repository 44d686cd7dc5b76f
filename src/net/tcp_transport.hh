/**
 * @file
 * The real-socket transport, multiplexed for hundred-node fabrics:
 * every node owns a loopback TCP listener and one epoll(7) event
 * loop; bytes genuinely cross the kernel's TCP stack, so the modeled
 * `net.wire_ns` clocks have a `net.real_wire_ns` to be validated
 * against. The wire format lives in net/frame.hh; the full protocol
 * story (diagrams, credit rules, failure semantics) in
 * docs/TRANSPORT.md.
 *
 * Topology:
 *
 *  - Connections: exactly ONE per unordered node pair,
 *    established lazily by whichever side sends first (a transport-
 *    wide pool arbitrates so a cross in the race still yields one
 *    connection — `net.pooled_connections` gauges the pool). Every
 *    (src, dst, tag) stream between the two nodes is multiplexed
 *    onto that connection as tagged, length-prefixed mux frames, so
 *    an N-node all-to-all costs N·(N−1)/2 sockets instead of the old
 *    per-stream N²·tags.
 *
 *  - Demultiplexing: the owning node's event loop reads only frame
 *    *headers*. A data frame is "parked" — the fd leaves the epoll
 *    set with the payload still unread in the kernel — until a
 *    consumer claims it: pollTagInto() then recv()s the payload
 *    *directly into ReserveFn-posted storage* (old-gen chunk space on
 *    the Skyway receive path), which is how the zero-copy handoff
 *    survives multiplexing (`net.recv_into_bytes` counts exactly
 *    these bytes). A consumer that insists on a tag the parked
 *    frames don't carry forces the misfits into a staging buffer
 *    (one copy) so the connection behind them keeps moving — see
 *    docs/TRANSPORT.md §5 for the head-of-line rules.
 *
 *  - Backpressure: per-stream byte credit. A sender's event loop
 *    writes a stream's frames only while the stream has window left;
 *    a consumer that takes a payload returns its bytes to the
 *    sender's window directly (the whole fabric is one process, so a
 *    grant is a locked add, never a wire frame). A slow receiver
 *    therefore stalls the one stream (`net.credit_stalls_ns`) instead
 *    of ballooning sender memory, and no grant can queue behind a
 *    parked frame (TRANSPORT.md §4).
 *
 *  - Loop liveness: the event loop NEVER blocks on a pair socket.
 *    Writes go through a per-connection outbound byte queue drained
 *    with MSG_DONTWAIT (EPOLLOUT is armed while bytes remain), and
 *    inbound mux headers are reassembled non-blockingly across
 *    partial arrivals — so two nodes flooding each other (or a
 *    write cycle A->B->C->A) can never wedge the loops against full
 *    socket buffers (TRANSPORT.md §4). A consumer claiming a parked
 *    payload whose bytes still sit in the peer's outbound queue
 *    pumps that queue itself (the whole fabric is one process), so
 *    claims cannot deadlock against a loop that is waiting on the
 *    claimer's own recvMutex.
 *
 *  - No request plane: request/reply never touches a socket here —
 *    ClusterNetwork calls the destination's handler directly and
 *    models the round trip's cost (net/cluster.hh).
 *
 *  - Receive queues: one deque of owned payloads (`staged`) holds
 *    both self-deliveries (send to the own node never touches a
 *    socket) and staged copies, each source's messages in arrival
 *    order, so pollTagInto makes one scan of it before it looks at
 *    the parked frames.
 *
 * pollTagInto is a non-blocking probe exactly like the model
 * transport's: -1 means nothing has *arrived yet*, and every consumer
 * in the repository already retries in a loop, so in-flight bytes are
 * indistinguishable from a late sender.
 */

#ifndef SKYWAY_NET_TCP_TRANSPORT_HH
#define SKYWAY_NET_TCP_TRANSPORT_HH

#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "net/frame.hh"
#include "net/transport.hh"
#include "support/thread_annotations.hh"

namespace skyway
{

class TcpTransport final : public Transport
{
  public:
    TcpTransport(int node_count, WireCounters &wire,
                 const TransportOptions &options = {});
    ~TcpTransport() override;

    TcpTransport(const TcpTransport &) = delete;
    TcpTransport &operator=(const TcpTransport &) = delete;

    const char *name() const override { return "tcp"; }

    void send(NodeId src, NodeId dst, int tag,
              std::vector<std::uint8_t> payload) override;
    std::ptrdiff_t pollTagInto(NodeId dst, int tag,
                               const ReserveFn &reserve) override;

    /** The loopback port node @p node listens on (tests). */
    std::uint16_t listenPort(NodeId node) const;

  private:
    /**
     * A data frame whose header the event loop has read: the fd has
     * left the epoll set and the payload's @p len bytes are still
     * unread in the kernel, waiting for a consumer to claim them
     * (zero-copy) or stage them (head-of-line relief).
     */
    struct Parked
    {
        int fd;
        NodeId src;
        int tag;
        std::uint32_t len;
    };

    /**
     * Send-side state of one (this node -> dst, tag) stream: queued
     * payloads (an empty vector is the end-of-stream marker) and the
     * credit window. Only the head of the queue is ever eligible to
     * write — a stalled head holds later frames (including EOS) back,
     * preserving stream FIFO.
     */
    struct TxStream
    {
        std::deque<std::vector<std::uint8_t>> queue;
        /** May go negative transiently: a frame is written whole once
         *  any window remains. */
        std::int64_t credit = 0;
        bool stalled = false;
        std::uint64_t stallStartNs = 0;
        /** True between first frame queued and EOS written. */
        bool active = false;
    };

    /**
     * Unwritten outbound bytes of one pair connection. The socket is
     * written only with MSG_DONTWAIT; whatever it refuses queues here
     * (off = consumed prefix), so the event loop never blocks in
     * send(2). Bounded by the credit windows of the streams sharing
     * the connection.
     */
    struct OutBuf
    {
        NodeId peer = 0;
        std::vector<std::uint8_t> bytes;
        std::size_t off = 0;
        /** EPOLLOUT currently registered for this fd (loop-owned —
         *  cleared when parking removes the registration). */
        bool armed = false;
    };

    /** Partial inbound mux header of one pair connection: a level-
     *  triggered EPOLLIN may expose fewer than the full 13 bytes. */
    struct HdrBuf
    {
        std::uint8_t bytes[frame::muxHeaderBytes];
        std::size_t got = 0;
    };

    /** Everything one node owns. */
    struct Node
    {
        int listenFd = -1;
        std::uint16_t port = 0;
        int epollFd = -1;

        /** Wakes the loop out of epoll_wait (self-pipe). */
        int wakeRead = -1;
        int wakeWrite = -1;

        /**
         * Receive side, shared between the loop (parks frames) and
         * consumer threads (claim parked frames, stage misfits):
         * owned payloads (self-deliveries and staged copies, in
         * arrival order), parked frames, and the per-tag miss
         * tracking that decides when staging is forced.
         * Lock order: recvMutex may be held while taking any node's
         * sendMutex (credit grants), poolMutex_ and a peer's outMutex
         * (the help-flush chain) — never the reverse.
         */
        Mutex recvMutex;
        std::deque<NetMessage> staged GUARDED_BY(recvMutex);
        std::vector<Parked> parked GUARDED_BY(recvMutex);
        /** Bumped whenever parked/staged state changes; a tag that
         *  misses twice at the same version forces staging. */
        std::uint64_t recvVersion GUARDED_BY(recvMutex) = 0;
        std::map<int, std::uint64_t> lastMiss GUARDED_BY(recvMutex);

        /** Send side: per-stream queues drained by this node's loop;
         *  receiving nodes' consumers add credit under this lock. */
        Mutex sendMutex;
        std::map<std::pair<NodeId, int>, TxStream> streams GUARDED_BY(
            sendMutex);

        /** This node's end of each established pair connection,
         *  keyed by peer; guarded by the transport-wide poolMutex_
         *  (not annotatable from a nested struct — the invariant is
         *  enforced by review; see docs/STATIC_ANALYSIS.md). */
        std::map<NodeId, int> pairFd;

        /** Write side of the pair connections, keyed by fd; guarded
         *  by outMutex because consumers blocked on a parked payload
         *  help-flush the *peer's* buffer (see helpFlushPair). */
        Mutex outMutex;
        std::map<int, OutBuf> outbound GUARDED_BY(outMutex);

        /** Loop-owned header reassembly per pair fd; no lock — only
         *  this node's event loop thread ever touches it. */
        std::map<int, HdrBuf> hdrPartial;

        std::thread loop;
    };

    /** One write-ready frame drained out of the stream queues. */
    struct TxFrame
    {
        int fd;
        NodeId peer;
        std::uint8_t header[frame::muxHeaderBytes];
        std::vector<std::uint8_t> payload;
    };

    void eventLoop(NodeId node);
    void wakeLoop(NodeId node);
    void acceptPending(NodeId node);
    void handlePairReadable(NodeId node, NodeId peer, int fd);
    /** Drop @p peer's pair connection after an orderly EOF. */
    void dropPair(NodeId node, NodeId peer, int fd);
    void drainSends(NodeId node);

    /** Add @p fd to @p node's epoll set, tagged for classification. */
    void epollAdd(NodeId node, std::uint64_t token, int fd);
    void epollDel(NodeId node, int fd);

    /**
     * This node's end of the pair connection toward @p dst,
     * establishing it if nobody has; -1 when the peer is mid-connect
     * and our accept will complete the pair shortly (callers skip and
     * retry on the next loop iteration — never wait).
     */
    int pairFdOrClaim(NodeId node, NodeId dst);

    /** Connect to @p dst's listener and send @p shake; retries (and
     *  counts) transient failures. */
    int connectTo(NodeId dst, const std::uint8_t *shake,
                  std::size_t shake_len);

    /** Return @p bytes a consumer on @p node took to the window of
     *  stream (@p src -> @p node, @p tag), waking @p src's loop when
     *  that ends a stall. A stream @p src does not track (a foreign
     *  peer's) is ignored. */
    void grantCredit(NodeId node, NodeId src, int tag,
                     std::uint32_t bytes);

    /** Read every parked frame's payload into staged-side storage,
     *  re-arm the fds, and record the copies. */
    void stageParked(NodeId node, Node &n) REQUIRES(n.recvMutex);

    /** Count one frame in `net.frames_sent`. Called before the
     *  frame's first byte reaches the socket, so a peer that has
     *  read the frame always finds it counted. */
    void countFrame();

    /** Non-blocking write burst (MSG_DONTWAIT), timed into
     *  realWireNs; returns how many of @p len bytes the socket
     *  accepted. */
    std::size_t nonblockSend(int fd, const std::uint8_t *p,
                             std::size_t len);

    /** Data-plane write: push @p len bytes to @p fd if its outbound
     *  buffer is empty, queueing whatever the socket refuses (FIFO
     *  per connection is preserved — a non-empty buffer means the
     *  bytes only queue). */
    void sendOrQueue(Node &n, NodeId peer, int fd,
                     const std::uint8_t *p, std::size_t len);

    /** Drain one outbound buffer of @p n as far as the socket
     *  allows; true when it emptied. */
    bool flushOutBuf(Node &n, int fd, OutBuf &ob)
        REQUIRES(n.outMutex);

    /** Loop step: drain every outbound buffer, arming EPOLLOUT on
     *  the connections that still hold bytes and disarming (and
     *  dropping) the ones that emptied. */
    void flushPairWrites(NodeId node);

    /** Pump @p peer's outbound buffer toward @p toward once. Called
     *  by consumers blocked on a parked payload whose bytes may
     *  still sit in the peer's user-space queue: the whole fabric is
     *  one process, so the claimer can move them itself instead of
     *  depending on the peer's loop (which may in turn be blocked on
     *  the claimer's recvMutex). */
    void helpFlushPair(NodeId peer, NodeId toward);

    /** Read exactly @p len parked-payload bytes from @p fd,
     *  help-flushing the peer's outbound queue while the socket runs
     *  dry; panics on a mid-frame close. */
    void recvParkedPayload(NodeId node, NodeId peer, int fd,
                           std::uint8_t *buf, std::size_t len);

    /** Re-register @p fd's epoll interest with/without EPOLLOUT.
     *  False (no-op) while the fd is parked — the registration is
     *  gone and the claim re-adds it EPOLLIN-only. */
    bool modPairInterest(NodeId node, NodeId peer, int fd,
                         bool wantOut);

    int nodeCount_;
    WireCounters &wire_;
    TransportOptions options_;
    std::vector<std::unique_ptr<Node>> nodes_;

    /** Pair-pool arbitration: which unordered pairs have (or are
     *  getting) their one data connection. */
    struct PairEntry
    {
        bool claimed = false;
    };
    Mutex poolMutex_;
    std::map<std::pair<NodeId, NodeId>, PairEntry> pool_ GUARDED_BY(
        poolMutex_);

    std::atomic<bool> running_{true};
};

} // namespace skyway

#endif // SKYWAY_NET_TCP_TRANSPORT_HH
