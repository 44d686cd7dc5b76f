/**
 * @file
 * Fabric scale proof: an N-node all-to-all shuffle (every node streams
 * K frames + end-of-stream to every other node) run over both
 * transports at hundred-node counts. The point is the multiplexed
 * data plane (docs/TRANSPORT.md): one pooled connection per node pair
 * means the 128-node sweep opens N·(N−1)/2 = 8128 sockets instead of
 * the old per-stream N² blow-up, and the bench *asserts* exactly that
 * (`net.pooled_connections`), plus the two other invariants the
 * multiplexing refactor must not lose:
 *
 *  - zero-copy receive: every payload byte lands via recv() into
 *    ReserveFn-posted storage, so `net.recv_into_bytes` equals the
 *    total payload byte count exactly (no staging copies under
 *    round-robin draining, whatever SKYWAY_NET_CREDIT_BYTES says —
 *    credit grants never queue behind a parked frame);
 *  - transport-invariant accounting: per-node bytesSent /
 *    messagesSent / wireNs match the model-transport run byte for
 *    byte (ClusterNetwork charges before delegating), and the tcp
 *    run writes exactly one frame per fabric message (credit grants
 *    are in-process, never frames).
 *
 * Knobs: `--nodes=64,128` (comma list; each count ≥ 2) picks the
 * sweep, `--scale=X` scales the frames-per-pair count. 256 nodes
 * works where `ulimit -n` allows ~66k descriptors — the bench checks
 * RLIMIT_NOFILE up front and says what to raise.
 *
 * JSON rows (schema v1) carry the deterministic counters
 * fabric_bytes / fabric_msgs / recv_into_bytes / pooled_connections —
 * the perf-diff allowlist for this bench — alongside frames_sent
 * (asserted equal to fabric_msgs, not diffed) and the observational
 * credit_stall_ms / epoll_wakeups.
 */

#include <sys/resource.h>

#include <cstdlib>
#include <thread>

#include "bench/benchutil.hh"
#include "net/cluster.hh"

using namespace skyway;

namespace
{

constexpr int kTagBase = 100;

/** `--nodes=64,128` / SKYWAY_BENCH_NODES: the node-count sweep. */
std::vector<int>
parseNodes(int argc, char **argv)
{
    std::string spec;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--nodes=", 8) == 0)
            spec = argv[i] + 8;
    }
    if (spec.empty()) {
        if (const char *env = std::getenv("SKYWAY_BENCH_NODES"))
            spec = env;
    }
    if (spec.empty())
        spec = "64,128";

    std::vector<int> nodes;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        int n = std::atoi(spec.substr(pos, comma - pos).c_str());
        if (n < 2)
            fatal("bench_allto_all: --nodes entries must be >= 2 "
                  "(got '" + spec + "')");
        nodes.push_back(n);
        pos = comma + 1;
    }
    return nodes;
}

/** Fail early with advice if the fd budget can't cover @p n nodes. */
void
checkFdBudget(int n)
{
    // Both ends of every pair socket live in this process, plus each
    // node's listener, epoll fd, and wake pipe.
    std::uint64_t need =
        std::uint64_t(n) * (n - 1) + 4u * std::uint64_t(n) + 64;
    struct rlimit rl;
    if (getrlimit(RLIMIT_NOFILE, &rl) != 0)
        return;
    if (need > rl.rlim_cur)
        fatal("bench_allto_all: " + std::to_string(n) +
              " nodes need ~" + std::to_string(need) +
              " descriptors but RLIMIT_NOFILE is " +
              std::to_string(rl.rlim_cur) + " — raise ulimit -n");
}

/** Everything one run of the shuffle leaves behind. */
struct RunResult
{
    std::vector<std::uint64_t> bytes;
    std::vector<std::uint64_t> msgs;
    std::vector<std::uint64_t> wireNs;
    std::uint64_t recvInto = 0;
    std::uint64_t pooled = 0;
    std::uint64_t framesSent = 0;
    std::uint64_t creditStallsNs = 0;
    std::uint64_t epollWakeups = 0;
    double wallMs = 0;

    std::uint64_t
    totalBytes() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t b : bytes)
            t += b;
        return t;
    }

    std::uint64_t
    totalMsgs() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t m : msgs)
            t += m;
        return t;
    }
};

/**
 * One all-to-all: every ordered (src, dst) pair sends @p frames
 * payloads of @p frame_bytes then EOS on the per-source tag; each
 * destination drains its n-1 streams round-robin with pollTagInto.
 */
RunResult
runAllToAll(TransportKind kind, int n, int frames,
            std::size_t frame_bytes)
{
    Stopwatch sw;
    ClusterNetwork net(n, gigabitEthernet(), kind);

    for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
            if (s == d)
                continue;
            for (int f = 0; f < frames; ++f) {
                std::vector<std::uint8_t> payload(frame_bytes);
                for (std::size_t i = 0; i < payload.size(); ++i)
                    payload[i] = static_cast<std::uint8_t>(
                        s * 31 + d * 7 + f + static_cast<int>(i));
                net.send(s, d, kTagBase + s, std::move(payload));
            }
            net.send(s, d, kTagBase + s, {}); // end of stream
        }
    }

    std::vector<std::uint8_t> sink;
    for (int d = 0; d < n; ++d) {
        std::vector<int> delivered(n, 0);
        std::vector<char> done(n, 0);
        done[d] = 1;
        int remaining = n - 1;
        while (remaining > 0) {
            bool progress = false;
            for (int s = 0; s < n; ++s) {
                if (done[s])
                    continue;
                std::ptrdiff_t got = net.pollTagInto(
                    d, kTagBase + s, [&](std::size_t len) {
                        sink.resize(len);
                        return sink.data();
                    });
                if (got < 0)
                    continue;
                progress = true;
                if (got == 0) {
                    panicIf(delivered[s] != frames,
                            "bench_allto_all: early end of stream");
                    done[s] = 1;
                    --remaining;
                    continue;
                }
                panicIf(static_cast<std::size_t>(got) != frame_bytes,
                        "bench_allto_all: short frame");
                std::uint8_t want = static_cast<std::uint8_t>(
                    s * 31 + d * 7 + delivered[s]);
                panicIf(sink[0] != want,
                        "bench_allto_all: frame out of order");
                ++delivered[s];
            }
            if (!progress)
                std::this_thread::yield(); // one-core host: let the
                                           // event loops run
        }
    }

    RunResult r;
    for (int s = 0; s < n; ++s) {
        r.bytes.push_back(net.totalBytesSent(s));
        r.msgs.push_back(net.messagesSent(s));
        r.wireNs.push_back(net.wireNs(s));
    }
    r.recvInto = net.recvIntoBytes();
    r.pooled = net.pooledConnections();
    r.framesSent = net.framesSent();
    r.creditStallsNs = net.creditStallsNs();
    r.epollWakeups = net.epollWakeups();
    r.wallMs = sw.elapsedNs() / 1e6;
    return r;
}

void
emitRow(bench::JsonReport::Row &row, const RunResult &r)
{
    row.value("fabric_bytes", static_cast<double>(r.totalBytes()));
    row.value("fabric_msgs", static_cast<double>(r.totalMsgs()));
    row.value("recv_into_bytes", static_cast<double>(r.recvInto));
    row.value("pooled_connections", static_cast<double>(r.pooled));
    row.value("frames_sent", static_cast<double>(r.framesSent));
    row.value("credit_stall_ms", r.creditStallsNs / 1e6);
    row.value("epoll_wakeups", static_cast<double>(r.epollWakeups));
}

void
printRow(const char *transport, int n, const RunResult &r)
{
    std::printf("%-9s %6d %8llu %14llu %10llu %14llu %10.1f\n",
                transport, n,
                static_cast<unsigned long long>(r.pooled),
                static_cast<unsigned long long>(r.totalBytes()),
                static_cast<unsigned long long>(r.totalMsgs()),
                static_cast<unsigned long long>(r.recvInto),
                r.wallMs);
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = bench::parseScale(argc, argv, 1.0);
    std::vector<int> nodes = parseNodes(argc, argv);
    bench::JsonReport report(argc, argv, "bench_allto_all", scale);

    const int frames =
        std::max(1, static_cast<int>(std::lround(2 * scale)));
    const std::size_t frameBytes = 2048;

    bench::printHeader("All-to-all shuffle over the multiplexed "
                       "fabric (model vs tcp)");
    std::printf("frames/pair: %d  frame bytes: %zu\n", frames,
                frameBytes);
    std::printf("%-9s %6s %8s %14s %10s %14s %10s\n", "transport",
                "nodes", "conns", "fabric_bytes", "msgs",
                "recv_into", "wall_ms");

    for (int n : nodes) {
        checkFdBudget(n);

        RunResult model, tcp;
        {
            auto row = report.row("model/" + std::to_string(n));
            model = runAllToAll(TransportKind::Model, n, frames,
                                frameBytes);
            emitRow(row, model);
        }
        printRow("model", n, model);
        {
            auto row = report.row("tcp/" + std::to_string(n));
            tcp = runAllToAll(TransportKind::Tcp, n, frames,
                              frameBytes);
            emitRow(row, tcp);
        }
        printRow("tcp", n, tcp);

        // The three invariants the multiplexing refactor must keep.
        std::uint64_t pairs =
            std::uint64_t(n) * (n - 1) / 2;
        if (tcp.pooled != pairs)
            fatal("bench_allto_all: expected " +
                  std::to_string(pairs) + " pooled connections at N=" +
                  std::to_string(n) + ", saw " +
                  std::to_string(tcp.pooled));

        // Every payload byte lands zero-copy, whatever the credit
        // window (docs/TRANSPORT.md §4-5).
        std::uint64_t payloadBytes = std::uint64_t(n) * (n - 1) *
                                     frames * frameBytes;
        if (tcp.recvInto != payloadBytes)
            fatal("bench_allto_all: zero-copy leak at N=" +
                  std::to_string(n) + ": recv_into_bytes " +
                  std::to_string(tcp.recvInto) + " != payload bytes " +
                  std::to_string(payloadBytes));

        if (tcp.bytes != model.bytes || tcp.msgs != model.msgs ||
            tcp.wireNs != model.wireNs)
            fatal("bench_allto_all: transport parity violated at N=" +
                  std::to_string(n) + ": model sent " +
                  std::to_string(model.totalBytes()) + " B / " +
                  std::to_string(model.totalMsgs()) + " msgs, tcp " +
                  std::to_string(tcp.totalBytes()) + " B / " +
                  std::to_string(tcp.totalMsgs()) + " msgs");

        // One wire frame per fabric message (payloads and end-of-
        // stream markers); a surplus would be protocol chatter.
        if (tcp.framesSent != tcp.totalMsgs())
            fatal("bench_allto_all: frames_sent " +
                  std::to_string(tcp.framesSent) + " != fabric_msgs " +
                  std::to_string(tcp.totalMsgs()) + " at N=" +
                  std::to_string(n));

        std::printf("%6s N=%-4d parity ok, %llu conns = N(N-1)/2, "
                    "zero-copy exact\n", "", n,
                    static_cast<unsigned long long>(tcp.pooled));
    }

    std::printf("\n(one pooled connection per node pair: the 128-node "
                "sweep multiplexes %d streams over %d sockets)\n",
                128 * 127, 128 * 127 / 2);
    return 0;
}
