/**
 * @file
 * Ablation: buffer/chunk size sweep (DESIGN.md ABL3). The paper makes
 * both the output-buffer size and the input-chunk size tunable:
 * small chunks stream earlier and fragment less but pay more
 * per-chunk overhead (flushes, allocations, translation entries).
 * This bench transfers a fixed object graph across the full sweep.
 */

#include "bench/benchutil.hh"
#include "skyway/jvm.hh"
#include "skyway/streams.hh"

using namespace skyway;

int
main(int argc, char **argv)
{
    double scale = bench::parseScale(argc, argv, 1.0);
    bench::JsonReport report(argc, argv, "bench_ablation_chunks",
                             scale);
    const int records = static_cast<int>(60000 * scale);
    ClassCatalog cat = bench::fullCatalog();
    ClusterNetwork net(2);
    Jvm sender(cat, net, 0, 0);
    Jvm receiver(cat, net, 1, 0);

    LocalRoots roots(sender.heap());
    Klass *k = sender.klasses().load("spark.Contrib");
    std::vector<std::size_t> slots;
    for (int i = 0; i < records; ++i) {
        Address rec = sender.heap().allocateInstance(k);
        field::set<std::int32_t>(sender.heap(), rec,
                                 k->requireField("dst"), i);
        field::set<double>(sender.heap(), rec,
                           k->requireField("rank"), i * 0.25);
        slots.push_back(roots.push(rec));
    }

    const FieldDesc &recv_dst =
        receiver.klasses().load("spark.Contrib")->requireField("dst");

    bench::printHeader(
        "Ablation 3: output-buffer / input-chunk size sweep");
    std::printf("%-12s %10s %10s %10s %10s\n", "chunk", "send_ms",
                "recv_ms", "chunks", "flushes~");

    for (std::size_t chunk : {4u << 10, 16u << 10, 64u << 10,
                              256u << 10, 1u << 20}) {
        auto row = report.row(std::to_string(chunk));
        sender.skyway().shuffleStart();
        SkywayObjectInputStream in(receiver.skyway(), chunk);
        std::uint64_t send_ns = 0, recv_ns = 0;
        std::uint64_t fed = 0;
        {
            SkywayObjectOutputStream out(
                sender.skyway(),
                [&](const std::uint8_t *d, std::size_t n) {
                    ScopedTimer t(recv_ns);
                    in.feed(d, n);
                    ++fed;
                },
                chunk);
            ScopedTimer t(send_ns);
            for (std::size_t s : slots)
                out.writeObject(roots.get(s));
            out.flush();
        }
        {
            ScopedTimer t(recv_ns);
            in.finish();
        }
        // Every record was its own top-level object: root i must be
        // the record whose dst is i, whichever chunk it landed in.
        const std::vector<Address> &got = in.buffer().roots();
        if (got.size() != slots.size())
            fatal("bench_ablation_chunks: chunk " +
                  std::to_string(chunk) + ": " +
                  std::to_string(got.size()) + " roots for " +
                  std::to_string(slots.size()) + " records");
        for (std::size_t i = 0; i < got.size(); ++i)
            if (field::get<std::int32_t>(receiver.heap(), got[i],
                                         recv_dst) !=
                static_cast<std::int32_t>(i))
                fatal("bench_ablation_chunks: chunk " +
                      std::to_string(chunk) + ": root " +
                      std::to_string(i) + " is not record " +
                      std::to_string(i));
        send_ns -= std::min(send_ns, recv_ns); // feed ran inside send
        std::printf("%-12zu %10.2f %10.2f %10zu %10llu\n", chunk,
                    send_ns / 1e6, recv_ns / 1e6,
                    in.buffer().chunkCount(),
                    static_cast<unsigned long long>(fed));
        row.value("send_ms", send_ns / 1e6);
        row.value("recv_ms", recv_ns / 1e6);
        row.value("chunks",
                  static_cast<double>(in.buffer().chunkCount()));
        row.value("flushes", static_cast<double>(fed));
        auto buf = in.releaseBuffer();
        buf->free();
        receiver.gc().fullGc();
    }
    std::printf("\n(per-chunk overheads shrink as chunks grow; very "
                "large chunks delay streaming and fragment the old "
                "generation)\n");
    return 0;
}
