/**
 * @file
 * Figure 8(a) and Table 2 of the paper: the full Spark grid — four
 * workloads (WordCount, ConnectedComponents, PageRank,
 * TriangleCounting) over the four Table 1 graphs under the Java
 * serializer, Kryo, and Skyway. Prints one breakdown row per
 * (app, graph, serializer) cell, then the Table 2 summary: each metric
 * normalized to the Java serializer with range and geometric mean.
 *
 * WordCount's input is the graph's edge list rendered as text (the
 * dataset file), so all four apps share each input. PageRank runs a
 * fixed 5 iterations (the paper caps TW at 10); CC runs to
 * convergence.
 */

#include <cmath>
#include <map>

#include "bench/benchutil.hh"
#include "workloads/graphgen.hh"

using namespace skyway;

namespace
{

std::vector<std::string>
edgeListAsText(const EdgeList &g)
{
    std::vector<std::string> lines;
    lines.reserve(g.edges.size());
    for (auto [u, v] : g.edges)
        lines.push_back("v" + std::to_string(u) + " v" +
                        std::to_string(v));
    return lines;
}

struct Cell
{
    SparkAppResult res;
};

struct Ratios
{
    std::vector<double> overall, ser, write, des, read, size;

    void
    add(const SparkAppResult &base, const SparkAppResult &x)
    {
        auto ratio = [](double a, double b) {
            return b > 0 ? a / b : 1.0;
        };
        overall.push_back(
            ratio(x.average.totalNs(), base.average.totalNs()));
        ser.push_back(ratio(x.average.serNs, base.average.serNs));
        write.push_back(
            ratio(x.average.writeIoNs, base.average.writeIoNs));
        des.push_back(ratio(x.average.deserNs, base.average.deserNs));
        read.push_back(
            ratio(x.average.readIoNs, base.average.readIoNs));
        size.push_back(ratio(static_cast<double>(x.shuffledBytes),
                             static_cast<double>(base.shuffledBytes)));
    }
};

void
printRatioLine(const char *name, const std::vector<double> &v)
{
    double lo = v[0], hi = v[0], logsum = 0;
    for (double x : v) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        logsum += std::log(x);
    }
    std::printf("  %-8s %.2f ~ %.2f  (geomean %.2f)\n", name, lo, hi,
                std::exp(logsum / v.size()));
}

/**
 * Fatal unless the Skyway cell's receivers committed every shipped
 * byte in place: with compaction pinned off, each raw segment lands
 * through reserve/commit, so skyway.receiver.zero_copy_bytes must
 * equal the senders' copied records plus one word per top mark and
 * two per backward reference, over the cell's registry deltas.
 */
void
checkZeroCopy(const std::string &label,
              const obs::MetricsSnapshot &before)
{
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().deltaSince(before);
    auto get = [&delta](std::string_view name) {
        for (const auto &[k, v] : delta.scalars)
            if (k == name)
                return static_cast<std::uint64_t>(v);
        return std::uint64_t{0};
    };
    std::uint64_t payload = get("skyway.sender.bytes_copied") +
                            wordSize * get("skyway.sender.top_marks") +
                            2 * wordSize * get("skyway.sender.back_refs");
    std::uint64_t zero_copy = get("skyway.receiver.zero_copy_bytes");
    if (zero_copy != payload)
        fatal("bench_fig8a_spark: " + label + ": zero_copy_bytes " +
              std::to_string(zero_copy) + " != sender payload " +
              std::to_string(payload));
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = bench::parseScale(argc, argv, 0.12);
    bench::JsonReport report(argc, argv, "bench_fig8a_spark", scale);
    ClassCatalog cat = bench::fullCatalog();

    const std::vector<std::string> serializers = {"java", "kryo",
                                                  "skyway"};
    const std::vector<std::string> apps = {"WC", "CC", "PR", "TC"};

    bench::printHeader("Figure 8(a): Spark grid (per-worker average)");
    std::printf("rows are app-graph cells; columns the five-way "
                "breakdown\n\n");
    bench::printBreakdownHeader();

    std::map<std::pair<std::string, std::string>,
             std::map<std::string, SparkAppResult>>
        grid;

    for (const GraphSpec &spec : table1Graphs(scale)) {
        EdgeList g = generateGraph(spec);
        std::vector<std::string> text = edgeListAsText(g);
        for (const std::string &app : apps) {
            for (const std::string &ser : serializers) {
                const std::string label =
                    spec.name + "-" + app + "/" + ser;
                auto row = report.row(label);
                obs::MetricsSnapshot before =
                    obs::MetricsRegistry::global().snapshot();
                SparkAppResult res;
                {
                    bench::SparkSetup setup =
                        bench::makeSparkSetup(ser);
                    SparkConfig cfg;
                    // TriangleCounting's wedge shuffles tenure
                    // hundreds of MB of live records on the larger
                    // graphs.
                    cfg.workerHeap.oldBytes = 3072ull << 20;
                    auto cluster = bench::makeCluster(cat, setup, cfg);
                    if (app == "WC")
                        res = runWordCount(*cluster, text);
                    else if (app == "CC")
                        res = runConnectedComponents(*cluster, g);
                    else if (app == "PR")
                        res = runPageRank(*cluster, g, 5);
                    else
                        res = runTriangleCount(*cluster, g);
                }
                // The cluster is gone: every sender and receiver has
                // published its counters.
                if (ser == "skyway")
                    checkZeroCopy(label, before);
                bench::printBreakdownRow(label, res.average);
                row.value("compute_ms", res.average.computeNs / 1e6);
                row.value("ser_ms", res.average.serNs / 1e6);
                row.value("write_ms", res.average.writeIoNs / 1e6);
                row.value("deser_ms", res.average.deserNs / 1e6);
                row.value("read_ms", res.average.readIoNs / 1e6);
                row.value("total_ms", res.average.totalNs() / 1e6);
                row.value("shuffled_bytes",
                          static_cast<double>(res.shuffledBytes));
                if (ser == "skyway") {
                    // Skyway's combined S+D time over Kryo's in this
                    // cell (the columns run java, kryo, skyway).
                    const SparkAppResult &kryo =
                        grid[{spec.name, app}]["kryo"];
                    row.value("sd_vs_kryo",
                              static_cast<double>(res.average.serNs +
                                                  res.average.deserNs) /
                                  static_cast<double>(
                                      kryo.average.serNs +
                                      kryo.average.deserNs));
                }
                grid[{spec.name, app}][ser] = res;
            }
            // Cross-serializer result check.
            auto &cell = grid[{spec.name, app}];
            if (cell["java"].checksum != cell["kryo"].checksum ||
                cell["java"].checksum != cell["skyway"].checksum)
                panic(spec.name + "-" + app +
                      ": serializers disagree on the result");
        }
    }

    // Table 2.
    Ratios kryoR, skyR;
    for (auto &[key, cell] : grid) {
        kryoR.add(cell["java"], cell["kryo"]);
        skyR.add(cell["java"], cell["skyway"]);
    }
    bench::printHeader(
        "Table 2: normalized to the Java serializer (lower is "
        "better)");
    std::printf("kryo     (paper: overall 0.39~0.94 gm 0.76, size gm "
                "0.52):\n");
    printRatioLine("overall", kryoR.overall);
    printRatioLine("ser", kryoR.ser);
    printRatioLine("write", kryoR.write);
    printRatioLine("des", kryoR.des);
    printRatioLine("read", kryoR.read);
    printRatioLine("size", kryoR.size);
    std::printf("skyway   (paper: overall 0.27~0.92 gm 0.64, des gm "
                "0.16, size gm 1.15):\n");
    printRatioLine("overall", skyR.overall);
    printRatioLine("ser", skyR.ser);
    printRatioLine("write", skyR.write);
    printRatioLine("des", skyR.des);
    printRatioLine("read", skyR.read);
    printRatioLine("size", skyR.size);
    return 0;
}
