/**
 * @file
 * skybench: the repository benchmark's measuring program.
 *
 *   skybench --workload <spark-tc|flink-tpch|media-model> --seed <n>
 *            --seconds <s> --trace <0|1> [--size full|tiny]
 *            [--corrupt-reference]
 *
 * Generates the workload's inputs from the seed, computes its
 * reference results, builds the cluster, warms up, then runs jobs
 * until the time is up and prints one JSON object as its last line:
 * the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). With --trace 1, untraced and traced jobs alternate so
 * the tracing overhead is measured in the same process. skybench/run.py
 * builds this program and validates its output.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/span.hh"
#include "skybench.hh"

using namespace skybench;

namespace
{

/** Linear-interpolation quantile of @p v (0 <= q <= 1). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

template <typename F>
std::vector<double>
collect(const std::vector<JobResult> &jobs, F field)
{
    std::vector<double> out;
    for (const JobResult &j : jobs)
        out.push_back(field(j));
    return out;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "skybench: %s\nusage: skybench --workload "
                 "spark-tc|flink-tpch|media-model --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] "
                 "[--corrupt-reference]\n",
                 msg);
    std::exit(2);
}

/** The per-layer metrics every workload reports with --trace 1, with
 *  their units. */
const struct
{
    const char *name;
    const char *unit;
} layerMetrics[] = {
    {"minispark.compute_s", "s"},
    {"minispark.records_shuffled", "count"},
    {"miniflink.compute_s", "s"},
    {"miniflink.records_shuffled", "count"},
    {"skyway.sender.busy_s", "s"},
    {"skyway.sender.objects", "count"},
    {"skyway.sender.ns_per_object", "ns"},
    {"skyway.sender.header_bytes", "bytes"},
    {"skyway.sender.pointer_bytes", "bytes"},
    {"skyway.sender.padding_bytes", "bytes"},
    {"skyway.sender.data_bytes", "bytes"},
    {"skyway.streams.close_s", "s"},
    {"skyway.wirecompact.saved_bytes", "bytes"},
    {"skyway.wirecompact.saved_ratio", "ratio"},
    {"skyway.wirecompact.compact_records", "count"},
    {"skyway.wirecompact.expand_s", "s"},
    {"net.bytes_sent", "bytes"},
    {"net.messages_sent", "count"},
    {"net.modeled_wire_s", "s"},
    {"skyway.receiver.busy_s", "s"},
    {"skyway.receiver.objects", "count"},
    {"skyway.receiver.bytes", "bytes"},
    {"skyway.receiver.chunks", "count"},
    {"skyway.receiver.refs_absolutized", "count"},
    {"skyway.receiver.ns_per_object", "ns"},
    {"skyway.receiver.zero_copy_ratio", "ratio"},
    {"skyway.receiver.free_s", "s"},
    {"gc.pause_s", "s"},
    {"gc.pause_max_ms", "ms"},
    {"gc.scavenges", "count"},
    {"gc.full_gcs", "count"},
    {"gc.promoted_bytes", "bytes"},
    {"heap.allocated_bytes", "bytes"},
    {"iomodel.write_s", "s"},
    {"iomodel.read_s", "s"},
    {"typereg.remote_lookups", "count"},
    {"ledger.residual_s", "s"},
    {"trace.overhead", "ratio"},
    {"op_p99_ms", "ms"},
    {"op.samples", "count"},
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double budgetS = -1;
    int trace = -1;
    Size size = Size::Full;
    bool corrupt = false;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            workload = next();
        } else if (a == "--seed") {
            seed = std::strtoull(next().c_str(), nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds") {
            budgetS = std::atof(next().c_str());
        } else if (a == "--trace") {
            trace = std::atoi(next().c_str());
        } else if (a == "--size") {
            std::string s = next();
            if (s != "full" && s != "tiny")
                usage("--size must be full or tiny");
            size = s == "tiny" ? Size::Tiny : Size::Full;
        } else if (a == "--corrupt-reference") {
            corrupt = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveSeed || budgetS < 0 || (trace != 0 && trace != 1))
        usage("--seed, --seconds and --trace 0|1 are required");
    auto wl = makeWorkload(workload, size);
    if (!wl)
        usage(("unknown workload '" + workload + "'").c_str());

    // End-to-end numbers must not measure the runtime's tracer, and
    // the traced run uses only the benchmark's own spans.
    if (skyway::obs::SpanTracer::tracingEnabled()) {
        std::fprintf(stderr, "skybench: in-program tracing is on "
                             "(unset SKYWAY_TRACE)\n");
        return 3;
    }

    std::printf("skybench workload=%s seed=%llu seconds=%g trace=%d "
                "size=%s\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                budgetS, trace, size == Size::Full ? "full" : "tiny");
    std::fflush(stdout);

    wl->prepare(seed, corrupt);
    wl->warmUp();

    // Measure: jobs until the budget is spent, at least two of each
    // kind. With --trace 1 every other job is traced.
    std::vector<JobResult> plain, traced;
    std::vector<double> setupS;
    std::uint64_t t0 = nowNs();
    const std::size_t minJobs = 2;
    for (int i = 0;; ++i) {
        bool tr = trace == 1 && i % 2 == 1;
        JobResult j = wl->runJob(tr);
        setupS.insert(setupS.end(), j.setupS.begin(), j.setupS.end());
        (tr ? traced : plain).push_back(std::move(j));
        bool enough = plain.size() >= minJobs &&
                      (trace == 0 || traced.size() >= minJobs);
        if (enough &&
            static_cast<double>(nowNs() - t0) / 1e9 >= budgetS)
            break;
    }

    int attempted = 0, failed = 0;
    for (const auto *set : {&plain, &traced}) {
        for (const JobResult &j : *set) {
            attempted += j.attempted;
            failed += j.failed;
        }
    }

    // Deterministic outputs must repeat exactly from job to job.
    bool deterministic = true;
    for (const auto *set : {&plain, &traced}) {
        for (const JobResult &j : *set)
            deterministic &= j.wireBytes == plain.front().wireBytes;
    }
    bool tracerOff = !skyway::obs::SpanTracer::tracingEnabled();

    std::vector<double> ops;
    for (const JobResult &j : plain)
        ops.insert(ops.end(), j.opMs.begin(), j.opMs.end());

    std::vector<Metric> metrics;
    if (trace == 0) {
        auto med = [&](auto field) {
            return median(collect(plain, field));
        };
        metrics = {
            {"job_s", med([](auto &j) { return j.wallS; }), "s"},
            {"modeled_job_s", med([](auto &j) { return j.modeledS; }),
             "s"},
            {"ser_s", med([](auto &j) { return j.serS; }), "s"},
            {"deser_s", med([](auto &j) { return j.deserS; }), "s"},
            {"wire_bytes", plain.front().wireBytes, "bytes"},
            {"op_p50_ms", quantile(ops, 0.5), "ms"},
            {"op_p90_ms", quantile(ops, 0.9), "ms"},
            {"peak_heap_mb",
             med([](auto &j) { return j.peakHeapMb; }), "MB"},
            {"setup_s", median(setupS), "s"},
        };
    } else {
        auto layerMedian = [&](const char *key) {
            return median(collect(traced, [&](const JobResult &j) {
                auto it = j.layers.find(key);
                return it == j.layers.end() ? 0.0 : it->second;
            }));
        };
        for (const auto &m : layerMetrics)
            metrics.push_back({m.name, layerMedian(m.name), m.unit});
        // Metrics derived from several medians or from the whole run.
        auto set = [&](const std::string &name, double v) {
            for (Metric &m : metrics) {
                if (m.name == name)
                    m.value = v;
            }
        };
        auto perObject = [&](const char *busy, const char *objects) {
            double n = layerMedian(objects);
            return n > 0 ? layerMedian(busy) * 1e9 / n : 0.0;
        };
        set("skyway.sender.ns_per_object",
            perObject("skyway.sender.busy_s", "skyway.sender.objects"));
        set("skyway.receiver.ns_per_object",
            perObject("skyway.receiver.busy_s",
                      "skyway.receiver.objects"));
        double plainWall =
            median(collect(plain, [](auto &j) { return j.wallS; }));
        double tracedWall =
            median(collect(traced, [](auto &j) { return j.wallS; }));
        set("trace.overhead",
            plainWall > 0 ? tracedWall / plainWall - 1 : 0);
        set("op_p99_ms", quantile(ops, 0.99));
        set("op.samples", static_cast<double>(ops.size()));
    }

    // Human-readable summary, then the result object as the last line.
    std::printf("jobs: %zu untraced, %zu traced; ops attempted %d, "
                "failed %d; op latency samples %zu\n",
                plain.size(), traced.size(), attempted, failed,
                ops.size());
    if (!deterministic)
        std::printf("error: wire_bytes differed between jobs\n");
    if (!tracerOff)
        std::printf("error: in-program tracing switched on\n");
    for (const Metric &m : metrics)
        std::printf("  %-36s %16s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit);

    bool correct = failed == 0 && deterministic && tracerOff;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               number(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
