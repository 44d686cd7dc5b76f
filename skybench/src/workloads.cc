/**
 * @file
 * The three benchmark workloads (skybench/README.md):
 *
 *  - spark-tc:   minispark TriangleCounting over a UK-2005-shaped
 *                power-law graph, raw Skyway, model transport;
 *  - flink-tpch: miniflink queries QA–QE under FlinkSerMode::Skyway,
 *                one fresh cluster per query;
 *  - media-model: a closed loop of Skyway socket-stream transfers of
 *                64 media-content graphs over the model transport
 *                with the adaptive compact encoding.
 *
 * Each one generates its inputs from the seed, computes a reference
 * without Skyway before anything is timed, and checks every operation
 * against it.
 */

#include <algorithm>

#include "miniflink/queries.hh"
#include "minispark/apps.hh"
#include "obs/metrics.hh"
#include "sanitize/graphcheck.hh"
#include "sd/kryoserializer.hh"
#include "skybench.hh"
#include "skyway/streams.hh"
#include "typereg/registry.hh"
#include "workloads/media.hh"

using namespace skyway;

namespace skybench
{

namespace
{

constexpr double mib = 1024.0 * 1024.0;

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** Registry counters read per job, by name. */
const char *const probedCounters[] = {
    "skyway.sender.objects_copied",
    "skyway.sender.bytes_copied",
    "skyway.sender.header_bytes",
    "skyway.sender.pointer_bytes",
    "skyway.sender.padding_bytes",
    "skyway.sender.data_bytes",
    "skyway.sender.compact_bytes_saved",
    "skyway.sender.compact_records",
    "skyway.receiver.objects_received",
    "skyway.receiver.bytes_received",
    "skyway.receiver.chunks_allocated",
    "skyway.receiver.refs_absolutized",
    "skyway.receiver.zero_copy_bytes",
    "skyway.receiver.expand_ns",
    "net.bytes_sent",
    "net.messages_sent",
    "net.wire_ns",
    "gc.scavenges",
    "gc.full_gcs",
    "gc.promoted_bytes",
};

obs::Histogram &
gcPauseHistogram()
{
    // The collector registers this histogram on its first pause; the
    // bounds only matter if the benchmark asks first, and only sum
    // and max are read here.
    return obs::MetricsRegistry::global().histogram(
        "gc.pause_ns", obs::exponentialBounds(1000, 4.0, 10));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Σ remote class-id lookups the workers' registry endpoints issued. */
double
remoteLookups(std::initializer_list<Jvm *> nodes)
{
    double n = 0;
    for (Jvm *jvm : nodes) {
        if (auto *w = dynamic_cast<TypeRegistryWorker *>(
                &jvm->resolver()))
            n += static_cast<double>(w->stats().remoteLookupsIssued);
    }
    return n;
}

} // namespace

RegistryProbe::RegistryProbe()
{
    auto &reg = obs::MetricsRegistry::global();
    for (const char *name : probedCounters)
        before_.emplace_back(name, reg.counter(name).value());
    // Only the maximum needs a reset: it has no per-job delta.
    gcPauseHistogram().reset();
}

void
RegistryProbe::finish(std::map<std::string, double> &layers) const
{
    auto &reg = obs::MetricsRegistry::global();
    std::map<std::string, double> d;
    for (const auto &[name, v0] : before_)
        d[name] = static_cast<double>(reg.counter(name).value() - v0);

    layers["skyway.sender.objects"] = d["skyway.sender.objects_copied"];
    for (const char *part : {"header", "pointer", "padding", "data"}) {
        std::string key = std::string("skyway.sender.") + part + "_bytes";
        layers[key] = d[key];
    }
    layers["skyway.wirecompact.saved_bytes"] =
        d["skyway.sender.compact_bytes_saved"];
    layers["skyway.wirecompact.saved_ratio"] =
        ratio(d["skyway.sender.compact_bytes_saved"],
              d["skyway.sender.bytes_copied"]);
    layers["skyway.wirecompact.compact_records"] =
        d["skyway.sender.compact_records"];
    layers["skyway.wirecompact.expand_s"] =
        d["skyway.receiver.expand_ns"] / 1e9;

    layers["skyway.receiver.objects"] =
        d["skyway.receiver.objects_received"];
    layers["skyway.receiver.bytes"] = d["skyway.receiver.bytes_received"];
    layers["skyway.receiver.chunks"] =
        d["skyway.receiver.chunks_allocated"];
    layers["skyway.receiver.refs_absolutized"] =
        d["skyway.receiver.refs_absolutized"];
    layers["skyway.receiver.zero_copy_ratio"] =
        ratio(d["skyway.receiver.zero_copy_bytes"],
              d["skyway.receiver.bytes_received"]);

    layers["net.bytes_sent"] = d["net.bytes_sent"];
    layers["net.messages_sent"] = d["net.messages_sent"];
    layers["net.modeled_wire_s"] = d["net.wire_ns"] / 1e9;

    const obs::Histogram &pause = gcPauseHistogram();
    layers["gc.pause_s"] = static_cast<double>(pause.sum()) / 1e9;
    layers["gc.pause_max_ms"] = static_cast<double>(pause.max()) / 1e6;
    layers["gc.scavenges"] = d["gc.scavenges"];
    layers["gc.full_gcs"] = d["gc.full_gcs"];
    layers["gc.promoted_bytes"] = d["gc.promoted_bytes"];
}

namespace
{

void
recordHeaps(JobResult &r, std::initializer_list<ManagedHeap *> heaps)
{
    for (ManagedHeap *h : heaps) {
        // The heap samples its peak at each scavenge; the level at the
        // job's end covers jobs that finish between collections.
        const HeapStats &st = h->stats();
        double peak = static_cast<double>(
            std::max<std::uint64_t>(st.peakUsedBytes, h->usedBytes()));
        r.peakHeapMb = std::max(r.peakHeapMb, peak / mib);
        r.layers["heap.allocated_bytes"] +=
            static_cast<double>(st.bytesAllocated);
    }
}

/** Add one engine run's numbers (a SparkAppResult or a
 *  FlinkQueryResult, and its cluster) to the job. */
template <typename Cluster, typename Result>
void
recordEngineRun(JobResult &r, const std::string &engine,
                Cluster &cluster, const Result &res)
{
    r.modeledS += seconds(res.average.totalNs());
    r.serS += seconds(res.total.serNs);
    r.deserS += seconds(res.total.deserNs);
    r.wireBytes += static_cast<double>(res.shuffledBytes);
    r.layers[engine + ".compute_s"] += seconds(res.total.computeNs);
    r.layers[engine + ".records_shuffled"] +=
        static_cast<double>(res.shuffledRecords);
    r.layers["iomodel.write_s"] += seconds(res.total.writeIoNs);
    r.layers["iomodel.read_s"] += seconds(res.total.readIoNs);
    for (int w = 0; w < cluster.numWorkers(); ++w) {
        Jvm &jvm = cluster.worker(w);
        recordHeaps(r, {&jvm.heap()});
        r.layers["typereg.remote_lookups"] += remoteLookups({&jvm});
    }
}

// ---------------------------------------------------------------- spark-tc

class SparkTc : public Workload
{
  public:
    explicit SparkTc(Size size) : scale_(size == Size::Full ? 0.1 : 0.004)
    {}

    void
    prepare(std::uint64_t seed, bool corrupt_reference) override
    {
        catalog_ = makeStandardCatalog();
        defineSparkAppClasses(catalog_);
        GraphSpec spec = uk2005Shaped(scale_);
        spec.seed = seed;
        graph_ = generateGraph(spec);

        // Reference: the same job under Kryo, without Skyway.
        auto registry = std::make_shared<KryoRegistry>();
        registerSparkAppKryo(*registry);
        KryoSerializerFactory kryo(registry);
        SparkCluster cluster(catalog_, kryo, config());
        reference_ = runTriangleCount(cluster, graph_).checksum;
        if (corrupt_reference)
            reference_ += 1;
    }

    JobResult
    runJob(bool traced) override
    {
        JobResult r;
        StreamSpans spans;
        ClusterSkywayFactory skyway;
        TracedSerializerFactory tracing(skyway, spans);

        std::uint64_t t0 = nowNs();
        auto cluster = std::make_unique<SparkCluster>(
            catalog_,
            traced ? static_cast<SerializerFactory &>(tracing) : skyway,
            config());
        skyway.bind(*cluster);
        // Raw Skyway, pinned as bench::makeCluster pins the "skyway"
        // column: the env knob must not switch the encoding.
        cluster->driver().skyway().setWireCompactMode(
            WireCompactMode::Off);
        for (int w = 0; w < cluster->numWorkers(); ++w)
            cluster->worker(w).skyway().setWireCompactMode(
                WireCompactMode::Off);
        r.setupS.push_back(seconds(nowNs() - t0));

        RegistryProbe probe;
        std::uint64_t j0 = nowNs();
        SparkAppResult res = runTriangleCount(*cluster, graph_);
        r.wallS = seconds(nowNs() - j0);

        r.attempted = 1;
        r.failed = res.checksum == reference_ ? 0 : 1;
        r.opMs.push_back(r.wallS * 1e3);
        recordEngineRun(r, "minispark", *cluster, res);

        // Teardown closes the decorators' open read spans and
        // publishes the input buffers' last counter deltas.
        cluster.reset();
        probe.finish(r.layers);

        double compute = r.layers["minispark.compute_s"];
        double sender = traced ? seconds(spans.senderNs) : r.serS;
        double receiver = traced ? seconds(spans.receiverNs) : r.deserS;
        double freed = seconds(spans.freeNs);
        r.layers["skyway.sender.busy_s"] = sender;
        r.layers["skyway.receiver.busy_s"] = receiver;
        r.layers["skyway.receiver.free_s"] = freed;
        r.layers["ledger.residual_s"] =
            r.wallS - (compute + sender + receiver + freed);
        return r;
    }

  private:
    static SparkConfig
    config()
    {
        SparkConfig cfg;
        cfg.numWorkers = 3;
        // TriangleCounting tenures the wedge records.
        cfg.workerHeap.oldBytes = 1024ull << 20;
        cfg.transport = TransportKind::Model;
        return cfg;
    }

    double scale_;
    ClassCatalog catalog_;
    EdgeList graph_;
    double reference_ = 0;
};

// ---------------------------------------------------------------- flink-tpch

class FlinkTpch : public Workload
{
  public:
    explicit FlinkTpch(Size size)
        : scale_(size == Size::Full ? 1.0 : 0.02)
    {}

    void
    prepare(std::uint64_t seed, bool corrupt_reference) override
    {
        catalog_ = makeStandardCatalog();
        defineTpchClasses(catalog_);
        TpchSpec spec;
        spec.scale = scale_;
        spec.seed = seed;
        db_ = generateTpch(spec);

        // Reference: Flink's built-in row serializers, no Skyway.
        for (char q : queries) {
            FlinkCluster cluster(catalog_, FlinkSerMode::Builtin,
                                 config());
            double sum = runQuery(q, cluster, db_).checksum;
            reference_.push_back(corrupt_reference ? sum + 1 : sum);
        }
    }

    // Skyway's ser time falls over the first passes; settle it.
    void warmUp() override { runJob(false); }

    JobResult
    runJob(bool /* traced: the engine's own phase timers suffice */)
        override
    {
        JobResult r;
        RegistryProbe probe;
        for (std::size_t i = 0; i < std::size(queries); ++i) {
            std::uint64_t t0 = nowNs();
            auto cluster = std::make_unique<FlinkCluster>(
                catalog_, FlinkSerMode::Skyway, config());
            r.setupS.push_back(seconds(nowNs() - t0));

            std::uint64_t q0 = nowNs();
            FlinkQueryResult res = runQuery(queries[i], *cluster, db_);
            double opS = seconds(nowNs() - q0);

            r.wallS += opS;
            ++r.attempted;
            r.failed += res.checksum == reference_[i] ? 0 : 1;
            recordEngineRun(r, "miniflink", *cluster, res);
        }
        probe.finish(r.layers);
        // The latency sample is the whole pass: the five queries differ
        // in size, so a percentile over single queries would depend on
        // which query lands at that rank.
        r.opMs.push_back(r.wallS * 1e3);

        // miniflink's Skyway path is not pluggable: its always-on
        // phase timers are the sender and receiver spans.
        double compute = r.layers["miniflink.compute_s"];
        r.layers["skyway.sender.busy_s"] = r.serS;
        r.layers["skyway.receiver.busy_s"] = r.deserS;
        r.layers["ledger.residual_s"] =
            r.wallS - (compute + r.serS + r.deserS);
        return r;
    }

  private:
    static constexpr char queries[] = {'A', 'B', 'C', 'D', 'E'};

    static FlinkConfig
    config()
    {
        FlinkConfig cfg;
        cfg.numWorkers = 3;
        cfg.workerHeap.oldBytes = 1024ull << 20;
        cfg.transport = TransportKind::Model;
        return cfg;
    }

    double scale_;
    ClassCatalog catalog_;
    TpchData db_;
    std::vector<double> reference_;
};

// ---------------------------------------------------------------- media-model

class MediaModel : public Workload
{
  public:
    explicit MediaModel(Size size)
        : transfersPerJob_(size == Size::Full ? 100 : 4)
    {}

    void
    prepare(std::uint64_t seed, bool corrupt_reference) override
    {
        catalog_ = makeStandardCatalog();
        defineMediaClasses(catalog_);
        seed_ = seed;
        // Every transfer must deliver exactly its batch of roots.
        expectedRoots_ = graphsPerTransfer + (corrupt_reference ? 1 : 0);
    }

    JobResult
    runJob(bool traced) override
    {
        JobResult r;
        // A fresh cluster per job, as on the engines: every job starts
        // from empty heaps, so the identity-hash sequence (and with it
        // the compact bytes of the hashed transfers) repeats exactly.
        // One warm-up transfer settles the class-id LOOKUPs.
        std::uint64_t t0 = nowNs();
        auto cluster = std::make_unique<Cluster>(catalog_);
        Cluster &c = *cluster;
        transfer(c, warmUpIndex, false);
        r.setupS.push_back(seconds(nowNs() - t0));

        double lookups0 = remoteLookups({&c.src, &c.dst});
        RegistryProbe probe;
        double sender = 0, close = 0, receiver = 0, freed = 0;
        for (int t = 0; t < transfersPerJob_; ++t) {
            Times tm = transfer(c, t, traced);
            double latency = seconds(tm.pumped - tm.start);
            r.wallS += latency + seconds(tm.freeNs);
            r.opMs.push_back(latency * 1e3);
            ++r.attempted;
            r.failed += tm.ok ? 0 : 1;
            r.serS += seconds(tm.closed - tm.start);
            r.deserS += seconds(tm.pumped - tm.closed);
            sender += seconds(tm.written - tm.opened);
            close += seconds(tm.closed - tm.written);
            receiver += seconds(tm.pumped - tm.closed);
            freed += seconds(tm.freeNs);
        }
        probe.finish(r.layers);
        recordHeaps(r, {&c.src.heap(), &c.dst.heap()});
        r.layers["typereg.remote_lookups"] =
            remoteLookups({&c.src, &c.dst}) - lookups0;

        r.wireBytes = r.layers["net.bytes_sent"];
        r.modeledS = r.serS + r.deserS + r.layers["net.modeled_wire_s"];
        r.layers["skyway.sender.busy_s"] = sender;
        r.layers["skyway.streams.close_s"] = close;
        r.layers["skyway.receiver.busy_s"] = receiver;
        r.layers["skyway.receiver.free_s"] = freed;
        r.layers["ledger.residual_s"] =
            r.wallS - (sender + close + receiver + freed);
        return r;
    }

  private:
    static constexpr int graphsPerTransfer = 64;
    /** Batch index of each cluster's warm-up transfer. */
    static constexpr int warmUpIndex = 1 << 20;
    /** Every this many transfers, cache the roots' identity hashes
     *  before sending and prove the received graphs isomorphic to the
     *  sent ones, hashes included. */
    static constexpr int graphCheckEvery = 10;
    static constexpr int tag = 301;

    /**
     * Driver and two workers. The model transport, not TCP: on a
     * shared 4-vCPU host the TCP path's cross-thread wake-ups made the
     * transfer p90 swing by up to 1.9x between runs (skybench/README.md,
     * "Noise"); the compact and reserve/commit paths run either way.
     */
    struct Cluster
    {
        explicit Cluster(const ClassCatalog &catalog)
            : net(3, gigabitEthernet(), TransportKind::Model),
              driver(catalog, net, 0, 0),
              src(catalog, net, 1, 0),
              dst(catalog, net, 2, 0)
        {
            // Adaptive compact encoding at the 1 GbE link cost.
            for (Jvm *jvm : {&driver, &src, &dst})
                jvm->skyway().setWireCompactMode(WireCompactMode::Auto);
        }

        ClusterNetwork net;
        Jvm driver;
        Jvm src;
        Jvm dst;
    };

    /** Timestamps of one transfer (ns), plus its free span. */
    struct Times
    {
        std::uint64_t start, opened, written, closed, pumped;
        std::uint64_t freeNs;
        bool ok;
    };

    /** Transfer batch @p index from worker 1 to worker 2 and check it.
     *  Batch contents depend only on the seed and @p index; identity
     *  hashes depend on the sender heap's hash sequence, which starts
     *  afresh with each cluster. */
    Times
    transfer(Cluster &c, int index, bool traced)
    {
        LocalRoots roots(c.src.heap());
        Rng rng(seed_ ^ (0x9e3779b97f4a7c15ull *
                         static_cast<std::uint64_t>(index + 1)));
        std::vector<std::size_t> slots;
        for (int g = 0; g < graphsPerTransfer; ++g)
            slots.push_back(makeMediaContent(c.src, roots, rng));
        bool checkGraphs = index % graphCheckEvery == 0;
        if (checkGraphs) {
            for (std::size_t s : slots)
                c.src.heap().identityHash(roots.get(s));
        }
        c.src.skyway().shuffleStart();

        Times tm{};
        std::unique_ptr<InputBuffer> received;
        {
            tm.start = nowNs();
            SkywaySocketOutputStream out(c.src.skyway(), c.net,
                                         c.src.id(), c.dst.id(), tag);
            SkywaySocketInputStream in(c.dst.skyway(), c.net,
                                       c.dst.id(), tag);
            // Untraced runs read the clock only at the boundaries the
            // end-to-end ser/deser split needs.
            tm.opened = traced ? nowNs() : tm.start;
            for (std::size_t s : slots)
                out.writeObject(roots.get(s));
            tm.written = traced ? nowNs() : tm.opened;
            out.close();
            tm.closed = nowNs();
            while (!in.pump()) {
            }
            tm.pumped = nowNs();

            std::vector<Address> got;
            while (in.hasNext())
                got.push_back(in.readObject());
            tm.ok = got.size() == expectedRoots_;
            for (std::size_t i = 0; tm.ok && i < got.size(); ++i) {
                tm.ok = mediaContentWellFormed(c.dst, got[i]);
                if (tm.ok && checkGraphs)
                    tm.ok = sanitize::checkHeapGraphs(
                                c.src.heap(), roots.get(slots[i]),
                                c.dst.heap(), got[i], true)
                                .equal;
            }
            received = in.releaseBuffer();
        }
        std::uint64_t f0 = nowNs();
        received.reset();
        tm.freeNs = nowNs() - f0;
        return tm;
    }

    int transfersPerJob_;
    ClassCatalog catalog_;
    std::uint64_t seed_ = 0;
    std::size_t expectedRoots_ = graphsPerTransfer;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, Size size)
{
    if (name == "spark-tc")
        return std::make_unique<SparkTc>(size);
    if (name == "flink-tpch")
        return std::make_unique<FlinkTpch>(size);
    if (name == "media-model")
        return std::make_unique<MediaModel>(size);
    return nullptr;
}

} // namespace skybench
