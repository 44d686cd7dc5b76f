/**
 * @file
 * miniflink: a batch tuple-dataflow substrate reproducing the part of
 * Flink the paper's section 5.3 evaluates. Rows are managed-heap
 * objects of fixed per-table classes; every shuffle channel carries
 * one row class whose serializer Flink selects *statically from the
 * schema* (per-field built-in serializers, no class tags on the
 * wire). Deserialization is *lazy*: only the fields the downstream
 * transformation declared as needed are materialized, the rest are
 * skipped — which is why Flink's deserialization time is far smaller
 * than its serialization time (8.7% vs 23.5% in the paper), the
 * asymmetry Table 4 shows Skyway removing.
 */

#ifndef SKYWAY_MINIFLINK_MINIFLINK_HH
#define SKYWAY_MINIFLINK_MINIFLINK_HH

#include <memory>
#include <string>
#include <vector>

#include "iomodel/breakdown.hh"
#include "support/bytebuffer.hh"
#include "skyway/jvm.hh"
#include "skyway/streams.hh"
#include "support/stopwatch.hh"

namespace skyway
{

/** Which data-transfer engine the cluster uses. */
enum class FlinkSerMode
{
    Builtin,
    Skyway,
};

struct FlinkConfig
{
    int numWorkers = 3;
    HeapConfig workerHeap{};
    NetworkCostModel network = gigabitEthernet();
    DiskCostModel disk{};
    /** Which transport carries remote shuffle partitions. */
    TransportKind transport = TransportKind::Model;
};

/** Fabric tag for miniflink shuffle traffic. */
namespace flinkmsg
{
constexpr int shuffle = 211;
} // namespace flinkmsg

/**
 * Row fields the built-in serializers wrote, and the fields their lazy
 * readers decoded into rows. A skipped field is never decoded, so
 * decoded < written is the structural form of lazy deserialization.
 */
struct FlinkFieldCounts
{
    std::uint64_t written = 0;
    std::uint64_t decoded = 0;
};

class FlinkCluster
{
  public:
    FlinkCluster(const ClassCatalog &catalog, FlinkSerMode mode,
                 FlinkConfig config = FlinkConfig{});

    int numWorkers() const { return config_.numWorkers; }
    FlinkSerMode mode() const { return mode_; }
    Jvm &driver() { return *nodes_[0]; }
    Jvm &worker(int w) { return *nodes_[w + 1]; }
    ClusterNetwork &net() { return *net_; }
    SkywaySerializer &skywaySerializer(int w)
    {
        return *skywaySer_[w];
    }

    PhaseBreakdown &breakdown(int w) { return breakdowns_[w]; }
    PhaseBreakdown averageBreakdown() const;
    PhaseBreakdown totalBreakdown() const;
    void resetBreakdowns();

    /** Built-in row-serializer field counts, summed over workers since
     *  the last resetBreakdowns(); Skyway mode counts nothing. */
    FlinkFieldCounts &fieldCounts() { return fieldCounts_; }

    void
    chargeCompute(int w, std::uint64_t ns)
    {
        breakdowns_[w].computeNs += ns;
    }

    int
    ownerOf(std::uint64_t key) const
    {
        return static_cast<int>(key % config_.numWorkers);
    }

  private:
    FlinkConfig config_;
    FlinkSerMode mode_;
    std::unique_ptr<ClusterNetwork> net_;
    std::vector<std::unique_ptr<Jvm>> nodes_;
    std::vector<std::unique_ptr<SkywaySerializer>> skywaySer_;
    std::vector<PhaseBreakdown> breakdowns_;
    FlinkFieldCounts fieldCounts_;
};

/**
 * The statically chosen per-row-class serializer: fixed-width
 * primitives, length-prefixed strings, fields in layout order. The
 * lazy reader materializes only @c needed fields and skips the rest
 * in the byte stream.
 */
class FlinkRowSerializer
{
  public:
    /**
     * @param klasses  node klass table
     * @param row_class the channel's row class
     * @param needed   names of fields the downstream transformation
     *                 reads; empty means "all fields"
     * @param counts   where to count written and decoded fields, or
     *                 null
     */
    FlinkRowSerializer(KlassTable &klasses,
                       const std::string &row_class,
                       const std::vector<std::string> &needed,
                       FlinkFieldCounts *counts = nullptr);

    void write(Jvm &jvm, Address row, ByteSink &out) const;
    Address read(Jvm &jvm, ByteSource &in) const;

  private:
    Klass *klass_;
    std::vector<bool> neededMask_;
    /** True when some needed field is a reference: reading it
     *  allocates (string materialization), so the row must be rooted
     *  across the read. Pure-primitive reads skip the root churn. */
    bool materializesRefs_ = false;
    /** Reusable intermediate serialization buffer (Flink's
     *  DataOutputSerializer equivalent). */
    mutable VectorSink tmp_;
    /** Index of the last needed field: the lazy reader stops parsing
     *  there and jumps to the record end via the length frame. */
    std::size_t lastNeeded_ = 0;
    FlinkFieldCounts *counts_;
};

/**
 * One all-to-all exchange of rows of a single class.
 */
class FlinkShuffle
{
  public:
    /**
     * @param needed fields the consumer reads (lazy-deser set);
     *               ignored under Skyway, which moves whole objects
     */
    FlinkShuffle(FlinkCluster &cluster, std::string name,
                 std::string row_class,
                 std::vector<std::string> needed);

    void add(int src, int dst, Address row);
    void writePhase();
    std::unique_ptr<RecordBatch> read(int dst);

    std::uint64_t recordsAdded() const { return recordsAdded_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    std::string fileName(int src, int dst) const;

    FlinkCluster &cluster_;
    std::string name_;
    std::string rowClass_;
    std::vector<std::unique_ptr<FlinkRowSerializer>> rowSer_;
    std::vector<std::unique_ptr<LocalRoots>> srcRoots_;
    std::vector<std::vector<std::vector<std::size_t>>> buckets_;
    std::vector<std::vector<std::uint64_t>> counts_;
    bool written_ = false;
    std::uint64_t recordsAdded_ = 0;
    std::uint64_t bytesWritten_ = 0;
};

} // namespace skyway

#endif // SKYWAY_MINIFLINK_MINIFLINK_HH
