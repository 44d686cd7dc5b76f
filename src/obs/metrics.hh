/**
 * @file
 * The process-wide metrics registry (paper section 5's methodology,
 * turned into a subsystem): every interesting quantity in the runtime
 * — objects copied, bytes on the wire, GC pauses — is a named metric
 * registered once and updated lock-free on the hot path.
 *
 * Three metric kinds:
 *
 *  - Counter:   monotonically increasing u64 (relaxed atomic add);
 *  - Gauge:     signed level that moves both ways (heap in use);
 *  - Histogram: fixed-bucket latency/size distribution — bucket
 *               boundaries are chosen at registration, recording is a
 *               linear scan over a handful of boundaries plus three
 *               relaxed atomic adds.
 *
 * Registration (name lookup) takes a mutex and may allocate; it is
 * meant to run once per site — instrumented code caches the returned
 * reference (metric objects are never moved or freed). Updates never
 * lock and never allocate, which keeps the instrumentation overhead
 * within the ≤2% budget on the transfer hot path.
 *
 * Naming convention (see docs/OBSERVABILITY.md): dotted lowercase
 * namespaces — `skyway.sender.*`, `skyway.receiver.*`, `net.*`,
 * `gc.*`, `sd.<name>.*` — with `_bytes`/`_ns` unit suffixes.
 */

#ifndef SKYWAY_OBS_METRICS_HH
#define SKYWAY_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/thread_annotations.hh"

namespace skyway
{
namespace obs
{

/** A monotonically increasing counter. */
class Counter
{
  public:
    void
    add(std::uint64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** A level that can move both ways. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { set(0); }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * A fixed-bucket histogram. Bucket i counts samples with
 * value <= bounds[i]; one implicit overflow bucket counts the rest.
 * Bounds are fixed at registration so recording is allocation-free.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::uint64_t> bounds);

    void record(std::uint64_t v);

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }

    /** Samples in bucket @p i; i == bounds().size() is overflow. */
    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    void reset();

  private:
    std::vector<std::uint64_t> bounds_;
    /** bounds_.size() + 1 slots; the last is the overflow bucket. */
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/** @p count boundaries starting at @p first, multiplied by @p factor. */
std::vector<std::uint64_t> exponentialBounds(std::uint64_t first,
                                             double factor,
                                             std::size_t count);

/** A point-in-time copy of every registered metric's value. */
struct MetricsSnapshot
{
    /** Counters and gauges flattened to (name, value), name-sorted. */
    std::vector<std::pair<std::string, std::int64_t>> scalars;

    /**
     * The per-key difference @p this - @p base. Keys registered after
     * @p base was taken appear with their full value, so two
     * snapshots of the same registry always diff cleanly.
     */
    MetricsSnapshot deltaSince(const MetricsSnapshot &base) const;
};

/**
 * The registry: name -> metric. One process-wide instance
 * (MetricsRegistry::global()) serves the whole runtime; tests may
 * construct private registries.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &global();

    /**
     * The counter named @p name, creating it on first use. The
     * returned reference is stable for the registry's lifetime.
     */
    Counter &counter(std::string_view name);

    Gauge &gauge(std::string_view name);

    /**
     * The histogram named @p name. @p bounds is consulted only on
     * first registration; later calls return the existing histogram.
     */
    Histogram &histogram(std::string_view name,
                         const std::vector<std::uint64_t> &bounds);

    /** Counters + gauges as a flat name-sorted scalar snapshot. */
    MetricsSnapshot snapshot() const;

    /**
     * Serialize everything to one JSON object:
     * {"counters":{...},"gauges":{...},"histograms":{...}}.
     */
    std::string toJson() const;

    /** Zero every value; registrations (and references) survive. */
    void resetValues();

  private:
    struct Entry
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    mutable Mutex mutex_;
    /** Ordered so snapshots and JSON are deterministically sorted.
     *  The lock covers the map only — the metric objects it points to
     *  are updated lock-free through stable references. */
    std::map<std::string, Entry, std::less<>> entries_ GUARDED_BY(
        mutex_);
};

} // namespace obs
} // namespace skyway

/**
 * Publish-delta step for one STAT(member, metric) entry of a stats
 * field list (skyway/sender.hh, skyway/inputbuffer.hh): add
 * `stats_.member - published_.member` to the global counter @p metric,
 * registered once per process. Expands inside a member function of a
 * class holding `stats_` and `published_`.
 */
#define SKYWAY_PUBLISH_STAT_DELTA(member, metric)                     \
    {                                                                 \
        static ::skyway::obs::Counter &c =                            \
            ::skyway::obs::MetricsRegistry::global().counter(metric); \
        c.add(stats_.member - published_.member);                     \
    }

#endif // SKYWAY_OBS_METRICS_HH
