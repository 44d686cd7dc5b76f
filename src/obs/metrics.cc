#include "obs/metrics.hh"

#include <algorithm>

#include "obs/json.hh"
#include "support/logging.hh"

namespace skyway
{
namespace obs
{

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    panicIf(!std::is_sorted(bounds_.begin(), bounds_.end()) ||
                std::adjacent_find(bounds_.begin(), bounds_.end()) !=
                    bounds_.end(),
            "Histogram: bucket bounds must be strictly increasing");
}

void
Histogram::record(std::uint64_t v)
{
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v,
                                       std::memory_order_relaxed))
        ;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

std::vector<std::uint64_t>
exponentialBounds(std::uint64_t first, double factor, std::size_t count)
{
    panicIf(first == 0 || factor <= 1.0,
            "exponentialBounds: need first > 0 and factor > 1");
    std::vector<std::uint64_t> bounds;
    bounds.reserve(count);
    double v = static_cast<double>(first);
    for (std::size_t i = 0; i < count; ++i) {
        auto b = static_cast<std::uint64_t>(v);
        if (!bounds.empty() && b <= bounds.back())
            b = bounds.back() + 1;
        bounds.push_back(b);
        v *= factor;
    }
    return bounds;
}

MetricsSnapshot
MetricsSnapshot::deltaSince(const MetricsSnapshot &base) const
{
    MetricsSnapshot out;
    out.scalars.reserve(scalars.size());
    std::size_t bi = 0;
    for (const auto &[name, value] : scalars) {
        while (bi < base.scalars.size() &&
               base.scalars[bi].first < name)
            ++bi;
        std::int64_t prev = (bi < base.scalars.size() &&
                             base.scalars[bi].first == name)
                                ? base.scalars[bi].second
                                : 0;
        out.scalars.emplace_back(name, value - prev);
    }
    return out;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry reg;
    return reg;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    MutexLock lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        it = entries_.emplace(std::string(name), Entry{}).first;
    Entry &e = it->second;
    if (e.gauge != nullptr || e.histogram != nullptr)
        panic("MetricsRegistry: " + it->first +
              " already registered with another kind");
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    MutexLock lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        it = entries_.emplace(std::string(name), Entry{}).first;
    Entry &e = it->second;
    if (e.counter != nullptr || e.histogram != nullptr)
        panic("MetricsRegistry: " + it->first +
              " already registered with another kind");
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
MetricsRegistry::histogram(std::string_view name,
                           const std::vector<std::uint64_t> &bounds)
{
    MutexLock lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        it = entries_.emplace(std::string(name), Entry{}).first;
    Entry &e = it->second;
    if (e.counter != nullptr || e.gauge != nullptr)
        panic("MetricsRegistry: " + it->first +
              " already registered with another kind");
    if (!e.histogram)
        e.histogram = std::make_unique<Histogram>(bounds);
    return *e.histogram;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MutexLock lock(mutex_);
    MetricsSnapshot snap;
    snap.scalars.reserve(entries_.size());
    for (const auto &[name, e] : entries_) {
        if (e.counter)
            snap.scalars.emplace_back(
                name, static_cast<std::int64_t>(e.counter->value()));
        else if (e.gauge)
            snap.scalars.emplace_back(name, e.gauge->value());
    }
    return snap;
}

std::string
MetricsRegistry::toJson() const
{
    MutexLock lock(mutex_);
    JsonWriter w;
    w.beginObject();
    w.key("counters");
    w.beginObject();
    for (const auto &[name, e] : entries_) {
        if (e.counter)
            w.key(name).value(e.counter->value());
    }
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[name, e] : entries_) {
        if (e.gauge)
            w.key(name).value(e.gauge->value());
    }
    w.endObject();
    w.key("histograms");
    w.beginObject();
    for (const auto &[name, e] : entries_) {
        if (!e.histogram)
            continue;
        const Histogram &h = *e.histogram;
        w.key(name);
        w.beginObject();
        w.key("count").value(h.count());
        w.key("sum").value(h.sum());
        w.key("max").value(h.max());
        w.key("buckets");
        w.beginArray();
        for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
            w.beginObject();
            w.key("le");
            if (i < h.bounds().size())
                w.value(h.bounds()[i]);
            else
                w.value("+Inf");
            w.key("count").value(h.bucketCount(i));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return std::move(w).str();
}

void
MetricsRegistry::resetValues()
{
    MutexLock lock(mutex_);
    for (auto &[name, e] : entries_) {
        (void)name;
        if (e.counter)
            e.counter->reset();
        if (e.gauge)
            e.gauge->reset();
        if (e.histogram)
            e.histogram->reset();
    }
}

} // namespace obs
} // namespace skyway
