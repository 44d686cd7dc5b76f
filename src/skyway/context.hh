/**
 * @file
 * Per-JVM Skyway state: the shuffle-phase counter driven by
 * shuffleStart() (paper section 3.3), the post-transfer field-update
 * registry (the registerUpdate API), and the Skyway-internal marker
 * classes that delimit top-level objects inside buffers.
 */

#ifndef SKYWAY_SKYWAY_CONTEXT_HH
#define SKYWAY_SKYWAY_CONTEXT_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <unordered_map>

#include "heap/heap.hh"
#include "klass/klass.hh"
#include "obs/span.hh"
#include "skyway/wirecompact.hh"
#include "support/thread_annotations.hh"
#include "typereg/registry.hh"

namespace skyway
{

/**
 * A registered post-transfer field update (paper section 3.3's
 * registerUpdate): invoked on the receiving node for every transferred
 * object of the given class, overwriting the given field.
 */
class FieldUpdateRegistry
{
  public:
    using UpdateFn =
        std::function<void(ManagedHeap &heap, Address obj,
                           const FieldDesc &field)>;

    void
    registerUpdate(const std::string &class_name,
                   const std::string &field_name, UpdateFn fn)
    {
        updates_[class_name].push_back({field_name, std::move(fn)});
    }

    /** Apply all updates registered for @p k to @p obj; false when
     *  none is registered (nothing was stored). */
    bool
    apply(ManagedHeap &heap, const Klass *k, Address obj) const
    {
        auto it = updates_.find(k->name());
        if (it == updates_.end())
            return false;
        for (const auto &[fname, fn] : it->second)
            fn(heap, obj, k->requireField(fname));
        return true;
    }

    bool empty() const { return updates_.empty(); }

  private:
    std::unordered_map<
        std::string,
        std::vector<std::pair<std::string, UpdateFn>>>
        updates_;
};

/**
 * SkywaySan debug-mode validation switches (docs/SANITIZER.md).
 * Default-off; when off the only cost is one branch per stream
 * construction, flush, and feed — never per object.
 */
struct DebugFlags
{
    /**
     * Run the wire-format validator over every flushed segment: the
     * sender checks its own output at flush, input buffers check what
     * they ingest, and either end panics with the first diagnostic.
     */
    bool validateWire = false;

    /**
     * Structurally audit the rebuilt object graph after
     * InputBuffer::finalize(): every reference must land on a rebuilt
     * object start (or a live local heap object installed by a field
     * update), and no machine-local mark bits may have leaked in.
     */
    bool checkReceivedGraph = false;
};

/**
 * Per-JVM Skyway runtime state shared by all of the node's streams.
 */
class SkywayContext
{
  public:
    SkywayContext(ManagedHeap &heap, KlassTable &klasses,
                  TypeResolver &resolver)
        : heap_(heap), klasses_(klasses), resolver_(resolver)
    {
        // Note: a heap *without* the baddr word can still receive
        // Skyway transfers; only sending requires the extra header
        // word, and SkywaySender enforces that.
        debug_.validateWire = std::getenv("SKYWAY_WIRE_CHECK") != nullptr;
        debug_.checkReceivedGraph =
            std::getenv("SKYWAY_GRAPH_CHECK") != nullptr;
        wireCompact_.store(wireCompactModeFromEnv(),
                           std::memory_order_relaxed);
    }

    ManagedHeap &heap() { return heap_; }
    KlassTable &klasses() { return klasses_; }
    TypeResolver &resolver() { return resolver_; }

    /**
     * The current shuffle-phase id (0 = before any phase). Readable
     * from concurrent sender worker threads; the acquire pairs with
     * shuffleStart()'s release so a worker that observes the new
     * phase id also observes everything the coordinator did before
     * opening it.
     */
    std::uint8_t currentSid() const
    {
        return sid_.load(std::memory_order_acquire);
    }

    /**
     * Begin a new shuffle phase (the paper's shuffleStart API):
     * invalidates every baddr stamped in earlier phases. The id lives
     * in one header byte, so it wraps at 255; on wrap, objects whose
     * baddr was written exactly 255 phases ago would alias — a full
     * traversal 255 phases later is vanishingly unlikely in practice
     * and tolerated here as in the paper. Phases are opened by the
     * coordinating thread between transfers, never by in-flight
     * sender workers; the mutex only orders a phase bump against a
     * concurrent stream-id wrap.
     */
    std::uint8_t
    shuffleStart() EXCLUDES(phaseMutex_)
    {
        MutexLock lock(phaseMutex_);
        std::uint8_t cur = sid_.load(std::memory_order_relaxed);
        std::uint8_t next = (cur == 255) ? 1 : cur + 1;
        sid_.store(next, std::memory_order_release);
        // Phase boundary for the span tracer: spans recorded from
        // here on aggregate under this shuffle's segment.
        obs::SpanTracer::global().beginPhase(
            "shuffle-" + std::to_string(next));
        return next;
    }

    FieldUpdateRegistry &updates() { return updates_; }
    const FieldUpdateRegistry &updates() const { return updates_; }

    /**
     * A fresh stream id. Every output stream — even two streams on
     * the same thread — gets its own id, so a baddr claim is always
     * attributable to exactly one output buffer. The id lives in two
     * baddr bytes; when it wraps, a stream could otherwise mistake a
     * claim made 65,536 streams ago for its own and emit a dangling
     * backward reference — so the wrap opens a fresh shuffle phase,
     * which invalidates every outstanding claim (streams still open
     * across the bump merely re-copy shared objects; duplication is
     * the existing cross-stream semantics, never corruption).
     *
     * Thread-safe: ParallelSender construction and concurrent stream
     * setup may allocate ids from several threads.
     */
    std::uint16_t
    allocateStreamId() EXCLUDES(streamIdMutex_, phaseMutex_)
    {
        std::uint16_t id;
        bool wrapped;
        {
            MutexLock lock(streamIdMutex_);
            id = nextStreamId_++;
            wrapped = (nextStreamId_ == 0);
            if (wrapped)
                nextStreamId_ = 1;
        }
        if (wrapped)
            shuffleStart();
        return id;
    }

    /**
     * The global type id for @p k, registering it if needed. Callable
     * from concurrent sender threads: the common path is one relaxed
     * load of the cached id; the first-registration slow path is
     * serialized because the resolver (registry view + network) is
     * not thread-safe.
     */
    std::int32_t
    tidFor(Klass *k) EXCLUDES(tidMutex_)
    {
        std::int32_t t = k->tid();
        if (t != Klass::unregisteredTid)
            return t;
        // Serializes the first registration only; the resolver may
        // perform a network round trip, so tidMutex_ must be leaf in
        // the lock order — nothing below it ever takes another lock
        // of ours (the transport's are a different subsystem).
        MutexLock lock(tidMutex_);
        t = k->tid();
        if (t == Klass::unregisteredTid) {
            t = resolver_.idForClass(k->name());
            k->setTid(t);
        }
        return t;
    }

    DebugFlags &debug() { return debug_; }
    const DebugFlags &debug() const { return debug_; }

    /**
     * Send-path compaction mode (docs/WIRE_FORMAT.md). Initialized
     * from `SKYWAY_WIRE_COMPACT` (off|auto|force, default off);
     * readable from concurrent sender threads. Streams sample the
     * mode at construction, so a change applies to streams opened
     * afterwards.
     */
    WireCompactMode wireCompactMode() const
    {
        return wireCompact_.load(std::memory_order_relaxed);
    }

    void
    setWireCompactMode(WireCompactMode m)
    {
        wireCompact_.store(m, std::memory_order_relaxed);
        // Decisions embed the old mode's threshold; start afresh.
        wireEncodings_.reset();
    }

    /**
     * The link cost driving the adaptive policy, in wall-ns per wire
     * byte (Jvm sets it from the cluster's NetworkCostModel; default
     * is gigabit-Ethernet cost). See wire::WirePolicy.
     */
    double wireNsPerByte() const
    {
        return wireNsPerByte_.load(std::memory_order_relaxed);
    }

    void
    setWireNsPerByte(double v)
    {
        wireNsPerByte_.store(v, std::memory_order_relaxed);
    }

    /** Shared per-class encoding decisions (see WireEncodingCache). */
    WireEncodingCache &wireEncodings() { return wireEncodings_; }

  private:
    ManagedHeap &heap_;
    KlassTable &klasses_;
    TypeResolver &resolver_;
    std::atomic<std::uint8_t> sid_{0};
    std::uint16_t nextStreamId_ GUARDED_BY(streamIdMutex_) = 1;
    /** Unsynchronized by design: updates are registered during node
     *  setup, before any transfer runs — registering concurrently
     *  with a receive is not supported (docs/STATIC_ANALYSIS.md). */
    FieldUpdateRegistry updates_;
    DebugFlags debug_;
    std::atomic<WireCompactMode> wireCompact_{WireCompactMode::Off};
    std::atomic<double> wireNsPerByte_{8.0};
    WireEncodingCache wireEncodings_;
    Mutex tidMutex_;
    Mutex streamIdMutex_;
    Mutex phaseMutex_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_CONTEXT_HH
