/**
 * @file
 * Global class numbering (paper section 4.1, Algorithm 1).
 *
 * The driver JVM owns the authoritative type registry mapping class
 * name strings to dense integer IDs. Each worker JVM keeps a *registry
 * view* — a subset of the driver's registry. At startup a worker pulls
 * the full current registry ("REQUEST_VIEW"); when its class loader
 * loads a class missing from the view it asks the driver ("LOOKUP"),
 * which registers the class on first sight. The assigned ID is cached
 * in the klass meta object (Klass::setTid), so the sender writes IDs
 * into object headers without any string traffic; a class-name string
 * crosses the wire at most once per class per machine.
 *
 * Receiver-side, a type ID found in an input buffer resolves through
 * the view; a stale view (the ID was assigned after the view was
 * pulled) triggers a reverse lookup ("LOOKUP_NAME") and, when the
 * class has never been loaded locally, instructs the class loader to
 * load it by name.
 */

#ifndef SKYWAY_TYPEREG_REGISTRY_HH
#define SKYWAY_TYPEREG_REGISTRY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "klass/klass.hh"
#include "net/cluster.hh"
#include "support/thread_annotations.hh"

namespace skyway
{

/** Message tags for the registry protocol. */
namespace regmsg
{
constexpr int requestView = 101;
constexpr int lookup = 102;
constexpr int lookupName = 103;
} // namespace regmsg

/**
 * Both ends of the protocol expose this interface so the Skyway
 * sender/receiver code is agnostic to whether it runs on the driver.
 */
class TypeResolver
{
  public:
    virtual ~TypeResolver() = default;

    /** The global ID for class @p name (registering on the driver). */
    virtual std::int32_t idForClass(const std::string &name) = 0;

    /** The class name behind @p id. */
    virtual std::string nameForId(std::int32_t id) = 0;

    /**
     * Resolve @p id to this node's klass meta object, loading the
     * class on first encounter.
     */
    virtual Klass *klassForId(std::int32_t id) = 0;

    /**
     * Like klassForId() but returns nullptr for an id no registry ever
     * assigned instead of panicking. The SkywaySan wire-format
     * validator probes ids found in (possibly corrupt) streams and
     * must be able to reject a forged id as a diagnostic — without a
     * worker being able to crash the driver by relaying it.
     */
    virtual Klass *tryKlassForId(std::int32_t id) = 0;

    /**
     * The largest id this node has seen assigned, or -1 before any.
     * Receivers size their tid caches from it up front; a later id
     * (assigned after the call) is not an error, merely a cache grow.
     */
    virtual std::int32_t maxAssignedId() const = 0;
};

/** Registry traffic statistics (tests assert the at-most-once claim). */
struct RegistryStats
{
    std::uint64_t viewRequestsServed = 0;
    std::uint64_t lookupsServed = 0;
    std::uint64_t reverseLookupsServed = 0;
    std::uint64_t remoteLookupsIssued = 0;
    std::uint64_t classStringsSent = 0;
};

/**
 * The driver-side registry (Algorithm 1, driver program). Registers a
 * request handler on the cluster network; also acts as the driver
 * JVM's own resolver.
 */
class TypeRegistryDriver : public TypeResolver
{
  public:
    /**
     * @param net      cluster fabric to serve requests on
     * @param node     the driver's node id
     * @param klasses  the driver JVM's klass table; already-loaded
     *                 classes are numbered immediately (Algorithm 1
     *                 lines 4-8) and future loads hook in
     */
    TypeRegistryDriver(ClusterNetwork &net, NodeId node,
                       KlassTable &klasses);

    std::int32_t idForClass(const std::string &name) override
        EXCLUDES(mutex_);
    std::string nameForId(std::int32_t id) override EXCLUDES(mutex_);
    Klass *klassForId(std::int32_t id) override EXCLUDES(mutex_);
    Klass *tryKlassForId(std::int32_t id) override EXCLUDES(mutex_);

    /** Driver ids are dense: the max is the count minus one. */
    std::int32_t
    maxAssignedId() const override
    {
        MutexLock lock(mutex_);
        return static_cast<std::int32_t>(names_.size()) - 1;
    }

    /** Number of classes registered cluster-wide. */
    std::size_t
    size() const
    {
        MutexLock lock(mutex_);
        return names_.size();
    }

    RegistryStats
    stats() const
    {
        MutexLock lock(mutex_);
        return stats_;
    }

    /** Serialize the full registry (the REQUEST_VIEW reply). */
    std::vector<std::uint8_t> encodeView() const EXCLUDES(mutex_);

  private:
    std::vector<std::uint8_t> handle(NodeId src, int tag,
                                     const std::vector<std::uint8_t> &
                                         payload);

    ClusterNetwork &net_;
    NodeId node_;
    KlassTable &klasses_;
    /**
     * Guards registry_/names_/stats_. handle() runs on each
     * requester's thread, concurrent with other requesters and with
     * the driver JVM's own idForClass() calls. Held only across map
     * accesses — never across klasses_.load(), whose load hook
     * re-enters idForClass().
     */
    mutable Mutex mutex_;
    std::unordered_map<std::string, std::int32_t> registry_ GUARDED_BY(
        mutex_);
    std::vector<std::string> names_ GUARDED_BY(mutex_); // id -> name
    RegistryStats stats_ GUARDED_BY(mutex_);
};

/**
 * The worker-side registry view (Algorithm 1, worker program).
 */
class TypeRegistryWorker : public TypeResolver
{
  public:
    /**
     * Pulls the initial view from the driver and installs the
     * class-loading hook on @p klasses.
     */
    TypeRegistryWorker(ClusterNetwork &net, NodeId node, NodeId driver,
                       KlassTable &klasses);

    /** Blocking on a view miss (one remote LOOKUP round trip) — must
     *  never run under mutex_, ours or a caller's (lint rule 2). */
    std::int32_t idForClass(const std::string &name) override
        EXCLUDES(mutex_);
    std::string nameForId(std::int32_t id) override EXCLUDES(mutex_);
    Klass *klassForId(std::int32_t id) override EXCLUDES(mutex_);
    Klass *tryKlassForId(std::int32_t id) override EXCLUDES(mutex_);

    /** View ids may be sparse; tracked as entries are inserted. */
    std::int32_t
    maxAssignedId() const override
    {
        MutexLock lock(mutex_);
        return maxId_;
    }

    std::size_t
    viewSize() const
    {
        MutexLock lock(mutex_);
        return view_.size();
    }

    RegistryStats
    stats() const
    {
        MutexLock lock(mutex_);
        return stats_;
    }

  private:
    void insertView(const std::string &name, std::int32_t id)
        EXCLUDES(mutex_);

    ClusterNetwork &net_;
    NodeId node_;
    NodeId driver_;
    KlassTable &klasses_;
    /**
     * Guards view_/idToName_/maxId_/stats_. Parallel sender threads
     * share one worker view; held only across map accesses — never
     * across net_.request() (a blocking round trip) or
     * klasses_.load() (whose load hook re-enters idForClass()).
     */
    mutable Mutex mutex_;
    std::unordered_map<std::string, std::int32_t> view_ GUARDED_BY(
        mutex_);
    std::unordered_map<std::int32_t, std::string> idToName_ GUARDED_BY(
        mutex_);
    std::int32_t maxId_ GUARDED_BY(mutex_) = -1;
    RegistryStats stats_ GUARDED_BY(mutex_);
};

} // namespace skyway

#endif // SKYWAY_TYPEREG_REGISTRY_HH
