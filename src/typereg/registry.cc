#include "typereg/registry.hh"

#include "support/bytebuffer.hh"

namespace skyway
{

TypeRegistryDriver::TypeRegistryDriver(ClusterNetwork &net, NodeId node,
                                       KlassTable &klasses)
    : net_(net), node_(node), klasses_(klasses)
{
    // Algorithm 1, driver part 1: number every class already loaded in
    // the driver JVM.
    for (Klass *k : klasses_.loadedKlasses())
        k->setTid(idForClass(k->name()));

    // Classes the driver loads later get numbered on load.
    klasses_.setLoadHook(
        [](void *ctx, Klass &k) {
            auto *self = static_cast<TypeRegistryDriver *>(ctx);
            k.setTid(self->idForClass(k.name()));
        },
        this);

    // Algorithm 1, driver part 2: the daemon serving worker requests.
    net_.registerHandler(
        node_, [this](NodeId src, int tag,
                      const std::vector<std::uint8_t> &payload) {
            return handle(src, tag, payload);
        });
}

std::int32_t
TypeRegistryDriver::idForClass(const std::string &name)
{
    MutexLock lock(mutex_);
    auto it = registry_.find(name);
    if (it != registry_.end())
        return it->second;
    auto id = static_cast<std::int32_t>(names_.size());
    registry_.emplace(name, id);
    names_.push_back(name);
    return id;
}

std::string
TypeRegistryDriver::nameForId(std::int32_t id)
{
    MutexLock lock(mutex_);
    if (id < 0 || static_cast<std::size_t>(id) >= names_.size())
        panic("TypeRegistryDriver: unknown type id " + std::to_string(id));
    return names_[id];
}

Klass *
TypeRegistryDriver::klassForId(std::int32_t id)
{
    // nameForId locks internally; klasses_.load() must run unlocked
    // (its load hook re-enters idForClass).
    Klass *k = klasses_.load(nameForId(id));
    if (k->tid() == Klass::unregisteredTid)
        k->setTid(id);
    return k;
}

Klass *
TypeRegistryDriver::tryKlassForId(std::int32_t id)
{
    {
        MutexLock lock(mutex_);
        if (id < 0 || static_cast<std::size_t>(id) >= names_.size())
            return nullptr;
    }
    return klassForId(id);
}

std::vector<std::uint8_t>
TypeRegistryDriver::encodeView() const
{
    MutexLock lock(mutex_);
    VectorSink sink;
    sink.writeVarU64(names_.size());
    for (const std::string &name : names_)
        sink.writeString(name);
    return sink.takeBytes();
}

std::vector<std::uint8_t>
TypeRegistryDriver::handle(NodeId, int tag,
                           const std::vector<std::uint8_t> &payload)
{
    if (tag == regmsg::requestView) {
        {
            MutexLock lock(mutex_);
            ++stats_.viewRequestsServed;
            stats_.classStringsSent += names_.size();
        }
        return encodeView();
    }
    if (tag == regmsg::lookup) {
        // Algorithm 1 lines 13-19: register-on-first-sight.
        {
            MutexLock lock(mutex_);
            ++stats_.lookupsServed;
        }
        ByteSource src(payload);
        std::string name = src.readString();
        std::int32_t id = idForClass(name);
        VectorSink sink;
        sink.writeI32(id);
        return sink.takeBytes();
    }
    if (tag == regmsg::lookupName) {
        ByteSource src(payload);
        std::int32_t id = src.readI32();
        // An unknown id gets an empty-name reply instead of a driver
        // panic: a worker probing a forged id from a corrupt stream
        // (the SkywaySan validator) must not crash the driver.
        std::string name;
        {
            MutexLock lock(mutex_);
            ++stats_.reverseLookupsServed;
            if (id >= 0 &&
                static_cast<std::size_t>(id) < names_.size()) {
                name = names_[id];
                ++stats_.classStringsSent;
            }
        }
        VectorSink sink;
        sink.writeString(name);
        return sink.takeBytes();
    }
    panic("TypeRegistryDriver: unknown message tag " +
          std::to_string(tag));
}

TypeRegistryWorker::TypeRegistryWorker(ClusterNetwork &net, NodeId node,
                                       NodeId driver, KlassTable &klasses)
    : net_(net), node_(node), driver_(driver), klasses_(klasses)
{
    // Worker part 1: pull the full current registry in one batch —
    // most classes this worker will need are already numbered.
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::requestView, {});
    ByteSource src(reply);
    std::size_t n = src.readVarU64();
    for (std::size_t id = 0; id < n; ++id)
        insertView(src.readString(), static_cast<std::int32_t>(id));

    // Number classes this worker already loaded before attaching.
    for (Klass *k : klasses_.loadedKlasses()) {
        if (k->tid() == Klass::unregisteredTid)
            k->setTid(idForClass(k->name()));
    }

    // Worker part 2: number every future class as it loads.
    klasses_.setLoadHook(
        [](void *ctx, Klass &k) {
            auto *self = static_cast<TypeRegistryWorker *>(ctx);
            k.setTid(self->idForClass(k.name()));
        },
        this);
}

void
TypeRegistryWorker::insertView(const std::string &name, std::int32_t id)
{
    MutexLock lock(mutex_);
    view_[name] = id;
    idToName_[id] = name;
    if (id > maxId_)
        maxId_ = id;
}

std::int32_t
TypeRegistryWorker::idForClass(const std::string &name)
{
    {
        MutexLock lock(mutex_);
        auto it = view_.find(name);
        if (it != view_.end())
            return it->second;
        // Miss: one remote LOOKUP, then cached forever. (Two sender
        // threads racing on the same cold class both ask; the driver
        // answers both with the same id.)
        ++stats_.remoteLookupsIssued;
        ++stats_.classStringsSent;
    }
    VectorSink sink;
    sink.writeString(name);
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::lookup, sink.takeBytes());
    ByteSource src(reply);
    std::int32_t id = src.readI32();
    insertView(name, id);
    return id;
}

std::string
TypeRegistryWorker::nameForId(std::int32_t id)
{
    {
        MutexLock lock(mutex_);
        auto it = idToName_.find(id);
        if (it != idToName_.end())
            return it->second;
        // Stale view: the id was assigned after our snapshot.
        ++stats_.remoteLookupsIssued;
    }
    VectorSink sink;
    sink.writeI32(id);
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::lookupName,
                     sink.takeBytes());
    ByteSource src(reply);
    std::string name = src.readString();
    if (name.empty())
        panic("TypeRegistryWorker: unknown type id " +
              std::to_string(id));
    insertView(name, id);
    return name;
}

Klass *
TypeRegistryWorker::klassForId(std::int32_t id)
{
    std::string name;
    {
        MutexLock lock(mutex_);
        auto it = idToName_.find(id);
        if (it != idToName_.end())
            name = it->second;
    }
    if (name.empty())
        name = nameForId(id);
    Klass *k = klasses_.findLoaded(name);
    if (k)
        return k;
    // Known name, not yet loaded: instruct the class loader (unlocked
    // — the load hook re-enters idForClass).
    return klasses_.load(name);
}

Klass *
TypeRegistryWorker::tryKlassForId(std::int32_t id)
{
    bool known;
    {
        MutexLock lock(mutex_);
        known = idToName_.count(id) != 0;
        if (!known)
            ++stats_.remoteLookupsIssued;
    }
    if (!known) {
        // Graceful stale-view probe: an empty-name reply means no
        // registry ever assigned the id (it came from a corrupt
        // stream).
        VectorSink sink;
        sink.writeI32(id);
        std::vector<std::uint8_t> reply = net_.request(
            node_, driver_, regmsg::lookupName, sink.takeBytes());
        ByteSource src(reply);
        std::string name = src.readString();
        if (name.empty())
            return nullptr;
        insertView(name, id);
    }
    return klassForId(id);
}

} // namespace skyway
