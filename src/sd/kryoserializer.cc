#include "sd/kryoserializer.hh"

#include "obs/metrics.hh"
#include "obs/span.hh"

namespace skyway
{

namespace
{

/** Record class codes: 0 ends a graph, 1 carries a class name. */
constexpr std::uint32_t codeEndGraph = 0;
constexpr std::uint32_t codeUnregistered = 1;
constexpr std::uint32_t codeRegisteredBase = 2;

/** Registry-backed baseline-serializer counters. */
struct KryoSdMetrics
{
    obs::Counter &objectsWritten;
    obs::Counter &bytesWritten;
    obs::Counter &objectsRead;

    static KryoSdMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static KryoSdMetrics m{
            r.counter("sd.kryo.objects_written"),
            r.counter("sd.kryo.bytes_written"),
            r.counter("sd.kryo.objects_read"),
        };
        return m;
    }
};

} // namespace

int
KryoRegistry::registerClass(const std::string &class_name,
                            KryoManual manual)
{
    auto it = index_.find(class_name);
    if (it != index_.end())
        panic("KryoRegistry: " + class_name + " registered twice");
    int id = static_cast<int>(entries_.size());
    entries_.push_back(Entry{class_name, std::move(manual)});
    index_[class_name] = id;
    return id;
}

int
KryoRegistry::idOf(const std::string &class_name) const
{
    auto it = index_.find(class_name);
    return it == index_.end() ? -1 : it->second;
}

void
kryoRegisterBuiltins(KryoRegistry &registry)
{
    // String: chars plus the cached content hash, as Kryo's built-in
    // StringSerializer (which writes the chars; the hash field is
    // cheap and keeps content hashes warm).
    KryoManual stringManual;
    stringManual.write = [](KryoSerializer &kryo, Address obj,
                            ByteSink &out) {
        ObjectBuilder builder(kryo.env().heap, kryo.env().klasses);
        out.writeString(builder.stringValue(obj));
        out.writeVarI32(reflect::getField<std::int32_t>(
            kryo.env().heap, obj, "hash"));
    };
    stringManual.read = [](KryoSerializer &kryo,
                           ByteSource &in) -> Address {
        ObjectBuilder builder(kryo.env().heap, kryo.env().klasses);
        std::string v = in.readString();
        std::int32_t hash = in.readVarI32();
        Address s = builder.makeString(v);
        std::size_t h = kryo.adoptObject(s);
        reflect::setField<std::int32_t>(kryo.env().heap,
                                        kryo.objectAt(h), "hash", hash);
        return kryo.objectAt(h);
    };
    registry.registerClass("java.lang.String", std::move(stringManual));
    registry.registerClass("[C");
    registry.registerClass("[B");
    registry.registerClass("[I");
    registry.registerClass("[J");
    registry.registerClass("[D");
    registry.registerClass("java.lang.Integer");
    registry.registerClass("java.lang.Long");
    registry.registerClass("java.lang.Double");
}

KryoSerializer::KryoSerializer(SdEnv env, const KryoRegistry &registry,
                               bool track_references, std::string name)
    : env_(env),
      registry_(registry),
      trackReferences_(track_references),
      name_(std::move(name)),
      handles_(std::make_unique<LocalRoots>(env.heap))
{
}

void
KryoSerializer::reset()
{
    handleOf_.clear();
    pending_.clear();
    nextWriteHandle_ = 0;
    handles_->clear();
    fixups_.clear();
}

void
KryoSerializer::writeRefSlot(Address target, ByteSink &out)
{
    if (target == nullAddr) {
        out.writeVarU32(0);
        return;
    }
    std::uint32_t handle;
    if (trackReferences_) {
        auto it = handleOf_.find(target);
        if (it != handleOf_.end()) {
            handle = it->second;
        } else {
            handle = nextWriteHandle_++;
            handleOf_.emplace(target, handle);
            pending_.push_back(target);
        }
    } else {
        // No reference tracking: every slot spawns a fresh copy.
        handle = nextWriteHandle_++;
        pending_.push_back(target);
    }
    out.writeVarU32(handle + 1);
}

KryoSerializer::Resolved &
KryoSerializer::resolve(int class_id)
{
    if (resolved_.size() <= static_cast<std::size_t>(class_id))
        resolved_.resize(class_id + 1);
    Resolved &r = resolved_[class_id];
    if (!r.klass) {
        const auto &entry = registry_.entries()[class_id];
        r.klass = env_.klasses.load(entry.className);
        if (entry.manual.write && entry.manual.read)
            r.manual = &entry.manual;
    }
    return r;
}

void
KryoSerializer::writeFields(Address obj, Klass *k, ByteSink &out)
{
    // Kryo's FieldSerializer: iterate the *cached* resolved field
    // table — direct offset access, no string lookups.
    for (const FieldDesc &f : k->fields()) {
        switch (f.type) {
          case FieldType::Boolean:
          case FieldType::Byte:
            out.writeU8(env_.heap.load<std::uint8_t>(obj, f.offset));
            break;
          case FieldType::Char:
          case FieldType::Short:
            out.writeU16(env_.heap.load<std::uint16_t>(obj, f.offset));
            break;
          case FieldType::Int:
            out.writeVarI32(
                env_.heap.load<std::int32_t>(obj, f.offset));
            break;
          case FieldType::Long:
            out.writeVarI64(
                env_.heap.load<std::int64_t>(obj, f.offset));
            break;
          case FieldType::Float:
            out.writeF32(env_.heap.load<float>(obj, f.offset));
            break;
          case FieldType::Double:
            out.writeF64(env_.heap.load<double>(obj, f.offset));
            break;
          case FieldType::Ref:
            writeRefSlot(env_.heap.loadRef(obj, f.offset), out);
            break;
        }
    }
}

void
KryoSerializer::writeRecord(Address obj, ByteSink &out)
{
    Klass *k = env_.heap.klassOf(obj);

    int id;
    auto it = writeIdCache_.find(k->name());
    if (it != writeIdCache_.end()) {
        id = it->second;
    } else {
        id = registry_.idOf(k->name());
        writeIdCache_[k->name()] = id;
    }

    const KryoManual *manual = nullptr;
    if (id >= 0) {
        out.writeVarU32(codeRegisteredBase + id);
        Resolved &r = resolve(id);
        manual = r.manual;
    } else {
        // Unregistered: fall back to shipping the class name, as Kryo
        // does when registrationRequired=false.
        ++unregistered_;
        out.writeVarU32(codeUnregistered);
        out.writeString(k->name());
    }

    if (manual) {
        manual->write(*this, obj, out);
        return;
    }

    if (k->isArray()) {
        auto n = static_cast<std::size_t>(env_.heap.arrayLength(obj));
        out.writeVarU64(n);
        switch (k->elemType()) {
          case FieldType::Int:
            for (std::size_t i = 0; i < n; ++i)
                out.writeVarI32(array::get<std::int32_t>(env_.heap,
                                                         obj, i));
            break;
          case FieldType::Long:
            for (std::size_t i = 0; i < n; ++i)
                out.writeVarI64(array::get<std::int64_t>(env_.heap,
                                                         obj, i));
            break;
          case FieldType::Ref:
            for (std::size_t i = 0; i < n; ++i)
                writeRefSlot(array::getRef(env_.heap, obj, i), out);
            break;
          default: {
            std::size_t sz = k->elemSize();
            const void *p = reinterpret_cast<const void *>(
                obj + env_.heap.format().arrayHeaderBytes());
            out.write(p, n * sz);
            break;
          }
        }
        return;
    }

    writeFields(obj, k, out);
}

void
KryoSerializer::writeObject(Address root, ByteSink &out)
{
    SKYWAY_SPAN("sd.kryo.write");
    std::size_t bytes_before = out.bytesWritten();

    // Kryo scopes reference resolution to each top-level call.
    handleOf_.clear();
    pending_.clear();
    nextWriteHandle_ = 0;

    writeRefSlot(root, out);
    while (!pending_.empty()) {
        Address obj = pending_.front();
        pending_.pop_front();
        writeRecord(obj, out);
    }
    out.writeVarU32(codeEndGraph);

    KryoSdMetrics &m = KryoSdMetrics::get();
    m.objectsWritten.inc();
    m.bytesWritten.add(out.bytesWritten() - bytes_before);
}

std::size_t
KryoSerializer::adoptObject(Address obj)
{
    return handles_->push(obj);
}

void
KryoSerializer::readRefSlotInto(ByteSource &in, std::size_t holder_handle,
                                std::size_t off)
{
    std::uint32_t v = in.readVarU32();
    if (v == 0) {
        env_.heap.store<Address>(handles_->get(holder_handle), off,
                                 nullAddr);
        return;
    }
    std::size_t target = v - 1;
    if (target < handles_->size()) {
        env_.heap.storeRef(handles_->get(holder_handle), off,
                           handles_->get(target));
    } else {
        fixups_.push_back(Fixup{holder_handle, off, target});
    }
}

void
KryoSerializer::readFields(std::size_t handle, Klass *k, ByteSource &in)
{
    for (const FieldDesc &f : k->fields()) {
        Address obj = handles_->get(handle);
        switch (f.type) {
          case FieldType::Boolean:
          case FieldType::Byte:
            env_.heap.store<std::uint8_t>(obj, f.offset, in.readU8());
            break;
          case FieldType::Char:
          case FieldType::Short:
            env_.heap.store<std::uint16_t>(obj, f.offset, in.readU16());
            break;
          case FieldType::Int:
            env_.heap.store<std::int32_t>(obj, f.offset,
                                          in.readVarI32());
            break;
          case FieldType::Long:
            env_.heap.store<std::int64_t>(obj, f.offset,
                                          in.readVarI64());
            break;
          case FieldType::Float:
            env_.heap.store<float>(obj, f.offset, in.readF32());
            break;
          case FieldType::Double:
            env_.heap.store<double>(obj, f.offset, in.readF64());
            break;
          case FieldType::Ref:
            readRefSlotInto(in, handle, f.offset);
            break;
        }
    }
}

void
KryoSerializer::readRecord(std::uint32_t code, ByteSource &in)
{
    panicIf(code == codeEndGraph,
            "KryoSerializer: internal: end inside record loop");

    Klass *k;
    const KryoManual *manual = nullptr;
    if (code == codeUnregistered) {
        k = env_.klasses.load(in.readString());
    } else {
        Resolved &r = resolve(static_cast<int>(code -
                                               codeRegisteredBase));
        k = r.klass;
        manual = r.manual;
    }

    if (manual) {
        manual->read(*this, in);
        return;
    }

    if (k->isArray()) {
        std::size_t n = in.readVarU64();
        Address arr = env_.heap.allocateArray(k, n);
        std::size_t handle = adoptObject(arr);
        switch (k->elemType()) {
          case FieldType::Int:
            for (std::size_t i = 0; i < n; ++i)
                array::set<std::int32_t>(env_.heap,
                                         handles_->get(handle), i,
                                         in.readVarI32());
            break;
          case FieldType::Long:
            for (std::size_t i = 0; i < n; ++i)
                array::set<std::int64_t>(env_.heap,
                                         handles_->get(handle), i,
                                         in.readVarI64());
            break;
          case FieldType::Ref:
            for (std::size_t i = 0; i < n; ++i)
                readRefSlotInto(in, handle,
                                env_.heap.arrayElemOffset(k, i));
            break;
          default: {
            std::size_t sz = k->elemSize();
            Address a = handles_->get(handle);
            in.read(reinterpret_cast<void *>(
                        a + env_.heap.format().arrayHeaderBytes()),
                    n * sz);
            break;
          }
        }
        return;
    }

    // The "plain new" creation path Kryo generates from registration.
    Address obj = env_.heap.allocateInstance(k);
    std::size_t handle = adoptObject(obj);
    readFields(handle, k, in);
}

Address
KryoSerializer::readObject(ByteSource &in)
{
    SKYWAY_SPAN("sd.kryo.read");
    KryoSdMetrics::get().objectsRead.inc();

    handles_->clear();
    fixups_.clear();

    std::uint32_t v = in.readVarU32();
    if (v == 0) {
        std::uint32_t end = in.readVarU32();
        panicIf(end != codeEndGraph, "KryoSerializer: bad null graph");
        return nullAddr;
    }
    std::size_t rootHandle = v - 1;

    while (true) {
        std::uint32_t code = in.readVarU32();
        if (code == codeEndGraph)
            break;
        readRecord(code, in);
    }

    for (const Fixup &fx : fixups_) {
        env_.heap.storeRef(handles_->get(fx.holder), fx.offset,
                           handles_->get(fx.target));
    }
    fixups_.clear();

    return handles_->get(rootHandle);
}

} // namespace skyway
