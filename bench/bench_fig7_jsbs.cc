/**
 * @file
 * Figure 7 of the paper: the Java Serializer Benchmark Set (JSBS),
 * made distributed — every node serializes a batch of MediaContent
 * objects, broadcasts the bytes to the other nodes, and deserializes
 * what it receives. One row per S/D library, reporting
 * serialization, deserialization, and (modeled gigabit) network time,
 * sorted by total; Skyway's row comes from the same harness through
 * its drop-in serializer adapter.
 *
 * The paper's headline numbers this reproduces in shape: Skyway is
 * the fastest of all libraries (2.2x over kryo-manual, 67x over the
 * Java serializer) while shipping ~50% more bytes.
 */

#include <algorithm>
#include <vector>

#include "bench/benchutil.hh"
#include "sd/kryoserializer.hh"
#include "skyway/streams.hh"

using namespace skyway;

namespace
{

struct Row
{
    std::string name;
    double serMs, deserMs, netMs;
    double bytesPerObject;

    double total() const { return serMs + deserMs + netMs; }
};

/** The kryo-manual hand-written functions for the media model. */
void
registerMediaKryo(KryoRegistry &reg)
{
    kryoRegisterBuiltins(reg);
    KryoManual manual;
    manual.write = [](KryoSerializer &kryo, Address obj,
                      ByteSink &out) {
        MediaSchema schema(kryo.env().klasses);
        MediaValues v = extractMedia(kryo.env(), schema, obj);
        // Hand-inlined positional encoding, as a user-written
        // Kryo serializer would do.
        out.writeString(v.uri);
        out.writeString(v.title);
        out.writeVarI32(v.width);
        out.writeVarI32(v.height);
        out.writeString(v.format);
        out.writeVarI64(v.duration);
        out.writeVarI64(v.size);
        out.writeVarI32(v.bitrate);
        out.writeU8(v.hasBitrate);
        out.writeVarU64(v.persons.size());
        for (const auto &p : v.persons)
            out.writeString(p);
        out.writeVarI32(v.player);
        out.writeString(v.copyright);
        out.writeVarU64(v.images.size());
        for (const auto &img : v.images) {
            out.writeString(img.uri);
            out.writeString(img.title);
            out.writeVarI32(img.width);
            out.writeVarI32(img.height);
            out.writeVarI32(img.size);
        }
    };
    manual.read = [](KryoSerializer &kryo,
                     ByteSource &in) -> Address {
        MediaValues v;
        v.uri = in.readString();
        v.title = in.readString();
        v.width = in.readVarI32();
        v.height = in.readVarI32();
        v.format = in.readString();
        v.duration = in.readVarI64();
        v.size = in.readVarI64();
        v.bitrate = in.readVarI32();
        v.hasBitrate = in.readU8() != 0;
        std::size_t np = in.readVarU64();
        for (std::size_t i = 0; i < np; ++i)
            v.persons.push_back(in.readString());
        v.player = in.readVarI32();
        v.copyright = in.readString();
        std::size_t ni = in.readVarU64();
        for (std::size_t i = 0; i < ni; ++i) {
            MediaValues::Img img;
            img.uri = in.readString();
            img.title = in.readString();
            img.width = in.readVarI32();
            img.height = in.readVarI32();
            img.size = in.readVarI32();
            v.images.push_back(std::move(img));
        }
        MediaSchema schema(kryo.env().klasses);
        Address out = materializeMedia(kryo.env(), schema, v);
        kryo.adoptObject(out);
        return out;
    };
    reg.registerClass("jsbs.MediaContent", std::move(manual));
    reg.registerClass("jsbs.Media");
    reg.registerClass("jsbs.Image");
    reg.registerClass("[Ljsbs.Image;");
    reg.registerClass("[Ljava.lang.String;");
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = bench::parseScale(argc, argv, 1.0);
    bench::JsonReport report(argc, argv, "bench_fig7_jsbs", scale);
    const int objects = static_cast<int>(1500 * scale);
    const int fanout = 4; // 5 nodes, broadcast to the other 4
    NetworkCostModel net = gigabitEthernet();

    ClassCatalog cat = bench::fullCatalog();
    ClusterNetwork fabric(2);
    Jvm sender(cat, fabric, 0, 0);
    Jvm receiver(cat, fabric, 1, 0);

    // The test corpus, shared by every library.
    Rng rng(2024);
    LocalRoots corpus(sender.heap());
    std::vector<std::size_t> slots;
    for (int i = 0; i < objects; ++i)
        slots.push_back(makeMediaContent(sender, corpus, rng));

    std::vector<Row> rows;
    auto runLibrary = [&](const std::string &name, Serializer &ser,
                          Serializer &des, bool per_object_reset) {
        auto jrow = report.row(name);
        // Serialize each object into its own byte array (the JSBS
        // protocol).
        std::vector<std::vector<std::uint8_t>> payloads;
        payloads.reserve(slots.size());
        std::uint64_t ser_ns = 0, deser_ns = 0, bytes = 0;
        {
            ScopedTimer t(ser_ns);
            for (std::size_t s : slots) {
                VectorSink sink;
                if (per_object_reset)
                    ser.reset();
                ser.writeObject(corpus.get(s), sink);
                ser.endStream(sink);
                payloads.push_back(sink.takeBytes());
            }
        }
        for (const auto &p : payloads)
            bytes += p.size();
        {
            ScopedTimer t(deser_ns);
            for (const auto &p : payloads) {
                ByteSource src(p);
                Address out = des.readObject(src);
                if (out == nullAddr)
                    panic(name + ": null result");
            }
            des.releaseReceived();
        }
        double net_ms = net.transferNs(bytes) * fanout / 1e6;
        jrow.value("ser_ms", ser_ns / 1e6);
        jrow.value("deser_ms", deser_ns / 1e6);
        jrow.value("net_ms", net_ms);
        jrow.value("bytes_per_object",
                   static_cast<double>(bytes) / objects);
        rows.push_back(Row{name, ser_ns / 1e6, deser_ns / 1e6, net_ms,
                           static_cast<double>(bytes) / objects});
    };

    // The schema-compiled family.
    for (const JsbsCodec &codec : jsbsCodecs()) {
        JsbsSerializer ser(SdEnv{sender.heap(), sender.klasses()},
                           codec);
        JsbsSerializer des(SdEnv{receiver.heap(), receiver.klasses()},
                           codec);
        runLibrary(codec.name, ser, des, false);
    }

    // The Java serializer (per-object streams: descriptors dominate).
    {
        JavaSerializer ser(SdEnv{sender.heap(), sender.klasses()}, 0);
        JavaSerializer des(SdEnv{receiver.heap(), receiver.klasses()},
                           0);
        runLibrary("java", ser, des, true);
    }

    // Kryo variants.
    {
        auto reg = std::make_shared<KryoRegistry>();
        registerMediaKryo(*reg);
        KryoSerializer ser(SdEnv{sender.heap(), sender.klasses()},
                           *reg, true, "kryo-manual");
        KryoSerializer des(SdEnv{receiver.heap(), receiver.klasses()},
                           *reg, true, "kryo-manual");
        runLibrary("kryo-manual", ser, des, false);
    }
    {
        auto reg = std::make_shared<KryoRegistry>();
        kryoRegisterBuiltins(*reg);
        reg->registerClass("jsbs.MediaContent");
        reg->registerClass("jsbs.Media");
        reg->registerClass("jsbs.Image");
        reg->registerClass("[Ljsbs.Image;");
        reg->registerClass("[Ljava.lang.String;");
        KryoSerializer ser(SdEnv{sender.heap(), sender.klasses()},
                           *reg, true, "kryo");
        KryoSerializer des(SdEnv{receiver.heap(), receiver.klasses()},
                           *reg, true, "kryo");
        runLibrary("kryo", ser, des, false);
        KryoSerializer fser(SdEnv{sender.heap(), sender.klasses()},
                            *reg, false, "kryo-flat");
        KryoSerializer fdes(SdEnv{receiver.heap(), receiver.klasses()},
                            *reg, false, "kryo-flat");
        runLibrary("kryo-flat", fser, fdes, false);
    }

    // Skyway. Small input chunks: every object arrives in its own
    // buffer here, so the default 256 KB chunk would waste old gen.
    {
        SkywaySerializer ser(sender.skyway());
        SkywaySerializer des(receiver.skyway(),
                             defaultOutputBufferBytes, 4 << 10);
        runLibrary("*** skyway ***", ser, des, false);
    }

    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  return a.total() < b.total();
              });

    bench::printHeader(
        "Figure 7: JSBS serializer comparison (fastest first)");
    std::printf("%-26s %9s %9s %9s %9s %9s\n", "library", "ser_ms",
                "deser_ms", "net_ms", "total_ms", "B/object");
    for (const Row &r : rows) {
        std::printf("%-26s %9.2f %9.2f %9.2f %9.2f %9.0f\n",
                    r.name.c_str(), r.serMs, r.deserMs, r.netMs,
                    r.total(), r.bytesPerObject);
    }

    // The paper's headline ratios.
    auto find = [&](const std::string &n) -> const Row & {
        for (const Row &r : rows)
            if (r.name == n)
                return r;
        fatal("missing row " + n);
    };
    const Row &sky = find("*** skyway ***");
    const Row &kryo = find("kryo-manual");
    const Row &java = find("java");
    std::printf("\nS/D-only speedups (paper: 2.2x over kryo-manual, "
                "67.3x over java):\n");
    std::printf("  skyway vs kryo-manual: %.1fx\n",
                (kryo.serMs + kryo.deserMs) /
                    (sky.serMs + sky.deserMs));
    std::printf("  skyway vs java:        %.1fx\n",
                (java.serMs + java.deserMs) /
                    (sky.serMs + sky.deserMs));
    std::printf("  skyway bytes vs kryo-manual: %.2fx (paper: ~1.5x "
                "more bytes)\n",
                sky.bytesPerObject / kryo.bytesPerObject);
    return 0;
}
