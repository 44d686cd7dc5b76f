#include "skyway/wirecompact.hh"

#include <cstdlib>
#include <cstring>
#include <string>

#include "klass/klass.hh"
#include "obs/metrics.hh"
#include "skyway/baddr.hh"
#include "skyway/context.hh"
#include "support/logging.hh"

namespace skyway
{

namespace
{

Word
wordAt(const std::uint8_t *p)
{
    Word w;
    std::memcpy(&w, p, wordSize);
    return w;
}

void
putWord(std::uint8_t *p, Word w)
{
    std::memcpy(p, &w, wordSize);
}

/** Mirrors the validator's plausibility cap (sanitize/wirecheck.cc). */
constexpr std::uint64_t maxPlausibleArrayLength = 1ull << 40;

/** Registry-backed compaction counters, resolved once per process. */
struct CompactMetrics
{
    obs::Counter &bytesSaved;
    obs::Counter &records;
    obs::Counter &segments;
    obs::Gauge &classes;

    static CompactMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static CompactMetrics m{
            r.counter("skyway.sender.compact_bytes_saved"),
            r.counter("skyway.sender.compact_records"),
            r.counter("skyway.sender.compact_segments"),
            r.gauge("skyway.sender.compact_classes"),
        };
        return m;
    }
};

/**
 * Raw wire size of the record at @p rec (same arithmetic as the
 * validator: instance sizes shift by the header delta when the klass
 * was laid out against a different format than the wire).
 */
std::size_t
rawRecordSize(const std::uint8_t *rec, const Klass *k,
              const ObjectFormat &wf)
{
    std::ptrdiff_t delta =
        static_cast<std::ptrdiff_t>(k->format().headerBytes()) -
        static_cast<std::ptrdiff_t>(wf.headerBytes());
    if (!k->isArray())
        return static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>(k->instanceBytes()) - delta);
    Word n = wordAt(rec + wf.arrayLengthOffset());
    return wordAlign(wf.arrayHeaderBytes() +
                     static_cast<std::size_t>(n) * k->elemSize());
}

/**
 * Zero-run RLE over an array payload: alternating
 * [varint litBytes][literals][varint zeroBytes] pairs whose lengths
 * sum to the payload size. Runs shorter than rleMinZeroRun stay
 * literal so sparse zeros cannot blow up the pair count.
 */
void
rleEncode(const std::uint8_t *p, std::size_t n,
          std::vector<std::uint8_t> &out)
{
    std::size_t i = 0;
    while (i < n) {
        std::size_t zstart = n, zlen = 0;
        std::size_t j = i;
        while (j < n) {
            if (p[j] != 0) {
                ++j;
                continue;
            }
            std::size_t z = j;
            while (z < n && p[z] == 0)
                ++z;
            if (z - j >= wire::rleMinZeroRun) {
                zstart = j;
                zlen = z - j;
                break;
            }
            j = z;
        }
        std::size_t lit = (zstart == n ? n : zstart) - i;
        wire::putVarU64(out, lit);
        out.insert(out.end(), p + i, p + i + lit);
        wire::putVarU64(out, zlen);
        i += lit + zlen;
    }
}

/** Bounds-checked decode cursor; panics on overrun (run the
 *  WireValidator first to veto untrusted input instead). */
struct Cursor
{
    const std::uint8_t *p;
    const std::uint8_t *end;

    std::uint64_t
    varU64()
    {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            panicIf(p >= end,
                    "compact segment truncated inside a varint");
            std::uint8_t b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
            panicIf(shift >= 64, "compact varint too long");
        }
    }

    const std::uint8_t *
    bytes(std::size_t n)
    {
        panicIf(static_cast<std::size_t>(end - p) < n,
                "compact segment truncated inside an item payload");
        const std::uint8_t *q = p;
        p += n;
        return q;
    }

    std::uint8_t
    u8()
    {
        panicIf(p >= end, "compact segment truncated at an item tag");
        return *p++;
    }

    bool atEnd() const { return p == end; }
};

} // namespace

WireCompactMode
wireCompactModeFromEnv()
{
    const char *v = std::getenv("SKYWAY_WIRE_COMPACT");
    if (!v)
        return WireCompactMode::Off;
    std::string s(v);
    if (s == "auto")
        return WireCompactMode::Auto;
    if (s == "force")
        return WireCompactMode::Force;
    return WireCompactMode::Off;
}

namespace wire
{

int
staticSavingPercent(const Klass *k, const ObjectFormat &wire_fmt)
{
    std::ptrdiff_t delta =
        static_cast<std::ptrdiff_t>(k->format().headerBytes()) -
        static_cast<std::ptrdiff_t>(wire_fmt.headerBytes());
    // Item tag + ~2-byte tid varint + 1-byte mark (a transfer mark is
    // usually 0: only a computed hash survives resetForTransfer).
    std::size_t overhead = 1 + 2 + 1;
    std::size_t raw;
    std::size_t compact;
    if (!k->isArray()) {
        raw = static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>(k->instanceBytes()) - delta);
        compact = overhead;
        for (const FieldDesc &f : k->fields())
            compact += f.type == FieldType::Ref ? 2 : fieldSize(f.type);
    } else {
        // Arrays size with their length; estimate at 16 elements and
        // let the send path's measured feedback correct for real
        // workloads (large primitive arrays converge to ~0% unless
        // zero-run RLE bites, and demotion then flips them to raw).
        constexpr std::size_t n = 16;
        raw = wordAlign(wire_fmt.arrayHeaderBytes() + n * k->elemSize());
        compact = overhead + varLen(n) +
                  n * (k->elemType() == FieldType::Ref ? 3
                                                       : k->elemSize());
    }
    if (compact >= raw)
        return 0;
    return static_cast<int>(100 * (raw - compact) / raw);
}

bool
isCompactSegment(const std::uint8_t *data, std::size_t len)
{
    return len >= wordSize && wordAt(data) == marker::compactSeg;
}

std::size_t
expandCompactSegment(const std::uint8_t *data, std::size_t len,
                     const ObjectFormat &wire_fmt,
                     const ExpandHooks &hooks)
{
    panicIf(!isCompactSegment(data, len),
            "expandCompactSegment: no compact-segment marker");
    Cursor pre{data + wordSize, data + len};
    std::uint64_t payload_len = pre.varU64();
    std::size_t preamble = static_cast<std::size_t>(pre.p - data);
    panicIf(payload_len > len - preamble,
            "compact segment payload overruns the buffer");
    Cursor c{data + preamble, data + preamble + payload_len};

    while (!c.atEnd()) {
        std::uint8_t tag = c.u8();
        switch (tag) {
        case ctTopMark:
            hooks.onMarker(false, 0);
            break;
        case ctBackRef:
            hooks.onMarker(true, c.varU64());
            break;
        case ctRawRecord: {
            auto n = static_cast<std::size_t>(c.varU64());
            const std::uint8_t *src = c.bytes(n);
            panicIf(n < wire_fmt.headerBytes(),
                    "compact raw record shorter than a header");
            Word tid = wordAt(src + offsetKlass);
            panicIf(tid > 0x7fffffffull,
                    "compact raw record type id out of range");
            Klass *k = hooks.klassFor(static_cast<std::int32_t>(tid));
            panicIf(!k, "compact raw record with an unknown klass");
            panicIf(k->isArray() && n < wire_fmt.arrayHeaderBytes(),
                    "compact raw array shorter than its header");
            panicIf(k->isArray() &&
                        wordAt(src + wire_fmt.arrayLengthOffset()) >
                            maxPlausibleArrayLength,
                    "implausible compact raw array length");
            panicIf(rawRecordSize(src, k, wire_fmt) != n,
                    "compact raw record size does not match its klass");
            std::uint8_t *dst = hooks.place(n, k);
            std::memcpy(dst, src, n);
            putWord(dst + offsetKlass, reinterpret_cast<Word>(k));
            break;
        }
        case ctInstance: {
            std::uint64_t tid = c.varU64();
            panicIf(tid > 0x7fffffffull,
                    "compact instance type id out of range");
            Word m = c.varU64();
            Klass *k = hooks.klassFor(static_cast<std::int32_t>(tid));
            panicIf(!k || k->isArray(),
                    "compact instance tag with a non-instance klass");
            std::ptrdiff_t delta =
                static_cast<std::ptrdiff_t>(k->format().headerBytes()) -
                static_cast<std::ptrdiff_t>(wire_fmt.headerBytes());
            std::size_t size = static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(k->instanceBytes()) - delta);
            std::uint8_t *dst = hooks.place(size, k);
            std::memset(dst, 0, size);
            putWord(dst + offsetMark, m);
            putWord(dst + offsetKlass, reinterpret_cast<Word>(k));
            for (const FieldDesc &f : k->fields()) {
                std::size_t woff = static_cast<std::size_t>(
                    static_cast<std::ptrdiff_t>(f.offset) - delta);
                if (f.type == FieldType::Ref) {
                    putWord(dst + woff, c.varU64());
                } else {
                    std::size_t fs = fieldSize(f.type);
                    std::memcpy(dst + woff, c.bytes(fs), fs);
                }
            }
            break;
        }
        case ctPrimArray:
        case ctRefArray:
        case ctPrimArrayRle: {
            std::uint64_t tid = c.varU64();
            panicIf(tid > 0x7fffffffull,
                    "compact array type id out of range");
            Word m = c.varU64();
            std::uint64_t n = c.varU64();
            panicIf(n > maxPlausibleArrayLength,
                    "implausible compact array length");
            Klass *k = hooks.klassFor(static_cast<std::int32_t>(tid));
            panicIf(!k || !k->isArray(),
                    "compact array tag with a non-array klass");
            bool is_ref = k->elemType() == FieldType::Ref;
            panicIf((tag == ctRefArray) != is_ref,
                    "compact array tag does not match element type");
            std::size_t size = wordAlign(
                wire_fmt.arrayHeaderBytes() +
                static_cast<std::size_t>(n) * k->elemSize());
            std::uint8_t *dst = hooks.place(size, k);
            std::memset(dst, 0, size);
            putWord(dst + offsetMark, m);
            putWord(dst + offsetKlass, reinterpret_cast<Word>(k));
            putWord(dst + wire_fmt.arrayLengthOffset(),
                    static_cast<Word>(n));
            std::uint8_t *payload = dst + wire_fmt.arrayHeaderBytes();
            if (tag == ctRefArray) {
                for (std::uint64_t i = 0; i < n; ++i)
                    putWord(payload + i * wordSize, c.varU64());
            } else if (tag == ctPrimArray) {
                std::size_t bytes =
                    static_cast<std::size_t>(n) * k->elemSize();
                std::memcpy(payload, c.bytes(bytes), bytes);
            } else {
                std::size_t total =
                    static_cast<std::size_t>(n) * k->elemSize();
                std::size_t got = 0;
                while (got < total) {
                    std::uint64_t lit = c.varU64();
                    panicIf(got + lit > total,
                            "compact RLE literal overruns the array");
                    std::memcpy(payload + got,
                                c.bytes(static_cast<std::size_t>(lit)),
                                static_cast<std::size_t>(lit));
                    got += static_cast<std::size_t>(lit);
                    std::uint64_t z = c.varU64();
                    panicIf(got + z > total,
                            "compact RLE zero run overruns the array");
                    got += static_cast<std::size_t>(z);
                    // The run itself is already zero from the memset.
                }
            }
            break;
        }
        default:
            panic("unknown compact item tag " + std::to_string(tag));
        }
    }
    return preamble + static_cast<std::size_t>(payload_len);
}

} // namespace wire

int
WireEncodingCache::decision(std::int32_t tid) const
{
    MutexLock lock(mutex_);
    auto it = entries_.find(tid);
    return it == entries_.end() ? -1 : it->second.decision;
}

void
WireEncodingCache::setDecision(std::int32_t tid, int d)
{
    MutexLock lock(mutex_);
    Entry &e = entries_[tid];
    // First writer wins; in particular a measured demotion to raw is
    // never overwritten by another stream's stale static estimate.
    if (e.decision == -1)
        e.decision = d;
}

int
WireEncodingCache::recordMeasured(std::int32_t tid,
                                  std::uint64_t raw_bytes,
                                  std::uint64_t compact_bytes,
                                  std::uint64_t records,
                                  double min_saving_pct)
{
    MutexLock lock(mutex_);
    Entry &e = entries_[tid];
    if (e.decision != 1)
        return e.decision; // only compact classes produce measurements
    e.rawBytes += raw_bytes;
    e.compactBytes += compact_bytes;
    e.records += records;
    if (e.records >= kMinMeasuredRecords && e.rawBytes > 0) {
        double pct = 100.0 *
                     (static_cast<double>(e.rawBytes) -
                      static_cast<double>(e.compactBytes)) /
                     static_cast<double>(e.rawBytes);
        if (pct < min_saving_pct)
            e.decision = 0;
    }
    return e.decision;
}

std::size_t
WireEncodingCache::compactClassCount() const
{
    MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const auto &[tid, e] : entries_)
        n += e.decision == 1;
    return n;
}

void
WireEncodingCache::reset()
{
    MutexLock lock(mutex_);
    entries_.clear();
}

CompactEncoder::CompactEncoder(SkywayContext &ctx,
                               ObjectFormat wire_format)
    : ctx_(ctx),
      wireFmt_(wire_format),
      mode_(ctx.wireCompactMode()),
      minSavingPct_(
          wire::WirePolicy::minSavingPercent(ctx.wireNsPerByte()))
{
}

CompactEncoder::~CompactEncoder()
{
    syncMeasured();
}

Klass *
CompactEncoder::klassFor(std::int32_t tid)
{
    auto it = klassMemo_.find(tid);
    if (it != klassMemo_.end())
        return it->second;
    Klass *k = ctx_.resolver().klassForId(tid);
    if (!k)
        panic("CompactEncoder: unresolvable type id " + std::to_string(tid));
    klassMemo_[tid] = k;
    return k;
}

int
CompactEncoder::decisionFor(std::int32_t tid, const Klass *k)
{
    auto it = memo_.find(tid);
    if (it != memo_.end())
        return it->second;
    int d = ctx_.wireEncodings().decision(tid);
    if (d < 0) {
        if (mode_ == WireCompactMode::Force) {
            d = 1;
        } else {
            int pct = wire::staticSavingPercent(k, wireFmt_);
            d = pct >= minSavingPct_ ? 1 : 0;
        }
        ctx_.wireEncodings().setDecision(tid, d);
    }
    memo_[tid] = d;
    return d;
}

bool
CompactEncoder::anyCompactClass(const std::uint8_t *data,
                                std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        Word first = wordAt(data + off);
        if (marker::isMarker(first)) {
            panicIf(first != marker::topMark &&
                        first != marker::backRef,
                    "CompactEncoder: unknown marker word");
            off += first == marker::topMark ? wordSize : 2 * wordSize;
            continue;
        }
        auto tid = static_cast<std::int32_t>(
            wordAt(data + off + offsetKlass));
        Klass *k = klassFor(tid);
        if (decisionFor(tid, k) == 1)
            return true;
        off += rawRecordSize(data + off, k, wireFmt_);
    }
    return false;
}

void
CompactEncoder::appendRecord(const std::uint8_t *rec, std::size_t size,
                             std::int32_t tid, const Klass *k,
                             bool compact)
{
    if (!compact) {
        enc_.push_back(wire::ctRawRecord);
        wire::putVarU64(enc_, size);
        enc_.insert(enc_.end(), rec, rec + size);
        return;
    }

    std::size_t before = enc_.size();
    std::ptrdiff_t delta =
        static_cast<std::ptrdiff_t>(k->format().headerBytes()) -
        static_cast<std::ptrdiff_t>(wireFmt_.headerBytes());
    Word m = wordAt(rec + offsetMark);
    auto utid = static_cast<std::uint64_t>(tid);

    if (!k->isArray()) {
        enc_.push_back(wire::ctInstance);
        wire::putVarU64(enc_, utid);
        wire::putVarU64(enc_, m);
        for (const FieldDesc &f : k->fields()) {
            std::size_t woff = static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(f.offset) - delta);
            if (f.type == FieldType::Ref) {
                wire::putVarU64(enc_, wordAt(rec + woff));
            } else {
                std::size_t fs = fieldSize(f.type);
                enc_.insert(enc_.end(), rec + woff, rec + woff + fs);
            }
        }
    } else {
        Word n = wordAt(rec + wireFmt_.arrayLengthOffset());
        const std::uint8_t *payload = rec + wireFmt_.arrayHeaderBytes();
        if (k->elemType() == FieldType::Ref) {
            enc_.push_back(wire::ctRefArray);
            wire::putVarU64(enc_, utid);
            wire::putVarU64(enc_, m);
            wire::putVarU64(enc_, n);
            for (Word i = 0; i < n; ++i)
                wire::putVarU64(enc_, wordAt(payload + i * wordSize));
        } else {
            std::size_t bytes =
                static_cast<std::size_t>(n) * k->elemSize();
            rle_.clear();
            if (bytes >= 2 * wire::rleMinZeroRun)
                rleEncode(payload, bytes, rle_);
            bool use_rle = !rle_.empty() && rle_.size() < bytes;
            enc_.push_back(use_rle ? wire::ctPrimArrayRle
                                   : wire::ctPrimArray);
            wire::putVarU64(enc_, utid);
            wire::putVarU64(enc_, m);
            wire::putVarU64(enc_, n);
            if (use_rle)
                enc_.insert(enc_.end(), rle_.begin(), rle_.end());
            else
                enc_.insert(enc_.end(), payload, payload + bytes);
        }
    }

    ++compactRecords_;
    Measured &acc = measured_[tid];
    acc.rawBytes += size;
    acc.compactBytes += enc_.size() - before;
    ++acc.records;
}

void
CompactEncoder::buildCompact(const std::uint8_t *data, std::size_t len)
{
    enc_.clear();
    std::size_t off = 0;
    while (off < len) {
        Word first = wordAt(data + off);
        if (marker::isMarker(first)) {
            if (first == marker::topMark) {
                enc_.push_back(wire::ctTopMark);
                off += wordSize;
            } else if (first == marker::backRef) {
                enc_.push_back(wire::ctBackRef);
                wire::putVarU64(enc_, wordAt(data + off + wordSize));
                off += 2 * wordSize;
            } else {
                panic("CompactEncoder: unknown marker word");
            }
            continue;
        }
        auto tid = static_cast<std::int32_t>(
            wordAt(data + off + offsetKlass));
        Klass *k = klassFor(tid);
        std::size_t size = rawRecordSize(data + off, k, wireFmt_);
        panicIf(off + size > len,
                "CompactEncoder: record spans a flushed segment");
        appendRecord(data + off, size, tid, k,
                     decisionFor(tid, k) == 1);
        off += size;
    }
}

void
CompactEncoder::syncMeasured()
{
    if (mode_ == WireCompactMode::Auto) {
        for (auto &[tid, acc] : measured_) {
            if (acc.records == 0)
                continue;
            memo_[tid] = ctx_.wireEncodings().recordMeasured(
                tid, acc.rawBytes, acc.compactBytes, acc.records,
                minSavingPct_);
            acc = Measured{};
        }
    }
    if (savedBytes_ + compactRecords_ + compactSegments_ == 0)
        return;
    CompactMetrics &m = CompactMetrics::get();
    m.bytesSaved.add(savedBytes_);
    m.records.add(compactRecords_);
    m.segments.add(compactSegments_);
    m.classes.set(static_cast<std::int64_t>(
        ctx_.wireEncodings().compactClassCount()));
    savedBytes_ = compactRecords_ = compactSegments_ = 0;
}

void
CompactEncoder::encodeSegment(const std::uint8_t *data, std::size_t len,
                              const OutputBuffer::FlushFn &sink)
{
    if (len == 0)
        return;
    // Pass 1 (Auto): a segment with no compact-decided class travels
    // verbatim — no rewrite, no extra copy.
    if (mode_ != WireCompactMode::Force && !anyCompactClass(data, len)) {
        sink(data, len);
        syncMeasured();
        return;
    }
    // Pass 2: build the compact stream.
    buildCompact(data, len);
    std::size_t total =
        wordSize + wire::varLen(enc_.size()) + enc_.size();
    if (mode_ != WireCompactMode::Force && total >= len) {
        // The estimate lied for this mix; ship raw and let the
        // measured accounting demote the offenders.
        sink(data, len);
        syncMeasured();
        return;
    }
    out_.clear();
    out_.reserve(total);
    out_.resize(wordSize);
    putWord(out_.data(), marker::compactSeg);
    wire::putVarU64(out_, enc_.size());
    out_.insert(out_.end(), enc_.begin(), enc_.end());
    if (out_.size() < len)
        savedBytes_ += len - out_.size();
    ++compactSegments_;
    sink(out_.data(), out_.size());
    syncMeasured();
}

OutputBuffer::FlushFn
compactStage(SkywayContext &ctx, ObjectFormat wire_format,
             OutputBuffer::FlushFn sink)
{
    WireCompactMode mode = ctx.wireCompactMode();
    if (mode == WireCompactMode::Off)
        return sink;
    if (mode == WireCompactMode::Auto &&
        wire::WirePolicy::minSavingPercent(ctx.wireNsPerByte()) > 100.0)
        return sink; // wire cheaper than the encoder: pass through
    auto enc = std::make_shared<CompactEncoder>(ctx, wire_format);
    return [enc, sink = std::move(sink)](const std::uint8_t *data,
                                         std::size_t len) {
        enc->encodeSegment(data, len, sink);
    };
}

} // namespace skyway
