#include "skyway/inputbuffer.hh"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "heap/objectops.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sanitize/wirecheck.hh"
#include "skyway/baddr.hh"
#include "skyway/wirecompact.hh"
#include "support/stopwatch.hh"

namespace skyway
{

namespace
{

/** True when records of @p k carry reference slots to absolutize. */
bool
holdsRefs(const Klass *k)
{
    return k->isArray() ? k->elemType() == FieldType::Ref
                        : !k->refOffsets().empty();
}

/** Call @p visit(address, size) for each record in [a, end), skipping
 *  the fillers that consumed markers became at commit. */
template <typename Visit>
void
forEachRecord(const ManagedHeap &h, Address a, Address end, Visit visit)
{
    while (a < end) {
        if (ManagedHeap::isFiller(a)) {
            a += ManagedHeap::fillerSize(a);
            continue;
        }
        std::size_t size = h.objectSize(a);
        visit(a, size);
        a += size;
    }
}

} // namespace

InputBuffer::InputBuffer(SkywayContext &ctx, std::size_t chunk_bytes)
    : ctx_(ctx),
      heap_(ctx.heap()),
      chunkBytes_(chunk_bytes),
      fmt_(ctx.heap().format())
{
    panicIf(chunk_bytes < 4 * wordSize,
            "InputBuffer: chunk size too small");
    // Pre-size the tid cache to the registry's current assignment
    // ceiling so the receive hot loop never grows the vector
    // mid-parse; ids assigned after construction (stale view) still
    // grow it lazily.
    std::int32_t max_id = ctx_.resolver().maxAssignedId();
    if (max_id >= 0)
        tidCache_.resize(static_cast<std::size_t>(max_id) + 1, nullptr);
    if (ctx_.debug().validateWire)
        validator_ = std::make_unique<sanitize::WireValidator>(
            ctx_.resolver(), sanitize::WireCheckConfig{fmt_});
}

InputBuffer::~InputBuffer()
{
    publishMetrics();
    free();
}

Klass *
InputBuffer::klassForTid(std::int32_t tid)
{
    panicIf(tid < 0, "InputBuffer: negative type id");
    auto idx = static_cast<std::size_t>(tid);
    if (idx < tidCache_.size() && tidCache_[idx])
        return tidCache_[idx];
    Klass *k = ctx_.resolver().klassForId(tid);
    if (!k)
        panic("InputBuffer: unresolvable type id " + std::to_string(tid));
    if (idx >= tidCache_.size())
        tidCache_.resize(idx + 1, nullptr);
    tidCache_[idx] = k;
    return k;
}

std::size_t
InputBuffer::recordSize(const std::uint8_t *rec, Klass *k) const
{
    if (!k->isArray())
        return k->instanceBytes();
    Word len;
    std::memcpy(&len, rec + fmt_.arrayLengthOffset(), wordSize);
    return k->arrayBytes(static_cast<std::size_t>(len));
}

InputBuffer::Chunk &
InputBuffer::chunkFor(std::size_t len)
{
    if (!chunks_.empty() && chunks_.back().fill + len <= chunks_.back().cap)
        return chunks_.back();
    // Compact wire segments have arbitrary byte lengths; round the
    // capacity up so the finalize-time tail filler (and the heap
    // allocator) always see word-aligned extents.
    std::size_t cap = wordAlign(std::max(chunkBytes_, len));
    if (len > chunkBytes_)
        ++stats_.oversizedChunks;
    // Tenured allocation: input buffers live in the old generation.
    // No zeroing: the transport fills the chunk with records and
    // finalize() covers the tail with a filler before the GC can walk
    // it.
    Address base = heap_.allocateOldRaw(cap, false);
    std::size_t pin = heap_.pinOldRange(base, cap);
    std::uint64_t first =
        chunks_.empty() ? 0
                        : chunks_.back().firstLogical + chunks_.back().fill;
    chunks_.push_back(Chunk{base, cap, 0, pin, first, false});
    ++stats_.chunksAllocated;
    return chunks_.back();
}

Address
InputBuffer::place(std::size_t len)
{
    Chunk &c = chunkFor(len);
    Address pa = c.base + c.fill;
    c.fill += len;
    return pa;
}

std::size_t
InputBuffer::commitMarker(bool is_back_ref, Word slot)
{
    panicIf(rootNext_, "InputBuffer: a top mark is not followed by a record");
    // A backward reference names a record written earlier in the
    // stream, so it resolves before the marker itself is committed.
    if (is_back_ref)
        roots_.push_back(slot == 0 ? nullAddr : resolveRel(slot - 1));
    rootNext_ = !is_back_ref;
    std::size_t size = is_back_ref ? 2 * wordSize : wordSize;
    heap_.writeFillerAny(place(size), size);
    return size;
}

Address
InputBuffer::commitRecord(std::size_t size, const Klass *k)
{
    Address pa = place(size);
    if (holdsRefs(k))
        chunks_.back().hasRefs = true;
    if (rootNext_)
        roots_.push_back(pa);
    rootNext_ = false;
    ++stats_.objectsReceived;
    stats_.bytesReceived += size;
    return pa;
}

void
InputBuffer::publishMetrics()
{
    SKYWAY_RECEIVE_STATS(SKYWAY_PUBLISH_STAT_DELTA)
    published_ = stats_;
}

std::uint8_t *
InputBuffer::reserveChunk(std::size_t len)
{
    panicIf(finalized_, "InputBuffer: reserveChunk after finalize");
    panicIf(reserved_ != nullptr,
            "InputBuffer: a chunk reservation is already open");
    Chunk &c = chunkFor(len);
    reserved_ = reinterpret_cast<std::uint8_t *>(c.base + c.fill);
    reservedLen_ = len;
    // The transport is about to write every reserved byte: fault the
    // pages in with one call rather than one trap per fresh page. Only
    // the reservation: a chunk's unused capacity stays untouched.
    heap_.prefault(c.base + c.fill, len);
    return reserved_;
}

void
InputBuffer::commitChunk(std::size_t len)
{
    SKYWAY_SPAN("receiver.commit");
    panicIf(finalized_, "InputBuffer: commit after finalize");
    panicIf(reserved_ == nullptr,
            "InputBuffer: commit without a reservation");
    panicIf(len > reservedLen_,
            "InputBuffer: commit exceeds the reservation");
    if (validator_) {
        // Fail on the validator's verdict *before* the parser touches
        // the segment: the parser assumes well-formed input (a forged
        // type id would panic deep inside the registry with no
        // context), while the validator names the fault and its
        // stream offset. The validator must also read the bytes
        // before marker words are overwritten with fillers below.
        validator_->feed(reserved_, len);
        if (!validator_->ok())
            panic("SkywaySan: receiver wire validation failed: " +
                  validator_->firstFault());
    }

    if (len >= wordSize && wire::isCompactSegment(reserved_, len)) {
        // The expander writes full-format records through the regular
        // chunk machinery — into the very region this reservation
        // covers — so the compact wire bytes are staged out first and
        // the reservation is abandoned without advancing the fill.
        // These bytes are *not* zero-copy: the wire representation is
        // not the chunk representation (stats_.expandedBytes holds
        // what the segment produced).
        scratch_.assign(reserved_, reserved_ + len);
        reserved_ = nullptr;
        reservedLen_ = 0;
        std::size_t used = expandSegment(scratch_.data(),
                                         scratch_.size());
        panicIf(used != scratch_.size(),
                "InputBuffer: trailing bytes after a compact segment");
        return;
    }

    // The segment already sits at the stream end, so each place()
    // below hands back the bytes at rec and advances the fill past
    // them: a backward reference can name any earlier record, this
    // segment's included.
    std::size_t off = 0;
    while (off < len) {
        std::uint8_t *rec = reserved_ + off;
        // Every read below is bounds-checked first: a truncated or
        // forged segment must not read past the reservation.
        std::size_t avail = len - off;
        panicIf(avail < wordSize, "InputBuffer: truncated record");
        // Marker words delimit top-level objects. With the segment
        // already sitting in chunk storage they are consumed and
        // overwritten in place with heap filler records, so linear
        // chunk walks skip them. A real object's mark word can never
        // match: its reserved bits are always zero.
        Word first;
        std::memcpy(&first, rec, wordSize);
        if (marker::isMarker(first)) {
            bool is_back_ref = first == marker::backRef;
            panicIf(!is_back_ref && first != marker::topMark,
                    "InputBuffer: unknown marker word");
            Word slot = 0;
            if (is_back_ref) {
                panicIf(avail < 2 * wordSize,
                        "InputBuffer: truncated marker");
                std::memcpy(&slot, rec + wordSize, wordSize);
            }
            off += commitMarker(is_back_ref, slot);
            continue;
        }

        panicIf(avail < fmt_.headerBytes(),
                "InputBuffer: truncated record");
        Word tid_word;
        std::memcpy(&tid_word, rec + offsetKlass, wordSize);
        Klass *k = klassForTid(static_cast<std::int32_t>(tid_word));
        panicIf(k->isArray() && avail < fmt_.arrayHeaderBytes(),
                "InputBuffer: truncated record");
        std::size_t size = recordSize(rec, k);
        panicIf(size > avail,
                "InputBuffer: record spans a streamed segment");
        commitRecord(size, k);
        // Absolutize the type in place: the validator has read the
        // segment already, and nothing reads the type id again.
        std::memcpy(rec + offsetKlass, &k, wordSize);
        off += size;
    }

    stats_.zeroCopyBytes += len;
    reserved_ = nullptr;
    reservedLen_ = 0;
}

void
InputBuffer::feed(const std::uint8_t *data, std::size_t len)
{
    std::memcpy(reserveChunk(len), data, len);
    commitChunk(len);
}

std::size_t
InputBuffer::expandSegment(const std::uint8_t *data, std::size_t len)
{
    SKYWAY_SPAN("receiver.expand");
    Stopwatch sw;
    wire::ExpandHooks hooks;
    hooks.klassFor = [this](std::int32_t tid) {
        return klassForTid(tid);
    };
    hooks.onMarker = [this](bool is_back_ref, Word slot) {
        commitMarker(is_back_ref, slot);
    };
    hooks.place = [this](std::size_t size,
                         const Klass *k) -> std::uint8_t * {
        stats_.expandedBytes += size;
        return reinterpret_cast<std::uint8_t *>(commitRecord(size, k));
    };
    std::size_t used =
        wire::expandCompactSegment(data, len, fmt_, hooks);
    stats_.expandNs += sw.elapsedNs();
    return used;
}

Address
InputBuffer::resolveRel(std::uint64_t rel) const
{
    // Each chunk's stream range ends where the next one's begins, so
    // the last chunk starting at or before rel is the only candidate.
    auto it = std::upper_bound(chunks_.begin(), chunks_.end(), rel,
                               [](std::uint64_t r, const Chunk &c) {
                                   return r < c.firstLogical;
                               });
    panicIf(it == chunks_.begin(),
            "InputBuffer: relative address in an empty buffer");
    --it;
    std::uint64_t off = rel - it->firstLogical;
    panicIf(off >= it->fill,
            "InputBuffer: relative address past the committed stream");
    return it->base + off;
}

void
InputBuffer::finalize()
{
    // Types were absolutized at commit, so the scan here visits only
    // the chunks holding reference slots (and every chunk again when
    // field updates are registered); its time is the span to watch.
    SKYWAY_SPAN("receiver.absolutize");
    panicIf(finalized_, "InputBuffer: finalize called twice");
    panicIf(reserved_ != nullptr,
            "InputBuffer: finalize with an open chunk reservation");
    if (validator_) {
        // Reject a corrupt stream *before* absolutization writes
        // anything into the heap.
        validator_->finish();
        if (!validator_->ok())
            panic("SkywaySan: receiver wire validation failed: " +
                  validator_->firstFault());
    }
    panicIf(rootNext_, "InputBuffer: a top mark is not followed by a record");
    // Every klass word holds a klass pointer since commit; absolutize
    // every reference slot: relative address a' maps to chunk_base +
    // (a' - chunk_first_logical).
    for (const Chunk &c : chunks_) {
        if (!c.hasRefs)
            continue;
        forEachRecord(heap_, c.base, c.base + c.fill,
                      [&](Address a, std::size_t) {
            forEachRefSlot(heap_, a, [&](std::size_t off) {
                Word slot = heap_.loadWord(a, off);
                if (slot == 0)
                    return;
                heap_.storeWord(a, off,
                                static_cast<Word>(resolveRel(slot - 1)));
                ++stats_.refsAbsolutized;
            });
        });
    }

    for (Chunk &c : chunks_) {
        // Make the unreached tail walkable and let the GC see the
        // chunk as a sequence of live objects. A received reference
        // points into this buffer (old to old), so the card table
        // needs to hear nothing about it.
        heap_.writeFillerAny(c.base + c.fill, c.cap - c.fill);
        heap_.makePinWalkable(c.pin);
    }

    // Field updates run last, over walkable chunks: an update that
    // allocates may trigger a collection, which must then see every
    // received object. An update may also store a young object
    // without the write barrier, so the record's cards are dirtied
    // at once, as the barrier would, before the next update can
    // scavenge.
    if (!ctx_.updates().empty()) {
        for (const Chunk &c : chunks_) {
            forEachRecord(heap_, c.base, c.base + c.fill,
                          [&](Address a, std::size_t size) {
                if (ctx_.updates().apply(heap_, heap_.klassOf(a), a)) {
                    heap_.dirtyCardRange(a, size);
                    ++stats_.fieldUpdatesApplied;
                }
            });
        }
    }
    finalized_ = true;
    if (ctx_.debug().checkReceivedGraph)
        auditRebuilt();
    publishMetrics();
}

void
InputBuffer::auditRebuilt() const
{
    std::unordered_set<Address> starts;
    for (const Chunk &c : chunks_) {
        Address end = c.base + c.fill;
        forEachRecord(heap_, c.base, end, [&](Address a, std::size_t size) {
            starts.insert(a);
            if (size == 0 || a + size > end)
                panic("SkywaySan: rebuilt object at " +
                      std::to_string(a) + " overruns its chunk");
        });
    }
    for (const Chunk &c : chunks_) {
        forEachRecord(heap_, c.base, c.base + c.fill,
                      [&](Address a, std::size_t) {
            Word m = heap_.markOf(a);
            if ((m & ~(mark::hashMask | mark::hashComputedBit)) != 0)
                panic("SkywaySan: rebuilt " + heap_.klassOf(a)->name() +
                      " carries non-transfer mark bits");
            forEachRefSlot(heap_, a, [&](std::size_t off) {
                Address t = heap_.loadRef(a, off);
                // A reference either stays inside this buffer's
                // rebuilt closure or was installed by a registered
                // field update, which may point anywhere in the local
                // heap.
                if (t != nullAddr && !starts.count(t) &&
                    !heap_.contains(t))
                    panic("SkywaySan: rebuilt " +
                          heap_.klassOf(a)->name() +
                          " references outside the input buffer "
                          "and the heap");
            });
        });
    }
    for (Address r : roots_)
        panicIf(r != nullAddr && !starts.count(r),
                "SkywaySan: a root does not name a rebuilt object");
}

const std::vector<Address> &
InputBuffer::roots() const
{
    panicIf(!finalized_, "InputBuffer: roots() before finalize()");
    return roots_;
}

void
InputBuffer::free()
{
    if (freed_)
        return;
    for (Chunk &c : chunks_)
        heap_.unpinOldRange(c.pin);
    freed_ = true;
}

} // namespace skyway
