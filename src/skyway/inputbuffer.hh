/**
 * @file
 * Skyway input buffers (paper section 4.3). One buffer per (sender,
 * stream); allocated in the *managed heap's old generation* so that
 * transferred objects are heap objects the moment they arrive. The
 * buffer is a linked list of fixed-size chunks — the total transfer
 * size is unknown while streaming, and large contiguous allocations
 * would fragment the old generation. An object never spans chunks;
 * oversized chunks are created for objects larger than the regular
 * chunk size.
 *
 * Ingest has one path: the transport calls reserveChunk(len) to get
 * a pointer directly into old-gen chunk storage, writes the streamed
 * segment there (a socket receive, a modeled NIC DMA, a disk read),
 * and calls commitChunk(len). reserveChunk prefaults exactly the
 * reserved pages, so that write takes one system call rather than a
 * page-fault trap per fresh page. The commit parses the records *in
 * place*: each record's klass word turns from a type id into the
 * local klass pointer (the parser resolves the klass anyway), and
 * marker words (top marks, backward references) are consumed and
 * overwritten with heap filler records. Markers take stream space
 * like records do, so a relative address is a plain stream offset,
 * and each chunk holds one contiguous stretch of the stream starting
 * at its `firstLogical`: translation is "find the chunk, add its
 * base" (paper section 4.3), one table entry per chunk. Roots are
 * settled at commit: a top mark makes the next record a root, and a
 * backward reference names a record committed earlier in the stream.
 * feed() is the same path for byte-owning callers (framed serializer
 * and file streams, in-memory tests): reserve, one memcpy, commit.
 *
 * While streaming, chunks are pinned *opaque* (references are still
 * relative), so the GC neither walks nor frees them. finalize() runs
 * the linear absolutization pass over the chunks that need it: a
 * chunk is walked only when a record committed into it has reference
 * slots. Relative references become absolute addresses via the chunk
 * translation. The chunks then become pinned *walkable* — live until
 * the developer frees the buffer. Registered field updates run last,
 * in their own walk over the walkable chunks, so a collection an
 * update triggers sees every received object. A received reference
 * always points into the same buffer (old to old), so the only cards
 * dirtied are those of records an update touched, right after the
 * update, as a write barrier would: an update may store a young
 * pointer.
 */

#ifndef SKYWAY_SKYWAY_INPUTBUFFER_HH
#define SKYWAY_SKYWAY_INPUTBUFFER_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "skyway/context.hh"

namespace skyway
{

namespace sanitize
{
class WireValidator;
}

/** Default input-buffer chunk size (user-tunable per the paper). */
constexpr std::size_t defaultInputChunkBytes = 256 << 10;

/**
 * Receiver-side statistics, one entry per field: STAT(member, metric).
 * The list drives SkywayReceiveStats and the `skyway.receiver.*`
 * counters InputBuffer::publishMetrics() feeds (docs/OBSERVABILITY.md).
 *
 * zeroCopyBytes counts the raw segment bytes committed in place.
 * Compact segments (docs/WIRE_FORMAT.md) are excluded: their wire
 * bytes are staged out and re-expanded, so the zero-copy invariant
 * (wire bytes == chunk bytes) does not hold for them; expandedBytes
 * holds the full-format bytes they produced and expandNs the wall
 * time spent in the expander.
 */
#define SKYWAY_RECEIVE_STATS(STAT)                                     \
    STAT(objectsReceived, "skyway.receiver.objects_received")          \
    STAT(bytesReceived, "skyway.receiver.bytes_received")              \
    STAT(chunksAllocated, "skyway.receiver.chunks_allocated")          \
    STAT(oversizedChunks, "skyway.receiver.oversized_chunks")          \
    STAT(refsAbsolutized, "skyway.receiver.refs_absolutized")          \
    STAT(fieldUpdatesApplied, "skyway.receiver.field_updates_applied") \
    STAT(zeroCopyBytes, "skyway.receiver.zero_copy_bytes")             \
    STAT(expandedBytes, "skyway.receiver.expanded_bytes")              \
    STAT(expandNs, "skyway.receiver.expand_ns")

/** Per-buffer view of the receiver statistics. */
struct SkywayReceiveStats
{
#define SKYWAY_STAT_FIELD(member, metric) std::uint64_t member = 0;
    SKYWAY_RECEIVE_STATS(SKYWAY_STAT_FIELD)
#undef SKYWAY_STAT_FIELD
};

class InputBuffer
{
  public:
    /**
     * @param ctx         the receiving JVM's Skyway state
     * @param chunk_bytes regular chunk size
     */
    explicit InputBuffer(SkywayContext &ctx,
                         std::size_t chunk_bytes =
                             defaultInputChunkBytes);

    /** Unpinning on destruction is equivalent to free(). */
    ~InputBuffer();

    InputBuffer(const InputBuffer &) = delete;
    InputBuffer &operator=(const InputBuffer &) = delete;

    /**
     * Zero-copy ingest, step 1: reserve @p len contiguous bytes of
     * old-gen chunk storage for an incoming segment (opening a new
     * chunk — oversized if needed — when the current one cannot hold
     * it). The transport writes the segment bytes directly into the
     * returned pointer and then calls commitChunk(). The reserved
     * pages (and no others) are prefaulted. At most one reservation
     * may be outstanding.
     */
    std::uint8_t *reserveChunk(std::size_t len);

    /**
     * Zero-copy ingest, step 2: the transport wrote @p len bytes
     * (<= the reserved length) into the reservation — whole raw
     * records, or exactly one compact segment. Validate them, then
     * parse raw records in place (counted in
     * `skyway.receiver.zero_copy_bytes`) or expand the compact
     * segment. Either way every committed record leaves with its
     * klass pointer in place of the type id, and its chunk is flagged
     * when the klass has reference slots.
     */
    void commitChunk(std::size_t len);

    /**
     * Ingest for byte-owning callers: reserveChunk(len), one memcpy of
     * @p data, commitChunk(len). The contract is commitChunk's; a
     * segment larger than the chunk size lands in one oversized
     * chunk.
     */
    void feed(const std::uint8_t *data, std::size_t len);

    /**
     * The linear absolutization pass; call once streaming has
     * finished. Walks only the chunks holding reference slots, then,
     * when field updates are registered, every chunk once more to
     * apply them (whose stores are the only reason to dirty cards).
     * Computation on the buffer must block until this completes.
     */
    void finalize();

    bool finalized() const { return finalized_; }

    /**
     * The top-level objects, in the order the sender wrote them
     * (recovered from top marks and backward references — no receiver
     * graph traversal).
     */
    const std::vector<Address> &roots() const;

    /** Developer API: release the buffer to the collector. */
    void free();

    std::size_t chunkCount() const { return chunks_.size(); }
    const SkywayReceiveStats &stats() const { return stats_; }

  private:
    /** Holds the stream bytes [firstLogical, firstLogical + fill);
     *  chunks_ is the relative→absolute translation table. */
    struct Chunk
    {
        Address base;
        std::size_t cap;
        std::size_t fill;
        std::size_t pin;
        std::uint64_t firstLogical;
        /** A committed record has reference slots: finalize walks it. */
        bool hasRefs;
    };

    /** Resolve a klass from a wire type id (cached). */
    Klass *klassForTid(std::int32_t tid);

    /** Translate a relative address (committed so far) to its
     *  absolute heap address. */
    Address resolveRel(std::uint64_t rel) const;

    /** Size of the record whose bytes start at @p rec (local format). */
    std::size_t recordSize(const std::uint8_t *rec, Klass *k) const;

    /** The open chunk, after opening a new one (oversized if needed)
     *  when it cannot take @p len more bytes. */
    Chunk &chunkFor(std::size_t len);

    /** Commit @p len bytes at the stream end; returns their address. */
    Address place(std::size_t len);

    /**
     * Commit one marker as a heap filler; returns its stream size. A
     * top mark makes the next record a root, a backward reference
     * resolves its slot (0 = null) at once.
     */
    std::size_t commitMarker(bool is_back_ref, Word slot);

    /** Commit one record of @p size bytes and klass @p k (a root
     *  after a top mark). The caller stores the klass pointer. */
    Address commitRecord(std::size_t size, const Klass *k);

    /**
     * Re-expand the compact segment at @p data (marker + varint
     * length + items) into full heap-format records and marker
     * fillers placed through the regular chunk machinery, giving the
     * raw stream's layout; returns the consumed wire
     * bytes. @p data must not alias chunk storage (commitChunk
     * stages the bytes out first).
     */
    std::size_t expandSegment(const std::uint8_t *data,
                              std::size_t len);

    /**
     * SkywaySan post-finalize structural audit
     * (ctx.debug().checkReceivedGraph): walk the rebuilt chunks and
     * panic unless every object parses, every reference lands on a
     * rebuilt object start (or a live local heap object installed by
     * a field update), every root resolves, and no machine-local mark
     * bits leaked through the transfer.
     */
    void auditRebuilt() const;

    /**
     * Push the delta of stats_ since the last publication into the
     * `skyway.receiver.*` counters. Runs at buffer boundaries —
     * finalize() and destruction — never per commit or per record,
     * keeping the receive hot path free of atomics.
     */
    void publishMetrics();

    SkywayContext &ctx_;
    ManagedHeap &heap_;
    std::size_t chunkBytes_;
    ObjectFormat fmt_;

    std::vector<Chunk> chunks_;
    bool finalized_ = false;
    bool freed_ = false;

    /** The open reservation (between reserveChunk and commit). */
    std::uint8_t *reserved_ = nullptr;
    std::size_t reservedLen_ = 0;

    /** The next record (maybe in the next segment) is a root. */
    bool rootNext_ = false;
    std::vector<Address> roots_;
    /** Staging for compact wire bytes whose expansion overwrites the
     *  chunk region they arrived in (reused across segments). */
    std::vector<std::uint8_t> scratch_;
    /** Dense tid -> klass cache (global ids are small and dense). */
    mutable std::vector<Klass *> tidCache_;
    SkywayReceiveStats stats_;
    /** Values of stats_ as of the last publishMetrics(). */
    SkywayReceiveStats published_;

    /** Debug-mode wire validator (ctx.debug().validateWire). */
    std::unique_ptr<sanitize::WireValidator> validator_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_INPUTBUFFER_HH
