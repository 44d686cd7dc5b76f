/**
 * @file
 * Skyway output buffers (paper section 3.2): per-destination buffers
 * in *native* (off-heap) memory — they must not interact with the GC,
 * which could otherwise reclaim objects before they are sent — with
 * streaming: the buffer flushes to its sink whenever the next record
 * does not fit, and the bytes already flushed are subtracted from a
 * record's address to find its place in the buffer (Algorithm 2,
 * line 10).
 *
 * Records and marker words (top marks, backward references) both
 * claim space, so a record's logical (relative) address is exactly
 * its offset in the flushed stream. Records never span a flush
 * boundary, so every flushed segment is a whole number of records
 * and markers; the receiver relies on this when placing records
 * into heap chunks.
 */

#ifndef SKYWAY_SKYWAY_OUTPUTBUFFER_HH
#define SKYWAY_SKYWAY_OUTPUTBUFFER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "support/logging.hh"
#include "support/types.hh"

namespace skyway
{

/** Default output-buffer capacity (tunable per stream). */
constexpr std::size_t defaultOutputBufferBytes = 256 << 10;

class OutputBuffer
{
  public:
    /** Sink for flushed segments (disk file, socket, test vector). */
    using FlushFn =
        std::function<void(const std::uint8_t *data, std::size_t len)>;

    OutputBuffer(std::size_t capacity, FlushFn flush)
        : buf_(std::make_unique_for_overwrite<std::uint8_t[]>(
              capacity)),
          cap_(capacity),
          baseCap_(capacity),
          flush_(std::move(flush))
    {
        panicIf(capacity < 64, "OutputBuffer: capacity too small");
    }

    /** Logical end of the buffer: where the next record will go. */
    std::uint64_t allocableAddr() const { return allocable_; }

    /** Claim @p bytes of logical space for a discovered object or a
     *  marker. */
    std::uint64_t
    claim(std::size_t bytes)
    {
        std::uint64_t addr = allocable_;
        allocable_ += bytes;
        return addr;
    }

    /**
     * Return a pointer to physical space for the record at logical
     * address @p addr of @p bytes. Writes must be sequential (clone
     * order equals claim order under the BFS); flushes as needed.
     */
    std::uint8_t *
    writeAt(std::uint64_t addr, std::size_t bytes)
    {
        panicIf(addr != totalBytes(),
                "OutputBuffer: non-sequential record write");
        return reserve(bytes);
    }

    /**
     * Claim and write marker words between two top-level objects. A
     * marker takes stream space like a record (the paper keeps top
     * marks in the output buffer), so it must come when every claimed
     * record has been written.
     */
    void
    writeMarker(const Word *words, std::size_t n)
    {
        std::size_t bytes = n * wordSize;
        std::memcpy(writeAt(claim(bytes), bytes), words, bytes);
    }

    /** Force out whatever the buffer holds. */
    void
    flushNow()
    {
        if (used_ == 0)
            return;
        flush_(buf_.get(), used_);
        flushed_ += used_;
        used_ = 0;
    }

    /**
     * Start a new stream in the same storage: the next record goes
     * to logical address 0, and a buffer grown for an oversized
     * record shrinks back to its configured capacity, so segment
     * boundaries never depend on an earlier stream. Whatever the
     * buffer still holds is dropped, so flush first.
     */
    void
    reset()
    {
        if (cap_ != baseCap_) {
            buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(
                baseCap_);
            cap_ = baseCap_;
        }
        allocable_ = 0;
        flushed_ = 0;
        used_ = 0;
    }

    /** Total bytes produced so far (streamed + resident). */
    std::uint64_t totalBytes() const { return flushed_ + used_; }

  private:
    /** Whole-unit physical append (flushing first when full). */
    std::uint8_t *
    reserve(std::size_t bytes)
    {
        if (used_ + bytes > cap_) {
            flushNow();
            if (bytes > cap_) {
                // Oversized record: grow the (native) buffer.
                buf_ = std::make_unique_for_overwrite<
                    std::uint8_t[]>(bytes);
                cap_ = bytes;
            }
        }
        std::uint8_t *p = buf_.get() + used_;
        used_ += bytes;
        return p;
    }

    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t cap_;
    /** The configured capacity (cap_ grows for an oversized record). */
    std::size_t baseCap_;
    FlushFn flush_;
    std::uint64_t allocable_ = 0;
    std::uint64_t flushed_ = 0;
    std::size_t used_ = 0;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_OUTPUTBUFFER_HH
