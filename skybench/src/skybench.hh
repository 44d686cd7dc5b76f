/**
 * @file
 * The repository benchmark's shared vocabulary: what one job reports,
 * the workload interface, the registry probe that turns the runtime's
 * always-on counters into per-job deltas, and the decorating
 * SerializerFactory that times sender and receiver streams from
 * outside the runtime (skybench/README.md, "Per-layer metrics").
 *
 * Every span here lives in the benchmark's own files and wraps a call
 * into a layer's public function; the runtime's own tracer
 * (obs::SpanTracer, SKYWAY_TRACE) stays off in every run.
 */

#ifndef SKYBENCH_SKYBENCH_HH
#define SKYBENCH_SKYBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sd/serializer.hh"

namespace skybench
{

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Input size: `full` is the measured configuration, `tiny` the
 *  self-test's (skybench/selftest.py). */
enum class Size
{
    Full,
    Tiny,
};

/** What one job (one TC job, one QA–QE pass, one block of transfers)
 *  reports. Times are seconds unless the name says otherwise. */
struct JobResult
{
    /** Wall time of the job's timed region (excludes set-up, input
     *  generation, correctness checks and teardown). */
    double wallS = 0;
    /** Measured CPU plus modeled 1 GbE/SSD I/O (PhaseBreakdown). */
    double modeledS = 0;
    double serS = 0;
    double deserS = 0;
    double wireBytes = 0;
    double peakHeapMb = 0;
    /** Per-operation latencies, milliseconds. */
    std::vector<double> opMs;
    /** Set-up samples taken while running the job (cluster builds). */
    std::vector<double> setupS;
    int attempted = 0;
    int failed = 0;
    /** Per-layer values for this job; keys are per-layer metric names
     *  (units in main.cc). Filled on traced and untraced jobs alike;
     *  only traced jobs' values are reported. */
    std::map<std::string, double> layers;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs from @p seed and compute the reference results
     *  without Skyway. @p corrupt_reference perturbs the reference so
     *  every operation must be reported failed (self-test only). */
    virtual void prepare(std::uint64_t seed, bool corrupt_reference) = 0;

    /** Untimed warm-up before measuring. Every job builds a fresh
     *  cluster, so only code whose speed settles over repetitions
     *  needs one. */
    virtual void warmUp() {}

    /** One job; @p traced adds the benchmark's layer spans. */
    virtual JobResult runJob(bool traced) = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       Size size);

/**
 * Per-job deltas of the runtime's registry counters (published in
 * batches at stream boundaries, always on; docs/OBSERVABILITY.md).
 */
class RegistryProbe
{
  public:
    RegistryProbe();

    /** Fill @p layers with the counter deltas since construction. */
    void finish(std::map<std::string, double> &layers) const;

  private:
    std::vector<std::pair<std::string, std::uint64_t>> before_;
};

/** Span totals of the decorating serializers, in nanoseconds. */
struct StreamSpans
{
    std::uint64_t senderNs = 0;
    std::uint64_t receiverNs = 0;
    std::uint64_t freeNs = 0;
};

/**
 * A Serializer decorator: spans from the first writeObject to
 * endStream per output stream, spans around the readObject calls of
 * one input stream (a stream starts when a fresh ByteSource is
 * passed), and a span around releaseReceived (input-buffer free).
 */
class TracedSerializer : public skyway::Serializer
{
  public:
    TracedSerializer(std::unique_ptr<skyway::Serializer> inner,
                     StreamSpans &spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    ~TracedSerializer() override { closeRead(); }

    std::string name() const override { return inner_->name(); }

    void
    writeObject(skyway::Address root, skyway::ByteSink &out) override
    {
        closeRead();
        if (!writing_) {
            writing_ = true;
            writeStart_ = nowNs();
        }
        inner_->writeObject(root, out);
    }

    void
    endStream(skyway::ByteSink &out) override
    {
        inner_->endStream(out);
        if (writing_) {
            spans_.senderNs += nowNs() - writeStart_;
            writing_ = false;
        }
    }

    skyway::Address
    readObject(skyway::ByteSource &in) override
    {
        if (&in != readSrc_ || in.position() == 0) {
            closeRead();
            readSrc_ = &in;
            readStart_ = nowNs();
        }
        skyway::Address a = inner_->readObject(in);
        readEnd_ = nowNs();
        return a;
    }

    void reset() override { inner_->reset(); }

    void
    startPhase() override
    {
        closeRead();
        inner_->startPhase();
    }

    void
    releaseReceived() override
    {
        closeRead();
        std::uint64_t t0 = nowNs();
        inner_->releaseReceived();
        spans_.freeNs += nowNs() - t0;
    }

    bool
    receivedObjectsArePinned() const override
    {
        return inner_->receivedObjectsArePinned();
    }

  private:
    void
    closeRead()
    {
        if (readSrc_) {
            spans_.receiverNs += readEnd_ - readStart_;
            readSrc_ = nullptr;
        }
    }

    std::unique_ptr<skyway::Serializer> inner_;
    StreamSpans &spans_;
    bool writing_ = false;
    std::uint64_t writeStart_ = 0;
    const skyway::ByteSource *readSrc_ = nullptr;
    std::uint64_t readStart_ = 0;
    std::uint64_t readEnd_ = 0;
};

/** Wraps every serializer @p inner creates in a TracedSerializer. */
class TracedSerializerFactory : public skyway::SerializerFactory
{
  public:
    TracedSerializerFactory(skyway::SerializerFactory &inner,
                            StreamSpans &spans)
        : inner_(inner), spans_(spans)
    {}

    std::string name() const override { return inner_.name(); }

    std::unique_ptr<skyway::Serializer>
    create(skyway::SdEnv env) override
    {
        return std::make_unique<TracedSerializer>(inner_.create(env),
                                                  spans_);
    }

  private:
    skyway::SerializerFactory &inner_;
    StreamSpans &spans_;
};

} // namespace skybench

#endif // SKYBENCH_SKYBENCH_HH
