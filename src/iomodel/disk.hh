/**
 * @file
 * The simulated local disk each node writes shuffle files to. File
 * contents are real in-memory bytes (deserializers read them back);
 * only the I/O *time* is modeled, via a throughput + per-operation
 * overhead model calibrated to the paper's SSDs.
 */

#ifndef SKYWAY_IOMODEL_DISK_HH
#define SKYWAY_IOMODEL_DISK_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/logging.hh"

namespace skyway
{

/** Throughput model for one storage device. */
struct DiskCostModel
{
    double writeBytesPerSec = 400.0e6; // SATA-SSD-class sequential write
    double readBytesPerSec = 500.0e6;
    std::uint64_t perOpNs = 50'000; // open/fsync-ish overhead

    std::uint64_t
    writeNs(std::uint64_t bytes) const
    {
        return perOpNs + static_cast<std::uint64_t>(
                             bytes * 1.0e9 / writeBytesPerSec);
    }

    std::uint64_t
    readNs(std::uint64_t bytes) const
    {
        return perOpNs + static_cast<std::uint64_t>(
                             bytes * 1.0e9 / readBytesPerSec);
    }
};

/**
 * One node's disk: named files of raw bytes with charged I/O time.
 */
class SimDisk
{
  public:
    explicit SimDisk(DiskCostModel model = DiskCostModel{})
        : model_(model)
    {}

    const DiskCostModel &model() const { return model_; }

    /** Create/overwrite @p name; returns charged write nanoseconds. */
    std::uint64_t
    writeFile(const std::string &name, std::vector<std::uint8_t> bytes)
    {
        std::uint64_t ns = model_.writeNs(bytes.size());
        bytesWritten_ += bytes.size();
        files_[name] = std::move(bytes);
        return ns;
    }

    /** Append to @p name; returns charged write nanoseconds. */
    std::uint64_t
    appendFile(const std::string &name, const void *data,
               std::size_t len)
    {
        std::uint64_t ns = model_.writeNs(len);
        bytesWritten_ += len;
        auto &f = files_[name];
        const auto *p = static_cast<const std::uint8_t *>(data);
        f.insert(f.end(), p, p + len);
        return ns;
    }

    bool exists(const std::string &name) const
    {
        return files_.count(name) != 0;
    }

    /** Borrow file contents; charges nothing (use chargeRead). */
    const std::vector<std::uint8_t> &
    file(const std::string &name) const
    {
        auto it = files_.find(name);
        if (it == files_.end())
            panic("SimDisk: no such file " + name);
        return it->second;
    }

    /** Charged read nanoseconds for @p bytes. */
    std::uint64_t
    chargeRead(std::uint64_t bytes)
    {
        bytesRead_ += bytes;
        return model_.readNs(bytes);
    }

    void remove(const std::string &name) { files_.erase(name); }
    void clear() { files_.clear(); }

    std::uint64_t totalBytesWritten() const { return bytesWritten_; }
    std::uint64_t totalBytesRead() const { return bytesRead_; }

  private:
    DiskCostModel model_;
    std::unordered_map<std::string, std::vector<std::uint8_t>> files_;
    std::uint64_t bytesWritten_ = 0;
    std::uint64_t bytesRead_ = 0;
};

} // namespace skyway

#endif // SKYWAY_IOMODEL_DISK_HH
