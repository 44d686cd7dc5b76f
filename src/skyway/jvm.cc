#include "skyway/jvm.hh"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace skyway
{

ClassCatalog
makeStandardCatalog()
{
    ClassCatalog catalog;
    defineBootstrapClasses(catalog);
    return catalog;
}

Jvm::Jvm(const ClassCatalog &catalog, ClusterNetwork &net, NodeId id,
         NodeId driver_id, HeapConfig heap_config)
    : id_(id),
      net_(net),
      klasses_(catalog, heap_config.format),
      heap_(heap_config),
      gc_(heap_),
      builder_(heap_, klasses_),
      disk_()
{
#ifdef __GLIBC__
    // Shuffles free and reallocate native buffers of 256 KiB to tens
    // of MiB every phase. Keep them in the process heap, as a JVM
    // keeps its native arenas: glibc's defaults hand them back to the
    // kernel, and each phase would pay first-touch page faults again.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
    if (id == driver_id)
        driver_ = std::make_unique<TypeRegistryDriver>(net, id, klasses_);
    else
        worker_ = std::make_unique<TypeRegistryWorker>(net, id, driver_id,
                                                       klasses_);
    skyway_ = std::make_unique<SkywayContext>(heap_, klasses_,
                                              resolver());
    // The compact-encoding policy prices CPU against wire time; feed
    // it this cluster's actual link cost so Auto mode compacts on
    // slow links and passes through on fast ones (WirePolicy).
    if (net.model().bandwidthBytesPerSec > 0)
        skyway_->setWireNsPerByte(1.0e9 /
                                  net.model().bandwidthBytesPerSec);
}

TypeResolver &
Jvm::resolver()
{
    if (driver_)
        return *driver_;
    return *worker_;
}

TypeRegistryDriver &
Jvm::registryDriver()
{
    panicIf(!driver_, "registryDriver() on a worker node");
    return *driver_;
}

} // namespace skyway
