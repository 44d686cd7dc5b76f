/**
 * @file
 * The in-process transport: per-node mailboxes behind one mutex.
 * Messages "arrive" the moment send() returns; wire cost exists only
 * on the simulated clocks ClusterNetwork charges. pollTagInto
 * finds and unlinks a message under the lock and copies its payload
 * into the posted storage outside it (the modeled NIC DMA).
 */

#ifndef SKYWAY_NET_MODEL_TRANSPORT_HH
#define SKYWAY_NET_MODEL_TRANSPORT_HH

#include <deque>

#include "net/transport.hh"
#include "support/thread_annotations.hh"

namespace skyway
{

class ModelTransport final : public Transport
{
  public:
    explicit ModelTransport(int node_count);

    const char *name() const override { return "model"; }

    void send(NodeId src, NodeId dst, int tag,
              std::vector<std::uint8_t> payload) override;
    std::ptrdiff_t pollTagInto(NodeId dst, int tag,
                               const ReserveFn &reserve) override;

  private:
    /** The one mailbox lock; every public method takes it. */
    mutable Mutex mutex_;
    std::vector<std::deque<NetMessage>> mailboxes_ GUARDED_BY(mutex_);
};

} // namespace skyway

#endif // SKYWAY_NET_MODEL_TRANSPORT_HH
