#include "net/model_transport.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"

namespace skyway
{

ModelTransport::ModelTransport(int node_count)
    : mailboxes_(node_count)
{
}

void
ModelTransport::send(NodeId src, NodeId dst, int tag,
                     std::vector<std::uint8_t> payload)
{
    MutexLock lock(mutex_);
    mailboxes_[dst].push_back(NetMessage{src, tag, std::move(payload)});
}

std::ptrdiff_t
ModelTransport::pollTagInto(NodeId dst, int tag,
                            const ReserveFn &reserve)
{
    NetMessage msg;
    {
        // Dequeue under the mailbox lock, then deliver outside it:
        // the reserve callback may allocate heap chunks and the
        // copy-out may be large; neither should stall concurrent
        // senders.
        MutexLock lock(mutex_);
        auto &box = mailboxes_[dst];
        auto it = std::find_if(box.begin(), box.end(),
                               [tag](const NetMessage &m) {
                                   return m.tag == tag;
                               });
        if (it == box.end())
            return -1;
        msg = std::move(*it);
        box.erase(it);
    }
    if (msg.payload.empty())
        return 0;
    std::uint8_t *to = reserve(msg.payload.size());
    panicIf(to == nullptr, "pollTagInto: reserve returned null");
    std::memcpy(to, msg.payload.data(), msg.payload.size());
    return static_cast<std::ptrdiff_t>(msg.payload.size());
}

} // namespace skyway
