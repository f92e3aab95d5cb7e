#include "src/comm/network.h"

#include <algorithm>

namespace tabs::comm {

void Network::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  auto key = std::minmax(a, b);
  if (partitioned) {
    partitions_.insert(key);
  } else {
    partitions_.erase(key);
  }
}

bool Network::Reachable(NodeId from, NodeId to) const {
  if (!IsAlive(to) || !IsAlive(from)) {
    return false;
  }
  return !partitions_.contains(std::minmax(from, to));
}

void Network::SetDatagramFaults(const DatagramFaults& faults) {
  datagram_faults_ = faults;
  datagram_faults_enabled_ =
      faults.duplicate_probability > 0 || faults.jitter_probability > 0;
  fault_rng_.seed(faults.seed);
}

void Network::SendDatagram(NodeId from, NodeId to, std::string what, sim::TaskFn handler) {
  sim::Scheduler& sched = substrate_.scheduler();
  // Zero-duration on the sender (datagrams don't advance its clock), but the
  // spawned handler's transit time is attributed to the comm manager.
  sim::SpanGuard span(substrate_.tracer(), sim::Component::kCommunicationManager,
                      "datagram.send", substrate_.tracer().enabled() ? what : std::string());
  substrate_.metrics().Count(sim::Primitive::kDatagram);
  if (!Reachable(from, to)) {
    return;  // silently lost, as datagrams are
  }
  if (drop_ && drop_(from, to, what)) {
    substrate_.metrics().CountFault(sim::FaultKind::kDatagramDrop);
    return;
  }
  SimTime arrival = sched.Now() + substrate_.CostOf(sim::Primitive::kDatagram);
  bool duplicate = false;
  if (datagram_faults_enabled_) {
    std::uniform_real_distribution<double> roll(0.0, 1.0);
    if (roll(fault_rng_) < datagram_faults_.jitter_probability) {
      // Bounded extra transit: a jittered datagram can arrive after one sent
      // later, which is exactly the reordering 2PC must tolerate.
      arrival += std::uniform_int_distribution<std::int64_t>(
          1, datagram_faults_.max_jitter_us)(fault_rng_);
      substrate_.metrics().CountFault(sim::FaultKind::kDatagramJitter);
    }
    if (roll(fault_rng_) < datagram_faults_.duplicate_probability) {
      duplicate = true;
      substrate_.metrics().CountFault(sim::FaultKind::kDatagramDuplicate);
    }
  }
  // The handler is the delivery task, tagged with `to`: a crash of `to`
  // kills it in flight, before the node can come back.
  if (duplicate) {
    // A duplicate trails the original by one datagram time (at-most-once is
    // the session layer's property, not the datagram layer's: 2PC handlers
    // must be — and are — idempotent against redelivery).
    sched.Spawn(what, to, arrival, handler);
    arrival += substrate_.CostOf(sim::Primitive::kDatagram);
  }
  sched.Spawn(std::move(what), to, arrival, std::move(handler));
}

void Network::Broadcast(NodeId from, std::string what, std::function<void(NodeId)> handler) {
  for (NodeId node : alive_) {
    if (node == from) {
      continue;
    }
    SendDatagram(from, node, what, [handler, node] { handler(node); });
  }
}

}  // namespace tabs::comm
