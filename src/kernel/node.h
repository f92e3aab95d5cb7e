// A simulated TABS node (one Perq workstation).
//
// Node owns the *durable* hardware — the disk holding recoverable segments
// and the log device — plus the node's identity. Everything volatile (log
// buffer, Recovery/Transaction/Communication Managers, data servers, lock
// tables) is layered on top by tabs::World and is destroyed and rebuilt when
// the node crashes and recovers, exactly like process state on a real
// machine. Liveness is the network's (comm::Network::IsAlive).

#ifndef TABS_KERNEL_NODE_H_
#define TABS_KERNEL_NODE_H_

#include <memory>

#include "src/common/types.h"
#include "src/log/log_manager.h"
#include "src/sim/sim_disk.h"
#include "src/sim/substrate.h"

namespace tabs::kernel {

class Node {
 public:
  Node(NodeId id, sim::Substrate& substrate);

  NodeId id() const { return id_; }

  sim::Substrate& substrate() { return substrate_; }
  sim::SimDisk& disk() { return *disk_; }
  log::StableLogDevice& stable_log() { return *stable_log_; }

  // Segment identifiers are allocated per node and must be durable across
  // crashes; the counter is kept on "disk" conceptually (it survives).
  SegmentId AllocateSegment() { return next_segment_++; }

 private:
  NodeId id_;
  sim::Substrate& substrate_;
  std::unique_ptr<sim::SimDisk> disk_;
  std::unique_ptr<log::StableLogDevice> stable_log_;
  SegmentId next_segment_ = 1;
};

}  // namespace tabs::kernel

#endif  // TABS_KERNEL_NODE_H_
