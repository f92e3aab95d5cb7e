#include "src/name/name_server.h"

#include <algorithm>
#include <memory>

#include "src/sim/scheduler.h"

namespace tabs::name {

void NameServer::Register(const std::string& name, Binding binding) {
  auto& list = bindings_[name];
  if (std::find(list.begin(), list.end(), binding) == list.end()) {
    list.push_back(std::move(binding));
  }
}

void NameServer::DeRegister(const std::string& name, const Binding& binding) {
  auto it = bindings_.find(name);
  if (it == bindings_.end()) {
    return;
  }
  auto& list = it->second;
  list.erase(std::remove(list.begin(), list.end(), binding), list.end());
  if (list.empty()) {
    bindings_.erase(it);
  }
}

std::vector<Binding> NameServer::LocalLookup(const std::string& name) const {
  auto it = bindings_.find(name);
  return it == bindings_.end() ? std::vector<Binding>{} : it->second;
}

std::vector<Binding> NameServer::LookUp(const std::string& name, size_t desired,
                                        SimTime max_wait) {
  std::vector<Binding> found = LocalLookup(name);
  if (found.size() >= desired) {
    found.resize(desired);
    return found;
  }

  // Broadcast to every other Name Server; each replies (by datagram) with
  // its local bindings, which we read until satisfied.
  sim::Scheduler& sched = cm_.network().substrate().scheduler();
  auto replies = sim::MakeShared<sim::Replies<std::vector<Binding>>>(sched, sched);
  const auto* peers = peers_;
  NodeId self = cm_.self();
  comm::Network& net = cm_.network();
  net.Broadcast(self, "name-lookup:" + name, [peers, name, self, &net, replies](NodeId node) {
    if (peers == nullptr) {
      return;
    }
    auto it = peers->find(node);
    if (it == peers->end() || it->second == nullptr) {
      return;
    }
    std::vector<Binding> local = it->second->LocalLookup(name);
    if (local.empty()) {
      return;
    }
    net.SendDatagram(node, self, "name-reply:" + name,
                     [replies, local = std::move(local)] { replies->Push(local); });
  });

  SimTime deadline = sched.Now() + max_wait;
  while (found.size() < desired && sched.Now() < deadline) {
    std::optional<std::vector<Binding>> batch = replies->Next(deadline);
    if (!batch) {
      break;
    }
    for (Binding& b : *batch) {
      if (std::find(found.begin(), found.end(), b) == found.end()) {
        found.push_back(std::move(b));
      }
    }
  }
  if (found.size() > desired) {
    found.resize(desired);
  }
  return found;
}

}  // namespace tabs::name
