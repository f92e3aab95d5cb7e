// name::Resolver — the one client-side resolution path.
//
// Every consumer of Name Server lookups (replicated-directory clients,
// sharded service handles) shares the same needs: look a name up, cache the
// bindings so repeated operations do not re-broadcast, and drop cached
// bindings that turn out to be stale when a routed call comes back
// kNodeDown. This class centralises that behaviour so replicas and shards
// resolve through one code path.
//
// Methods take the NameServer per call rather than holding a reference:
// node recovery tears the name server down and rebuilds it, so a stored
// reference would dangle across the very crashes the cache-invalidation
// logic exists for.

#ifndef TABS_NAME_RESOLVER_H_
#define TABS_NAME_RESOLVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/name/name_server.h"

namespace tabs::name {

class Resolver {
 public:
  struct Stats {
    std::uint64_t lookups = 0;       // NameServer::LookUp round trips
    std::uint64_t cache_hits = 0;    // answered from the cache
    std::uint64_t invalidations = 0; // entries dropped (node down / explicit)
  };

  // `max_wait` bounds each underlying LookUp broadcast (virtual time).
  explicit Resolver(SimTime max_wait = 1'000'000) : max_wait_(max_wait) {}

  // Resolves a name through a cache: a logical *service* (replicated or
  // sharded) or a plain server name, which is a service of one member. Every
  // binding's object id carries the member count, so one binding teaches the
  // resolver how many to gather. `complete()` distinguishes a full member
  // set from a partial one (some member's node down) — shard routing
  // requires complete; quorum-based replica sets may proceed on partial. A
  // cached entry answers only when it holds every member; otherwise the name
  // is looked up again and the cache replaced. Must run inside a task (a
  // miss broadcasts and blocks in virtual time).
  struct ServiceResolution {
    std::uint32_t expected = 0;  // member count claimed by the bindings
    std::vector<Binding> bindings;

    bool complete() const { return expected != 0 && bindings.size() >= expected; }
  };
  ServiceResolution ResolveService(NameServer& ns, const std::string& name);

  // Cache maintenance. InvalidateNode drops every cached binding that points
  // at `node` — the kNodeDown reaction; Invalidate drops one name; Clear
  // drops everything.
  void InvalidateNode(NodeId node);
  void Invalidate(const std::string& name);
  void Clear();

  const Stats& stats() const { return stats_; }

 private:
  std::vector<Binding> LookUpAndCache(NameServer& ns, const std::string& name,
                                      size_t desired);

  SimTime max_wait_;
  std::map<std::string, std::vector<Binding>> cache_;
  Stats stats_;
};

}  // namespace tabs::name

#endif  // TABS_NAME_RESOLVER_H_
