#include "src/name/resolver.h"

#include <algorithm>

namespace tabs::name {

std::vector<Binding> Resolver::LookUpAndCache(NameServer& ns, const std::string& name,
                                              size_t desired) {
  ++stats_.lookups;
  std::vector<Binding> found = ns.LookUp(name, desired, max_wait_);
  if (found.empty()) {
    cache_.erase(name);
  } else {
    cache_[name] = found;
  }
  return found;
}

Resolver::ServiceResolution Resolver::ResolveService(NameServer& ns,
                                                     const std::string& name) {
  auto expected_of = [](const std::vector<Binding>& bs) -> std::uint32_t {
    // Member count rides in the binding's object id; a plain single binding
    // registered without placement info (length used as an object size) still
    // reads as "1 of 1" only when it says so — default registrations do.
    return bs.empty() ? 0 : std::max<std::uint32_t>(1, bs.front().object.length);
  };

  auto it = cache_.find(name);
  if (it != cache_.end()) {
    std::uint32_t expected = expected_of(it->second);
    if (expected != 0 && it->second.size() >= expected) {
      ++stats_.cache_hits;
      return ServiceResolution{expected, it->second};
    }
  }

  // Two steps: one binding teaches the member count, then gather that many.
  // (When the first step already returned everything — count 1 — the second
  // lookup is satisfied locally from the refreshed cache.)
  std::vector<Binding> first = LookUpAndCache(ns, name, 1);
  std::uint32_t expected = expected_of(first);
  if (expected <= first.size()) {
    return ServiceResolution{expected, std::move(first)};
  }
  std::vector<Binding> all = LookUpAndCache(ns, name, expected);
  return ServiceResolution{expected, std::move(all)};
}

void Resolver::InvalidateNode(NodeId node) {
  for (auto it = cache_.begin(); it != cache_.end();) {
    auto& list = it->second;
    size_t before = list.size();
    list.erase(std::remove_if(list.begin(), list.end(),
                              [node](const Binding& b) { return b.node == node; }),
               list.end());
    if (list.size() != before) {
      ++stats_.invalidations;
    }
    if (list.empty()) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

void Resolver::Invalidate(const std::string& name) {
  if (cache_.erase(name) != 0) {
    ++stats_.invalidations;
  }
}

void Resolver::Clear() {
  stats_.invalidations += cache_.size();
  cache_.clear();
}

}  // namespace tabs::name
