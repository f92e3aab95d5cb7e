#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace tabs::perfbench {
namespace {

// Tasks run on pooled OS threads under strict hand-off, so at most one thread
// allocates at a time; relaxed atomics keep the counters well-defined anyway.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

AllocCounts CurrentAllocs() {
  return {g_allocs.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace tabs::perfbench

void* operator new(std::size_t n) { return tabs::perfbench::CountedAlloc(n); }
void* operator new[](std::size_t n) { return tabs::perfbench::CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
