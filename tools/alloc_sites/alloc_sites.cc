// A stack-recording stand-in for perfbench/alloc_count.cc, linked into a
// separate perfbench build by tools/alloc_sites.sh.
//
// It counts every operator new exactly as alloc_count.cc does, so the binary
// reports the same host_allocs_per_txn. In addition, between the first and
// the second CurrentAllocs() call (the start and the end of perfbench's
// nominal load phase) it records the call stack of each allocation,
// aggregated by stack, and writes them to the file $TABS_ALLOC_SITES_OUT
// when the phase ends: one line per distinct stack, "count bytes addr...".
// The table is malloc'ed and fixed in size, so recording allocates nothing
// through operator new.

#include <execinfo.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "alloc_count.h"

namespace tabs::perfbench {
namespace {

constexpr int kDepth = 24;
constexpr std::size_t kSlots = std::size_t{1} << 15;

struct Site {
  std::uint64_t hash = 0;  // 0: empty slot
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  int depth = 0;
  void* frames[kDepth];
};

std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;
int g_calls = 0;          // CurrentAllocs() calls so far
bool g_recording = false;
bool g_in_hook = false;   // set while a stack is being recorded
Site* g_sites = nullptr;
std::uint64_t g_dropped = 0;  // allocations whose stack found no free slot

void Record(std::size_t n) {
  g_in_hook = true;
  void* frames[kDepth + 2];
  int depth = backtrace(frames, kDepth + 2) - 2;  // drop Record and operator new
  void** stack = frames + 2;
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < depth; ++i) {
    h = (h ^ reinterpret_cast<std::uintptr_t>(stack[i])) * 1099511628211ull;
  }
  h |= 1;
  for (std::size_t i = 0; i < kSlots; ++i) {
    Site& s = g_sites[(h + i) & (kSlots - 1)];
    if (s.hash == 0) {
      s.hash = h;
      s.depth = depth;
      std::memcpy(s.frames, stack, sizeof(void*) * static_cast<std::size_t>(depth));
    } else if (s.hash != h || s.depth != depth ||
               std::memcmp(s.frames, stack, sizeof(void*) * static_cast<std::size_t>(depth)) !=
                   0) {
      continue;
    }
    ++s.count;
    s.bytes += n;
    g_in_hook = false;
    return;
  }
  ++g_dropped;
  g_in_hook = false;
}

void Dump() {
  const char* path = std::getenv("TABS_ALLOC_SITES_OUT");
  std::FILE* f = std::fopen(path != nullptr ? path : "alloc_sites.txt", "w");
  if (f == nullptr) {
    std::perror("alloc_sites: cannot write the site table");
    return;
  }
  std::fprintf(f, "# dropped %llu\n", static_cast<unsigned long long>(g_dropped));
  for (std::size_t i = 0; i < kSlots; ++i) {
    const Site& s = g_sites[i];
    if (s.hash == 0) {
      continue;
    }
    std::fprintf(f, "%llu %llu", static_cast<unsigned long long>(s.count),
                 static_cast<unsigned long long>(s.bytes));
    for (int d = 0; d < s.depth; ++d) {
      std::fprintf(f, " %p", s.frames[d]);
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
}

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  g_bytes += n;
  if (g_recording && !g_in_hook) {
    Record(n);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

AllocCounts CurrentAllocs() {
  AllocCounts now{g_allocs, g_bytes};
  if (++g_calls == 1) {
    g_sites = static_cast<Site*>(std::calloc(kSlots, sizeof(Site)));
    void* warm[1];
    backtrace(warm, 1);  // loads the unwinder now, not inside the phase
    g_recording = g_sites != nullptr;
  } else if (g_calls == 2 && g_recording) {
    g_recording = false;
    Dump();
  }
  return now;
}

}  // namespace tabs::perfbench

void* operator new(std::size_t n) { return tabs::perfbench::CountedAlloc(n); }
void* operator new[](std::size_t n) { return tabs::perfbench::CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
