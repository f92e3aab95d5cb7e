// The message path allocates nothing for its closures: a task body lives
// inline in the Task that runs it (sim::TaskFn), so spawning a task, sending
// a datagram and delivering it take no heap memory, and a session call takes
// only its reply future. This binary replaces the global operator new with a
// counter, which is why it is a test executable of its own. Each count is
// taken after a warm-up round has filled the scheduler's task pool and grown
// its vectors.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/comm/network.h"

namespace {
std::size_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tabs::comm {
namespace {

class MessageAllocTest : public ::testing::Test {
 protected:
  MessageAllocTest()
      : substrate_(sched_, sim::CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        net_(substrate_) {
    net_.AddNode(1);
    net_.AddNode(2);
  }

  // Allocations made by `round` (spawning and running tasks) the second
  // time it runs.
  template <typename F>
  std::size_t AllocsOfSecondRound(F round) {
    round();
    EXPECT_EQ(sched_.Run(), 0);
    std::size_t before = g_allocs;
    round();
    EXPECT_EQ(sched_.Run(), 0);
    return g_allocs - before;
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  Network net_;
};

TEST_F(MessageAllocTest, DatagramAndItsDeliveryAllocateNothing) {
  auto delivered = std::make_shared<int>(0);
  // Captures well past std::function's 16-byte small-object buffer.
  std::array<std::uint64_t, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t allocs = AllocsOfSecondRound([&] {
    sched_.Spawn("sender", 1, 0, [this, delivered, payload] {
      net_.SendDatagram(1, 2, "dgram", [delivered, payload] { *delivered += payload[7]; });
    });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(*delivered, 16);
}

TEST_F(MessageAllocTest, SessionCallAllocatesOnlyItsReplyFuture) {
  int replies = 0;
  std::size_t allocs = AllocsOfSecondRound([&] {
    sched_.Spawn("caller", 1, 0, [this, &replies] {
      Result<int> r = net_.SessionCall<int>(1, 2, "call", [] { return 7; });
      replies += r.ok() && r.value() == 7 ? 1 : 0;
    });
  });
  EXPECT_EQ(allocs, 1u);
  EXPECT_EQ(replies, 2);
}

TEST_F(MessageAllocTest, SpawningAClosureOfSharedPointersAllocatesNothing) {
  auto a = std::make_shared<int>(0);
  auto b = std::make_shared<int>(0);
  auto c = std::make_shared<int>(0);
  std::size_t allocs = AllocsOfSecondRound([&] {
    sched_.Spawn("task", 1, 0, [a, b, c] {
      *a += 1;
      *b += 2;
      *c += 3;
    });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(*a + *b + *c, 12);
}

TEST_F(MessageAllocTest, EachDuplicateDeliveryRunsItsOwnCopy) {
  net_.SetDatagramFaults({/*seed=*/1, /*duplicate_probability=*/1.0,
                          /*jitter_probability=*/0.0, /*max_jitter_us=*/0});
  std::vector<int> seen;
  sched_.Spawn("sender", 1, 0, [&] {
    net_.SendDatagram(1, 2, "dgram", [&seen, count = 0]() mutable { seen.push_back(++count); });
  });
  ASSERT_EQ(sched_.Run(), 0);
  EXPECT_EQ(seen, (std::vector<int>{1, 1}));
}

TEST_F(MessageAllocTest, TaskKilledBeforeItRunsDestroysItsClosure) {
  auto captured = std::make_shared<int>(0);
  sched_.Spawn("victim", 2, 100, [captured] { *captured = 1; });
  EXPECT_EQ(captured.use_count(), 2);
  sched_.Spawn("killer", 1, 0,
               [this] { sched_.KillWhere([](const sim::Task& t) { return t.node == 2; }); });
  ASSERT_EQ(sched_.Run(), 0);
  EXPECT_EQ(*captured, 0);
  EXPECT_EQ(captured.use_count(), 1);
}

TEST_F(MessageAllocTest, FinishedTaskReleasesItsCaptures) {
  auto captured = std::make_shared<int>(0);
  long uses_after_finish = 0;
  sched_.Spawn("first", 1, 0, [captured] { *captured = 1; });
  // Runs once `first` has finished: its Task may wait in the pool for reuse,
  // but its closure is gone.
  sched_.Spawn("second", 1, 10, [&] { uses_after_finish = captured.use_count(); });
  ASSERT_EQ(sched_.Run(), 0);
  EXPECT_EQ(*captured, 1);
  EXPECT_EQ(uses_after_finish, 1);
}

}  // namespace
}  // namespace tabs::comm
