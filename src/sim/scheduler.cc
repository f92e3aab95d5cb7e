#include "src/sim/scheduler.h"

#include <sys/mman.h>
#include <ucontext.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define TABS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TABS_ASAN_FIBERS 1
#endif
#endif
// No-op poisoning macros without ASan; with it, also the fiber-switch hooks.
#include <sanitizer/asan_interface.h>

namespace tabs::sim {

// A task fiber's record sits at the top of its own mapping, above the stack,
// so a fiber costs no heap allocation: [guard page | stack | Fiber]. Run()'s
// context is a Fiber on Run()'s stack with no mapping.
struct Fiber {
  ucontext_t ctx;
  void* region = nullptr;  // mmap base; nullptr for Run()'s context
  Task* task = nullptr;    // the bound task; nullptr while pooled
  // The usable stack. For Run()'s context only ASan needs it, and ASan
  // reports it at the first switch away from Run().
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;  // ASan's fake stack while suspended
};

namespace {
// Cap on recycled Task objects kept between spawns. Enough that steady-state
// RPC traffic never allocates; bounded so a one-off fan-out burst does not
// pin memory forever.
constexpr std::size_t kMaxPooledTasks = 256;
// Every stack has the same size, enough for the deepest task in an
// AddressSanitizer debug build, with one guard page below it.
constexpr std::size_t kGuardBytes = 4096;
constexpr std::size_t kRegionBytes = kGuardBytes + 256 * 1024;
constexpr std::size_t kFiberOffset =
    (kRegionBytes - sizeof(Fiber)) / alignof(Fiber) * alignof(Fiber);
// Idle stacks kept for reuse; beyond this they are unmapped. A 32-node world
// under open-loop overload peaks at about 490 started, unfinished tasks, so
// steady traffic never maps or unmaps a stack.
constexpr std::size_t kMaxPooledFibers = 512;
}  // namespace

WaitQueue::~WaitQueue() {
  // Every linked task is blocked with waiting_on == this (wake and
  // timer-fire unlink eagerly), and blocked tasks are never reaped, so the
  // pointers are live. Runs either inside the sole running task or outside
  // Run() entirely — never in the middle of a scheduler operation.
  for (Task* t = head_; t != nullptr;) {
    Task* next = t->wait_next;
    t->waiting_on = nullptr;
    t->wait_prev = t->wait_next = nullptr;
    t = next;
  }
}

BlockPool::~BlockPool() {
  assert(outstanding_ == 0 && "a shared block outlived its scheduler");
  for (std::size_t c = 0; c < free_.size(); ++c) {
    while (FreeBlock* b = free_[c]) {
      ASAN_UNPOISON_MEMORY_REGION(b, c * kGrain);
      free_[c] = b->next;
      ::operator delete(b);
    }
  }
}

void* BlockPool::Allocate(std::size_t bytes) {
  std::size_t c = ClassOf(bytes);
  if (c >= free_.size()) {
    free_.resize(c + 1, nullptr);
  }
  void* block = free_[c];
  if (block == nullptr) {
    block = ::operator new(c * kGrain);
  } else {
    ASAN_UNPOISON_MEMORY_REGION(block, c * kGrain);
    free_[c] = free_[c]->next;
  }
  ++outstanding_;
  return block;
}

void BlockPool::Deallocate(void* block, std::size_t bytes) noexcept {
  std::size_t c = ClassOf(bytes);
  --outstanding_;
  free_[c] = new (block) FreeBlock{free_[c]};
  ASAN_POISON_MEMORY_REGION(block, c * kGrain);
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::Shutdown() {
  for (auto& t : tasks_) {
    t->killed = true;
    if (t->state == Task::State::kBlocked) {
      Wake(t.get(), t->time);
    }
  }
  // Give every remaining task one turn so its stack unwinds via TaskKilled;
  // afterwards every stack is back in the pool.
  Run();
  for (Fiber* f : fiber_pool_) {
    munmap(f->region, kRegionBytes);
    --stacks_mapped_;
  }
  fiber_pool_.clear();
  task_pool_.clear();
}

TaskId Scheduler::Spawn(std::string name, NodeId node, SimTime start_time, TaskFn fn) {
  std::unique_ptr<Task> task;
  if (!task_pool_.empty()) {
    task = std::move(task_pool_.back());
    task_pool_.pop_back();
  } else {
    task = std::make_unique<Task>();
  }
  task->id = next_id_++;
  task->name = std::move(name);
  task->node = node;
  task->state = Task::State::kReady;
  task->time = start_time;
  task->timed_out = false;
  task->killed = false;
  task->waiting_on = nullptr;
  task->fn = std::move(fn);
  task->scheduler = this;
  Task* raw = task.get();
  raw->index = tasks_.size();
  tasks_.push_back(std::move(task));
  PushReady(raw);
  if (observer_ != nullptr) {
    PushClockEvent({ClockEvent::Kind::kSpawn, raw->id,
                    current_ != nullptr ? current_->id : kInvalidTask,
                    current_ != nullptr ? current_->time : 0, start_time});
  }
  return raw->id;
}

int Scheduler::Run() {
  assert(current_ == nullptr && "Run() must not be called from inside a task");
  Fiber loop;
  loop_ = &loop;
  if (Task* first = SelectNext()) {
    // From here tasks switch straight to one another; control comes back to
    // this context only when nothing is runnable.
    SwitchTo(&loop, FiberFor(first));
  }
  loop_ = nullptr;
  ReapDone();
  // Quiescent: settle the observer's view so post-run reads need no drain.
  FlushClockEvents();
  return blocked_count();
}

void Scheduler::RunFiber(Fiber* f) noexcept {
  AfterSwitch(nullptr);
  for (;;) {
    Task* t = f->task;
    try {
      t->fn();
    } catch (const TaskKilled&) {
      // Node crash or shutdown: the task dies with its stack unwound.
    }
    Finish(t);
    t->fiber = nullptr;
    Task* next = SelectNext();  // may reap and recycle `t`
    if (next != nullptr && next->fiber == nullptr) {
      // The successor has never run: start it right here, on this stack.
      f->task = next;
      next->fiber = f;
      continue;
    }
    f->task = nullptr;
    released_ = f;
    SwitchTo(nullptr, next != nullptr ? next->fiber : loop_);
  }
}

Fiber* Scheduler::FiberFor(Task* t) {
  if (t->fiber != nullptr) {
    return t->fiber;
  }
  Fiber* f;
  if (!fiber_pool_.empty()) {
    f = fiber_pool_.back();
    fiber_pool_.pop_back();
  } else {
    void* region = mmap(nullptr, kRegionBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (region == MAP_FAILED || mprotect(region, kGuardBytes, PROT_NONE) != 0) {
      std::perror("tabs::sim::Scheduler: cannot map a task stack");
      std::abort();
    }
    f = new (static_cast<char*>(region) + kFiberOffset) Fiber;
    f->region = region;
    f->stack_bottom = static_cast<char*>(region) + kGuardBytes;
    f->stack_size = kFiberOffset - kGuardBytes;
    getcontext(&f->ctx);
    peak_stacks_mapped_ = std::max(peak_stacks_mapped_, ++stacks_mapped_);
  }
  f->ctx.uc_stack.ss_sp = const_cast<void*>(f->stack_bottom);
  f->ctx.uc_stack.ss_size = f->stack_size;
  f->ctx.uc_link = nullptr;
  // makecontext passes int arguments only: the fiber's address goes in halves.
  void (*entry)(std::uint32_t, std::uint32_t) = [](std::uint32_t hi, std::uint32_t lo) {
    auto* fiber = reinterpret_cast<Fiber*>(std::uintptr_t{hi} << 32 | lo);
    fiber->task->scheduler->RunFiber(fiber);
  };
  auto bits = reinterpret_cast<std::uintptr_t>(f);
  makecontext(&f->ctx, reinterpret_cast<void (*)()>(entry), 2,
              static_cast<std::uint32_t>(bits >> 32), static_cast<std::uint32_t>(bits));
  f->task = t;
  t->fiber = f;
  return f;
}

void Scheduler::ReleaseFiber(Fiber* f) {
#ifdef TABS_ASAN_FIBERS
  // The dead task's last frames never returned: clear their shadow so the
  // stack's next owner (or whatever is mapped here next) starts clean.
  ASAN_UNPOISON_MEMORY_REGION(f->stack_bottom, f->stack_size);
#endif
  if (fiber_pool_.size() < kMaxPooledFibers) {
    fiber_pool_.push_back(f);
    return;
  }
  munmap(f->region, kRegionBytes);
  --stacks_mapped_;
}

void Scheduler::SwitchTo(Fiber* from, Fiber* to) {
#ifdef TABS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(from != nullptr ? &from->asan_fake_stack : nullptr,
                                 to->stack_bottom, to->stack_size);
#endif
  if (from == nullptr) {
    setcontext(&to->ctx);
    std::abort();  // setcontext returns only on failure
  }
  swapcontext(&from->ctx, &to->ctx);
  AfterSwitch(from);
}

void Scheduler::AfterSwitch(Fiber* self) {
#ifdef TABS_ASAN_FIBERS
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(self != nullptr ? self->asan_fake_stack : nullptr,
                                  &from_bottom, &from_size);
  if (loop_->stack_size == 0) {
    // The first switch of a Run() always leaves Run()'s own stack, which is
    // how the switch back to it learns its bounds.
    loop_->stack_bottom = from_bottom;
    loop_->stack_size = from_size;
  }
#endif
  if (released_ != nullptr) {
    ReleaseFiber(released_);
    released_ = nullptr;
  }
}

void Scheduler::FlushClockEvents() {
  if (clock_events_.empty()) {
    return;
  }
  if (observer_ == nullptr) {
    clock_events_.clear();  // listener just removed: nobody wants these
    return;
  }
  // Deliver out of a scratch buffer so the member is settled (empty) while
  // the observer runs — a drain re-entered from inside the callback is a
  // no-op rather than an infinite recursion.
  clock_events_scratch_.clear();
  clock_events_scratch_.swap(clock_events_);
  ++clock_event_batches_;
  clock_events_delivered_ += clock_events_scratch_.size();
  observer_->OnClockEvents(clock_events_scratch_.data(), clock_events_scratch_.size());
}

bool Scheduler::Before(const Task* a, const Task* b) {
  if (a->due != b->due) {
    return a->due < b->due;
  }
  bool a_fires = a->state == Task::State::kBlocked;
  if (a_fires != (b->state == Task::State::kBlocked)) {
    return !a_fires;  // a runnable task precedes a timeout due at its time
  }
  return a->order < b->order;
}

void Scheduler::Place(Task* t) {
  if (t->slot == Task::kNotQueued) {
    t->slot = heap_.size();
    heap_.push_back(t);
  }
  // Sift up, then down: a new or re-keyed entry may have to move either way.
  std::size_t i = t->slot;
  while (i > 0 && Before(t, heap_[(i - 1) / 2])) {
    heap_[i] = heap_[(i - 1) / 2];
    heap_[i]->slot = i;
    i = (i - 1) / 2;
  }
  for (std::size_t child = 2 * i + 1; child < heap_.size(); child = 2 * i + 1) {
    if (child + 1 < heap_.size() && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], t)) {
      break;
    }
    heap_[i] = heap_[child];
    heap_[i]->slot = i;
    i = child;
  }
  heap_[i] = t;
  t->slot = i;
}

void Scheduler::PushReady(Task* t) {
  assert(t->state == Task::State::kReady);
  t->due = t->time;
  t->order = t->id;
  Place(t);
}

Task* Scheduler::SelectNext() {
  for (;;) {
    assert(current_ == nullptr);
    ReapDone();
    if (heap_.empty()) {
      return nullptr;  // quiescent: either all done or the rest are blocked forever
    }
    Task* next = heap_.front();
    next->slot = Task::kNotQueued;
    Task* last = heap_.back();
    heap_.pop_back();
    if (last != next) {
      last->slot = 0;
      Place(last);
    }
    if (next->state == Task::State::kBlocked) {
      // Its timeout reached the top, so no runnable task is due by the
      // deadline: the task resumes there, ahead of every later entry.
      assert(next->due > next->time);
      Unlink(next);
      next->timed_out = true;
      if (observer_ != nullptr) {
        PushClockEvent({ClockEvent::Kind::kTimeout, next->id, kInvalidTask, next->time, next->due});
      }
      next->time = next->due;
    }
    next->state = Task::State::kRunning;
    current_ = next;
    ++steps_;
    if (!next->killed || next->fiber != nullptr) {
      return next;
    }
    // Killed before its first dispatch: there is no stack to unwind, so the
    // task finishes here without ever taking one.
    Finish(next);
  }
}

void Scheduler::Finish(Task* t) {
  if (observer_ != nullptr) {
    PushClockEvent({ClockEvent::Kind::kDone, t->id, kInvalidTask, 0, 0});
  }
  t->state = Task::State::kDone;
  t->fn.reset();
  done_.push_back(t);
  current_ = nullptr;
}

void Scheduler::ReapDone() {
  if (done_.empty()) {
    return;
  }
  for (Task* t : done_) {
    assert(t->slot == Task::kNotQueued && t->fiber == nullptr);
    std::size_t idx = t->index;
    assert(tasks_[idx].get() == t);
    std::unique_ptr<Task> owned = std::move(tasks_[idx]);
    if (idx + 1 != tasks_.size()) {
      tasks_[idx] = std::move(tasks_.back());
      tasks_[idx]->index = idx;
    }
    tasks_.pop_back();
    if (task_pool_.size() < kMaxPooledTasks) {
      owned->name.clear();
      owned->waiting_on = nullptr;
      task_pool_.push_back(std::move(owned));
    }
  }
  done_.clear();
}

SimTime Scheduler::Now() const {
  assert(current_ != nullptr);
  return current_->time;
}

void Scheduler::Charge(SimTime cost) {
  assert(cost >= 0);
  if (current_ == nullptr) {
    return;  // setup work outside any task is free (e.g. server construction)
  }
  if (current_->killed) {
    throw TaskKilled{};
  }
  SimTime from = current_->time;
  current_->time += cost;
  if (observer_ != nullptr && cost > 0) {
    PushClockEvent({ClockEvent::Kind::kAdvance, current_->id, kInvalidTask, from, current_->time});
  }
}

void Scheduler::AdvanceTo(SimTime t) {
  if (current_ == nullptr) {
    return;
  }
  if (t > current_->time) {
    SimTime from = current_->time;
    current_->time = t;
    if (observer_ != nullptr) {
      PushClockEvent({ClockEvent::Kind::kAdvance, current_->id, kInvalidTask, from, t});
    }
  }
}

void Scheduler::ParkCurrent(Task* t) {
  current_ = nullptr;
  Task* next = SelectNext();
  if (next != t) {
    SwitchTo(t->fiber, next != nullptr ? FiberFor(next) : loop_);
  }
  if (t->killed) {
    throw TaskKilled{};
  }
}

Task* Scheduler::Block(WaitQueue& q) {
  Task* t = current_;
  assert(t != nullptr && "Wait() called outside a task");
  if (t->killed) {
    throw TaskKilled{};
  }
  t->state = Task::State::kBlocked;
  t->timed_out = false;
  t->waiting_on = &q;
  t->wait_prev = q.tail_;
  (q.tail_ != nullptr ? q.tail_->wait_next : q.head_) = t;
  q.tail_ = t;
  return t;
}

void Scheduler::Wait(WaitQueue& q) { ParkCurrent(Block(q)); }

bool Scheduler::WaitUntil(WaitQueue& q, SimTime deadline) {
  if (deadline <= Now()) {
    return false;
  }
  Task* t = Block(q);
  t->due = deadline;
  t->order = ++timer_seq_;
  Place(t);
  ParkCurrent(t);
  return !t->timed_out;
}

void Scheduler::Unlink(Task* t) {
  WaitQueue* q = t->waiting_on;
  if (q == nullptr) {
    return;  // not queued, or the queue already died
  }
  (t->wait_prev != nullptr ? t->wait_prev->wait_next : q->head_) = t->wait_next;
  (t->wait_next != nullptr ? t->wait_next->wait_prev : q->tail_) = t->wait_prev;
  t->wait_prev = t->wait_next = nullptr;
  t->waiting_on = nullptr;
}

void Scheduler::Wake(Task* t, SimTime wake_time) {
  Unlink(t);
  t->state = Task::State::kReady;
  if (wake_time > t->time) {
    SimTime from = t->time;
    t->time = wake_time;
    if (observer_ != nullptr) {
      // Only a notify moves the clock, and the notifier is the running task
      // (NotifyOne/NotifyAll assert it); a kill wakes at the victim's time.
      PushClockEvent({ClockEvent::Kind::kWake, t->id, current_->id, from, wake_time});
    }
  }
  PushReady(t);  // re-keys a pending timeout's entry in place
}

void Scheduler::NotifyOne(WaitQueue& q) {
  assert(current_ != nullptr && "NotifyOne() called outside a task");
  if (Task* t = q.head_) {
    Wake(t, current_->time);
  }
}

void Scheduler::NotifyAll(WaitQueue& q) {
  assert(current_ != nullptr && "NotifyAll() called outside a task");
  while (Task* t = q.head_) {
    Wake(t, current_->time);
  }
}

void Scheduler::Yield() {
  Task* t = current_;
  assert(t != nullptr);
  if (t->killed) {
    throw TaskKilled{};
  }
  t->state = Task::State::kReady;
  PushReady(t);
  ParkCurrent(t);
}

void Scheduler::KillWhere(const std::function<bool(const Task&)>& pred) {
  bool kill_self = false;
  for (auto& t : tasks_) {
    if (t->state == Task::State::kDone || !pred(*t)) {
      continue;
    }
    t->killed = true;
    if (t.get() == current_) {
      kill_self = true;
    } else if (t->state == Task::State::kBlocked) {
      Wake(t.get(), t->time);  // resumes, sees killed, unwinds
    }
  }
  if (kill_self) {
    throw TaskKilled{};
  }
}

int Scheduler::blocked_count() const {
  int n = 0;
  for (const auto& t : tasks_) {
    if (t->state == Task::State::kBlocked) {
      ++n;
    }
  }
  return n;
}

}  // namespace tabs::sim
