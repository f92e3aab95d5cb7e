// Cooperative, deterministic, virtual-time scheduler.
//
// TABS ran as a set of Accent processes with coroutines inside data servers;
// a coroutine switch occurred only when an operation waited (Section 3.1.1).
// This scheduler reproduces that execution model: every activity (an
// application, a data-server request, a commit-protocol participant) is a
// Task with its own virtual clock. Exactly one task runs at a time; a task
// runs until it blocks (lock wait, message wait) or finishes, and the
// scheduler always resumes the runnable task with the smallest virtual time
// (ties broken by task id, i.e. spawn order — a deterministic FIFO). This
// makes every run — including multi-node two-phase commits and crash
// recoveries — bit-for-bit reproducible while still modelling genuine
// parallelism across nodes (each task advances its own clock; a task that
// waits for several replies resumes at the max of their arrival times).
//
// Execution substrate: tasks are user-space fibers (glibc makecontext and
// swapcontext) on the one OS thread that calls Run(), which drives the loop on
// its own stack. A switch saves and restores registers in user space, and
// since nothing ever runs concurrently no scheduler state needs a lock.
//  * Stacks bind at first dispatch. A task takes a stack when it first runs,
//    not at Spawn, and gives it back when it finishes, so mapped stacks track
//    tasks that have started and not finished: a broadcast that spawns a
//    thousand handlers costs stacks only as fast as they run. A task killed
//    before it ever ran finishes without taking one. Each stack is a fixed-size
//    mmap region whose lowest page is a PROT_NONE guard, so an overflow faults
//    instead of overwriting a neighbour; finished stacks are pooled for reuse.
//  * A parking task selects its successor itself and switches straight to it;
//    a self-yield selects itself and does not switch at all; a finishing task
//    whose successor has never run starts it on the stack it is leaving.
//  * TaskKilled is caught at the fiber entry, so it never crosses a switch. Any
//    other exception that escapes a task body terminates the program.
//  * Under AddressSanitizer every switch, including the one back to Run()'s
//    own stack, is announced with __sanitizer_start_switch_fiber and
//    __sanitizer_finish_switch_fiber, so ASan always knows which stack is live.
// The substrate decides only how a selected task resumes, never which task is
// selected: runnable tasks and pending WaitUntil() timeouts share one binary
// min-heap of tasks (see Task::due), each resume counts one step, and a
// timeout fires when its entry reaches the top. The schedule, and with it
// every virtual-time output, does not depend on how tasks are switched. Task
// objects are recycled through a freelist and hold their body inline
// (TaskFn), each task records its own heap slot, and a WaitQueue is threaded
// through the tasks it holds, so spawning, and blocking with or without a
// deadline, allocate nothing. The blocks tasks meet at (futures, reply
// rounds, lock waiters) come from the scheduler's BlockPool (MakeShared).

#ifndef TABS_SIM_SCHEDULER_H_
#define TABS_SIM_SCHEDULER_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/sim/inline_function.h"

namespace tabs::sim {

class Scheduler;

// Thrown inside a task when its node crashes or the scheduler shuts down.
// Task bodies generally do not catch this; the task's stack unwinds and the
// task is discarded, exactly like a process dying with its node.
struct TaskKilled {};

using TaskId = std::uint64_t;
constexpr TaskId kInvalidTask = 0;

// A FIFO of blocked tasks, linked through the tasks themselves so that a
// queue allocates nothing. Lock managers, reply lists, and condition-like
// constructs are built on WaitQueues.
class WaitQueue {
 public:
  WaitQueue() = default;
  // A queue may die before tasks blocked on it (e.g. a stack queue going out
  // of scope ahead of the scheduler): detach the waiters' back-pointers so
  // shutdown and timer-fire never touch the dead queue.
  ~WaitQueue();
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  bool empty() const { return head_ == nullptr; }

 private:
  friend class Scheduler;
  struct Task* head_ = nullptr;  // longest waiting
  struct Task* tail_ = nullptr;
};

// A task's execution context: its stack and saved registers (scheduler.cc).
struct Fiber;

// A task body, type-erased once into the Task that runs it. The buffer fits
// the largest closure in the tree: a session call's delivery task with a
// replicated-directory write nested inside it.
inline constexpr std::size_t kTaskFnBytes = 232;
using TaskFn = InlineFunction<void(), kTaskFnBytes>;

struct Task {
  enum class State { kReady, kRunning, kBlocked, kDone };

  TaskId id = kInvalidTask;
  std::string name;
  NodeId node = kInvalidNode;   // which simulated node this activity runs on
  State state = State::kReady;
  SimTime time = 0;             // the task's virtual clock
  bool timed_out = false;       // set when a WaitUntil() ended by timeout
  bool killed = false;
  // The task's key in the scheduler's heap. A runnable task sits at (time,
  // id), a blocked one with a pending timeout at (deadline, arming sequence),
  // after every runnable task due by its deadline.
  SimTime due = 0;
  std::uint64_t order = 0;
  static constexpr std::size_t kNotQueued = SIZE_MAX;
  std::size_t slot = kNotQueued;  // position in the heap
  std::size_t index = 0;        // position in Scheduler::tasks_ (swap-erase)
  WaitQueue* waiting_on = nullptr;
  Task* wait_prev = nullptr;    // neighbours in waiting_on's FIFO
  Task* wait_next = nullptr;
  TaskFn fn;                    // destroyed at Finish, releasing its captures
  Fiber* fiber = nullptr;       // bound from first dispatch until the task finishes
  Scheduler* scheduler = nullptr;
};

// One virtual-clock mutation, as a plain record. The scheduler buffers these
// and hands them to the ClockObserver in batches, so a traced run pays a POD
// append per clock change and one virtual call per batch instead of a
// virtual call per event. Task identity is carried by id, never by pointer:
// a batch may be delivered after the task object was reaped and recycled
// (ids are allocated monotonically and never reused).
struct ClockEvent {
  enum class Kind : std::uint8_t {
    kAdvance,  // `task`'s clock moved from -> to (Charge/AdvanceTo)
    kSpawn,    // `task` created with clock `to`; `other` is the spawning task
               // (kInvalidTask when spawned from outside any task) and `from`
               // its clock at the spawn
    kWake,     // a notify moved blocked `task` forward from -> to; `other` is
               // the waker, whose clock is `to`. Emitted only when to > from.
    kTimeout,  // a wait timeout fired, moving `task` forward from -> to
    kDone,     // `task` finished; its id will never run again
  };
  Kind kind = Kind::kAdvance;
  TaskId task = kInvalidTask;
  TaskId other = kInvalidTask;
  SimTime from = 0;
  SimTime to = 0;
};

// The memory of every block tasks meet at: a session call's Future, a commit
// round's Replies, a lock waiter, a pipeline window. Released blocks are kept
// by size class, so a warm call, round or wait allocates nothing. A block can
// outlive its maker and its node's runtime (a reply closure may hold a round
// across the collector node's crash and recovery), so the pool belongs to the
// Scheduler, which outlives every holder: ~Scheduler runs Shutdown, which
// destroys every task closure, and the pool is its last member destroyed. A
// block still held then is a bug that an assertion reports. Under
// AddressSanitizer a released block is poisoned until it is handed out again.
// The pool never decides what runs; nothing is ordered by a block's address.
class BlockPool {
 public:
  BlockPool() = default;
  ~BlockPool();
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  void* Allocate(std::size_t bytes);
  void Deallocate(void* block, std::size_t bytes) noexcept;
  std::size_t outstanding() const { return outstanding_; }  // handed out, not back

 private:
  static constexpr std::size_t kGrain = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  static std::size_t ClassOf(std::size_t bytes) { return (bytes + kGrain - 1) / kGrain; }
  struct FreeBlock {
    FreeBlock* next;
  };
  std::vector<FreeBlock*> free_;  // newest first, by size class in kGrain units
  std::size_t outstanding_ = 0;
};

// std::allocate_shared's allocator over a BlockPool.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  explicit PoolAllocator(BlockPool& p) : pool(&p) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool(other.pool) {}
  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    return static_cast<T*>(pool->Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { pool->Deallocate(p, n * sizeof(T)); }
  friend bool operator==(const PoolAllocator&, const PoolAllocator&) = default;

  BlockPool* pool;
};

// Observes every virtual-clock mutation the scheduler performs, in batches.
// The tracer installs one when tracing is enabled; no observer is installed
// otherwise, so the default simulation pays exactly one null-pointer check
// per clock change — zero virtual calls — and remains bit-identical to the
// pre-observer scheduler. OnClockEvents receives events in exact occurrence
// order; it may be invoked in the middle of a scheduler operation (a batch
// filling up mid-wake) and must not re-enter the scheduler or mutate task
// clocks. An observer whose queries depend on buffered history calls
// Scheduler::FlushClockEvents() at its read points to drain first.
class ClockObserver {
 public:
  virtual ~ClockObserver() = default;
  virtual void OnClockEvents(const ClockEvent* events, std::size_t count) = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Creates a task whose clock starts at `start_time` (typically the sender's
  // clock plus a transmission cost, for message-handler tasks). May be called
  // from inside a task or from the outside (before Run).
  TaskId Spawn(std::string name, NodeId node, SimTime start_time, TaskFn fn);

  // Runs tasks until none are runnable and no timeouts are pending. Returns the
  // number of tasks still blocked (0 on clean completion; nonzero indicates
  // an un-broken deadlock, which tests assert against).
  int Run();

  // --- The following are callable only from inside a running task. ---

  // The running task's virtual clock.
  SimTime Now() const;
  // Advances the running task's clock by `cost` (a primitive-operation time).
  void Charge(SimTime cost);
  // Moves the clock forward to `t` if it is ahead (message-arrival join).
  void AdvanceTo(SimTime t);

  // Blocks on `q` until notified.
  void Wait(WaitQueue& q);
  // Blocks on `q` until notified (true) or until virtual time `deadline`
  // (false; TABS breaks deadlock by timeout, Section 2.1.2). Returns false at
  // once when the deadline has already been reached.
  bool WaitUntil(WaitQueue& q, SimTime deadline);

  // Wakes the longest-waiting task in `q`. The woken task resumes no earlier
  // than the notifier's current virtual time (the wake-up *is* an event).
  void NotifyOne(WaitQueue& q);
  void NotifyAll(WaitQueue& q);

  // Lets equal-or-earlier tasks run; the caller continues afterwards.
  void Yield();

  // Marks every task satisfying `pred` as killed. Blocked victims are woken
  // and unwind via TaskKilled; the current task, if it matches, throws on its
  // next scheduling point (or immediately if `immediate`).
  void KillWhere(const std::function<bool(const Task&)>& pred);

  Task* current() const { return current_; }
  bool in_task() const { return current_ != nullptr; }
  int blocked_count() const;

  // Scheduling steps executed so far: one step per task resume (the unit the
  // simspeed meta-bench reports as "events"). Deterministic for a given
  // workload — byte-identical runs execute byte-identical step counts.
  std::uint64_t steps() const { return steps_; }

  // Installs (or, with nullptr, removes) the clock observer, from inside or
  // outside a task. Any buffered events are flushed to the outgoing observer
  // first, so it sees everything up to the switch.
  void SetClockObserver(ClockObserver* observer) {
    FlushClockEvents();
    observer_ = observer;
  }

  // Delivers all buffered clock events to the observer now. Observers call
  // this at their own read points (attribution queries, span transitions);
  // Run() also flushes on quiescence so post-run reads see a settled stream.
  void FlushClockEvents();
  // Batches and events delivered so far — lets tests assert dispatch really
  // is batched (batches < events) rather than one virtual call per event.
  std::uint64_t clock_event_batches() const { return clock_event_batches_; }
  std::uint64_t clock_events_delivered() const { return clock_events_delivered_; }
  // Task stacks mapped now (bound to started tasks or pooled) and the most
  // ever mapped at once. Stacks bind at first dispatch, so both follow the
  // tasks that have started and not finished, not the tasks spawned.
  std::size_t stacks_mapped() const { return stacks_mapped_; }
  std::size_t peak_stacks_mapped() const { return peak_stacks_mapped_; }
  // The pool behind MakeShared.
  BlockPool& blocks() { return blocks_; }

  // Kills every task and runs until all stacks have unwound, then unmaps the
  // pooled stacks. Idempotent; the destructor calls it. Owners whose tasks
  // reference shorter-lived state (e.g. the tracer, destroyed before the
  // scheduler member in World) call this first so tasks unwind while that
  // state is still alive. Must not be called from inside a task.
  void Shutdown();

 private:
  // Pops the heap's top, firing the timeout when the top is a blocked task,
  // marks the task running and counts the step. A task killed before its
  // first dispatch finishes here without taking a stack, and selection goes
  // on. Returns nullptr when nothing is runnable and no timeout is pending.
  Task* SelectNext();
  // Parks the running task `t` (state already updated) and resumes its
  // successor; returns once `t` is resumed, at once if it selected itself.
  void ParkCurrent(Task* t);
  // The body of every fiber: runs tasks bound to `f` until one finishes with
  // a successor that already has a stack of its own. Never returns.
  [[noreturn]] void RunFiber(Fiber* f) noexcept;
  // Binds `t` to a stack on its first dispatch; returns its fiber.
  Fiber* FiberFor(Task* t);
  void ReleaseFiber(Fiber* f);
  // Saves the running context in `from` and resumes `to`. A null `from` is a
  // finished fiber, never resumed: the context that runs next pools it.
  void SwitchTo(Fiber* from, Fiber* to);
  void AfterSwitch(Fiber* self);
  void Finish(Task* t);
  void Unlink(Task* t);  // removes a blocked task from its wait queue
  void Wake(Task* t, SimTime wake_time);
  // Links the running task into `q` as blocked; returns it.
  Task* Block(WaitQueue& q);
  // Keys `t` at (time, id) and places it in the heap.
  void PushReady(Task* t);
  // Places `t` in the heap under its current key, or re-keys it in place.
  void Place(Task* t);
  // True when `a` leaves the heap before `b`.
  static bool Before(const Task* a, const Task* b);
  void ReapDone();

  // Appends one event to the batch buffer; callers have already checked
  // observer_ != nullptr (the not-tracing fast path is that one branch).
  void PushClockEvent(const ClockEvent& e) {
    clock_events_.push_back(e);
    if (clock_events_.size() >= kClockEventBatch) {
      FlushClockEvents();
    }
  }

  BlockPool blocks_;  // first, so destroyed last: after every closure and task
  std::vector<std::unique_ptr<Task>> tasks_;      // live tasks (swap-erase order)
  std::vector<std::unique_ptr<Task>> task_pool_;  // recycled Task objects
  std::vector<Task*> done_;                       // finished, awaiting reap
  std::vector<Task*> heap_;                       // min-heap by Before()
  std::uint64_t timer_seq_ = 0;                   // arming sequence of timeouts
  Fiber* loop_ = nullptr;           // Run()'s own context while Run() is active
  Fiber* released_ = nullptr;       // a finished fiber, pooled after the switch
  std::vector<Fiber*> fiber_pool_;  // unbound fibers, stacks still mapped
  std::size_t stacks_mapped_ = 0;
  std::size_t peak_stacks_mapped_ = 0;
  Task* current_ = nullptr;
  TaskId next_id_ = 1;
  std::uint64_t steps_ = 0;
  ClockObserver* observer_ = nullptr;
  static constexpr std::size_t kClockEventBatch = 256;
  std::vector<ClockEvent> clock_events_;          // pending, occurrence order
  std::vector<ClockEvent> clock_events_scratch_;  // reused delivery buffer
  std::uint64_t clock_event_batches_ = 0;
  std::uint64_t clock_events_delivered_ = 0;
};

// A single-assignment promise/future: the rendezvous of the asynchronous
// communication fast path. Fulfil publishes the value (at most once) and
// wakes every waiter in FIFO order; Await blocks until fulfilled or until
// `timeout` virtual time passes. A waiter resumes no earlier than the
// fulfiller's clock — so the completion time of a pipelined remote call
// composes into the caller's clock exactly like a pushed reply, and a task
// awaiting several futures resumes at the max of their completion times.
template <typename T>
class Future {
 public:
  explicit Future(Scheduler& sched) : sched_(sched) {}
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

  bool ready() const { return value_.has_value(); }

  void Fulfil(T v) {
    assert(!ready() && "a future is fulfilled at most once");
    value_.emplace(std::move(v));
    sched_.NotifyAll(queue_);
  }

  // Blocks until ready; with `timeout >= 0` gives up after that much virtual
  // time. Returns ready() — false means the producer never delivered (e.g.
  // its node crashed with the call in flight).
  bool Await(SimTime timeout = -1) {
    if (timeout < 0) {
      while (!ready()) {
        sched_.Wait(queue_);
      }
      return true;
    }
    SimTime deadline = sched_.Now() + timeout;
    while (!ready() && sched_.WaitUntil(queue_, deadline)) {
    }
    return ready();
  }

  T& value() {
    assert(ready());
    return *value_;
  }

 private:
  Scheduler& sched_;
  WaitQueue queue_;
  std::optional<T> value_;
};

// A block shared by the tasks that meet at it, built in `sched`'s BlockPool,
// so a warm one takes no heap memory.
template <typename T, typename... Args>
std::shared_ptr<T> MakeShared(Scheduler& sched, Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>(sched.blocks()), std::forward<Args>(args)...);
}

// Futures are shared between the issuing task and the delivery task (which
// may outlive the issuer if its node crashes): MakeShared blocks.
template <typename T>
using FuturePtr = std::shared_ptr<Future<T>>;

// A list whose first N elements live in place: a short one allocates nothing
// and copies without allocating, so it can ride a closure that a duplicated
// datagram copies. A longer one moves to the heap whole, so the elements stay
// contiguous and the list passes as a std::span.
template <typename T, std::size_t N = 4>
class SmallList {
 public:
  void push_back(T v) {
    if (size_ < N) {
      inline_[size_] = std::move(v);
    } else {
      if (size_ == N) {
        spill_.reserve(2 * N);
        spill_.assign(std::make_move_iterator(inline_.begin()),
                      std::make_move_iterator(inline_.end()));
      }
      spill_.push_back(std::move(v));
    }
    ++size_;
  }
  void clear() {
    spill_.clear();
    size_ = 0;
  }
  void assign(std::span<const T> from) {
    clear();
    for (const T& v : from) {
      push_back(v);
    }
  }

  T* data() { return size_ > N ? spill_.data() : inline_.data(); }
  const T* data() const { return size_ > N ? spill_.data() : inline_.data(); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  std::array<T, N> inline_{};
  std::vector<T> spill_;
  std::size_t size_ = 0;
};

// The replies to one round of requests, in arrival order: the commit
// protocols' votes, acks, promises and acceptances, and name lookup replies.
// Producers Push (waking the consumer); the consumer reads each delivery once
// through Next. A datagram may deliver a reply twice, so a round that counts
// answerers passes each reply's sender to First. (A session reply has one
// producer and rides a Future.) A round of up to four deliveries and
// answerers keeps them inside the Replies, and so inside the pooled block
// that holds it; a wider round, such as a name-server broadcast, spills to
// the heap.
template <typename T>
class Replies {
 public:
  explicit Replies(Scheduler& sched) : sched_(sched) {}

  void Push(T v) {
    items_.push_back(std::move(v));
    sched_.NotifyOne(queue_);
  }

  // The next unread delivery, waiting until virtual time `deadline` at most;
  // nullopt when none arrived by then. A delivery that lands exactly at the
  // deadline is still taken.
  std::optional<T> Next(SimTime deadline) {
    while (read_ == items_.size() && sched_.WaitUntil(queue_, deadline)) {
    }
    if (read_ == items_.size()) {
      return std::nullopt;
    }
    return std::move(items_[read_++]);
  }

  // Counts `from` as an answerer; false when it already answered.
  bool First(NodeId from) {
    for (std::size_t i = 0; i < senders_.size(); ++i) {
      if (senders_[i] == from) {
        return false;
      }
    }
    senders_.push_back(from);
    return true;
  }
  size_t senders() const { return senders_.size(); }

 private:
  Scheduler& sched_;
  WaitQueue queue_;
  SmallList<T> items_;
  size_t read_ = 0;
  SmallList<NodeId> senders_;
};

// Shared by the collecting task and the delivery tasks, which may outlive a
// collector that gave up: MakeShared blocks.
template <typename T>
using RepliesPtr = std::shared_ptr<Replies<T>>;

}  // namespace tabs::sim

#endif  // TABS_SIM_SCHEDULER_H_
