// Real-CPU micro-benchmarks (google-benchmark) of the substrate's hot
// paths: log append/force/read-back, an operation-logged update, lock
// acquire/release, a commit round's replies, scheduler task turnaround,
// recoverable-segment access, and B-tree operations. These
// measure the implementation itself (host nanoseconds), not the simulated
// Perq — the Table 5-x binaries handle the paper's virtual-time results.

#include <benchmark/benchmark.h>

#include <cstring>

#include "src/kernel/node.h"
#include "src/lock/lock_manager.h"
#include "src/log/log_manager.h"
#include "src/recovery/recovery_manager.h"
#include "src/servers/array_server.h"
#include "src/servers/btree_server.h"
#include "src/tabs/world.h"
#include "src/txn/paxos_commit.h"

namespace tabs {
namespace {

log::LogRecord BenchValueRecord(std::uint32_t value_bytes) {
  log::LogRecord rec;
  rec.type = log::RecordType::kValueUpdate;
  rec.owner = {1, 1};
  rec.top = {1, 1};
  rec.server = "bench";
  rec.oid = {1, 0, value_bytes};
  rec.old_value = Bytes(value_bytes, 0);
  rec.new_value = Bytes(value_bytes, 1);
  return rec;
}

// Records per force in the log benchmarks. Each force is followed by a
// truncation, so the log stays a few KiB and the time per record is a steady
// state rather than a buffer growing with the iteration count.
constexpr int kLogBatch = 16;

void BM_LogAppend(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  log::StableLogDevice device;
  log::LogManager log(substrate, device);
  log::LogRecord rec = BenchValueRecord(8);
  int appended = 0;
  for (auto _ : state) {
    Lsn lsn = log.Append(rec);
    benchmark::DoNotOptimize(lsn);
    if (++appended % kLogBatch == 0) {
      log.ForceAll();
      device.TruncateBefore(lsn - 1);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogAppend);

// A batch of ~1.1 KB records forced and read back from the stable device:
// every batch crosses at least one 16 KiB chunk boundary, so some frames are
// gathered from two chunks.
void BM_LogForceReadBack(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  log::StableLogDevice device;
  log::LogManager log(substrate, device);
  log::LogRecord rec = BenchValueRecord(512);
  std::vector<Lsn> lsns(kLogBatch);
  for (auto _ : state) {
    for (Lsn& lsn : lsns) {
      lsn = log.Append(rec);
    }
    log.ForceAll();
    for (Lsn lsn : lsns) {
      benchmark::DoNotOptimize(log.ReadRecord(lsn));
    }
    device.TruncateBefore(lsns.back() - 1);
  }
  state.SetItemsProcessed(state.iterations() * kLogBatch);
}
BENCHMARK(BM_LogForceReadBack);

void BM_LogRecordSerializeRoundTrip(benchmark::State& state) {
  log::LogRecord rec;
  rec.type = log::RecordType::kValueUpdate;
  rec.owner = {1, 1};
  rec.top = {1, 1};
  rec.server = "bench";
  rec.oid = {1, 0, 64};
  rec.old_value = Bytes(64, 0);
  rec.new_value = Bytes(64, 1);
  for (auto _ : state) {
    Bytes b = rec.Serialize();
    auto back = log::LogRecord::Deserialize(b);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogRecordSerializeRoundTrip);

// The Recovery Manager's side of one account update (Section 4.6): an
// operation record appended and applied through the server's hook, then the
// transaction's undo list dropped at commit. The hook only reads its
// arguments, so the segment stays out of the figure.
void BM_OperationLoggedUpdate(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  kernel::Node node(1, substrate);
  recovery::RecoveryManager rm(node);
  std::int64_t applied = 0;
  recovery::OperationHooks hooks;
  hooks.apply = [&applied](const std::string&, std::span<const std::uint8_t> args, Lsn) {
    std::int64_t delta;
    std::memcpy(&delta, args.data() + 4, 8);
    applied += delta;
  };
  rm.RegisterOperationHooks("accounts", hooks);
  const std::string deposit = "deposit";
  const std::string withdraw = "withdraw";
  std::uint8_t args[12] = {};
  args[4] = 1;
  const PageId page{1, 0};
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    TransactionId tid{1, ++sequence};
    Lsn lsn = rm.LogOperation(tid, tid, "accounts", deposit, args, withdraw, args, {&page, 1});
    rm.ForgetTransaction(tid);
    if (sequence % kLogBatch == 0) {
      rm.log().ForceAll();
      node.stable_log().TruncateBefore(lsn - 1);
    }
  }
  benchmark::DoNotOptimize(applied);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OperationLoggedUpdate);

void BM_LockAcquireRelease(benchmark::State& state) {
  sim::Scheduler sched;
  lock::LockManager lm(sched, lock::CompatibilityMatrix::SharedExclusive(), 1000);
  TransactionId tid{1, 1};
  ObjectId oid{1, 0, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.ConditionalLock(tid, oid, lock::kExclusive));
    lm.ReleaseAll(tid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

// One commit round of three votes: the pooled reply block, three
// deliveries, and the collector reading each once and counting its sender.
void BM_RepliesRound(benchmark::State& state) {
  sim::Scheduler sched;
  for (auto _ : state) {
    auto votes = sim::MakeShared<sim::Replies<txn::VoteMsg>>(sched, sched);
    for (NodeId from = 2; from <= 4; ++from) {
      votes->Push({from, txn::Vote::kPrepared});
    }
    int counted = 0;
    for (int i = 0; i < 3; ++i) {
      std::optional<txn::VoteMsg> vote = votes->Next(0);
      counted += vote.has_value() && votes->First(vote->from) ? 1 : 0;
    }
    benchmark::DoNotOptimize(counted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RepliesRound);

void BM_SchedulerTaskTurnaround(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int x = 0;
    sched.Spawn("t", 1, 0, [&] { x = 1; });
    sched.Run();
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerTaskTurnaround);

void BM_SegmentReadResident(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  sim::SimDisk disk(substrate);
  kernel::RecoverableSegment seg(substrate, disk, 1, 8, 8);
  seg.Read({1, 0, 8});  // fault in once
  for (auto _ : state) {
    benchmark::DoNotOptimize(seg.Read({1, 0, 8}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentReadResident);

void BM_LocalTransactionEndToEnd(benchmark::State& state) {
  World world(1);
  auto* arr = world.AddServerOf<servers::ArrayServer>(1, "a", 64u);
  for (auto _ : state) {
    world.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        arr->SetCell(tx, 0, 1);
        return Status::kOk;
      });
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalTransactionEndToEnd);

void BM_BTreeInsertLookup(benchmark::State& state) {
  World world(1);
  auto* bt = world.AddServerOf<servers::BTreeServer>(1, "b", 390u);
  int i = 0;
  for (auto _ : state) {
    world.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        char key[16];
        std::snprintf(key, sizeof key, "k%07d", i % 500);
        bt->Upsert(tx, key, "value");
        benchmark::DoNotOptimize(bt->Lookup(tx, key));
        return Status::kOk;
      });
    });
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsertLookup);

}  // namespace
}  // namespace tabs

BENCHMARK_MAIN();
