// Ablation: value logging vs operation logging (Section 2.1.3).
//
// The paper's design discussion claims operation logging "permits a greater
// degree of concurrency and may require less log space... however, it is
// more complex, and it requires three passes over the log during crash
// recovery, instead of the single pass needed for the value-based
// algorithm". TABS planned to "empirically compare the relative merits of
// value and operation logging" (Section 7) — this harness is that
// experiment: the same counter workload run under both techniques,
// comparing log bytes, recovery passes, records scanned, and recovery time.
// A third row per object size runs the operation-logged workload with one
// loser left open from the log's first record, so recovery's undo pass reads
// the whole log back.
//
// Alongside the table, the bench writes BENCH_logging.json with the same
// numbers in machine-readable form.

#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "bench/bench_json.h"
#include "src/kernel/node.h"
#include "src/recovery/recovery_manager.h"
#include "src/sim/substrate.h"

namespace tabs {
namespace {

using recovery::OperationHooks;
using recovery::RecoveryManager;
using recovery::RecoveryStats;
using recovery::TxnOutcome;
using recovery::TxnOutcomeSource;

constexpr SegmentId kSeg = 1;
constexpr char kServer[] = "counter";
constexpr int kCounters = 16;
// 100 committed transactions per run, or 30 under TABS_BENCH_SMOKE=1.
const int kTxns = bench::SmokeMode() ? 30 : 100;
constexpr int kOpsPerTxn = 4;

// Size of each logged object. Value logging must write before/after images
// of the whole object; operation logging writes only the operation and its
// arguments — so the object size decides which technique's log is smaller.
std::uint32_t g_object_size = 8;

class Outcomes : public TxnOutcomeSource {
 public:
  void ObserveTxnRecord(const log::LogRecord& rec) override {
    if (rec.type == log::RecordType::kTxnCommit) {
      committed_.insert(rec.top);
    }
  }
  TxnOutcome OutcomeOf(const TransactionId& top) override {
    return committed_.contains(top) ? TxnOutcome::kCommitted : TxnOutcome::kActive;
  }

 private:
  std::set<TransactionId> committed_;
};

struct Epoch {
  explicit Epoch(kernel::Node& node)
      : rm(node),
        seg(node.substrate(), node.disk(), kSeg,
            (kCounters * g_object_size + kPageSize - 1) / kPageSize + 1, 32) {
    rm.RegisterSegment(kServer, &seg);
    OperationHooks hooks;
    hooks.apply = [this](const std::string& op, std::span<const std::uint8_t> args, Lsn lsn) {
      std::uint32_t idx;
      std::int64_t delta;
      std::memcpy(&idx, args.data(), 4);
      std::memcpy(&delta, args.data() + 4, 8);
      if (op == "sub") {
        delta = -delta;
      }
      ObjectId oid{kSeg, idx * g_object_size, g_object_size};
      Bytes cur = seg.Read(oid);
      std::int64_t v;
      std::memcpy(&v, cur.data(), 8);
      v += delta;
      Bytes nv = cur;
      std::memcpy(nv.data(), &v, 8);
      seg.Pin(oid);
      seg.Write(oid, nv, lsn);
      seg.Unpin(oid);
    };
    rm.RegisterOperationHooks(kServer, hooks);
  }

  void ValueAdd(const TransactionId& tid, std::uint32_t idx, std::int64_t delta) {
    ObjectId oid{kSeg, idx * g_object_size, g_object_size};
    Bytes old_value = seg.Read(oid);
    std::int64_t v;
    std::memcpy(&v, old_value.data(), 8);
    v += delta;
    Bytes new_value = old_value;
    std::memcpy(new_value.data(), &v, 8);
    seg.Pin(oid);
    rm.LogValue(tid, tid, kServer, oid, std::move(old_value), std::move(new_value));
    seg.Unpin(oid);
  }

  void OperationAdd(const TransactionId& tid, std::uint32_t idx, std::int64_t delta) {
    Bytes args(12);
    std::memcpy(args.data(), &idx, 4);
    std::memcpy(args.data() + 4, &delta, 8);
    rm.LogOperation(tid, tid, kServer, "add", args, "sub", args,
                    std::vector<PageId>{{kSeg, idx * g_object_size / kPageSize}});
  }

  void Commit(const TransactionId& tid) {
    log::LogRecord rec;
    rec.type = log::RecordType::kTxnCommit;
    rec.owner = tid;
    rec.top = tid;
    rm.log().Append(std::move(rec));
    rm.log().ForceAll();
    rm.ForgetTransaction(tid);
  }

  RecoveryManager rm;
  kernel::RecoverableSegment seg;
};

struct RunOutcome {
  std::uint64_t log_bytes = 0;
  int passes = 0;
  int records_scanned = 0;
  SimTime recovery_time_us = 0;
  std::int64_t counter_sum = 0;
};

// With `loser`, an operation-logged transaction writes the log's first
// record and is still open at the crash.
RunOutcome RunWorkload(bool use_operation_logging, bool loser) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  kernel::Node node(1, substrate);
  RunOutcome out;

  sched.Spawn("workload", 1, 0, [&] {
    Epoch before(node);
    std::uint64_t seq = 1;
    if (loser) {
      before.OperationAdd(TransactionId{1, seq++}, 0, 1);
    }
    for (int t = 0; t < kTxns; ++t) {
      TransactionId tid{1, seq++};
      for (int op = 0; op < kOpsPerTxn; ++op) {
        auto idx = static_cast<std::uint32_t>((t + op) % kCounters);
        if (use_operation_logging) {
          before.OperationAdd(tid, idx, 1);
        } else {
          before.ValueAdd(tid, idx, 1);
        }
      }
      before.Commit(tid);
    }
    out.log_bytes = before.rm.StableLogBytesInUse();
    // Crash without flushing data pages, then recover.
    Epoch after(node);
    Outcomes outcomes;
    SimTime t0 = sched.Now();
    RecoveryStats stats = after.rm.Recover(outcomes);
    out.recovery_time_us = sched.Now() - t0;
    out.passes = stats.passes;
    out.records_scanned = stats.records_scanned;
    for (std::uint32_t i = 0; i < kCounters; ++i) {
      Bytes v = after.seg.Read({kSeg, i * g_object_size, 8});
      std::int64_t x;
      std::memcpy(&x, v.data(), 8);
      out.counter_sum += x;
    }
  });
  sched.Run();
  return out;
}

void Run() {
  std::printf("Logging ablation: value vs operation logging (Sections 2.1.3, 7)\n");
  std::printf("%-10s %-14s | %12s %8s %10s %12s %8s\n", "technique", "workload",
              "log bytes", "passes", "scanned", "recovery ms", "sum ok");
  std::printf("%.92s\n",
              "--------------------------------------------------------------------------------"
              "------------");
  bench::JsonWriter json;
  json.BeginObject();
  json.String("bench", "logging_ablation");
  json.Number("transactions", kTxns);
  json.Number("ops_per_txn", kOpsPerTxn);
  json.Bool("smoke", bench::SmokeMode());
  json.BeginArray("rows");
  const std::int64_t expect = static_cast<std::int64_t>(kTxns) * kOpsPerTxn;
  struct Technique {
    const char* label;
    bool operation_logging;
    bool loser;
  };
  for (std::uint32_t obj : {8u, 64u, 256u}) {
    g_object_size = obj;
    char wl[32];
    std::snprintf(wl, sizeof wl, "%dx%d obj=%u", kTxns, kOpsPerTxn, obj);
    for (const Technique& t : {Technique{"value", false, false},
                               Technique{"operation", true, false},
                               Technique{"op+loser", true, true}}) {
      RunOutcome out = RunWorkload(t.operation_logging, t.loser);
      std::printf("%-10s %-14s | %12llu %8d %10d %12.1f %8s\n", t.label, wl,
                  static_cast<unsigned long long>(out.log_bytes), out.passes,
                  out.records_scanned, out.recovery_time_us / 1000.0,
                  out.counter_sum == expect ? "yes" : "NO");
      json.BeginObject();
      json.String("name", std::string(t.label) + " obj=" + std::to_string(obj));
      json.Number("object_bytes", static_cast<std::uint64_t>(obj));
      json.Bool("loser", t.loser);
      json.Number("log_bytes", out.log_bytes);
      json.Number("passes", out.passes);
      json.Number("records_scanned", out.records_scanned);
      json.Number("recovery_ms", out.recovery_time_us / 1000.0);
      json.Bool("sum_ok", out.counter_sum == expect);
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  std::printf(
      "\nThe crossover the paper predicts: value records carry before/after images of\n"
      "the whole object, so their log grows with object size while operation records\n"
      "stay argument-sized ('may require less log space'). The price is recovery:\n"
      "three passes over the log instead of the value algorithm's single backward\n"
      "pass. Each pass reads only the log it needs: redo rides the analysis read\n"
      "and undo reads back only to the earliest loser, so without losers operation\n"
      "logging reads its smaller log once. A loser open since the first record\n"
      "(op+loser) makes undo read the whole log again.\n");
  if (json.WriteFile("BENCH_logging.json")) {
    std::printf("\nwrote BENCH_logging.json\n");
  }
}

}  // namespace
}  // namespace tabs

int main() {
  tabs::Run();
  return 0;
}
