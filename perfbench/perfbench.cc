// perfbench: the two-clock benchmark of the TABS reproduction.
//
// One process runs one *round* of one workload at one seed and prints one
// JSON line. A round builds a World through the public API, drives a load
// phase (closed loop or seeded open loop), checks the outputs, crashes and
// recovers node 1, checks again, and — untraced — probes the workload's load
// ladder for the highest rate whose p99 stays within kSloLimitUs. With
// --trace 1 it instead repeats the load phase with the Tracer on and reports
// per-layer numbers: span histograms, the zero-residual component
// attribution, and the benchmark's own spans around its calls into each
// layer, which it keeps in memory and writes to --spans-out at the end.
//
// Two clocks. Virtual-time figures ("exact") are a pure function of the
// workload and seed and must repeat byte for byte; perfbench/run.py checks
// that across rounds. Host figures (wall time, rusage, RSS) are the
// simulator's own speed and are reported as medians by run.py.
//
// See perfbench/README.md for the workloads, the metrics and the layer each
// one measures.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/tabs/service_handle.h"
#include "src/tabs/world.h"

namespace tabs::perfbench {
namespace {

// The latency limit behind slo_rate_txn_per_vs: p99 of a ladder rung must
// stay within it, with no terminal failure and no backlog left at the end.
constexpr SimTime kSloLimitUs = 3'000'000;
// Latency recorded for a transaction that failed terminally: it misses any
// limit.
constexpr SimTime kFailedLatency = std::numeric_limits<SimTime>::max() / 4;

// ------------------------------------------------------------------ statistics

// Nearest-rank quantile; sorts `v` in place. 0 for an empty sample.
SimTime Quantile(std::vector<SimTime>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Ms(SimTime us) { return static_cast<double>(us) / 1000.0; }

// ------------------------------------------------------------------ host clocks

double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Host {
  double wall = 0;
  double user = 0;
  double sys = 0;
  double switches = 0;
  AllocCounts alloc;
};

Host HostNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Host h;
  h.wall = WallNow();
  h.user = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  h.sys = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  h.switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  h.alloc = CurrentAllocs();
  return h;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ randomness

// splitmix64: derives independent stream seeds from (seed, purpose, index).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xBF58476D1CE4E5B9ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Draws only from the raw mt19937_64 stream, whose output the standard fixes,
// so a seed names the same inputs under any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : g_(seed) {}
  std::uint64_t Below(std::uint64_t n) { return g_() % n; }
  double Unit() { return static_cast<double>(g_() >> 11) * 0x1.0p-53; }
  // Exponential gap with the given mean, rounded to whole microseconds.
  SimTime ExpGap(double mean_us) {
    return static_cast<SimTime>(std::llround(-mean_us * std::log1p(-Unit())));
  }

 private:
  std::mt19937_64 g_;
};

// Zipf(theta) over n items, hottest first, mapped onto a seeded permutation
// so each seed heats different items.
class Zipf {
 public:
  Zipf(std::uint32_t n, double theta, Rng& rng) : cdf_(n), item_(n) {
    double sum = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      item_[i] = i;
    }
    for (std::uint32_t i = n - 1; i > 0; --i) {
      std::swap(item_[i], item_[rng.Below(i + 1)]);
    }
  }
  std::uint32_t Sample(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    auto rank = static_cast<std::size_t>(it - cdf_.begin());
    return item_[std::min(rank, item_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> item_;
};

// ------------------------------------------------------------------ own spans

// The benchmark's own spans around its calls into each layer: virtual and
// wall time, one id per transaction (0 outside any transaction). Recorded
// only in the traced run, kept in memory, written once at the end.
struct OwnSpan {
  std::uint64_t txn = 0;
  const char* name = "";
  NodeId node = kInvalidNode;
  SimTime v_begin = 0;
  SimTime v_end = 0;
  double w_begin = 0;
  double w_end = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(WallNow()) {}
  bool on() const { return on_; }
  void Add(std::uint64_t txn, const char* name, NodeId node, SimTime v_begin, SimTime v_end,
           double w_begin) {
    if (on_) {
      spans_.push_back({txn, name, node, v_begin, v_end, w_begin - origin_, WallNow() - origin_});
    }
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (const OwnSpan& s : spans_) {
      std::fprintf(f,
                   "{\"txn\":%llu,\"name\":\"%s\",\"node\":%u,\"v_begin_us\":%lld,"
                   "\"v_end_us\":%lld,\"wall_begin_us\":%.3f,\"wall_end_us\":%.3f}\n",
                   static_cast<unsigned long long>(s.txn), s.name, s.node,
                   static_cast<long long>(s.v_begin), static_cast<long long>(s.v_end),
                   s.w_begin * 1e6, s.w_end * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  double origin_;
  std::vector<OwnSpan> spans_;
};

// ------------------------------------------------------------------ phases

// The data-server calls the benchmark times individually.
enum Call { kWithdraw, kDeposit, kBalance, kSetCell, kCallCount };
const char* const kCallName[kCallCount] = {"withdraw", "deposit", "balance", "setcell"};
const char* const kCallSpan[kCallCount] = {"servers.withdraw", "servers.deposit",
                                           "servers.balance", "servers.setcell"};

// Everything one load phase measured.
struct Phase {
  // Virtual time and counts: exact at a fixed seed.
  std::vector<SimTime> latency;      // committed, from start (or due time) to return
  std::vector<SimTime> latency_all;  // every attempted; failures as kFailedLatency
  std::vector<SimTime> precommit;    // body of the committing attempt
  std::vector<SimTime> commit;       // End of committed update transactions
  std::vector<SimTime> ro_commit;    // End of committed read-only transactions
  std::vector<SimTime> calls[kCallCount];
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t lock_timeouts = 0;
  SimTime start = 0;       // virtual time the phase began
  SimTime window_us = 0;   // load window (arrivals, or new closed-loop requests)
  SimTime end = 0;         // last completion
  SimTime generator_late_us = 0;
  std::uint64_t events = 0;
  sim::PrimitiveCounts prims;
  double forces = 0;
  double fg_writebacks = 0;
  double bg_writebacks = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t faults = 0;
  int reclaims = 0;
  int blocked = 0;  // Drain() result
  // Traced phases only.
  sim::ComponentTimes components{};
  std::uint64_t attribution_mismatches = 0;
  std::map<std::string, sim::HistogramRegistry::Stats> hist;
  // Host.
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  double switches = 0;
  AllocCounts allocs;

  double goodput() const {
    SimTime span = std::max(end - start, window_us);
    return span > 0 ? static_cast<double>(committed) / (static_cast<double>(span) / 1e6) : 0;
  }
  // The latency-limit percentile over every attempted transaction.
  SimTime p99_all() {
    return Quantile(latency_all, 0.99);
  }
};

// One transaction's bookkeeping inside the task that runs it.
struct TxnCtx {
  World* world = nullptr;
  Phase* phase = nullptr;
  SpanLog* spans = nullptr;
  std::uint64_t id = 0;
  SimTime body_start = 0;
  SimTime body_end = 0;

  // Times one data-server call in virtual time (and wall time when traced).
  template <typename Fn>
  auto Time(Call call, NodeId node, Fn&& fn) {
    sim::Scheduler& sched = world->scheduler();
    SimTime v0 = sched.Now();
    double w0 = spans->on() ? WallNow() : 0;
    auto r = fn();
    phase->calls[call].push_back(sched.Now() - v0);
    spans->Add(id, kCallSpan[call], node, v0, sched.Now(), w0);
    return r;
  }
};

template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.ok() ? Status::kOk : r.status();
}

// ------------------------------------------------------------------ workloads

// One transaction's inputs, drawn once per transaction (retries reuse them).
struct Op {
  enum Kind { kTransfer, kAudit, kWrite } kind = kTransfer;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::int64_t amount = 0;
};

// How a workload offers load. Closed loop: `clients` callers each wait for
// their reply, new requests until the window ends. Open loop: seeded Poisson
// arrivals at `rate` per virtual second, split evenly over the nodes.
struct Shape {
  bool open_loop = false;
  int clients = 0;
  double rate = 0;
  SimTime window_us = 0;
};

struct SetupTimes {
  double world_ctor_s = 0;
  double install_s = 0;
  double seed_s = 0;
  double resolve_s = 0;
  SimTime resolve_vms = 0;  // longest per-node resolution, virtual
  double total() const { return world_ctor_s + install_s + seed_s + resolve_s; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int nodes() const = 0;
  virtual WorldOptions options() const = 0;
  // The nominal load and the ladder of loads (ascending, nominal included)
  // that slo_rate_txn_per_vs climbs. Closed-loop rungs vary clients,
  // open-loop rungs vary the offered rate.
  virtual Shape nominal() const = 0;
  virtual std::vector<Shape> ladder() const = 0;

  // A short closed-loop run between an explicit log reclamation on node 1
  // and the crash; no clients means the crash follows the load directly.
  virtual Shape tail() const { return {}; }

  virtual void Install(World& w) = 0;
  // Initial data; runs and drains applications. Returns Drain() results.
  virtual int Seed(World& w, SimTime* horizon) = 0;
  // Service-handle resolution on every node, before seeding uses the
  // handles; returns Drain() results.
  virtual int Resolve(World& w, SetupTimes* t, SimTime* horizon, SpanLog* spans) { return 0; }

  // Draws one transaction for caller `lane` of `lanes`.
  virtual Op Draw(Rng& rng, int lane, int lanes) = 0;
  virtual Status Body(const server::Tx& tx, const Op& op, TxnCtx& ctx) = 0;
  // A committed transaction was acknowledged to its caller.
  virtual void Acknowledge(const Op& op) {}
  // Output check after a quiescent point; runs applications. Empty on success.
  virtual std::string Check(World& w, SimTime* horizon) = 0;
};

// Runs `body` as an application on `node` at virtual time `*horizon` and
// drains; advances `*horizon` to the application's end. Returns Drain().
int RunAt(World& w, NodeId node, SimTime* horizon, const std::function<void(Application&)>& body) {
  SimTime end = *horizon;
  w.SpawnApp(node, "perfbench", [&](Application& app) {
    body(app);
    end = w.scheduler().Now();
  }, *horizon);
  int blocked = w.Drain();
  *horizon = std::max(*horizon, end);
  return blocked;
}

constexpr std::int64_t kInitialBalance = 1'000'000;

// bank-local: one node, a 4096-account AccountServer that fits the buffer
// pool, Zipf(0.99) account choice, 70% transfers and 30% two-account audits.
class BankLocal : public Workload {
 public:
  static constexpr std::uint32_t kAccounts = 4096;

  explicit BankLocal(std::uint64_t seed) {
    Rng rng(Mix(seed, 11));
    zipf_ = std::make_unique<Zipf>(kAccounts, 0.99, rng);
  }
  int nodes() const override { return 1; }
  WorldOptions options() const override {
    WorldOptions o;
    o.commit_mode = txn::CommitMode::kTwoPhase;
    return o;
  }
  Shape nominal() const override { return Clients(8); }
  std::vector<Shape> ladder() const override {
    return {Clients(4), Clients(8), Clients(12), Clients(16), Clients(24)};
  }

  void Install(World& w) override { w.AddServerOf<servers::AccountServer>(1, "bank", kAccounts); }
  int Seed(World& w, SimTime* horizon) override {
    int blocked = 0;
    for (std::uint32_t base = 0; base < kAccounts; base += 512) {
      blocked += RunAt(w, 1, horizon, [&](Application& app) {
        app.RunTransactional([&](const server::Tx& tx) {
          for (std::uint32_t a = base; a < base + 512; ++a) {
            Status s = Bank(w)->Deposit(tx, a, kInitialBalance);
            if (s != Status::kOk) {
              return s;
            }
          }
          return Status::kOk;
        });
      });
    }
    return blocked;
  }
  Op Draw(Rng& rng, int, int) override {
    Op op;
    op.kind = rng.Unit() < 0.7 ? Op::kTransfer : Op::kAudit;
    op.a = zipf_->Sample(rng);
    do {
      op.b = zipf_->Sample(rng);
    } while (op.b == op.a);
    op.amount = 1 + static_cast<std::int64_t>(rng.Below(100));
    return op;
  }
  Status Body(const server::Tx& tx, const Op& op, TxnCtx& ctx) override {
    servers::AccountServer* bank = Bank(*ctx.world);
    auto a = static_cast<std::uint32_t>(op.a);
    auto b = static_cast<std::uint32_t>(op.b);
    // Accounts are locked in ascending order, so no two transactions wait
    // on each other: on the hottest accounts a deadlock broken by the 5 vs
    // lock timeout would otherwise, at some seeds, exhaust the retries.
    auto withdraw = [&] {
      return ctx.Time(kWithdraw, 1, [&] { return bank->Withdraw(tx, a, op.amount); });
    };
    auto deposit = [&] {
      return ctx.Time(kDeposit, 1, [&] { return bank->Deposit(tx, b, op.amount); });
    };
    auto balance = [&](std::uint32_t acct) {
      return StatusOf(ctx.Time(kBalance, 1, [&] { return bank->ReadBalance(tx, acct); }));
    };
    if (op.kind == Op::kTransfer) {
      Status s = a < b ? withdraw() : deposit();
      if (s != Status::kOk) {
        return s;
      }
      return a < b ? deposit() : withdraw();
    }
    Status s = balance(std::min(a, b));
    if (s != Status::kOk) {
      return s;
    }
    return balance(std::max(a, b));
  }
  std::string Check(World& w, SimTime* horizon) override {
    std::int64_t total = 0;
    bool ok = true;
    int blocked = RunAt(w, 1, horizon, [&](Application& app) {
      auto r = app.RunTransactional([&](const server::Tx& tx) {
        total = 0;
        for (std::uint32_t a = 0; a < kAccounts; ++a) {
          Result<std::int64_t> v = Bank(w)->ReadBalance(tx, a);
          if (!v.ok()) {
            return v.status();
          }
          total += v.value();
        }
        return Status::kOk;
      });
      ok = r.ok();
    });
    if (blocked != 0 || !ok) {
      return "bank-local: balance audit did not complete";
    }
    if (total != static_cast<std::int64_t>(kAccounts) * kInitialBalance) {
      return "bank-local: money not conserved: " + std::to_string(total);
    }
    return "";
  }

 private:
  static Shape Clients(int n) { return {false, n, 0, 2'000'000'000}; }
  static servers::AccountServer* Bank(World& w) {
    return w.Server<servers::AccountServer>(1, "bank");
  }
  std::unique_ptr<Zipf> zipf_;
};

// paged-recovery: one node, single-cell random writes over a 512-page array
// on a 64-frame pool (8x the cache), a 64 KiB log budget reclaimed at 75%.
// Each caller owns the cells congruent to its lane, so the last acknowledged
// value of every cell is known exactly and must read back after the crash.
class PagedRecovery : public Workload {
 public:
  static constexpr std::uint32_t kPages = 512;
  static constexpr std::uint32_t kCells = kPages * (kPageSize / sizeof(std::int32_t));
  static constexpr std::size_t kFrames = 64;

  int nodes() const override { return 1; }
  WorldOptions options() const override {
    WorldOptions o;
    o.commit_mode = txn::CommitMode::kTwoPhase;
    o.log_space_budget = 64 * 1024;
    o.log_reclaim_watermark = 0.75;
    return o;
  }
  Shape nominal() const override { return Clients(4); }
  std::vector<Shape> ladder() const override {
    return {Clients(2), Clients(4), Clients(12), Clients(16), Clients(24), Clients(32)};
  }

  // Under the log budget the retained log is a sawtooth (one reclamation
  // about every 160 writes), so a crash straight after the load would
  // recover anywhere from a few records to a whole cycle, by seed. The crash
  // instead follows a reclamation and then about 80 more writes.
  Shape tail() const override { return {false, 1, 0, 20'000'000}; }

  void Install(World& w) override {
    w.AddServerOf<servers::ArrayServer>(1, "pages", kCells, kFrames);
  }
  // Writes every cell once, so the read-back after the crash covers the
  // whole array, not only the cells the load happened to touch.
  int Seed(World& w, SimTime* horizon) override {
    model_.resize(kCells);
    int blocked = 0;
    constexpr std::uint32_t kChunk = 1024;
    for (std::uint32_t base = 0; base < kCells; base += kChunk) {
      blocked += RunAt(w, 1, horizon, [&](Application& app) {
        app.RunTransactional([&](const server::Tx& tx) {
          for (std::uint32_t c = base; c < base + kChunk; ++c) {
            model_[c] = static_cast<std::int32_t>(c + 1);
            Status s = Array(w)->SetCell(tx, c, model_[c]);
            if (s != Status::kOk) {
              return s;
            }
          }
          return Status::kOk;
        });
      });
    }
    return blocked;
  }
  Op Draw(Rng& rng, int lane, int lanes) override {
    if (seq_.size() < static_cast<std::size_t>(lanes)) {
      seq_.resize(static_cast<std::size_t>(lanes), 0);
    }
    Op op;
    op.kind = Op::kWrite;
    auto per_lane = static_cast<std::uint64_t>(kCells / static_cast<std::uint32_t>(lanes));
    op.a = rng.Below(per_lane) * static_cast<std::uint64_t>(lanes) +
           static_cast<std::uint64_t>(lane);
    op.amount = static_cast<std::int64_t>(lane + 1) * 10'000'000 + ++seq_[lane];
    return op;
  }
  Status Body(const server::Tx& tx, const Op& op, TxnCtx& ctx) override {
    servers::ArrayServer* arr = Array(*ctx.world);
    return ctx.Time(kSetCell, 1, [&] {
      return arr->SetCell(tx, static_cast<std::uint32_t>(op.a),
                          static_cast<std::int32_t>(op.amount));
    });
  }
  void Acknowledge(const Op& op) override {
    model_[op.a] = static_cast<std::int32_t>(op.amount);
  }
  std::string Check(World& w, SimTime* horizon) override {
    std::uint64_t mismatches = 0;
    bool ok = true;
    int blocked = 0;
    constexpr std::uint32_t kChunk = 512;
    for (std::uint32_t base = 0; base < kCells && ok; base += kChunk) {
      blocked += RunAt(w, 1, horizon, [&](Application& app) {
        std::uint64_t bad = 0;
        auto r = app.RunTransactional([&](const server::Tx& tx) {
          bad = 0;
          for (std::uint32_t c = base; c < base + kChunk; ++c) {
            Result<std::int32_t> v = Array(w)->GetCell(tx, c);
            if (!v.ok()) {
              return v.status();
            }
            bad += v.value() != model_[c] ? 1 : 0;
          }
          return Status::kOk;
        });
        ok = r.ok();
        mismatches += bad;
      });
    }
    if (blocked != 0 || !ok) {
      return "paged-recovery: read-back did not complete";
    }
    if (mismatches != 0) {
      return "paged-recovery: " + std::to_string(mismatches) +
             " acknowledged writes did not read back";
    }
    return "";
  }

 private:
  static servers::ArrayServer* Array(World& w) {
    return w.Server<servers::ArrayServer>(1, "pages");
  }
  static Shape Clients(int n) { return {false, n, 0, 3'000'000'000}; }
  std::vector<std::int32_t> model_;  // last acknowledged value per cell
  std::vector<std::int64_t> seq_;    // per-lane write counter
};

// sharded-2pc / sharded-paxos: 32 nodes, one account shard of 32 accounts on
// each, seeded Poisson arrivals on every node: 75% cross-shard transfers and
// 25% read-only audits of two shards. Only the commit protocol differs.
class Sharded : public Workload {
 public:
  static constexpr int kNodes = 32;
  static constexpr std::uint64_t kPerShard = 32;
  static constexpr std::uint64_t kAccounts = kPerShard * kNodes;

  Sharded(txn::CommitMode mode, double nominal_rate, std::vector<double> rates)
      : mode_(mode), nominal_rate_(nominal_rate), rates_(std::move(rates)) {}

  int nodes() const override { return kNodes; }
  WorldOptions options() const override {
    WorldOptions o;
    o.commit_mode = mode_;
    o.paxos_f = 1;
    return o;
  }
  Shape nominal() const override { return RateShape(nominal_rate_); }
  std::vector<Shape> ladder() const override {
    std::vector<Shape> out;
    for (double r : rates_) {
      out.push_back(RateShape(r));
    }
    return out;
  }

  void Install(World& w) override {
    std::vector<NodeId> all;
    for (int n = 1; n <= kNodes; ++n) {
      all.push_back(static_cast<NodeId>(n));
      handles_.push_back(std::make_unique<AccountService>(w, "accounts"));
    }
    w.AddShardedServiceOf<servers::AccountServer>("accounts", all,
                                                  static_cast<std::uint32_t>(kNodes), kAccounts);
  }
  int Seed(World& w, SimTime* horizon) override {
    return ForEachNode(w, horizon, [&](Application& app, NodeId n) {
      app.RunTransactional([&](const server::Tx& tx) {
        for (std::uint64_t k = 0; k < kPerShard; ++k) {
          Status s = Handle(n).Deposit(tx, LocalAccount(n, k), kInitialBalance);
          if (s != Status::kOk) {
            return s;
          }
        }
        return Status::kOk;
      });
    });
  }
  int Resolve(World& w, SetupTimes* t, SimTime* horizon, SpanLog* spans) override {
    bool complete = true;
    int blocked = ForEachNode(w, horizon, [&](Application&, NodeId n) {
      SimTime v0 = w.scheduler().Now();
      double w0 = WallNow();
      auto res = Handle(n).resolver().ResolveService(w.names(n), "accounts");
      complete = complete && res.complete();
      t->resolve_vms = std::max(t->resolve_vms, w.scheduler().Now() - v0);
      spans->Add(0, "name.resolve", n, v0, w.scheduler().Now(), w0);
    });
    return complete ? blocked : blocked + 1;
  }
  Op Draw(Rng& rng, int, int) override {
    Op op;
    op.kind = rng.Unit() < 0.75 ? Op::kTransfer : Op::kAudit;
    op.a = rng.Below(kAccounts);
    do {
      op.b = rng.Below(kAccounts);
    } while (op.b % kNodes == op.a % kNodes);
    op.amount = 1 + static_cast<std::int64_t>(rng.Below(100));
    return op;
  }
  Status Body(const server::Tx& tx, const Op& op, TxnCtx& ctx) override {
    AccountService& h = Handle(tx.origin);
    // Ascending account order, as in bank-local: no deadlock to time out.
    auto withdraw = [&] {
      return ctx.Time(kWithdraw, tx.origin, [&] { return h.Withdraw(tx, op.a, op.amount); });
    };
    auto deposit = [&] {
      return ctx.Time(kDeposit, tx.origin, [&] { return h.Deposit(tx, op.b, op.amount); });
    };
    auto balance = [&](std::uint64_t acct) {
      return StatusOf(ctx.Time(kBalance, tx.origin, [&] { return h.Balance(tx, acct); }));
    };
    if (op.kind == Op::kTransfer) {
      Status s = op.a < op.b ? withdraw() : deposit();
      if (s != Status::kOk) {
        return s;
      }
      return op.a < op.b ? deposit() : withdraw();
    }
    Status s = balance(std::min(op.a, op.b));
    if (s != Status::kOk) {
      return s;
    }
    return balance(std::max(op.a, op.b));
  }
  std::string Check(World& w, SimTime* horizon) override {
    std::int64_t total = 0;
    int incomplete = 0;
    int blocked = ForEachNode(w, horizon, [&](Application& app, NodeId n) {
      std::int64_t shard = 0;
      auto r = app.RunTransactional([&](const server::Tx& tx) {
        shard = 0;
        for (std::uint64_t k = 0; k < kPerShard; ++k) {
          Result<std::int64_t> v = Handle(n).Balance(tx, LocalAccount(n, k));
          if (!v.ok()) {
            return v.status();
          }
          shard += v.value();
        }
        return Status::kOk;
      });
      total += shard;
      incomplete += r.ok() ? 0 : 1;
    });
    if (blocked != 0 || incomplete != 0) {
      return "sharded: balance audit did not complete";
    }
    if (total != static_cast<std::int64_t>(kAccounts) * kInitialBalance) {
      return "sharded: money not conserved: " + std::to_string(total);
    }
    return "";
  }

 private:
  // About 8000 arrivals per rung, whatever the rate.
  static Shape RateShape(double rate) {
    return {true, 0, rate, static_cast<SimTime>(8000.0 / rate * 1e6)};
  }
  static std::uint64_t LocalAccount(NodeId n, std::uint64_t k) {
    return static_cast<std::uint64_t>(n - 1) + k * kNodes;
  }
  AccountService& Handle(NodeId n) { return *handles_[n - 1]; }
  // One application per node, all at `*horizon`; drains once.
  int ForEachNode(World& w, SimTime* horizon,
                  const std::function<void(Application&, NodeId)>& body) {
    SimTime end = *horizon;
    for (int i = 1; i <= kNodes; ++i) {
      auto n = static_cast<NodeId>(i);
      w.SpawnApp(n, "perfbench", [&, n](Application& app) {
        body(app, n);
        end = std::max(end, w.scheduler().Now());
      }, *horizon);
    }
    int blocked = w.Drain();
    *horizon = end;
    return blocked;
  }

  txn::CommitMode mode_;
  double nominal_rate_;
  std::vector<double> rates_;
  // One handle per node, shared by that node's transactions and resolved at
  // set-up, so a transaction never pays a resolution broadcast.
  std::vector<std::unique_ptr<AccountService>> handles_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "bank-local") {
    return std::make_unique<BankLocal>(seed);
  }
  if (name == "paged-recovery") {
    return std::make_unique<PagedRecovery>();
  }
  if (name == "sharded-2pc") {
    return std::make_unique<Sharded>(
        txn::CommitMode::kTwoPhase, 60,
        std::vector<double>{30, 60, 90, 105, 120, 140});
  }
  if (name == "sharded-paxos") {
    return std::make_unique<Sharded>(
        txn::CommitMode::kPaxosCommit, 20,
        std::vector<double>{10, 20, 32, 38, 44, 52});
  }
  return nullptr;
}

// ------------------------------------------------------------------ the round

struct Instance {
  std::unique_ptr<Workload> wl;
  std::unique_ptr<World> world;
  SetupTimes setup;
  SimTime horizon = 0;  // latest virtual time any benchmark application reached
};

class Round {
 public:
  Round(std::string workload, std::uint64_t seed, SpanLog* spans)
      : workload_(std::move(workload)), seed_(seed), spans_(spans) {}

  // World construction, server install, seeding and handle resolution.
  Instance Build() {
    Instance in;
    in.wl = MakeWorkload(workload_, seed_);
    double t0 = WallNow();
    in.world = std::make_unique<World>(in.wl->nodes(), in.wl->options());
    double t1 = WallNow();
    in.wl->Install(*in.world);
    double t2 = WallNow();
    Expect(in.wl->Resolve(*in.world, &in.setup, &in.horizon, spans_) == 0,
           "Drain() != 0 (or incomplete resolution) after handle resolution");
    double t3 = WallNow();
    Expect(in.wl->Seed(*in.world, &in.horizon) == 0, "Drain() != 0 after seeding");
    double t4 = WallNow();
    in.setup.world_ctor_s = t1 - t0;
    in.setup.install_s = t2 - t1;
    in.setup.resolve_s = t3 - t2;
    in.setup.seed_s = t4 - t3;
    setups_.push_back(in.setup);
    return in;
  }

  Phase Load(Instance& in, const Shape& shape, bool traced) {
    World& w = *in.world;
    sim::Tracer& tracer = w.substrate().tracer();
    if (traced) {
      tracer.Enable(true);
    }
    Phase ph;
    ph.start = in.horizon;
    ph.window_us = shape.window_us;
    Counters before = Snapshot(w);
    Host h0 = HostNow();

    const SimTime window_end = ph.start + shape.window_us;
    if (!shape.open_loop) {
      for (int c = 0; c < shape.clients; ++c) {
        NodeId home = static_cast<NodeId>(1 + c % in.wl->nodes());
        w.SpawnApp(home, "client", [this, &in, &ph, &w, c, window_end,
                                    clients = shape.clients, traced](Application& app) {
          Rng rng(Mix(seed_, 1, static_cast<std::uint64_t>(c)));
          while (w.scheduler().Now() < window_end) {
            Op op = in.wl->Draw(rng, c, clients);
            RunOne(in, ph, app, op, w.scheduler().Now(), traced);
          }
        }, ph.start);
      }
    } else {
      // One generator task per node sleeps until each arrival is due and only
      // then spawns it, so live tasks (each holding a pooled OS thread) track
      // the transactions in flight rather than the whole schedule.
      const int nodes = in.wl->nodes();
      const double mean_gap_us = 1e6 * nodes / shape.rate;
      for (int i = 0; i < nodes; ++i) {
        auto n = static_cast<NodeId>(i + 1);
        w.SpawnApp(n, "generator", [this, &in, &ph, &w, i, n, nodes, window_end, mean_gap_us,
                                    traced](Application&) {
          Rng rng(Mix(seed_, 2, static_cast<std::uint64_t>(i)));
          sim::Scheduler& sched = w.scheduler();
          SimTime due = sched.Now();
          for (;;) {
            due += std::max<SimTime>(1, rng.ExpGap(mean_gap_us));
            if (due >= window_end) {
              break;
            }
            sched.AdvanceTo(due);
            sched.Yield();  // every earlier task runs first
            ph.generator_late_us = std::max(ph.generator_late_us, sched.Now() - due);
            Op op = in.wl->Draw(rng, i, nodes);
            w.SpawnApp(n, "arrival", [this, &in, &ph, op, due, traced](Application& app) {
              RunOne(in, ph, app, op, due, traced);
            }, sched.Now());
          }
        }, ph.start);
      }
    }
    ph.blocked = w.Drain();
    Host h1 = HostNow();
    Counters after = Snapshot(w);

    ph.wall_s = h1.wall - h0.wall;
    ph.user_s = h1.user - h0.user;
    ph.sys_s = h1.sys - h0.sys;
    ph.switches = h1.switches - h0.switches;
    ph.allocs = {h1.alloc.allocs - h0.alloc.allocs, h1.alloc.bytes - h0.alloc.bytes};
    ph.events = after.steps - before.steps;
    ph.prims = after.prims - before.prims;
    ph.forces = after.forces - before.forces;
    ph.fg_writebacks = after.fg - before.fg;
    ph.bg_writebacks = after.bg - before.bg;
    ph.log_bytes = after.log_bytes - before.log_bytes;
    ph.faults = after.faults - before.faults;
    ph.reclaims = after.reclaims - before.reclaims;
    if (traced) {
      ph.hist = tracer.histograms().AllStats();
      tracer.Enable(false);
    }
    in.horizon = std::max(in.horizon, ph.end);
    if (!traced) {
      host_.committed += static_cast<double>(ph.committed);
      host_.cpu_s += ph.user_s + ph.sys_s;
      host_.wall_s += ph.wall_s;
    }
    Expect(ph.blocked == 0, "Drain() != 0 after the load phase");
    Expect(ph.committed + ph.failed == ph.attempted, "committed + failed != attempted");
    return ph;
  }

  // Totals over every RecoverNode call; divide by `recoveries` for means.
  struct Recovery {
    SimTime vms = 0;
    double wall_s = 0;
    std::uint64_t records_scanned = 0;
    std::uint64_t log_bytes_retained = 0;
    int recoveries = 0;
  };

  // Crashes every node in turn at a quiescent point and reboots it, adding
  // each recovery to `rec`. RecoverNode runs in a fresh task on the node
  // itself, as a restarted workstation would. Averaging over all nodes makes
  // the figure a property of the workload rather than of whichever shard one
  // seed loaded most.
  void CrashAndRecover(Instance& in, Recovery& rec) {
    World& w = *in.world;
    for (int i = 1; i <= w.node_count(); ++i) {
      auto n = static_cast<NodeId>(i);
      rec.log_bytes_retained += w.rm(n).StableLogBytesInUse();
      w.SpawnApp(n, "crash", [&w, n](Application&) { w.CrashNode(n); }, in.horizon);
      Expect(w.Drain() == 0, "Drain() != 0 after a crash");
      SimTime end = in.horizon;
      w.scheduler().Spawn("reboot", n, in.horizon, [&] {
        SimTime v0 = w.scheduler().Now();
        double w0 = WallNow();
        recovery::RecoveryStats stats = w.RecoverNode(n);
        end = w.scheduler().Now();
        rec.wall_s += WallNow() - w0;
        rec.vms += end - v0;
        rec.records_scanned += static_cast<std::uint64_t>(stats.records_scanned);
        ++rec.recoveries;
        spans_->Add(0, "recovery.recover_node", n, v0, end, w0);
      });
      Expect(w.Drain() == 0, "Drain() != 0 after recovery");
      in.horizon = std::max(in.horizon, end);
    }
  }

  void Check(Instance& in, const char* when) {
    std::string why = in.wl->Check(*in.world, &in.horizon);
    Expect(why.empty(), why + " (" + when + ")");
  }

  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      errors_.push_back(what);
    }
  }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<SetupTimes>& setups() const { return setups_; }

  struct HostTotals {
    double committed = 0;
    double cpu_s = 0;
    double wall_s = 0;
  };
  const HostTotals& host_totals() const { return host_; }

 private:
  struct Counters {
    std::uint64_t steps = 0;
    sim::PrimitiveCounts prims;
    double forces = 0;
    double fg = 0;
    double bg = 0;
    std::uint64_t log_bytes = 0;
    std::uint64_t faults = 0;
    int reclaims = 0;
  };

  static Counters Snapshot(World& w) {
    Counters c;
    c.steps = w.scheduler().steps();
    c.prims = w.metrics().Total();
    c.forces = w.metrics().forces_issued();
    c.fg = w.metrics().page_writes_foreground();
    c.bg = w.metrics().page_writes_background();
    for (int i = 1; i <= w.node_count(); ++i) {
      auto n = static_cast<NodeId>(i);
      c.log_bytes += w.node(n).stable_log().size();
      c.reclaims += w.rm(n).auto_reclaim_count();
      if (kernel::RecoverableSegment* seg = w.rm(n).SegmentOf("pages")) {
        c.faults += seg->fault_count();
      }
    }
    return c;
  }

  // One transaction through Application::RunTransactional, timed from
  // `start` (closed loop: its start; open loop: its due time).
  void RunOne(Instance& in, Phase& ph, Application& app, const Op& op, SimTime start,
              bool traced) {
    World& w = *in.world;
    sim::Scheduler& sched = w.scheduler();
    sim::Tracer& tracer = w.substrate().tracer();
    TxnCtx ctx{&w, &ph, spans_, ++next_txn_};
    sim::ComponentTimes a0{};
    if (traced) {
      a0 = tracer.CurrentTaskAttribution();
    }
    double w0 = spans_->on() ? WallNow() : 0;
    SimTime v0 = sched.Now();
    Application::RetryPolicy policy;
    policy.jitter_seed = seed_;
    Application::RunResult r = app.RunTransactional(
        [&](const server::Tx& tx) {
          ctx.body_start = sched.Now();
          Status s = in.wl->Body(tx, op, ctx);
          ctx.body_end = sched.Now();
          ph.lock_timeouts += s == Status::kTimeout ? 1 : 0;
          return s;
        },
        policy);
    SimTime end = sched.Now();
    spans_->Add(ctx.id, "tabs.run_transactional", app.node(), v0, end, w0);
    ++ph.attempted;
    ph.attempts += static_cast<std::uint64_t>(r.attempts);
    ph.end = std::max(ph.end, end);
    if (r.ok()) {
      ++ph.committed;
      ph.latency.push_back(end - start);
      ph.latency_all.push_back(end - start);
      ph.precommit.push_back(ctx.body_end - ctx.body_start);
      (op.kind == Op::kAudit ? ph.ro_commit : ph.commit).push_back(end - ctx.body_end);
      in.wl->Acknowledge(op);
    } else {
      ++ph.failed;
      ph.latency_all.push_back(kFailedLatency);
    }
    if (traced) {
      sim::ComponentTimes a1 = tracer.CurrentTaskAttribution();
      SimTime sum = 0;
      for (int k = 0; k < sim::kComponentCount; ++k) {
        ph.components[k] += a1[k] - a0[k];
        sum += a1[k] - a0[k];
      }
      // An arrival task's clock starts at its due time, so in both loops the
      // components must sum exactly to the latency measured from `start`.
      ph.attribution_mismatches += sum == end - start ? 0 : 1;
    }
  }

  std::string workload_;
  std::uint64_t seed_;
  SpanLog* spans_;
  std::uint64_t next_txn_ = 0;
  std::vector<std::string> errors_;
  std::vector<SetupTimes> setups_;
  HostTotals host_;
};

// ------------------------------------------------------------------ output

std::string Quote(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
  return out;
}

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) { Raw(key, Quote(v)); }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) {
      body_ += ',';
    }
    body_.append("\"").append(key).append("\":").append(json);
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PerTxn(double v, std::uint64_t txns) {
  return txns > 0 ? v / static_cast<double>(txns) : 0;
}

double SpanP(const Phase& ph, const std::string& span, double q) {
  auto it = ph.hist.find("span." + span);
  if (it == ph.hist.end()) {
    return 0;
  }
  return Ms(q < 0.9 ? it->second.p50 : it->second.p99);
}

// One measured ladder rung: its rate and p99 over every attempted
// transaction (failures count as misses).
struct Rung {
  double rate = 0;
  SimTime p99 = 0;
};

// The rate where p99 crosses kSloLimitUs, interpolated linearly between the
// highest passing rung and the lowest failing one (whose p99 is capped, so a
// rung of failures does not pin the answer to the passing rung).
double CrossingRate(const Rung& pass, const Rung& fail) {
  double p0 = Ms(pass.p99);
  double p1 = std::min(Ms(fail.p99), 4 * Ms(kSloLimitUs));
  double f = p1 > p0 ? (Ms(kSloLimitUs) - p0) / (p1 - p0) : 0;
  return pass.rate + (fail.rate - pass.rate) * std::clamp(f, 0.0, 1.0);
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--trace") {
      trace = v == "1";
    } else if (k == "--spans-out") {
      spans_out = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  if (MakeWorkload(workload, seed) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bank-local|sharded-2pc|sharded-paxos|"
                 "paged-recovery --seed N [--trace 0|1] [--spans-out FILE]\n");
    return 2;
  }

  // One malloc arena: only one task thread ever runs, so per-thread arenas
  // buy no concurrency and would make RSS depend on how many pooled threads
  // a phase happened to touch.
  mallopt(M_ARENA_MAX, 1);

  SpanLog spans(trace);
  Round round(workload, seed, &spans);
  JsonObject exact;  // must repeat byte for byte at this seed
  JsonObject host;   // wall-clock; run.py takes medians

  Instance in = round.Build();
  const Shape nominal = in.wl->nominal();
  Phase ph = round.Load(in, nominal, false);
  round.Check(in, "after load");
  if (const Shape tail = in.wl->tail(); tail.clients > 0) {
    World& w = *in.world;
    round.Expect(RunAt(w, 1, &in.horizon, [&w](Application&) { w.ReclaimLog(1); }) == 0,
                 "Drain() != 0 after log reclamation");
    round.Load(in, tail, false);
  }
  Round::Recovery rec;
  round.CrashAndRecover(in, rec);
  round.Check(in, "after crash and recovery");
  const double recoveries = std::max(rec.recoveries, 1);

  const std::uint64_t n = ph.committed;
  exact.Num("attempted", static_cast<double>(ph.attempted));
  exact.Num("committed", static_cast<double>(ph.committed));
  exact.Num("failed", static_cast<double>(ph.failed));
  exact.Num("recovery_vms", Ms(rec.vms) / recoveries);
  // The simulator's host cost as a count: heap allocations per committed
  // transaction of the nominal phase. It repeats exactly at a fixed seed,
  // where its speed on a shared machine does not.
  const double txns = static_cast<double>(std::max<std::uint64_t>(n, 1));
  exact.Num("host_allocs_per_txn", static_cast<double>(ph.allocs.allocs) / txns);

  if (!trace) {
    round.Expect(ph.latency.size() >= 1000, "fewer than 1000 committed samples for p99");
    // In virtual time the median of a closed-loop local workload is one
    // cost-model constant at every seed, so the mean is the central figure
    // that tracks the mix and the queueing; p50 is kept as a detail.
    double sum_ms = 0;
    for (SimTime l : ph.latency) {
      sum_ms += Ms(l);
    }
    exact.Num("txn_mean_vms", ph.latency.empty() ? 0 : sum_ms / ph.latency.size());
    exact.Num("txn_p50_vms", Ms(Quantile(ph.latency, 0.5)));
    exact.Num("txn_p99_vms", Ms(Quantile(ph.latency, 0.99)));
    exact.Num("txn_samples", static_cast<double>(ph.latency.size()));
    if (ph.latency.size() >= 10'000) {
      exact.Num("txn_p999_vms", Ms(Quantile(ph.latency, 0.999)));
    }
    exact.Num("goodput_txn_per_vs", ph.goodput());
    exact.Num("failed_ratio", PerTxn(static_cast<double>(ph.failed), ph.attempted));
    exact.Num("generator_late_vms", Ms(ph.generator_late_us));

    // The ladder: a binary search for the adjacent pair of rungs that
    // brackets the limit, assuming a rung passes whenever a heavier one does.
    // The nominal phase is its own rung; about log2(rungs) others are run.
    const std::vector<Shape> ladder = in.wl->ladder();
    auto measure = [&](int i, Phase& phase) {
      const Shape& shape = ladder[static_cast<std::size_t>(i)];
      Rung rung{shape.open_loop ? shape.rate : phase.goodput(), phase.p99_all()};
      // Open loop, the backlog must also drain within the limit after the
      // arrivals stop.
      bool drained =
          !shape.open_loop || phase.end - (phase.start + phase.window_us) <= kSloLimitUs;
      exact.Num("ladder." + std::to_string(i) + ".rate", rung.rate);
      exact.Num("ladder." + std::to_string(i) + ".p99_vms", Ms(rung.p99));
      return std::make_pair(rung, rung.p99 <= kSloLimitUs && drained);
    };
    auto run_rung = [&](int i) {
      Instance rin = round.Build();
      Phase phase = round.Load(rin, ladder[static_cast<std::size_t>(i)], false);
      return measure(i, phase);
    };
    int nom = 0;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      if (ladder[i].clients == nominal.clients && ladder[i].rate == nominal.rate) {
        nom = static_cast<int>(i);
      }
    }
    auto [nominal_rung, nominal_pass] = measure(nom, ph);
    // Invariant: rung `lo` passes (or lo == -1), rung `hi` fails (or hi ==
    // ladder size).
    int lo = nominal_pass ? nom : -1;
    int hi = nominal_pass ? static_cast<int>(ladder.size()) : nom;
    Rung lo_rung = nominal_rung;
    Rung hi_rung = nominal_rung;
    while (hi - lo > 1) {
      int mid = lo + (hi - lo) / 2;
      auto [rung, ok] = run_rung(mid);
      (ok ? lo : hi) = mid;
      (ok ? lo_rung : hi_rung) = rung;
    }
    double slo = 0;
    if (lo >= 0) {
      slo = hi < static_cast<int>(ladder.size()) ? CrossingRate(lo_rung, hi_rung) : lo_rung.rate;
    }
    round.Expect(slo > 0, "no ladder rung met the latency limit");
    exact.Num("slo_rate_txn_per_vs", slo);
    host.Num("peak_rss_mb", PeakRssMb());
  } else {
    // Per-layer numbers. Counts come from the untraced phase above (tracing
    // never changes the schedule); span percentiles and the attribution from
    // a traced repeat of the same phase on a fresh world.
    auto prim = [&](sim::Primitive p) { return ph.prims.Of(p) / txns; };
    exact.Num("sim.events_per_txn", static_cast<double>(ph.events) / txns);
    exact.Num("host.alloc_bytes_per_txn", static_cast<double>(ph.allocs.bytes) / txns);
    exact.Num("log.forces_per_txn", ph.forces / txns);
    exact.Num("log.stable_pages_per_txn", prim(sim::Primitive::kStableWrite));
    exact.Num("log.bytes_per_txn", static_cast<double>(ph.log_bytes) / txns);
    exact.Num("lock.timeouts_per_txn", static_cast<double>(ph.lock_timeouts) / txns);
    exact.Num("txn.attempts_per_txn", PerTxn(static_cast<double>(ph.attempts), ph.attempted));
    exact.Num("txn.precommit_vms_p50", Ms(Quantile(ph.precommit, 0.5)));
    exact.Num("txn.commit_vms_p50", Ms(Quantile(ph.commit, 0.5)));
    exact.Num("txn.commit_vms_p99", Ms(Quantile(ph.commit, 0.99)));
    exact.Num("txn.readonly_commit_vms_p50", Ms(Quantile(ph.ro_commit, 0.5)));
    exact.Num("comm.session_calls_per_txn", prim(sim::Primitive::kInterNodeDataServerCall));
    exact.Num("comm.datagrams_per_txn", prim(sim::Primitive::kDatagram));
    exact.Num("comm.local_msgs_per_txn", prim(sim::Primitive::kSmallMessage) +
                                             prim(sim::Primitive::kLargeMessage) +
                                             prim(sim::Primitive::kPointerMessage));
    exact.Num("kernel.page_ios_per_txn", prim(sim::Primitive::kRandomPageIo) +
                                             prim(sim::Primitive::kSequentialRead) +
                                             prim(sim::Primitive::kSequentialWrite));
    exact.Num("kernel.faults_per_txn", static_cast<double>(ph.faults) / txns);
    exact.Num("kernel.fg_writebacks_per_txn", ph.fg_writebacks / txns);
    exact.Num("kernel.bg_writebacks_per_txn", ph.bg_writebacks / txns);
    exact.Num("recovery.reclaims_per_ktxn", 1000.0 * ph.reclaims / txns);
    exact.Num("recovery.log_bytes_retained",
              static_cast<double>(rec.log_bytes_retained) / recoveries);
    exact.Num("recovery.records_scanned", static_cast<double>(rec.records_scanned) / recoveries);
    for (int c = 0; c < kCallCount; ++c) {
      std::string base = std::string("servers.") + kCallName[c];
      exact.Num(base + "_vms_p50", Ms(Quantile(ph.calls[c], 0.5)));
      exact.Num(base + "_vms_p99", Ms(Quantile(ph.calls[c], 0.99)));
    }
    exact.Num("name.resolve_vms", Ms(in.setup.resolve_vms));

    // Simulator speed over every untraced load phase of the round, per
    // second of the process's CPU time and of wall time. Pinned to one CPU
    // under strict hand-off the simulator never idles, so on a quiet machine
    // the two agree; CPU time leaves out time another process held the CPU.
    const Round::HostTotals& ht = round.host_totals();
    host.Num("host.txn_per_cpu_s", ht.cpu_s > 0 ? ht.committed / ht.cpu_s : 0);
    host.Num("host.txn_per_wall_s", ht.wall_s > 0 ? ht.committed / ht.wall_s : 0);
    host.Num("sim.events_per_s", ph.wall_s > 0 ? ph.events / ph.wall_s : 0);
    host.Num("sim.sys_cpu_share",
             ph.user_s + ph.sys_s > 0 ? ph.sys_s / (ph.user_s + ph.sys_s) : 0);
    host.Num("sim.os_switches_per_event",
             ph.events > 0 ? ph.switches / static_cast<double>(ph.events) : 0);
    host.Num("sim.drain_wall_s", ph.wall_s);
    host.Num("recovery.recover_wall_ms", rec.wall_s * 1000.0 / recoveries);
    host.Num("name.resolve_wall_ms", in.setup.resolve_s * 1000.0);
    host.Num("tabs.world_ctor_s", in.setup.world_ctor_s);
    host.Num("tabs.install_s", in.setup.install_s);
    host.Num("tabs.seed_s", in.setup.seed_s);

    Instance tin = round.Build();
    Phase tph = round.Load(tin, nominal, true);
    round.Expect(tph.attribution_mismatches == 0,
                 std::to_string(tph.attribution_mismatches) +
                     " transactions whose component times do not sum to their latency");
    round.Expect(tph.committed == ph.committed, "traced run committed a different count");
    const double ttxns = static_cast<double>(std::max<std::uint64_t>(tph.committed, 1));
    const char* comp_name[sim::kComponentCount] = {"tabs.app", "txn",     "recovery", "comm",
                                                   "servers",  "kernel", "log"};
    for (int k = 0; k < sim::kComponentCount; ++k) {
      exact.Num(std::string(comp_name[k]) + ".vms_per_txn",
                Ms(tph.components[k]) / ttxns);
    }
    exact.Num("log.force_vms_p99", SpanP(tph, "log.force", 0.99));
    exact.Num("lock.acquire_vms_p50", SpanP(tph, "lock.acquire", 0.5));
    exact.Num("lock.acquire_vms_p99", SpanP(tph, "lock.acquire", 0.99));
    exact.Num("comm.remote_call_vms_p99", SpanP(tph, "cm.remote-call", 0.99));
    exact.Num("kernel.fault_vms_p99", SpanP(tph, "page.fault", 0.99));
    bool paxos = in.wl->options().commit_mode == txn::CommitMode::kPaxosCommit;
    exact.Num("txn.prepare_vms_p99", SpanP(tph, paxos ? "paxos.accept" : "2pc.prepare", 0.99));
    host.Num("trace.overhead_ratio", ph.wall_s > 0 ? tph.wall_s / ph.wall_s : 0);
    if (!spans_out.empty()) {
      round.Expect(spans.Write(spans_out), "could not write " + spans_out);
    }
  }

  JsonObject setup;
  std::string samples;
  for (const SetupTimes& s : round.setups()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.17g", samples.empty() ? "" : ",", s.total());
    samples += buf;
  }
  JsonObject out;
  out.Str("workload", workload);
  out.Num("seed", static_cast<double>(seed));
  out.Num("trace", trace ? 1 : 0);
  std::string errs;
  for (const std::string& e : round.errors()) {
    if (!errs.empty()) {
      errs += ',';
    }
    errs += Quote(e);
  }
  out.Raw("correct", round.errors().empty() ? "true" : "false");
  out.Raw("errors", "[" + errs + "]");
  out.Raw("exact", exact.str());
  out.Raw("host", host.str());
  out.Raw("setup_s", "[" + samples + "]");
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return round.errors().empty() ? 0 : 1;
}

}  // namespace
}  // namespace tabs::perfbench

int main(int argc, char** argv) { return tabs::perfbench::Main(argc, argv); }
