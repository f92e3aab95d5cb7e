// Table 5-4: benchmark times.
//
// For each of the fourteen benchmarks, prints:
//   * the paper's System Time Predicted by Primitives and Measured Elapsed
//     Time (Perq T2),
//   * our predicted-by-primitives (the weighted sum of Section 5.1 over our
//     measured counts) and measured elapsed virtual time,
//   * the Improved-TABS-Architecture projection (TM/RM merged into the
//     kernel, optimized commit) under baseline primitive times,
//   * the New-Primitive-Times projection (improved architecture + Table 5-5
//     achievable primitives).
// Ends with the Section 5.2 reconciliation numbers and the Section 7
// narrative scenarios.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "bench/bench_json.h"
#include "bench/workloads.h"
#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs::bench {
namespace {

// TABS_TRACE=1 turns on the performance monitor's extra output: the
// Section 5.2 per-component latency decomposition of every benchmark and a
// Chrome-trace (chrome://tracing / Perfetto) export of the timeline demo.
// Off by default so the regenerated paper table stays byte-stable.
bool TraceEnabled() {
  const char* e = std::getenv("TABS_TRACE");
  return e != nullptr && e[0] == '1';
}

struct PaperRow {
  double predicted_ms, measured_ms, improved_ms, new_primitives_ms;
};

const std::map<std::string, PaperRow> kPaperRows = {
    {"1 Local Read, No Paging", {53, 110, 107, 67}},
    {"5 Local Read, No Paging", {157, 217, 213, 80}},
    {"1 Local Read, Seq. Paging", {71, 126, 123, 75}},
    {"1 Local Read, Random Paging", {81, 140, 137, 98}},
    {"1 Local Write, No Paging", {156, 247, 228, 136}},
    {"5 Local Write, No Paging", {302, 467, 424, 225}},
    {"1 Local Write, Seq. Paging", {232, 371, 345, 249}},
    {"1 Lcl Rd, 1 Rem Rd, No Paging", {306, 469, 459, 228}},
    {"1 Lcl Rd, 5 Rem Rd, No Paging", {662, 829, 819, 268}},
    {"1 Lcl Rd, 1 Rem Rd, Seq. Paging", {341, 514, 504, 257}},
    {"1 Lcl Wr, 1 Rem Wr, No Paging", {697, 989, 775, 442}},
    {"1 Lcl Wr, 1 Rem Wr, Seq. Paging", {864, 1125, 873, 539}},
    {"1 Lcl Rd, 1 Rem Rd, 1 Rem Rd, NP", {416, 621, 611, 282}},
    {"1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP", {831, 1200, 968, 534}},
};

struct MainRow {
  BenchmarkDef def;
  BenchResult base, improved, achievable;
};

std::vector<MainRow> RunMainTable() {
  std::vector<MainRow> rows;
  std::printf("Table 5-4: Benchmark Times (milliseconds)\n");
  std::printf("%-34s | %-13s | %-13s | %-13s | %-13s\n", "Benchmark", "predicted",
              "measured", "improved arch", "new primitives");
  std::printf("%-34s | %-13s | %-13s | %-13s | %-13s\n", "", "paper/ours", "paper/ours",
              "paper/ours", "paper/ours");
  std::printf("%.110s\n",
              "--------------------------------------------------------------------------------"
              "------------------------------");

  for (const BenchmarkDef& def : PaperBenchmarks()) {
    BenchResult base = RunBenchmark(def, sim::CostModel::Baseline(),
                                    sim::ArchitectureModel::Prototype());
    BenchResult improved = RunBenchmark(def, sim::CostModel::Baseline(),
                                        sim::ArchitectureModel::Improved());
    BenchResult achievable = RunBenchmark(def, sim::CostModel::Achievable(),
                                          sim::ArchitectureModel::Improved());
    const PaperRow& p = kPaperRows.at(def.name);
    auto cell = [](double paper_ms, SimTime ours_us) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.0f/%.0f", paper_ms,
                    static_cast<double>(ours_us) / 1000.0);
      return std::string(buf);
    };
    std::printf("%-34s | %-13s | %-13s | %-13s | %-13s\n", def.name.c_str(),
                cell(p.predicted_ms, base.predicted_us).c_str(),
                cell(p.measured_ms, base.elapsed_us).c_str(),
                cell(p.improved_ms, improved.elapsed_us).c_str(),
                cell(p.new_primitives_ms, achievable.elapsed_us).c_str());
    rows.push_back({def, std::move(base), std::move(improved), std::move(achievable)});
  }
  std::printf(
      "\nOur substrate charges exactly the primitive-operation times, so our measured\n"
      "column tracks the paper's *predicted* column (the paper's measured column adds\n"
      "TABS process CPU time that its prediction did not model). Shape checks: writes\n"
      "cost more than reads (stable-storage force), remote ops add ~100ms+ each,\n"
      "2-node writes roughly double 2-node reads, the improved architecture mainly\n"
      "helps distributed writes (phase two leaves the critical path), and achievable\n"
      "primitives give the paper's ~4-10x headroom claim.\n");
  return rows;
}

// TABS_TRACE=1: the monitor's Section 5.2 view of every benchmark — where
// the measured window's virtual time was spent, by component. The component
// rows sum exactly (to the microsecond) to the end-to-end elapsed time; any
// residual would mean the attribution lost track of a clock advance.
void RunDecomposition(const std::vector<MainRow>& rows) {
  std::printf("\nSection 5.2 latency decomposition (performance monitor, baseline runs)\n");
  for (const MainRow& row : rows) {
    SimTime sum = 0;
    for (int c = 0; c < sim::kComponentCount; ++c) {
      sum += row.base.component_us[c];
    }
    std::printf("%s (%d txns, %s ms total)%s\n", row.def.name.c_str(), row.base.iterations,
                FormatMs(row.base.elapsed_total_us).c_str(),
                sum == row.base.elapsed_total_us ? "" : "  ** RESIDUAL — ATTRIBUTION BUG **");
    std::printf("%s", sim::FormatDecomposition(row.base.component_us).c_str());
  }
}

// Machine-readable results for the CI bench-regression gate: per-benchmark
// primitive counts, elapsed times, and the monitor's component breakdown.
// Written silently — the regenerated paper table's stdout stays byte-stable.
void WriteJson(const std::vector<MainRow>& rows) {
  JsonWriter json;
  json.BeginObject();
  json.String("bench", "table5_4");
  json.BeginArray("rows");
  for (const MainRow& row : rows) {
    json.BeginObject();
    json.String("name", row.def.name);
    json.Number("predicted_us", static_cast<std::uint64_t>(row.base.predicted_us));
    json.Number("elapsed_us", static_cast<std::uint64_t>(row.base.elapsed_us));
    json.Number("improved_elapsed_us", static_cast<std::uint64_t>(row.improved.elapsed_us));
    json.Number("achievable_elapsed_us",
                static_cast<std::uint64_t>(row.achievable.elapsed_us));
    json.Number("iterations", row.base.iterations);
    json.Number("elapsed_total_us", static_cast<std::uint64_t>(row.base.elapsed_total_us));
    json.BeginObject("components_us");
    for (int c = 0; c < sim::kComponentCount; ++c) {
      json.Number(sim::ComponentName(static_cast<sim::Component>(c)),
                  static_cast<std::uint64_t>(row.base.component_us[c]));
    }
    json.EndObject();
    for (const char* bucket : {"precommit", "commit"}) {
      const sim::PrimitiveCounts& counts =
          bucket[0] == 'p' ? row.base.precommit : row.base.commit;
      json.BeginObject(bucket);
      for (int i = 0; i < sim::kPrimitiveCount; ++i) {
        json.Number(sim::PrimitiveName(static_cast<sim::Primitive>(i)), counts.count[i]);
      }
      json.EndObject();
    }
    json.BeginObject("histograms");
    for (const auto& [name, stats] : row.base.histograms) {
      json.BeginObject(name.c_str());
      json.Number("count", stats.count);
      json.Number("total_us", static_cast<std::uint64_t>(stats.total));
      json.Number("min_us", static_cast<std::uint64_t>(stats.min));
      json.Number("max_us", static_cast<std::uint64_t>(stats.max));
      json.Number("p50_us", static_cast<std::uint64_t>(stats.p50));
      json.Number("p90_us", static_cast<std::uint64_t>(stats.p90));
      json.Number("p99_us", static_cast<std::uint64_t>(stats.p99));
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.WriteFile("BENCH_table5_4.json");
}

void RunReconciliation() {
  std::printf("\nSection 5.2 reconciliation (paper -> ours)\n");
  BenchmarkDef read_def{"read", 1, false, Paging::kNone, 1, 0, 0};
  BenchmarkDef write_def{"write", 1, true, Paging::kNone, 1, 0, 0};
  BenchResult r = RunBenchmark(read_def, sim::CostModel::Baseline(),
                               sim::ArchitectureModel::Prototype());
  BenchResult w = RunBenchmark(write_def, sim::CostModel::Baseline(),
                               sim::ArchitectureModel::Prototype());
  std::printf("  local read elapsed:        paper 110 ms -> ours %s ms\n",
              FormatMs(r.elapsed_us).c_str());
  std::printf("  read -> write delta:       paper 137 ms -> ours %s ms\n",
              FormatMs(w.elapsed_us - r.elapsed_us).c_str());
  std::printf("  ...of which stable write:  paper  78 ms -> ours %s ms\n",
              FormatMs(static_cast<SimTime>(
                  (w.commit.Of(sim::Primitive::kStableWrite) -
                   r.commit.Of(sim::Primitive::kStableWrite)) *
                  static_cast<double>(
                      sim::CostModel::Baseline().Of(sim::Primitive::kStableWrite))))
                  .c_str());
  std::printf("  TABS process time (elapsed - predicted, read): paper 41+16 ms -> ours %s ms\n",
              FormatMs(r.elapsed_us - r.predicted_us).c_str());
  std::printf("  (the paper attributes 41 ms to TM+RM, ~7 ms to app/server startup and\n");
  std::printf("  commit, and 9 ms its analysis 'does not account for'; our process-CPU\n");
  std::printf("  model charges exactly that sum). The paper's 4%%/10%% two-node\n");
  std::printf("  reconciliation gap came from double-counted Communication Manager CPU,\n");
  std::printf("  which the virtual-time substrate does not double count.\n");
}

// Where the milliseconds go: the distributed performance monitor's timeline
// for one two-node write — the instrument behind the paper's Section 5.2
// decomposition ("36 msec in the Transaction Manager, 5 msec in the
// Recovery Manager...").
void RunTimelineDemo() {
  std::printf("\nPrimitive timeline of one 2-node write transaction (monitor output)\n");
  // The paper's protocol, whatever TABS_COMMIT_MODE says: the timeline is
  // part of the table's byte-stable output.
  WorldOptions options;
  options.commit_mode = txn::CommitMode::kTwoPhase;
  World world(2, options);
  auto* local = world.AddServerOf<servers::ArrayServer>(1, "l", 16u);
  auto* remote = world.AddServerOf<servers::ArrayServer>(2, "r", 16u);
  world.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {  // warm-up
      local->SetCell(tx, 0, 1);
      remote->SetCell(tx, 0, 1);
      return Status::kOk;
    });
    world.substrate().tracer().Enable(true);
    app.Transaction([&](const server::Tx& tx) {
      local->SetCell(tx, 0, 2);
      remote->SetCell(tx, 0, 2);
      return Status::kOk;
    });
  });
  std::printf("%s", world.substrate().tracer().Timeline().c_str());
  if (TraceEnabled()) {
    // Chrome-trace export of the same transaction: open in Perfetto or
    // chrome://tracing. One track per (node, component); the nested slices
    // are the monitor's spans.
    std::FILE* f = std::fopen("TRACE_table5_4_2node_write.json", "w");
    if (f != nullptr) {
      std::string trace = world.substrate().tracer().ChromeTraceJson();
      std::fwrite(trace.data(), 1, trace.size(), f);
      std::fclose(f);
      std::printf("wrote TRACE_table5_4_2node_write.json\n");
    }
  }
}

void RunSection7Scenarios() {
  std::printf("\nSection 7 narrative scenarios\n");
  // "about two seconds ... for a local transaction that invokes five
  // operations, each of which updates two pages that are not in memory."
  {
    WorldOptions options;
    World world(1, options);
    auto* arr = world.AddServerOf<servers::ArrayServer>(1, "arr", 5000u * 128u, 64u);
    SimTime elapsed = 0;
    world.RunApp(1, [&](Application& app) {
      std::uint32_t page = 0;
      app.Transaction([&](const server::Tx& tx) {  // warmup
        arr->SetCell(tx, (page++) * 128, 1);
        return Status::kOk;
      });
      SimTime t0 = world.scheduler().Now();
      app.Transaction([&](const server::Tx& tx) {
        for (int op = 0; op < 5; ++op) {
          // Each operation touches two non-resident pages (random faults).
          arr->SetCell(tx, (1000 + page * 7 + op * 2) * 128, op);
          arr->SetCell(tx, (3000 + page * 11 + op * 2 + 1) * 128, op);
        }
        return Status::kOk;
      });
      elapsed = world.scheduler().Now() - t0;
    });
    std::printf("  5 ops x 2 non-resident pages: paper ~2000 ms -> ours %s ms\n",
                FormatMs(elapsed).c_str());
  }
  {
    WorldOptions options;
    World world(1, options);
    auto* arr = world.AddServerOf<servers::ArrayServer>(1, "arr", 2048u);
    SimTime elapsed = 0;
    world.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        arr->SetCell(tx, 0, 1);
        return Status::kOk;
      });
      SimTime t0 = world.scheduler().Now();
      app.Transaction([&](const server::Tx& tx) {
        for (int op = 0; op < 10; ++op) {
          arr->SetCell(tx, static_cast<std::uint32_t>(op), op);
        }
        return Status::kOk;
      });
      elapsed = world.scheduler().Now() - t0;
    });
    std::printf("  same transaction, data resident: paper ~500 ms -> ours %s ms\n",
                FormatMs(elapsed).c_str());
  }
}

}  // namespace
}  // namespace tabs::bench

int main() {
  auto rows = tabs::bench::RunMainTable();
  tabs::bench::RunReconciliation();
  tabs::bench::RunTimelineDemo();
  tabs::bench::RunSection7Scenarios();
  if (tabs::bench::TraceEnabled()) {
    tabs::bench::RunDecomposition(rows);
  }
  tabs::bench::WriteJson(rows);
  return 0;
}
