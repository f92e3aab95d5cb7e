// The fault-point census: every distinct fault point a fault-free workload
// reaches, in first-hit order, with its hit count per node. The census is
// checked against a committed golden, so a change that adds, drops or moves a
// hit on the explored surface shows up as a diff. The golden's directory
// (TABS_CENSUS_GOLDEN_DIR) and where a mismatching census is written
// (TABS_CENSUS_OUT_DIR) come from compile definitions in tests/CMakeLists.txt.

#ifndef TABS_TESTS_INTEGRATION_FAULT_CENSUS_H_
#define TABS_TESTS_INTEGRATION_FAULT_CENSUS_H_

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/fault_injector.h"
#include "src/txn/paxos_commit.h"

namespace tabs {

// One seed's block: "seed N", then one line per point, "<point> <node>:<hits> ...".
inline std::string RenderCensus(unsigned seed,
                                const std::vector<sim::FaultInjector::PointHit>& hits) {
  std::vector<std::string> order;
  std::map<std::string, std::map<NodeId, int>> per_node;
  for (const auto& h : hits) {
    auto [it, first] = per_node.try_emplace(h.point);
    if (first) {
      order.push_back(h.point);
    }
    ++it->second[h.node];
  }
  std::ostringstream out;
  out << "seed " << seed << "\n";
  for (const std::string& point : order) {
    out << point;
    for (const auto& [node, count] : per_node[point]) {
      out << " " << node << ":" << count;
    }
    out << "\n";
  }
  return out.str();
}

// Compares `census` with tests/golden/<name>.txt, or <name>.paxos.txt when
// this run's commit mode is Paxos Commit.
inline void ExpectCensusMatchesGolden(const std::string& census, const std::string& name) {
  const std::string file =
      name + (txn::DefaultCommitMode() == txn::CommitMode::kPaxosCommit ? ".paxos.txt" : ".txt");
  const std::string golden_path = std::string(TABS_CENSUS_GOLDEN_DIR) + "/" + file;
  std::stringstream golden;
  golden << std::ifstream(golden_path).rdbuf();
  if (census == golden.str()) {
    return;
  }
  const std::string actual_path = std::string(TABS_CENSUS_OUT_DIR) + "/" + file;
  std::ofstream(actual_path) << census;
  ADD_FAILURE() << "fault-point census differs from the golden; compare with\n  diff "
                << golden_path << " " << actual_path;
}

}  // namespace tabs

#endif  // TABS_TESTS_INTEGRATION_FAULT_CENSUS_H_
