// Votes count once per sender. The datagram layer may deliver any message
// twice (Network::SetDatagramFaults), so a participant's repeated Yes must
// never fill the slot of another participant's lost vote, and a repeated
// phase-1 ballot must not look like a second acceptor's rejection. A repeated
// prepare is no second vote either: the participant prepares once and writes
// one prepare record. The tests leave the commit mode to TABS_COMMIT_MODE, so
// they run under 2PC and under Paxos Commit (where the lost vote forces a
// takeover through the acceptors).

#include <gtest/gtest.h>

#include <string>

#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

TEST(DuplicateVoteTest, RepeatedVoteCannotStandInForALostOne) {
  World world(3);
  world.AddServerOf<ArrayServer>(1, "a1", 4u);
  world.AddServerOf<ArrayServer>(2, "a2", 4u);
  world.AddServerOf<ArrayServer>(3, "a3", 4u);

  Status end = Status::kOk;
  world.RunApp(1, [&](Application& app) {
    TransactionId t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    EXPECT_EQ(world.Server<ArrayServer>(2, "a2")->SetCell(tx, 0, 7), Status::kOk);
    EXPECT_EQ(world.Server<ArrayServer>(3, "a3")->SetCell(tx, 0, 9), Status::kOk);
    // Node 3's branch aborts before the prepare arrives: its server crashes
    // and comes back, so node 3 votes No (Aborted) on the rolled-back write.
    world.CrashServer(3, "a3");
    world.RecoverServer(3, "a3");
    // That vote is lost, and every other datagram arrives twice.
    world.network().SetDatagramLoss([](NodeId from, NodeId, const std::string& what) {
      return from == 3 && (what == "2pc-vote" || what == "paxos-vote");
    });
    comm::Network::DatagramFaults faults;
    faults.seed = 1;
    faults.duplicate_probability = 1;
    world.network().SetDatagramFaults(faults);
    end = app.End(t);
  });
  EXPECT_NE(end, Status::kOk);

  world.network().SetDatagramFaults({});
  world.network().SetDatagramLoss(nullptr);
  world.RunApp(1, [&](Application& app) {
    Status s = app.Transaction([&](const server::Tx& tx) {
      for (NodeId n : {2, 3}) {
        Result<std::int32_t> cell =
            world.Server<ArrayServer>(n, "a" + std::to_string(n))->GetCell(tx, 0);
        EXPECT_TRUE(cell.ok()) << "node " << n << " cell unreadable";
        if (cell.ok()) {
          EXPECT_EQ(cell.value(), 0) << "node " << n << " kept an uncommitted write";
        }
      }
      return Status::kOk;
    });
    EXPECT_EQ(s, Status::kOk);
  });
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_TRUE(world.tm(n).InDoubt().empty()) << "node " << n << " is still in doubt";
  }
}

TEST(DuplicateVoteTest, RepeatedPrepareWritesOnePrepareRecord) {
  World world(3);
  world.AddServerOf<ArrayServer>(1, "a1", 4u);
  world.AddServerOf<ArrayServer>(2, "a2", 4u);
  world.AddServerOf<ArrayServer>(3, "a3", 4u);

  TransactionId t;
  Status end = Status::kInternal;
  world.RunApp(1, [&](Application& app) {
    t = app.Begin();
    server::Tx tx = app.MakeTx(t);
    EXPECT_EQ(world.Server<ArrayServer>(2, "a2")->SetCell(tx, 0, 7), Status::kOk);
    EXPECT_EQ(world.Server<ArrayServer>(3, "a3")->SetCell(tx, 0, 9), Status::kOk);
    // Every datagram of the commit arrives twice, the prepares included.
    comm::Network::DatagramFaults faults;
    faults.seed = 1;
    faults.duplicate_probability = 1;
    world.network().SetDatagramFaults(faults);
    end = app.End(t);
  });
  world.network().SetDatagramFaults({});
  EXPECT_EQ(end, Status::kOk);

  for (NodeId n : {2, 3}) {
    // The repeated prepare found the entry prepared: no second record.
    log::LogManager& log = world.rm(n).log();
    int prepares = 0;
    for (Lsn lsn = log.first_lsn(); lsn != kNullLsn; lsn = log.NextLsn(lsn)) {
      auto rec = log.ReadRecord(lsn);
      prepares += rec.has_value() && rec->type == log::RecordType::kTxnPrepare && rec->top == t;
    }
    EXPECT_EQ(prepares, 1) << "node " << n;
    EXPECT_TRUE(world.tm(n).InDoubt().empty()) << "node " << n << " is still in doubt";
  }
  world.RunApp(1, [&](Application& app) {
    EXPECT_EQ(app.Transaction([&](const server::Tx& tx) {
      for (NodeId n : {2, 3}) {
        Result<std::int32_t> cell =
            world.Server<ArrayServer>(n, "a" + std::to_string(n))->GetCell(tx, 0);
        EXPECT_TRUE(cell.ok()) << "node " << n << " cell unreadable";
        if (cell.ok()) {
          EXPECT_EQ(cell.value(), n == 2 ? 7 : 9) << "node " << n;
        }
      }
      return Status::kOk;
    }),
              Status::kOk);
  });
}

}  // namespace
}  // namespace tabs
