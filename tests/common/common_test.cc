// Unit tests for the common layer: identifiers, Result<T>, the byte
// serialization the log and messages are built on, and the node recycler of
// the per-transaction tables.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/node_recycler.h"
#include "src/common/result.h"
#include "src/common/types.h"

namespace tabs {
namespace {

TEST(TypesTest, NullTransactionIdentity) {
  EXPECT_TRUE(kNullTransaction.IsNull());
  TransactionId t{1, 1};
  EXPECT_FALSE(t.IsNull());
  EXPECT_NE(t, kNullTransaction);
}

TEST(TypesTest, ObjectIdPageArithmetic) {
  ObjectId within{1, 100, 50};
  EXPECT_EQ(within.FirstPage(), 0u);
  EXPECT_EQ(within.LastPage(), 0u);
  ObjectId spanning{1, 500, 50};
  EXPECT_EQ(spanning.FirstPage(), 0u);
  EXPECT_EQ(spanning.LastPage(), 1u);
  ObjectId exact_end{1, kPageSize - 4, 4};
  EXPECT_EQ(exact_end.LastPage(), 0u);
  ObjectId next_page{1, kPageSize, 4};
  EXPECT_EQ(next_page.FirstPage(), 1u);
}

TEST(TypesTest, OrderingAndHashing) {
  TransactionId a{1, 5};
  TransactionId b{1, 6};
  TransactionId c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_NE(std::hash<TransactionId>()(a), std::hash<TransactionId>()(b));
  EXPECT_EQ(std::hash<TransactionId>()(a), std::hash<TransactionId>()(TransactionId{1, 5}));
}

TEST(TypesTest, ToStringFormats) {
  EXPECT_EQ(ToString(TransactionId{3, 9}), "T(3.9)");
  EXPECT_EQ(ToString(kNullTransaction), "T(null)");
  EXPECT_EQ(ToString(ObjectId{2, 64, 8}), "obj(2:64+8)");
  EXPECT_EQ(ToString(PageId{2, 7}), "page(2:7)");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.status(), Status::kOk);
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.value_or(-1), 42);

  Result<int> err(Status::kNotFound);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status(), Status::kNotFound);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, StatusNamesCoverEveryCode) {
  for (Status s : {Status::kOk, Status::kAborted, Status::kTimeout, Status::kNotFound,
                   Status::kOutOfRange, Status::kNodeDown, Status::kMessageLost,
                   Status::kVoteNo, Status::kConflict, Status::kNoQuorum, Status::kInternal}) {
    EXPECT_STRNE(StatusName(s), "UNKNOWN");
  }
}

TEST(BytesTest, ScalarRoundTrip) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, StringBlobTidOidRoundTrip) {
  ByteWriter w;
  w.Str("hello");
  w.Blob(Bytes{1, 2, 3});
  w.Tid({7, 99});
  w.Oid({2, 1024, 16});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.Tid(), (TransactionId{7, 99}));
  EXPECT_EQ(r.Oid(), (ObjectId{2, 1024, 16}));
  EXPECT_TRUE(r.ok());
}

TEST(BytesTest, EmptyStringAndBlob) {
  ByteWriter w;
  w.Str("");
  w.Blob({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.Blob().empty());
  EXPECT_TRUE(r.ok());
}

TEST(BytesTest, TruncatedInputFailsClosed) {
  ByteWriter w;
  w.U64(1);
  Bytes data = w.Take();
  data.resize(4);
  ByteReader r(data);
  r.U64();
  EXPECT_FALSE(r.ok());
  // Further reads stay failed and return zero values, never crash.
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, OversizedLengthPrefixFailsClosed) {
  ByteWriter w;
  w.U32(1'000'000);  // claims a huge string follows
  ByteReader r(w.bytes());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

using Lists = std::map<int, std::vector<int>>;

TEST(NodeRecyclerTest, GetRefillsAKeptNodeWithAnEmptyValueThatKeepsItsCapacity) {
  Lists table;
  NodeRecycler<Lists> recycler;
  std::vector<int>& first = recycler.Get(table, 1)->second;
  first.assign({1, 2, 3});
  const int* buffer = first.data();
  recycler.Keep(table.extract(1));
  auto it = recycler.Get(table, 2);
  EXPECT_EQ(it->first, 2);
  EXPECT_EQ(&it->second, &first);  // the same node, under its new key
  EXPECT_TRUE(it->second.empty());
  EXPECT_EQ(it->second.capacity(), 3u);
  EXPECT_EQ(it->second.data(), buffer);
  EXPECT_EQ(table.size(), 1u);
}

TEST(NodeRecyclerTest, StaleReferenceIntoAKeptNodeReports) {
  if (!NodeRecycler<Lists>::kPoisonsSpares) {
    GTEST_SKIP() << "kept nodes are poisoned only under AddressSanitizer";
  }
  Lists table;
  NodeRecycler<Lists> recycler;
  std::vector<int>& stale = recycler.Get(table, 1)->second;
  stale.push_back(1);
  recycler.Keep(table.extract(1));
  EXPECT_DEATH(
      {
        volatile std::size_t size = stale.size();
        (void)size;
      },
      "use-after-poison");
  recycler.Get(table, 2);  // a reused node reads as usual
  EXPECT_TRUE(stale.empty());
}

}  // namespace
}  // namespace tabs
