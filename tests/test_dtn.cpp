// Tests for DTN message management: Store/Cache custody semantics, the
// paper's eviction policy (cache dropped first, FIFO within area), peak
// tracking and the location table's freshest-wins rule.

#include <gtest/gtest.h>

#include "dtn/buffer.hpp"
#include "dtn/location_table.hpp"
#include "dtn/message.hpp"

namespace {

using glr::dtn::CopyKey;
using glr::dtn::LocationTable;
using glr::dtn::Message;
using glr::dtn::MessageBuffer;
using glr::dtn::MessageId;
using glr::dtn::TreeFlag;

Message makeMsg(int src, int seq, TreeFlag flag = TreeFlag::kNone) {
  Message m;
  m.id = {src, seq};
  m.srcNode = src;
  m.dstNode = 99;
  m.flag = flag;
  return m;
}

TEST(Buffer, AddAndContains) {
  MessageBuffer b;
  EXPECT_TRUE(b.addToStore(makeMsg(1, 1)));
  EXPECT_TRUE(b.inStore(makeMsg(1, 1).key()));
  EXPECT_FALSE(b.inCache(makeMsg(1, 1).key()));
  EXPECT_EQ(b.storeSize(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Buffer, DuplicateCopyRejected) {
  MessageBuffer b;
  EXPECT_TRUE(b.addToStore(makeMsg(1, 1, TreeFlag::kMax)));
  EXPECT_FALSE(b.addToStore(makeMsg(1, 1, TreeFlag::kMax)));
  // Different branch of the same message is a distinct copy.
  EXPECT_TRUE(b.addToStore(makeMsg(1, 1, TreeFlag::kMin)));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(b.containsAnyBranch({1, 1}));
}

TEST(Buffer, CustodyRoundTrip) {
  MessageBuffer b;
  const CopyKey k = makeMsg(1, 1, TreeFlag::kMax).key();
  b.addToStore(makeMsg(1, 1, TreeFlag::kMax));

  EXPECT_TRUE(b.moveToCache(k, /*nextHop=*/5, /*now=*/10.0));
  EXPECT_FALSE(b.inStore(k));
  EXPECT_TRUE(b.inCache(k));
  EXPECT_EQ(b.size(), 1u);  // custody copy still occupies storage

  const auto removed = b.removeFromCache(k);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, (MessageId{1, 1}));
  EXPECT_EQ(b.size(), 0u);
}

TEST(Buffer, ReturnToStoreOnTimeout) {
  MessageBuffer b;
  const CopyKey k = makeMsg(1, 1).key();
  b.addToStore(makeMsg(1, 1));
  b.moveToCache(k, 5, 10.0);
  EXPECT_TRUE(b.returnToStore(k));
  EXPECT_TRUE(b.inStore(k));
  EXPECT_FALSE(b.inCache(k));
  // Second return is a no-op.
  EXPECT_FALSE(b.returnToStore(k));
}

TEST(Buffer, MoveMissingFails) {
  MessageBuffer b;
  EXPECT_FALSE(b.moveToCache(makeMsg(9, 9).key(), 1, 0.0));
  EXPECT_FALSE(b.removeFromCache(makeMsg(9, 9).key()).has_value());
  EXPECT_FALSE(b.erase(makeMsg(9, 9).key()));
}

TEST(Buffer, CachedSentBefore) {
  MessageBuffer b;
  b.addToStore(makeMsg(1, 1));
  b.addToStore(makeMsg(1, 2));
  b.moveToCache(makeMsg(1, 1).key(), 5, 10.0);
  b.moveToCache(makeMsg(1, 2).key(), 5, 20.0);
  const auto old = b.cachedSentBefore(15.0);
  ASSERT_EQ(old.size(), 1u);
  EXPECT_EQ(old[0].id, (MessageId{1, 1}));
}

TEST(Buffer, EvictionDropsCacheFirstThenFifoStore) {
  MessageBuffer b{3};
  b.addToStore(makeMsg(1, 1));
  b.addToStore(makeMsg(1, 2));
  b.addToStore(makeMsg(1, 3));
  b.moveToCache(makeMsg(1, 2).key(), 7, 1.0);

  // Buffer full (3): adding a 4th drops the cached copy first.
  EXPECT_TRUE(b.addToStore(makeMsg(1, 4)));
  EXPECT_FALSE(b.containsAnyBranch({1, 2}));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.dropCount(), 1u);

  // No cache left: next eviction takes the oldest store entry (1,1).
  EXPECT_TRUE(b.addToStore(makeMsg(1, 5)));
  EXPECT_FALSE(b.containsAnyBranch({1, 1}));
  EXPECT_TRUE(b.containsAnyBranch({1, 3}));
  EXPECT_EQ(b.dropCount(), 2u);
}

TEST(Buffer, ZeroCapacityRejects) {
  MessageBuffer b{0};
  EXPECT_FALSE(b.addToStore(makeMsg(1, 1)));
  EXPECT_EQ(b.size(), 0u);
}

TEST(Buffer, PeakTracksHighWaterMark) {
  MessageBuffer b;
  for (int i = 0; i < 5; ++i) b.addToStore(makeMsg(1, i));
  EXPECT_EQ(b.peakSize(), 5u);
  b.erase(makeMsg(1, 0).key());
  b.erase(makeMsg(1, 1).key());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.peakSize(), 5u);  // peak is sticky
  for (int i = 5; i < 12; ++i) b.addToStore(makeMsg(1, i));
  EXPECT_EQ(b.peakSize(), 10u);
}

TEST(Buffer, StoreKeysFifoOrder) {
  MessageBuffer b;
  b.addToStore(makeMsg(1, 3));
  b.addToStore(makeMsg(1, 1));
  b.addToStore(makeMsg(1, 2));
  std::vector<CopyKey> keys{makeMsg(9, 9).key()};  // cleared first
  b.storeKeys(keys);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].id.seq, 3);
  EXPECT_EQ(keys[1].id.seq, 1);
  EXPECT_EQ(keys[2].id.seq, 2);
}

TEST(Buffer, FindInStoreAllowsHeaderUpdates) {
  MessageBuffer b;
  b.addToStore(makeMsg(1, 1));
  Message* m = b.findInStore(makeMsg(1, 1).key());
  ASSERT_NE(m, nullptr);
  m->destLoc = {42.0, 7.0};
  m->destLocKnown = true;
  EXPECT_EQ(b.findInStore(makeMsg(1, 1).key())->destLoc.x, 42.0);
  EXPECT_EQ(b.findInStore(makeMsg(9, 9).key()), nullptr);
}

TEST(LocationTable, FreshestWins) {
  LocationTable t;
  EXPECT_TRUE(t.update(1, {0, 0}, 10.0));
  EXPECT_FALSE(t.update(1, {5, 5}, 5.0));  // stale: rejected
  EXPECT_EQ(t.lookup(1)->pos.x, 0.0);
  EXPECT_TRUE(t.update(1, {9, 9}, 20.0));
  EXPECT_EQ(t.lookup(1)->pos.x, 9.0);
  EXPECT_EQ(t.lookup(1)->at, 20.0);
}

TEST(LocationTable, MissingLookup) {
  LocationTable t;
  EXPECT_FALSE(t.lookup(7).has_value());
  EXPECT_EQ(t.size(), 0u);
}

TEST(CopyKey, OrderingAndHash) {
  const CopyKey a{{1, 1}, TreeFlag::kMax};
  const CopyKey b{{1, 1}, TreeFlag::kMin};
  const CopyKey c{{1, 2}, TreeFlag::kMax};
  EXPECT_NE(a, b);
  EXPECT_LT(a.id, c.id);
  EXPECT_NE(std::hash<CopyKey>{}(a), std::hash<CopyKey>{}(b));
}

}  // namespace
