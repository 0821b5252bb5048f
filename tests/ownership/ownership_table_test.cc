#include "src/ownership/ownership_table.h"

#include <atomic>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

namespace skadi {
namespace {

class OwnershipTableTest : public ::testing::Test {
 protected:
  OwnershipTableTest() : owner_(NodeId::Next()), table_(owner_) {}

  ObjectId Register() {
    ObjectId id = ObjectId::Next();
    EXPECT_TRUE(table_.RegisterObject(id, TaskId::Next()).ok());
    return id;
  }

  NodeId owner_;
  OwnershipTable table_;
};

TEST_F(OwnershipTableTest, RegisterStartsPending) {
  ObjectId id = Register();
  auto reply = table_.Resolve(id);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->state, ObjectState::kPending);
  EXPECT_FALSE(reply->location.has_value());
}

TEST_F(OwnershipTableTest, DuplicateRegisterFails) {
  ObjectId id = Register();
  EXPECT_EQ(table_.RegisterObject(id, TaskId::Next()).code(), StatusCode::kAlreadyExists);
}

TEST_F(OwnershipTableTest, MarkReadyRecordsLocationAndDevice) {
  ObjectId id = Register();
  NodeId loc = NodeId::Next();
  DeviceId dev = DeviceId::Next();
  auto consumers = table_.MarkReady(id, loc, 512, dev, 0xBEEF);
  ASSERT_TRUE(consumers.ok());
  EXPECT_TRUE(consumers->empty());

  auto reply = table_.Resolve(id);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->state, ObjectState::kReady);
  EXPECT_EQ(*reply->location, loc);
  EXPECT_EQ(reply->size_bytes, 512);
  EXPECT_EQ(reply->device, dev);
  EXPECT_EQ(reply->device_handle, 0xBEEFu);
}

TEST_F(OwnershipTableTest, ResolveUnknownFails) {
  EXPECT_EQ(table_.Resolve(ObjectId::Next()).status().code(), StatusCode::kNotFound);
}

TEST_F(OwnershipTableTest, ConsumersRegisteredWhilePendingReturnedOnReady) {
  ObjectId id = Register();
  ConsumerRegistration c1{TaskId::Next(), NodeId::Next(), DeviceId::Next()};
  ConsumerRegistration c2{TaskId::Next(), NodeId::Next(), DeviceId::Next()};
  auto r1 = table_.RegisterConsumer(id, c1);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(*r1);  // pending: parked
  ASSERT_TRUE(table_.RegisterConsumer(id, c2).ok());

  auto consumers = table_.MarkReady(id, NodeId::Next(), 1);
  ASSERT_TRUE(consumers.ok());
  ASSERT_EQ(consumers->size(), 2u);
  EXPECT_EQ((*consumers)[0].task, c1.task);
  EXPECT_EQ((*consumers)[1].task, c2.task);
}

TEST_F(OwnershipTableTest, ConsumerAfterReadyPushesImmediately) {
  ObjectId id = Register();
  ASSERT_TRUE(table_.MarkReady(id, NodeId::Next(), 1).ok());
  auto r = table_.RegisterConsumer(id, {TaskId::Next(), NodeId::Next(), DeviceId::Next()});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST_F(OwnershipTableTest, NodeFailureMarksLastCopyLost) {
  ObjectId id = Register();
  NodeId loc = NodeId::Next();
  ASSERT_TRUE(table_.MarkReady(id, loc, 1).ok());
  auto lost = table_.OnNodeFailure(loc);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], id);
  EXPECT_EQ(table_.Resolve(id)->state, ObjectState::kLost);
}

TEST_F(OwnershipTableTest, ReplicaLocationSurvivesFailure) {
  ObjectId id = Register();
  NodeId loc1 = NodeId::Next();
  NodeId loc2 = NodeId::Next();
  ASSERT_TRUE(table_.MarkReady(id, loc1, 1).ok());
  ASSERT_TRUE(table_.AddLocation(id, loc2).ok());
  auto lost = table_.OnNodeFailure(loc1);
  EXPECT_TRUE(lost.empty());
  auto reply = table_.Resolve(id);
  EXPECT_EQ(reply->state, ObjectState::kReady);
  EXPECT_EQ(*reply->location, loc2);
}

TEST_F(OwnershipTableTest, ReconstructionReArmsLostObject) {
  ObjectId id = Register();
  NodeId loc = NodeId::Next();
  ASSERT_TRUE(table_.MarkReady(id, loc, 1).ok());
  table_.OnNodeFailure(loc);
  TaskId new_task = TaskId::Next();
  ASSERT_TRUE(table_.MarkPendingForReconstruction(id, new_task).ok());
  EXPECT_EQ(table_.Resolve(id)->state, ObjectState::kPending);
  EXPECT_EQ(*table_.ProducedBy(id), new_task);
}

TEST_F(OwnershipTableTest, ReconstructionRequiresLostState) {
  ObjectId id = Register();
  EXPECT_EQ(table_.MarkPendingForReconstruction(id, TaskId::Next()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(OwnershipTableTest, RefCountingRemovesAtZero) {
  ObjectId id = Register();
  ASSERT_TRUE(table_.IncRef(id).ok());  // count = 2
  auto first = table_.DecRef(id);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  auto second = table_.DecRef(id);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*second);
  EXPECT_FALSE(table_.Contains(id));
}

TEST_F(OwnershipTableTest, StateOrWatchReturnsStateWithoutWatcherWhenResolved) {
  ObjectId id = Register();
  ASSERT_TRUE(table_.MarkReady(id, NodeId::Next(), 1).ok());
  bool fired = false;
  auto state = table_.StateOrWatch(id, [&] { fired = true; });
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, ObjectState::kReady);
  // Non-pending: the watcher is dropped, never armed.
  EXPECT_FALSE(fired);
}

TEST_F(OwnershipTableTest, StateOrWatchUnknownObjectIsNotFound) {
  auto state = table_.StateOrWatch(ObjectId::Next(), [] {});
  EXPECT_EQ(state.status().code(), StatusCode::kNotFound);
}

TEST_F(OwnershipTableTest, StateOrWatchFiresOnceOnMarkReady) {
  ObjectId id = Register();
  int fires = 0;
  auto state = table_.StateOrWatch(id, [&] { ++fires; });
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, ObjectState::kPending);
  EXPECT_EQ(fires, 0);
  ASSERT_TRUE(table_.MarkReady(id, NodeId::Next(), 1).ok());
  EXPECT_EQ(fires, 1);
  // A later state change must not re-fire a consumed watcher.
  ASSERT_TRUE(table_.MarkLost(id).ok());
  EXPECT_EQ(fires, 1);
}

TEST_F(OwnershipTableTest, StateOrWatchFiresOnLossAndRelease) {
  ObjectId lost = Register();
  int lost_fires = 0;
  ASSERT_TRUE(table_.StateOrWatch(lost, [&] { ++lost_fires; }).ok());
  ASSERT_TRUE(table_.MarkLost(lost).ok());
  EXPECT_EQ(lost_fires, 1);

  ObjectId released = Register();
  int release_fires = 0;
  ASSERT_TRUE(table_.StateOrWatch(released, [&] { ++release_fires; }).ok());
  auto removed = table_.DecRef(released);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(*removed);
  // Release fires watchers so parked waiters re-probe and see NotFound.
  EXPECT_EQ(release_fires, 1);
  EXPECT_EQ(table_.StateOrWatch(released, [] {}).status().code(),
            StatusCode::kNotFound);
}

// The watcher contract: a watcher runs inline on the thread that flips the
// state, before that call returns; and since the shard lock is released
// first, a watcher may call back into the same shard.
TEST_F(OwnershipTableTest, WatchersRunInlineOnTheMarkingThread) {
  OwnershipTable table(NodeId::Next(), /*num_shards=*/1);  // one shard for all
  const ObjectId id = ObjectId::Next();
  const ObjectId sibling = ObjectId::Next();
  ASSERT_TRUE(table.RegisterObject(id, TaskId::Next()).ok());
  ASSERT_TRUE(table.RegisterObject(sibling, TaskId::Next()).ok());

  std::atomic<bool> ran{false};
  std::thread::id ran_on;
  Result<ObjectState> reentrant_watch = Status::Internal("watcher never ran");
  Result<OwnershipTable::ResolveReply> reentrant_resolve =
      Status::Internal("watcher never ran");
  ASSERT_TRUE(table
                  .StateOrWatch(id,
                                [&] {
                                  ran_on = std::this_thread::get_id();
                                  reentrant_watch = table.StateOrWatch(sibling, [] {});
                                  reentrant_resolve = table.Resolve(id);
                                  ran.store(true);
                                })
                  .ok());
  std::thread::id marker_id;
  bool ran_before_return = false;
  std::thread marker([&] {
    marker_id = std::this_thread::get_id();
    ASSERT_TRUE(table.MarkReady(id, NodeId::Next(), 1).ok());
    ran_before_return = ran.load();
  });
  marker.join();
  EXPECT_TRUE(ran_before_return);
  EXPECT_EQ(ran_on, marker_id);
  ASSERT_TRUE(reentrant_watch.ok());
  EXPECT_EQ(*reentrant_watch, ObjectState::kPending);
  ASSERT_TRUE(reentrant_resolve.ok());
  EXPECT_EQ(reentrant_resolve->state, ObjectState::kReady);
}

TEST_F(OwnershipTableTest, ObjectsInStateFilters) {
  ObjectId pending = Register();
  ObjectId ready = Register();
  ASSERT_TRUE(table_.MarkReady(ready, NodeId::Next(), 1).ok());
  auto pendings = table_.ObjectsInState(ObjectState::kPending);
  auto readys = table_.ObjectsInState(ObjectState::kReady);
  ASSERT_EQ(pendings.size(), 1u);
  EXPECT_EQ(pendings[0], pending);
  ASSERT_EQ(readys.size(), 1u);
  EXPECT_EQ(readys[0], ready);
  EXPECT_EQ(table_.size(), 2u);
}

// Teardown: destroy a table while half its watchers have fired and the
// other half are still registered. The fired ones ran inline
// inside MarkReady, before the table died; the registered ones must be
// dropped without running, then or later. ASan flags any watcher that
// touches freed table state.
TEST_F(OwnershipTableTest, TeardownWithFiredAndUnfiredWatchers) {
  auto fired = std::make_shared<std::atomic<int>>(0);
  {
    OwnershipTable table(NodeId::Next());
    for (int i = 0; i < 8; ++i) {
      ObjectId id = ObjectId::Next();
      ASSERT_TRUE(table.RegisterObject(id, TaskId::Next()).ok());
      ASSERT_TRUE(
          table.StateOrWatch(id, [fired] { fired->fetch_add(1); }).ok());
      if (i % 2 == 0) {
        // Runs the watcher on this thread before MarkReady returns.
        ASSERT_TRUE(table.MarkReady(id, NodeId::Next(), 1).ok());
      }
    }
    EXPECT_EQ(fired->load(), 4);
  }  // table destroyed: 4 watchers ran, 4 never fired
  EXPECT_EQ(fired->load(), 4);  // dropped ones never run
}

}  // namespace
}  // namespace skadi
