#include "src/net/fabric.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

namespace skadi {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : topo_(std::make_shared<Topology>()) {
    a_ = AddServer(0);
    b_ = AddServer(0);
    c_ = AddServer(1);
    fabric_ = std::make_unique<Fabric>(topo_);
  }

  NodeId AddServer(int rack) {
    NodeInfo info;
    info.id = NodeId::Next();
    info.role = NodeRole::kServer;
    info.rack = rack;
    EXPECT_TRUE(topo_->AddNode(info).ok());
    return info.id;
  }

  std::shared_ptr<Topology> topo_;
  std::unique_ptr<Fabric> fabric_;
  NodeId a_, b_, c_;
};

TEST_F(FabricTest, CallInvokesHandlerAndReturnsReply) {
  ASSERT_TRUE(fabric_->RegisterHandler(b_, "echo", [](const Buffer& req) -> Result<Buffer> {
    return Buffer::FromString("re:" + std::string(req.AsStringView()));
  }).ok());
  auto reply = fabric_->Call(a_, b_, "echo", Buffer::FromString("ping"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->AsStringView(), "re:ping");
}

TEST_F(FabricTest, CallToUnknownServiceFails) {
  auto reply = fabric_->Call(a_, b_, "nope", Buffer());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
}

TEST_F(FabricTest, DuplicateServiceRegistrationFails) {
  auto handler = [](const Buffer&) -> Result<Buffer> { return Buffer(); };
  EXPECT_TRUE(fabric_->RegisterHandler(b_, "svc", handler).ok());
  EXPECT_EQ(fabric_->RegisterHandler(b_, "svc", handler).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(FabricTest, DeadNodeRejectsCalls) {
  ASSERT_TRUE(fabric_->RegisterHandler(b_, "svc",
                           [](const Buffer&) -> Result<Buffer> { return Buffer(); }).ok());
  fabric_->MarkDead(b_);
  EXPECT_TRUE(fabric_->IsDead(b_));
  EXPECT_EQ(fabric_->Call(a_, b_, "svc", Buffer()).status().code(),
            StatusCode::kUnavailable);
  fabric_->Revive(b_);
  EXPECT_FALSE(fabric_->IsDead(b_));
  EXPECT_TRUE(fabric_->Call(a_, b_, "svc", Buffer()).ok());
}

TEST_F(FabricTest, CallCountsRoundTripMessages) {
  ASSERT_TRUE(fabric_->RegisterHandler(b_, "svc",
                           [](const Buffer&) -> Result<Buffer> { return Buffer(); }).ok());
  int64_t before = fabric_->messages(LinkClass::kIntraRack);
  (void)fabric_->Call(a_, b_, "svc", Buffer::FromString("x"));  // counting, not using the reply
  EXPECT_EQ(fabric_->messages(LinkClass::kIntraRack), before + 2);  // req + reply
  EXPECT_EQ(fabric_->metrics().GetCounter("fabric.control_messages").value(), 2);
}

TEST_F(FabricTest, SendCountsOneWayMessage) {
  ASSERT_TRUE(fabric_->RegisterHandler(b_, "svc",
                           [](const Buffer&) -> Result<Buffer> { return Buffer(); }).ok());
  (void)fabric_->Send(a_, b_, "svc", Buffer::FromString("x"));  // counting, not using the status
  EXPECT_EQ(fabric_->metrics().GetCounter("fabric.control_messages").value(), 1);
}

TEST_F(FabricTest, TransferBytesChargesAndCounts) {
  constexpr int64_t kBytes = 1024 * 1024;
  int64_t nanos = fabric_->TransferBytes(a_, c_, kBytes);
  EXPECT_GT(nanos, 0);
  EXPECT_EQ(fabric_->bytes(LinkClass::kInterRack), kBytes);
  EXPECT_EQ(fabric_->metrics().GetCounter("fabric.data_bytes").value(), kBytes);
  EXPECT_EQ(fabric_->clock().total_nanos(), nanos);
}

TEST_F(FabricTest, InterRackCostsMoreThanIntraRack) {
  constexpr int64_t kBytes = 4 * 1024 * 1024;
  int64_t intra = fabric_->TransferBytes(a_, b_, kBytes);
  int64_t inter = fabric_->TransferBytes(a_, c_, kBytes);
  EXPECT_GT(inter, intra);
}

TEST_F(FabricTest, TransferToDeadNodeAccountsNothing) {
  fabric_->MarkDead(c_);
  EXPECT_EQ(fabric_->TransferBytes(a_, c_, 1024), 0);
  EXPECT_EQ(fabric_->bytes(LinkClass::kInterRack), 0);
}

TEST_F(FabricTest, TotalAggregatesAcrossLinkClasses) {
  fabric_->TransferBytes(a_, b_, 100);  // intra-rack
  fabric_->TransferBytes(a_, c_, 200);  // inter-rack
  EXPECT_EQ(fabric_->total_bytes(), 300);
  EXPECT_EQ(fabric_->total_messages(), 2);
}

TEST_F(FabricTest, HandlerErrorPropagates) {
  ASSERT_TRUE(fabric_->RegisterHandler(b_, "fail", [](const Buffer&) -> Result<Buffer> {
    return Status::Internal("boom");
  }).ok());
  auto reply = fabric_->Call(a_, b_, "fail", Buffer());
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);
  EXPECT_EQ(reply.status().message(), "boom");
}

TEST_F(FabricTest, VirtualClockAccumulatesPerCall) {
  ASSERT_TRUE(fabric_->RegisterHandler(b_, "svc",
                           [](const Buffer&) -> Result<Buffer> { return Buffer(); }).ok());
  int64_t t0 = fabric_->clock().total_nanos();
  (void)fabric_->Call(a_, b_, "svc", Buffer::FromString("x"));  // timing, not using the reply
  int64_t t1 = fabric_->clock().total_nanos();
  // At least two intra-rack latencies charged.
  EXPECT_GE(t1 - t0, 2 * DefaultLinkParams(LinkClass::kIntraRack).latency_ns);
}


TEST_F(FabricTest, HandlersStayReachableWhileTableGrows) {
  // Calls find handlers without Fabric::mu_ while registrations replace the
  // table with larger ones; every handler stays reachable throughout.
  ASSERT_TRUE(fabric_->RegisterHandler(b_, "svc0", [](const Buffer&) -> Result<Buffer> {
    return Buffer::FromString("b0");
  }).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto reply = fabric_->Call(a_, b_, "svc0", Buffer());
      if (!reply.ok() || reply->AsStringView() != "b0") {
        bad.fetch_add(1);
      }
    }
  });
  constexpr int kServices = 100;
  for (NodeId node : {a_, b_, c_}) {
    for (int i = 1; i < kServices; ++i) {
      const std::string reply = node.ToString() + "/" + std::to_string(i);
      ASSERT_TRUE(fabric_->RegisterHandler(node, "svc" + std::to_string(i),
                                           [reply](const Buffer&) -> Result<Buffer> {
                                             return Buffer::FromString(reply);
                                           }).ok());
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  for (NodeId node : {a_, b_, c_}) {
    for (int i = 1; i < kServices; ++i) {
      auto reply = fabric_->Call(a_, node, "svc" + std::to_string(i), Buffer());
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->AsStringView(), node.ToString() + "/" + std::to_string(i));
    }
  }
  EXPECT_EQ(fabric_->Call(a_, a_, "svc0", Buffer()).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace skadi
