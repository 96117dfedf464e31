// FaultPlan parsing, programmatic construction and validation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "ft/fault_plan.hpp"
#include "ft/protocol.hpp"

namespace egt::ft {
namespace {

TEST(FaultPlan, ParsesFullSchema) {
  const auto plan = FaultPlan::parse(R"({
    "schema": "egt.fault_plan/v1",
    "kills":  [ {"rank": 2, "generation": 50} ],
    "drops":  [ {"source": 1, "dest": 0, "tag": "fit",
                 "skip": 2, "count": 3} ],
    "delays": [ {"source": "any", "dest": 0, "tag": "plan_ack",
                 "count": 2, "delay_ms": 40} ]
  })");
  ASSERT_EQ(plan.kills().size(), 1u);
  EXPECT_EQ(plan.kills()[0].rank, 2);
  EXPECT_EQ(plan.kills()[0].generation, 50u);

  ASSERT_EQ(plan.drops().size(), 1u);
  EXPECT_EQ(plan.drops()[0].source, 1);
  EXPECT_EQ(plan.drops()[0].dest, 0);
  EXPECT_EQ(plan.drops()[0].tag, tag::kFit);
  EXPECT_EQ(plan.drops()[0].skip, 2u);
  EXPECT_EQ(plan.drops()[0].count, 3u);

  ASSERT_EQ(plan.delays().size(), 1u);
  EXPECT_EQ(plan.delays()[0].source, kAny);
  EXPECT_EQ(plan.delays()[0].tag, tag::kPlanAck);
  EXPECT_EQ(plan.delays()[0].delay_ms, 40u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, EmptyDocumentIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("{}").empty());
}

TEST(FaultPlan, NumericTagsAccepted) {
  const auto plan =
      FaultPlan::parse(R"({"drops": [ {"tag": 4099} ]})");  // 0x1003 = req_fit
  ASSERT_EQ(plan.drops().size(), 1u);
  EXPECT_EQ(plan.drops()[0].tag, tag::kReqFit);
  EXPECT_EQ(plan.drops()[0].source, kAny);
  EXPECT_EQ(plan.drops()[0].dest, kAny);
  EXPECT_EQ(plan.drops()[0].count, 1u) << "count defaults to one";
}

TEST(FaultPlan, TagNamesCoverTheProtocol) {
  EXPECT_EQ(tag::from_name("plan"), tag::kPlan);
  EXPECT_EQ(tag::from_name("plan_ack"), tag::kPlanAck);
  EXPECT_EQ(tag::from_name("req_fit"), tag::kReqFit);
  EXPECT_EQ(tag::from_name("fit"), tag::kFit);
  EXPECT_EQ(tag::from_name("decide"), tag::kDecide);
  EXPECT_EQ(tag::from_name("ping"), tag::kPing);
  EXPECT_EQ(tag::from_name("pong"), tag::kPong);
  EXPECT_EQ(tag::from_name("reconfig"), tag::kReconfig);
  EXPECT_EQ(tag::from_name("reconfig_ack"), tag::kReconfigAck);
  EXPECT_EQ(tag::from_name("req_blocks"), tag::kReqBlocks);
  EXPECT_EQ(tag::from_name("blocks"), tag::kBlocks);
  // No STOP/FINAL tags: the final gather is REQ_BLOCKS/BLOCKS.
  EXPECT_THROW((void)tag::from_name("stop"), std::runtime_error);
  EXPECT_THROW((void)tag::from_name("final"), std::runtime_error);
  EXPECT_EQ(tag::from_name("bye"), tag::kBye);
  EXPECT_EQ(tag::from_name("any"), kAny);
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_THROW((void)FaultPlan::parse("not json"), std::runtime_error);
  EXPECT_THROW((void)FaultPlan::parse("[1,2]"), std::runtime_error);
  EXPECT_THROW((void)FaultPlan::parse(R"({"schema": "something/v9"})"),
               std::runtime_error);
  // A kill needs a concrete rank and generation.
  EXPECT_THROW((void)FaultPlan::parse(R"({"kills": [ {"rank": 1} ]})"),
               std::runtime_error);
  // Unknown tag name.
  EXPECT_THROW((void)FaultPlan::parse(R"({"drops": [ {"tag": "warp"} ]})"),
               std::runtime_error);
  // delay_ms makes no sense on a drop rule.
  EXPECT_THROW(
      (void)FaultPlan::parse(R"({"drops": [ {"tag": 1, "delay_ms": 5} ]})"),
      std::runtime_error);
}

TEST(FaultPlan, RejectsRetiredTornCheckpoints) {
  // The ft engine writes no block checkpoints, so a torn-checkpoint fault
  // would test nothing: the plan names the key and says why it is gone.
  try {
    (void)FaultPlan::parse(
        R"({"torn_checkpoints": [ {"rank": 1, "generation": 4} ]})");
    FAIL() << "torn_checkpoints accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("torn_checkpoints"), std::string::npos) << what;
    EXPECT_NE(what.find("recomputes"), std::string::npos) << what;
  }
}

TEST(FaultPlan, KillGenerationLookup) {
  FaultPlan plan;
  plan.kill(3, 17);
  ASSERT_TRUE(plan.kill_generation(3).has_value());
  EXPECT_EQ(*plan.kill_generation(3), 17u);
  EXPECT_FALSE(plan.kill_generation(2).has_value());
}

TEST(FaultPlan, ValidateAcceptsExecutablePlans) {
  FaultPlan plan;
  plan.kill(1, 5).kill(2, 9);
  plan.drop({1, 0, tag::kFit, 0, 1, 0});
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlan, ValidateAcceptsKillingNature) {
  // Killing rank 0 became a legal plan with master failover; whether a
  // standby exists to survive it is the engine's check, not the plan's.
  FaultPlan plan;
  plan.kill(0, 5);
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlan, ValidateRejectsKillingEveryRank) {
  FaultPlan plan;
  for (int r = 0; r < 4; ++r) plan.kill(r, 5);
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
}

TEST(FaultPlan, ValidateRejectsOutOfRangeRanks) {
  FaultPlan kills;
  kills.kill(4, 5);
  EXPECT_THROW(kills.validate(4), std::invalid_argument);
  FaultPlan drops;
  drops.drop({7, kAny, kAny, 0, 1, 0});
  EXPECT_THROW(drops.validate(4), std::invalid_argument);
}

TEST(FaultPlan, ValidateRejectsDoubleKills) {
  FaultPlan plan;
  plan.kill(2, 5).kill(2, 9);
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
}

TEST(FaultPlan, FromFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/egt_fault_plan.json";
  {
    std::ofstream out(path);
    out << R"({"kills": [ {"rank": 1, "generation": 3} ]})";
  }
  const auto plan = FaultPlan::from_file(path);
  ASSERT_EQ(plan.kills().size(), 1u);
  EXPECT_EQ(plan.kills()[0].rank, 1);
  std::remove(path.c_str());
}

TEST(FaultPlan, FromFileMissingFileNamesThePath) {
  try {
    (void)FaultPlan::from_file("/nonexistent/egt.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/egt.json"),
              std::string::npos);
  }
}

TEST(MessageFault, WildcardMatching) {
  const MessageFault any{};  // all fields kAny-by-default except skip/count
  EXPECT_TRUE(any.matches(1, 0, tag::kFit));
  const MessageFault exact{1, 0, tag::kFit, 0, 1, 0};
  EXPECT_TRUE(exact.matches(1, 0, tag::kFit));
  EXPECT_FALSE(exact.matches(2, 0, tag::kFit));
  EXPECT_FALSE(exact.matches(1, 2, tag::kFit));
  EXPECT_FALSE(exact.matches(1, 0, tag::kPong));
}

}  // namespace
}  // namespace egt::ft
