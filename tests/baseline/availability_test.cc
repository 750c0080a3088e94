#include "src/baseline/availability.h"

#include <gtest/gtest.h>

namespace ficus::baseline {
namespace {

TEST(ExactTest, SingleReplicaAvailabilityIsP) {
  OneCopyPolicy policy;
  auto result = ComputeExact(policy, 1, 0.9);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->read, 0.9, 1e-12);
  EXPECT_NEAR(result->update, 0.9, 1e-12);
}

TEST(ExactTest, OneCopyIsOneMinusAllDown) {
  OneCopyPolicy policy;
  auto result = ComputeExact(policy, 3, 0.9);
  ASSERT_TRUE(result.ok());
  double expected = 1.0 - 0.1 * 0.1 * 0.1;
  EXPECT_NEAR(result->read, expected, 1e-12);
  EXPECT_NEAR(result->update, expected, 1e-12);
}

TEST(ExactTest, PrimaryCopyUpdateIsP) {
  PrimaryCopyPolicy policy(0);
  auto result = ComputeExact(policy, 5, 0.8);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->update, 0.8, 1e-12);  // update hinges on one host
  EXPECT_GT(result->read, 0.99);            // read-any is nearly sure
}

TEST(ExactTest, MajorityOfThreeMatchesClosedForm) {
  MajorityVotingPolicy policy;
  double p = 0.9;
  auto result = ComputeExact(policy, 3, p);
  ASSERT_TRUE(result.ok());
  // P(at least 2 of 3 up) = 3 p^2 (1-p) + p^3
  double expected = 3 * p * p * (1 - p) + p * p * p;
  EXPECT_NEAR(result->update, expected, 1e-12);
}

TEST(ExactTest, RejectsSillyN) {
  OneCopyPolicy policy;
  EXPECT_FALSE(ComputeExact(policy, 0, 0.5).ok());
  EXPECT_FALSE(ComputeExact(policy, 21, 0.5).ok());
}

TEST(MonteCarloTest, AgreesWithExact) {
  MajorityVotingPolicy policy;
  Rng rng(SeedFromEnvOr(42, "availability.monte_carlo"));
  auto exact = ComputeExact(policy, 5, 0.85);
  ASSERT_TRUE(exact.ok());
  auto simulated = SimulateIndependent(policy, 5, 0.85, 200000, rng);
  EXPECT_NEAR(simulated.read, exact->read, 0.01);
  EXPECT_NEAR(simulated.update, exact->update, 0.01);
}

// The paper's headline claim (A1): one-copy availability strictly exceeds
// every serializable policy's update availability for any 0 < p < 1 and
// n > 1 — checked exactly across a parameter sweep.
//
// gtest prints a parameter that has no PrintTo byte by byte, and ctest names
// each case after that print. The four bytes between `n` and `p` used to be
// uninitialized padding, so the names changed from build to build; they are
// spelled out here, with the values the cases were first listed under, so
// every build names the cases the same way.
struct SweepParam {
  int n;
  unsigned char name_bytes[4];
  double p;
};

class DominanceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DominanceSweep, OneCopyStrictlyDominatesUpdateAvailability) {
  int n = GetParam().n;
  double p = GetParam().p;
  OneCopyPolicy one_copy;
  PrimaryCopyPolicy primary(0);
  MajorityVotingPolicy majority;
  QuorumConsensusPolicy quorum(static_cast<size_t>(n / 2),
                               static_cast<size_t>(n / 2 + 1));

  auto ficus = ComputeExact(one_copy, n, p);
  ASSERT_TRUE(ficus.ok());
  for (const ReplicationPolicy* policy :
       {static_cast<const ReplicationPolicy*>(&primary),
        static_cast<const ReplicationPolicy*>(&majority),
        static_cast<const ReplicationPolicy*>(&quorum)}) {
    auto other = ComputeExact(*policy, n, p);
    ASSERT_TRUE(other.ok());
    EXPECT_GT(ficus->update, other->update)
        << policy->Name() << " n=" << n << " p=" << p;
    EXPECT_GE(ficus->read + 1e-12, other->read)
        << policy->Name() << " n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DominanceSweep,
    ::testing::Values(SweepParam{2, {0x00, 0x00, 0xD0, 0xEF}, 0.5},
                      SweepParam{2, {}, 0.9}, SweepParam{3, {}, 0.5},
                      SweepParam{3, {0x03, 0x1E, 0x09, 0x00}, 0.9},
                      SweepParam{3, {0x00, 0x00, 0xD0, 0xCA}, 0.99},
                      SweepParam{5, {}, 0.7}, SweepParam{5, {}, 0.95},
                      SweepParam{7, {}, 0.9}, SweepParam{9, {}, 0.8}));

TEST(PartitionModelTest, PartitionsHurtQuorumMoreThanOneCopy) {
  Rng rng(SeedFromEnvOr(7, "availability.partition_model"));
  OneCopyPolicy one_copy;
  MajorityVotingPolicy majority;
  // Reliable hosts, but the network splits half the time.
  auto ficus = SimulatePartitioned(one_copy, 5, 0.99, 0.5, 100000, rng);
  auto voted = SimulatePartitioned(majority, 5, 0.99, 0.5, 100000, rng);
  EXPECT_GT(ficus.update, voted.update + 0.05);
}

TEST(PartitionModelTest, NoPartitionMatchesIndependentModel) {
  Rng rng_a(11);
  Rng rng_b(11);
  MajorityVotingPolicy majority;
  auto with = SimulatePartitioned(majority, 5, 0.9, 0.0, 50000, rng_a);
  auto without = SimulateIndependent(majority, 5, 0.9, 50000, rng_b);
  EXPECT_NEAR(with.update, without.update, 0.02);
}

TEST(MonteCarloTest, AvailabilityMonotoneInP) {
  Rng rng(SeedFromEnvOr(3, "availability.monotone"));
  OneCopyPolicy policy;
  double prev = -1.0;
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    auto result = SimulateIndependent(policy, 3, p, 50000, rng);
    EXPECT_GT(result.update, prev);
    prev = result.update;
  }
}

}  // namespace
}  // namespace ficus::baseline
