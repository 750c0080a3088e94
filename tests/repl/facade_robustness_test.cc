// Adversarial requests to the physical-layer facade: every strict prefix
// of a real request, unknown opcodes and seeded garbage behind each opcode
// byte must be refused with an error response — never applied, never a
// crash — and leave the replica consistent and attachable.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/repl/facade_recording.h"

namespace ficus::repl {
namespace {

class FacadeRobustnessTest : public ::testing::Test {
 protected:
  FacadeRobustnessTest() : device_(8192), cache_(&device_, 256), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(1024).ok());
    layer_ = std::make_unique<PhysicalLayer>(&ufs_, &clock_);
    EXPECT_TRUE(layer_->CreateVolume(VolumeId{1, 1}, 1, "vol1", true).ok());
    facade_ = std::make_unique<PhysicalFacadeVfs>(layer_.get());
  }

  void SetUp() override {
    // One real request of every opcode, captured as RemotePhysical sends it.
    auto root = facade_->Root();
    ASSERT_TRUE(root.ok());
    RemotePhysical proxy(std::make_shared<RecordingVnode>(root.value(), &recording_));
    ASSERT_NO_FATAL_FAILURE(RunEveryOpScenario(proxy));
    ASSERT_EQ(recording_.requests.size(), 36u);
  }

  // Executes raw request bytes and returns the response's leading status.
  Status Send(const std::vector<uint8_t>& request) {
    std::vector<uint8_t> response = ExecutePhysRequest(layer_.get(), request);
    ByteReader r(response);
    return ReadWireStatus(r);
  }

  void ExpectReplicaIntact() {
    auto problems = layer_->CheckConsistency();
    ASSERT_TRUE(problems.ok());
    EXPECT_TRUE(problems->empty()) << problems->front();
    auto digest_problems = layer_->ValidateDigestTree();
    ASSERT_TRUE(digest_problems.ok());
    EXPECT_TRUE(digest_problems->empty()) << digest_problems->front();
    PhysicalLayer fresh(&ufs_, &clock_);
    ASSERT_TRUE(fresh.Attach("vol1").ok());
    auto fresh_problems = fresh.CheckConsistency();
    ASSERT_TRUE(fresh_problems.ok());
    EXPECT_TRUE(fresh_problems->empty()) << fresh_problems->front();
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BufferCache cache_;
  ufs::Ufs ufs_;
  std::unique_ptr<PhysicalLayer> layer_;
  std::unique_ptr<PhysicalFacadeVfs> facade_;
  FacadeRecording recording_;
};

TEST_F(FacadeRobustnessTest, EveryStrictPrefixIsRefusedWithoutADeviceWrite) {
  const uint64_t writes_before = device_.stats().writes;
  size_t prefixes = 0;
  for (const auto& request : recording_.requests) {
    for (size_t length = 0; length < request.size(); ++length) {
      std::vector<uint8_t> prefix(request.begin(),
                                  request.begin() + static_cast<ptrdiff_t>(length));
      EXPECT_EQ(Send(prefix).code(), ErrorCode::kCorrupt)
          << "opcode " << static_cast<int>(request[0]) << ", " << length << " of "
          << request.size() << " bytes";
      ++prefixes;
    }
  }
  EXPECT_GT(prefixes, 70000u);  // the session-sized write alone is 70 KB
  EXPECT_EQ(device_.stats().writes, writes_before);
  ExpectReplicaIntact();
}

TEST_F(FacadeRobustnessTest, UnknownOpcodesAreRefused) {
  EXPECT_EQ(Send({}).code(), ErrorCode::kCorrupt);
  // 15 is the retired single-entry apply.
  for (uint8_t op : {0, 15, 27, 127, 255}) {
    EXPECT_EQ(Send({op}).code(), ErrorCode::kInvalidArgument) << static_cast<int>(op);
    EXPECT_EQ(Send({op, 0x01, 0x02, 0x03}).code(), ErrorCode::kInvalidArgument);
  }
  ExpectReplicaIntact();
}

TEST_F(FacadeRobustnessTest, RandomGarbageBehindEachOpcodeIsRefused) {
  Rng rng(SeedFromEnvOr(20261017, "facade_robustness.random_garbage"));
  const uint64_t writes_before = device_.stats().writes;
  for (int op = static_cast<int>(PhysOp::kGetVolumeInfo);
       op <= static_cast<int>(PhysOp::kGetBucketDelta); ++op) {
    // kGetVolumeInfo takes no arguments and NoteClose accepts any file id,
    // so garbage that decodes is an honest request to them; they must
    // still neither crash nor write.
    const bool accepts_garbage = op == static_cast<int>(PhysOp::kGetVolumeInfo) ||
                                 op == static_cast<int>(PhysOp::kNoteClose);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> request(1 + rng.NextBelow(96));
      request[0] = static_cast<uint8_t>(op);
      for (size_t i = 1; i < request.size(); ++i) {
        request[i] = static_cast<uint8_t>(rng.Next());
      }
      Status status = Send(request);
      if (!accepts_garbage) {
        EXPECT_FALSE(status.ok()) << "opcode " << op << ", trial " << trial;
      }
    }
  }
  EXPECT_EQ(device_.stats().writes, writes_before);
  ExpectReplicaIntact();
  // The facade keeps serving honest callers afterwards.
  auto root = facade_->Root();
  ASSERT_TRUE(root.ok());
  RemotePhysical proxy(root.value());
  ASSERT_TRUE(proxy.Connect().ok());
  EXPECT_TRUE(proxy.GetAttributes(kRootFileId).ok());
}

}  // namespace
}  // namespace ficus::repl
