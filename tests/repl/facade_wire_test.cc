// The facade's wire format, pinned. A recording root vnode captures every
// request and response byte while one scenario calls every PhysOp through
// RemotePhysical; the capture's length and ContentHash must equal the
// values below. A change to the marshalling code that is meant to keep
// the format must leave both unchanged. A new opcode is appended to the
// scenario, so the capture before it stays pinned as a prefix.
#include <gtest/gtest.h>

#include <set>

#include "src/common/content_hash.h"
#include "tests/repl/facade_recording.h"

namespace ficus::repl {
namespace {

TEST(FacadeWireTest, EveryOpcodeKeepsItsBytes) {
  SimClock clock;
  storage::BlockDevice device(8192);
  storage::BufferCache cache(&device, 256);
  ufs::Ufs ufs(&cache, &clock);
  ASSERT_TRUE(ufs.Format(1024).ok());
  PhysicalLayer layer(&ufs, &clock);
  ASSERT_TRUE(layer.CreateVolume(VolumeId{1, 1}, 1, "vol1", true).ok());
  PhysicalFacadeVfs facade(&layer);
  auto root = facade.Root();
  ASSERT_TRUE(root.ok());

  FacadeRecording recording;
  RemotePhysical proxy(std::make_shared<RecordingVnode>(root.value(), &recording));
  ASSERT_NO_FATAL_FAILURE(RunEveryOpScenario(proxy));

  std::set<uint8_t> opcodes;
  for (const auto& request : recording.requests) {
    ASSERT_FALSE(request.empty());
    opcodes.insert(request[0]);
  }
  EXPECT_EQ(opcodes.size(), 26u);
  EXPECT_EQ(*opcodes.begin(), static_cast<uint8_t>(PhysOp::kGetVolumeInfo));
  EXPECT_EQ(*opcodes.rbegin(), static_cast<uint8_t>(PhysOp::kGetBucketDelta));
  EXPECT_EQ(recording.requests.size(), 36u);
  EXPECT_EQ(proxy.session_calls(), 3u);
  EXPECT_EQ(proxy.inline_calls(), 33u);

  // The capture up to kGetSubtreeDigests, as pinned before kGetBucketDelta.
  ASSERT_GE(recording.transcript.size(), 143777u);
  EXPECT_EQ(ContentHash(recording.transcript.data(), 143777u), 0x78f246f53e5dab4fULL);
  EXPECT_EQ(recording.transcript.size(), 144529u);
  EXPECT_EQ(ContentHash(recording.transcript.data(), recording.transcript.size()),
            0x2cd6878a37ef5c13ULL);
}

}  // namespace
}  // namespace ficus::repl
