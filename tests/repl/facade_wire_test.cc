// The facade's wire format, pinned. A recording root vnode captures every
// request and response byte while one scenario calls every PhysOp through
// RemotePhysical; the capture's length and ContentHash must equal the
// values below. A change to the marshalling code that is meant to keep
// the format must leave both unchanged. A new opcode is appended to the
// scenario, so the capture before it stays pinned as a prefix.
//
// The requests and the responses are also pinned on their own, apart from
// how they travel: the pins below were taken when a small request was a
// LOOKUP and its response a READ, and they still hold now that both ride
// one LookupRead.
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
  std::vector<uint8_t> requests;
  ByteWriter w(requests);
  for (const auto& request : recording.requests) {
    ASSERT_FALSE(request.empty());
    opcodes.insert(request[0]);
    w.PutBytes(request);
  }
  EXPECT_EQ(opcodes.size(), 25u);
  EXPECT_EQ(opcodes.count(15), 0u);  // ApplyEntry travels as kApplyEntries
  EXPECT_EQ(*opcodes.begin(), static_cast<uint8_t>(PhysOp::kGetVolumeInfo));
  EXPECT_EQ(*opcodes.rbegin(), static_cast<uint8_t>(PhysOp::kGetBucketDelta));
  EXPECT_EQ(recording.requests.size(), 36u);
  EXPECT_EQ(proxy.session_calls(), 3u);
  EXPECT_EQ(proxy.inline_calls(), 33u);

  // Every request, each with a u32 length. Pinned from the two-RPC
  // carrier, whose ApplyEntry request `15, dir, entry` is counted here as
  // the `21, dir, u32 1, entry` that now replaces it.
  EXPECT_EQ(requests.size(), 71062u);
  EXPECT_EQ(ContentHash(requests.data(), requests.size()), 0x9839f9b43a68ac7bULL);
  // Every response byte, concatenated. Pinned from the two-RPC carrier.
  EXPECT_EQ(recording.responses.size(), 72494u);
  EXPECT_EQ(ContentHash(recording.responses.data(), recording.responses.size()),
            0xab8351f97095d026ULL);

  // The whole capture: each small call is an 'R' name and one 'r'
  // response, the 70 KB one included.
  EXPECT_EQ(recording.transcript.size(), 144532u);
  EXPECT_EQ(ContentHash(recording.transcript.data(), recording.transcript.size()),
            0xc29a1e845eb51ef0ULL);
}

}  // namespace
}  // namespace ficus::repl
