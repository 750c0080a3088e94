// Shared by the facade wire and robustness tests: a root vnode that
// records every byte crossing the facade, and one scenario that calls
// every PhysOp through a RemotePhysical.
#ifndef FICUS_TESTS_REPL_FACADE_RECORDING_H_
#define FICUS_TESTS_REPL_FACADE_RECORDING_H_

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "src/common/hex.h"
#include "src/common/serialize.h"
#include "src/repl/facade.h"

namespace ficus::repl {

struct FacadeRecording {
  // Every request and response byte in call order. Each event is a tag
  // byte ('R' LookupRead name, 'L' lookup name, 'W' session write, 'r'
  // response bytes) followed by a u32 length and the bytes.
  std::vector<uint8_t> transcript;
  // Every request, decoded from its LookupRead name or session write.
  std::vector<std::vector<uint8_t>> requests;
  // Every response byte, concatenated: the same whether a response
  // arrives whole or in read chunks.
  std::vector<uint8_t> responses;

  void Note(uint8_t tag, const std::vector<uint8_t>& bytes) {
    ByteWriter w(transcript);
    w.PutU8(tag);
    w.PutBytes(bytes);
  }
  void NoteResponse(const std::vector<uint8_t>& bytes) {
    Note('r', bytes);
    responses.insert(responses.end(), bytes.begin(), bytes.end());
  }
  void NoteName(uint8_t tag, std::string_view name) {
    Note(tag, std::vector<uint8_t>(name.begin(), name.end()));
    constexpr std::string_view kPrefix = "@req:";
    if (name.substr(0, kPrefix.size()) == kPrefix) {
      auto request = HexDecodeBytes(name.substr(kPrefix.size()));
      if (request.ok()) {
        requests.push_back(std::move(request).value());
      }
    }
  }
};

// Wraps the facade root and the channels it hands out, recording what
// crosses them into one FacadeRecording.
class RecordingVnode : public vfs::Vnode {
 public:
  RecordingVnode(vfs::VnodePtr inner, FacadeRecording* recording)
      : inner_(std::move(inner)), recording_(recording) {}

  StatusOr<vfs::VnodePtr> Lookup(std::string_view name, const vfs::OpContext& ctx) override {
    recording_->NoteName('L', name);
    FICUS_ASSIGN_OR_RETURN(vfs::VnodePtr channel, inner_->Lookup(name, ctx));
    return vfs::VnodePtr(std::make_shared<RecordingVnode>(channel, recording_));
  }

  StatusOr<std::vector<uint8_t>> LookupRead(std::string_view name,
                                            const vfs::OpContext& ctx) override {
    recording_->NoteName('R', name);
    FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> response, inner_->LookupRead(name, ctx));
    recording_->NoteResponse(response);
    return response;
  }

  StatusOr<size_t> Write(uint64_t offset, const std::vector<uint8_t>& data,
                         const vfs::OpContext& ctx) override {
    recording_->Note('W', data);
    recording_->requests.push_back(data);
    return inner_->Write(offset, data, ctx);
  }

  StatusOr<size_t> Read(uint64_t offset, size_t length, std::vector<uint8_t>& out,
                        const vfs::OpContext& ctx) override {
    auto got = inner_->Read(offset, length, out, ctx);
    recording_->NoteResponse(out);
    return got;
  }

 private:
  vfs::VnodePtr inner_;
  FacadeRecording* recording_;
};

// Calls every PhysOp at least once through `proxy`: per-row errors in
// BatchGetAttributes, GetSubtreeDigests and GetBucketDelta, whole-call
// errors, requests large enough for a session, and a response larger than
// one 64 KiB read chunk. Opcodes added later are called after the earlier
// ones, so an older capture stays a prefix of the current one. Call under
// ASSERT_NO_FATAL_FAILURE.
inline void RunEveryOpScenario(RemotePhysical& proxy) {
  const FileId missing{9, 9};
  ASSERT_TRUE(proxy.Connect().ok());
  ASSERT_TRUE(proxy.GetAttributes(kRootFileId).ok());
  EXPECT_EQ(proxy.GetAttributes(missing).status().code(), ErrorCode::kNotFound);

  auto dir = proxy.CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 7);
  ASSERT_TRUE(dir.ok());
  auto file = proxy.CreateChild(*dir, "f", FicusFileType::kRegular, 7);
  ASSERT_TRUE(file.ok());
  auto link = proxy.CreateChild(kRootFileId, "l", FicusFileType::kSymlink, 7);
  ASSERT_TRUE(link.ok());

  ASSERT_TRUE(proxy.WriteData(*file, 0, {1, 2, 3}).ok());
  std::vector<uint8_t> big(70000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31 + i / 4096);
  }
  ASSERT_TRUE(proxy.WriteData(*file, 0, big).ok());
  ASSERT_TRUE(proxy.ReadData(*file, 4000, 300).ok());
  auto all = proxy.ReadAllData(*file);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), big);
  ASSERT_TRUE(proxy.DataSize(*file).ok());
  ASSERT_TRUE(proxy.ReadBlockDigests(*file).ok());
  EXPECT_EQ(proxy.ReadBlockDigests(*dir).status().code(), ErrorCode::kIsDir);
  ASSERT_TRUE(proxy.TruncateData(*file, 5000).ok());

  auto attrs = proxy.GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  VersionVector vv = attrs->vv;
  vv.Increment(2);
  ASSERT_TRUE(proxy.InstallVersion(*file, {9, 8, 7, 6}, vv).ok());
  vv.Increment(2);
  ASSERT_TRUE(proxy.InstallVersion(*file, std::vector<uint8_t>(200, 0x42), vv).ok());
  ASSERT_TRUE(proxy.SetConflict(*file, true).ok());
  ASSERT_TRUE(proxy.SetConflict(*file, false).ok());

  ASSERT_TRUE(proxy.ReadDirectory(kRootFileId).ok());
  EXPECT_EQ(proxy.ReadDirectory(missing).status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(proxy.AddEntry(kRootFileId, "hard", *file, FicusFileType::kRegular).ok());
  ASSERT_TRUE(proxy.RemoveEntry(kRootFileId, "hard").ok());
  ASSERT_TRUE(proxy.RenameEntry(*dir, "f", kRootFileId, "g").ok());

  FicusDirEntry remote;
  remote.name = "remote";
  remote.file = FileId{2, 1};
  remote.vv.Increment(2);
  ASSERT_TRUE(proxy.ApplyEntry(kRootFileId, remote).ok());
  FicusDirEntry second = remote;
  second.name = "remote2";
  second.file = FileId{2, 2};
  FicusDirEntry tombstone = remote;
  tombstone.name = "gone";
  tombstone.file = FileId{2, 3};
  tombstone.alive = false;
  tombstone.vv.Increment(2);
  tombstone.deleted_file_vv.Increment(2);
  ASSERT_TRUE(proxy.ApplyEntries(kRootFileId, {second, tombstone}).ok());
  VersionVector dir_vv;
  dir_vv.Increment(2);
  dir_vv.Increment(2);
  ASSERT_TRUE(proxy.MergeDirVersion(kRootFileId, dir_vv).ok());

  ASSERT_TRUE(proxy.WriteLink(*link, "some/target").ok());
  auto target = proxy.ReadLink(*link);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), "some/target");
  ASSERT_TRUE(proxy.NoteOpen(*file).ok());
  ASSERT_TRUE(proxy.NoteClose(*file).ok());

  auto rows = proxy.BatchGetAttributes({*file, kRootFileId, missing});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[2].status.code(), ErrorCode::kNotFound);
  auto plus = proxy.ReadDirPlus(kRootFileId);
  ASSERT_TRUE(plus.ok());
  EXPECT_EQ(plus->size(), 5u);  // d, l, g, remote, remote2
  auto digests = proxy.GetSubtreeDigests({kRootFileId, *dir, missing});
  ASSERT_TRUE(digests.ok());
  ASSERT_EQ(digests->size(), 3u);
  EXPECT_TRUE((*digests)[0].status.ok());
  EXPECT_FALSE((*digests)[0].children.empty());
  EXPECT_EQ((*digests)[2].status.code(), ErrorCode::kNotFound);

  // One bucket whose digest cannot match: every root entry comes back,
  // tombstones included, with a kNotFound row for the unstored "gone".
  auto delta = proxy.GetBucketDelta(kRootFileId, {0});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->buckets, std::vector<uint32_t>{0});
  EXPECT_EQ(delta->entries.size(), 7u);  // d, l, hard, g, remote, remote2, gone
  ASSERT_EQ(delta->attrs.size(), 5u);    // l, the file, remote, remote2, gone
  EXPECT_EQ(delta->attrs.back().status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(proxy.GetBucketDelta(missing, {0}).status().code(), ErrorCode::kNotFound);
}

}  // namespace ficus::repl

#endif  // FICUS_TESTS_REPL_FACADE_RECORDING_H_
