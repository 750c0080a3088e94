// The lookup-encoded layer transport: RemotePhysical must behave exactly
// like the local PhysicalLayer it proxies, both directly against the
// facade and across a real NFS hop (which drops open/close and has no
// ioctl — the very reason this encoding exists, paper section 2.3).
#include "src/repl/facade.h"

#include <gtest/gtest.h>

#include "src/common/hex.h"
#include "src/nfs/client.h"
#include "src/nfs/server.h"

namespace ficus::repl {
namespace {

class FacadeTest : public ::testing::Test {
 protected:
  FacadeTest() : device_(8192), cache_(&device_, 256), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(1024).ok());
    layer_ = std::make_unique<PhysicalLayer>(&ufs_, &clock_);
    EXPECT_TRUE(layer_->CreateVolume(VolumeId{1, 1}, 1, "vol1", true).ok());
    facade_ = std::make_unique<PhysicalFacadeVfs>(layer_.get());
  }

  // A proxy wired straight to the facade (no NFS in between).
  std::unique_ptr<RemotePhysical> DirectProxy() {
    auto root = facade_->Root();
    EXPECT_TRUE(root.ok());
    auto proxy = std::make_unique<RemotePhysical>(root.value());
    EXPECT_TRUE(proxy->Connect().ok());
    return proxy;
  }

  SimClock clock_;
  storage::BlockDevice device_;
  storage::BufferCache cache_;
  ufs::Ufs ufs_;
  std::unique_ptr<PhysicalLayer> layer_;
  std::unique_ptr<PhysicalFacadeVfs> facade_;
};

TEST_F(FacadeTest, ConnectFetchesIdentity) {
  auto proxy = DirectProxy();
  EXPECT_EQ(proxy->volume_id(), (VolumeId{1, 1}));
  EXPECT_EQ(proxy->replica_id(), 1u);
}

TEST_F(FacadeTest, AttributesThroughProxy) {
  auto proxy = DirectProxy();
  auto attrs = proxy->GetAttributes(kRootFileId);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->type, FicusFileType::kDirectory);
  EXPECT_EQ(attrs->vv.Count(1), 1u);
}

TEST_F(FacadeTest, CreateWriteReadThroughProxy) {
  auto proxy = DirectProxy();
  auto file = proxy->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 7);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(proxy->WriteData(*file, 0, {1, 2, 3, 4}).ok());
  auto data = proxy->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{1, 2, 3, 4}));
  auto piece = proxy->ReadData(*file, 1, 2);
  ASSERT_TRUE(piece.ok());
  EXPECT_EQ(piece.value(), (std::vector<uint8_t>{2, 3}));
  auto size = proxy->DataSize(*file);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 4u);
  // The write really landed in the local layer.
  auto local_data = layer_->ReadAllData(*file);
  ASSERT_TRUE(local_data.ok());
  EXPECT_EQ(local_data->size(), 4u);
}

TEST_F(FacadeTest, SmallRequestsRideInLookupNames) {
  auto proxy = DirectProxy();
  ASSERT_TRUE(proxy->GetAttributes(kRootFileId).ok());
  EXPECT_GT(proxy->inline_calls(), 0u);
  EXPECT_EQ(proxy->session_calls(), 0u);
}

TEST_F(FacadeTest, LargePayloadsUseSessions) {
  auto proxy = DirectProxy();
  auto file = proxy->CreateChild(kRootFileId, "big", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> payload(64 * 1024, 0xAA);
  ASSERT_TRUE(proxy->WriteData(*file, 0, payload).ok());
  EXPECT_GT(proxy->session_calls(), 0u);
  auto data = proxy->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), payload);
}

TEST_F(FacadeTest, ErrorsPropagateThroughEncoding) {
  auto proxy = DirectProxy();
  EXPECT_EQ(proxy->GetAttributes(FileId{9, 9}).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(proxy->ReadDirectory(FileId{9, 9}).status().code(), ErrorCode::kNotFound);
}

TEST_F(FacadeTest, DirectoryOpsThroughProxy) {
  auto proxy = DirectProxy();
  auto dir = proxy->CreateChild(kRootFileId, "d", FicusFileType::kDirectory, 0);
  ASSERT_TRUE(dir.ok());
  auto file = proxy->CreateChild(*dir, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(proxy->RenameEntry(*dir, "f", kRootFileId, "g").ok());
  ASSERT_TRUE(proxy->AddEntry(*dir, "link", *file, FicusFileType::kRegular).ok());
  ASSERT_TRUE(proxy->RemoveEntry(*dir, "link").ok());
  auto entries = proxy->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  int alive = 0;
  for (const auto& e : *entries) {
    if (e.alive) {
      ++alive;
    }
  }
  EXPECT_EQ(alive, 2);  // "d" and "g"
}

TEST_F(FacadeTest, InstallVersionAndConflictThroughProxy) {
  auto proxy = DirectProxy();
  auto file = proxy->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  VersionVector vv;
  vv.Increment(1);
  vv.Increment(2);
  ASSERT_TRUE(proxy->InstallVersion(*file, {7, 7}, vv).ok());
  ASSERT_TRUE(proxy->SetConflict(*file, true).ok());
  auto attrs = proxy->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_TRUE(attrs->conflict);
  EXPECT_TRUE(attrs->vv == vv);
}

TEST_F(FacadeTest, ApplyEntryAndMergeThroughProxy) {
  auto proxy = DirectProxy();
  FicusDirEntry entry;
  entry.name = "remote";
  entry.file = FileId{2, 1};
  entry.type = FicusFileType::kRegular;
  entry.alive = true;
  entry.vv.Increment(2);
  ASSERT_TRUE(proxy->ApplyEntry(kRootFileId, entry).ok());
  VersionVector dir_vv;
  dir_vv.Increment(2);
  ASSERT_TRUE(proxy->MergeDirVersion(kRootFileId, dir_vv).ok());
  auto attrs = proxy->GetAttributes(kRootFileId);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->vv.Count(2), 1u);
}

TEST_F(FacadeTest, SymlinksAndOpenCloseThroughProxy) {
  auto proxy = DirectProxy();
  auto link = proxy->CreateChild(kRootFileId, "l", FicusFileType::kSymlink, 0);
  ASSERT_TRUE(link.ok());
  ASSERT_TRUE(proxy->WriteLink(*link, "t/arget").ok());
  auto target = proxy->ReadLink(*link);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), "t/arget");
  ASSERT_TRUE(proxy->NoteOpen(*link).ok());
  ASSERT_TRUE(proxy->NoteClose(*link).ok());
  EXPECT_EQ(layer_->stats().opens_noted, 1u);
  EXPECT_EQ(layer_->stats().closes_noted, 1u);
}

TEST_F(FacadeTest, BlockDigestsThroughProxy) {
  auto proxy = DirectProxy();
  auto file = proxy->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> payload(kDeltaBlockSize + 100, 0x3C);
  ASSERT_TRUE(proxy->WriteData(*file, 0, payload).ok());

  auto info = proxy->ReadBlockDigests(*file);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->file_size, payload.size());
  ASSERT_EQ(info->digests.size(), 2u);
  EXPECT_EQ(info->digests[0], ContentHash(payload.data(), kDeltaBlockSize));
  EXPECT_EQ(info->digests[1], ContentHash(payload.data() + kDeltaBlockSize, 100));
  // Digests of a directory are refused through the same encoding.
  EXPECT_EQ(proxy->ReadBlockDigests(kRootFileId).status().code(), ErrorCode::kIsDir);
}

TEST_F(FacadeTest, BatchGetAttributesThroughProxy) {
  auto proxy = DirectProxy();
  auto f1 = proxy->CreateChild(kRootFileId, "f1", FicusFileType::kRegular, 0);
  auto f2 = proxy->CreateChild(kRootFileId, "f2", FicusFileType::kRegular, 0);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(proxy->WriteData(*f2, 0, {1}).ok());

  auto rows = proxy->BatchGetAttributes({*f1, *f2, FileId{9, 9}});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].file, *f1);
  ASSERT_TRUE((*rows)[0].status.ok());
  EXPECT_EQ((*rows)[0].attrs.type, FicusFileType::kRegular);
  ASSERT_TRUE((*rows)[1].status.ok());
  EXPECT_EQ((*rows)[1].attrs.vv.Count(1), 2u);  // create + write
  // Per-file errors ride inside the batch instead of failing it.
  EXPECT_EQ((*rows)[2].status.code(), ErrorCode::kNotFound);
}

TEST_F(FacadeTest, OutOfRangeFileTypesAreRefused) {
  auto file = layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  for (uint8_t type : {0, 5}) {
    std::vector<uint8_t> create;
    ByteWriter c(create);
    c.PutU8(static_cast<uint8_t>(PhysOp::kCreateChild));
    PutFileId(c, kRootFileId);
    c.PutString("bad");
    c.PutU8(type);
    c.PutU32(0);
    std::vector<uint8_t> add;
    ByteWriter a(add);
    a.PutU8(static_cast<uint8_t>(PhysOp::kAddEntry));
    PutFileId(a, kRootFileId);
    a.PutString("alias");
    PutFileId(a, *file);
    a.PutU8(type);
    for (const auto& request : {create, add}) {
      std::vector<uint8_t> response = ExecutePhysRequest(layer_.get(), request);
      ByteReader r(response);
      EXPECT_EQ(ReadWireStatus(r).code(), ErrorCode::kCorrupt)
          << "opcode " << static_cast<int>(request[0]) << ", type " << static_cast<int>(type);
    }
  }
  auto problems = layer_->CheckConsistency();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
  PhysicalLayer fresh(&ufs_, &clock_);
  ASSERT_TRUE(fresh.Attach("vol1").ok());
  auto entries = fresh.ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);  // only "f"
}

// The real deployment: proxy -> NFS client -> network -> NFS server ->
// facade -> physical layer. Open/close information survives because it is
// encoded in lookup names, which NFS forwards verbatim.
class FacadeOverNfsTest : public FacadeTest {
 protected:
  FacadeOverNfsTest() : network_(&clock_) {
    server_host_ = network_.AddHost("server");
    client_host_ = network_.AddHost("client");
    server_ = std::make_unique<nfs::NfsServer>(&network_, server_host_, facade_.get());
    // Transport caches off, as the Ficus layers require (section 2.2).
    nfs::ClientConfig config;
    config.attr_cache_ttl = 0;
    config.dnlc_ttl = 0;
    client_ = std::make_unique<nfs::NfsClient>(&network_, client_host_, server_host_,
                                               &clock_, config);
  }

  std::unique_ptr<RemotePhysical> NfsProxy() {
    auto root = client_->Root();
    EXPECT_TRUE(root.ok());
    auto proxy = std::make_unique<RemotePhysical>(root.value());
    EXPECT_TRUE(proxy->Connect().ok());
    return proxy;
  }

  net::Network network_;
  net::HostId server_host_, client_host_;
  std::unique_ptr<nfs::NfsServer> server_;
  std::unique_ptr<nfs::NfsClient> client_;
};

TEST_F(FacadeOverNfsTest, FullApiAcrossTheWire) {
  auto proxy = NfsProxy();
  EXPECT_EQ(proxy->volume_id(), (VolumeId{1, 1}));
  auto file = proxy->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> payload(10000, 0x5A);
  ASSERT_TRUE(proxy->WriteData(*file, 0, payload).ok());
  auto data = proxy->ReadAllData(*file);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), payload);
}

TEST_F(FacadeOverNfsTest, BlockDigestsAndBatchedAttributesAcrossTheWire) {
  auto proxy = NfsProxy();
  auto file = proxy->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> payload(3 * kDeltaBlockSize, 0x7E);
  ASSERT_TRUE(proxy->WriteData(*file, 0, payload).ok());

  auto info = proxy->ReadBlockDigests(*file);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->file_size, payload.size());
  ASSERT_EQ(info->digests.size(), 3u);
  for (uint64_t d : info->digests) {
    EXPECT_EQ(d, ContentHash(payload.data(), kDeltaBlockSize));
  }

  auto rows = proxy->BatchGetAttributes({*file, FileId{9, 9}});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_TRUE((*rows)[0].status.ok());
  EXPECT_EQ((*rows)[1].status.code(), ErrorCode::kNotFound);

  // A ranged read works across the hop too (the delta path's fetch RPC).
  auto piece = proxy->ReadData(*file, kDeltaBlockSize, kDeltaBlockSize);
  ASSERT_TRUE(piece.ok());
  EXPECT_EQ(piece->size(), kDeltaBlockSize);
  EXPECT_EQ((*piece)[0], 0x7E);
}

TEST_F(FacadeOverNfsTest, OpenCloseInformationSurvivesNfs) {
  auto proxy = NfsProxy();
  auto file = proxy->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  // NoteOpen is carried inside a lookup name; a vnode-level Open would
  // have been silently absorbed by the NFS client.
  ASSERT_TRUE(proxy->NoteOpen(*file).ok());
  EXPECT_EQ(layer_->stats().opens_noted, 1u);
}

TEST_F(FacadeOverNfsTest, CachingTransportNeverReplaysAResponse) {
  // The paper's section-2.2 warning is about NFS caches answering for the
  // server. A small request rides a LookupRead, which mints no handle and
  // which the client never caches, so even a transport with long attribute
  // and name caches carries every request to the facade: the layer above
  // sees the fresh vector. (nfs_cache_test shows the hazard on plain
  // NFS files.)
  nfs::ClientConfig caching;
  caching.attr_cache_ttl = 30 * kSecond;
  caching.dnlc_ttl = 30 * kSecond;
  nfs::NfsClient cached_client(&network_, client_host_, server_host_, &clock_, caching);
  auto root = cached_client.Root();
  ASSERT_TRUE(root.ok());
  RemotePhysical proxy(root.value());
  ASSERT_TRUE(proxy.Connect().ok());

  auto file = proxy.CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0);
  ASSERT_TRUE(file.ok());
  auto before = proxy.GetAttributes(*file);
  ASSERT_TRUE(before.ok());

  // A co-resident writer updates the file (vv advances).
  ASSERT_TRUE(layer_->WriteData(*file, 0, {1, 2, 3}).ok());

  auto after = proxy.GetAttributes(*file);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->vv.StrictlyDominates(before->vv));
}

TEST_F(FacadeOverNfsTest, ResentRemoveEntryRunsOnce) {
  // A RemoveEntry whose reply was lost is resent with the same xid. Running
  // it again would fail with kNotFound although the first run removed the
  // entry; the NFS server answers the resend with the reply it kept.
  ASSERT_TRUE(layer_->CreateChild(kRootFileId, "f", FicusFileType::kRegular, 0).ok());
  auto root = client_->Root();
  ASSERT_TRUE(root.ok());
  std::vector<uint8_t> remove{static_cast<uint8_t>(PhysOp::kRemoveEntry)};
  ByteWriter op(remove);
  PutFileId(op, kRootFileId);
  op.PutString("f");
  auto send = [&](uint64_t xid) -> Status {
    net::Payload call;
    ByteWriter w(call);
    nfs::PutCallHeader(w, nfs::CallHeader{.client = 0, .xid = xid, .floor = xid});
    w.PutU8(static_cast<uint8_t>(nfs::NfsProc::kLookupRead));
    nfs::PutContext(w, vfs::OpContext{});
    w.PutU64(dynamic_cast<nfs::NfsVnode*>(root->get())->handle());
    w.PutString("@req:" + HexEncodeBytes(remove));
    FICUS_ASSIGN_OR_RETURN(net::Payload reply,
                           network_.Rpc(client_host_, server_host_, nfs::kNfsService, call));
    ByteReader r(reply);
    FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
    FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> response, r.GetBytes());
    ByteReader facade(response);
    return ReadWireStatus(facade);
  };
  EXPECT_TRUE(send(1).ok());
  EXPECT_TRUE(send(1).ok());
  auto entries = layer_->ReadDirectory(kRootFileId);
  ASSERT_TRUE(entries.ok());
  for (const FicusDirEntry& entry : *entries) {
    EXPECT_FALSE(entry.alive) << entry.name;
  }
  // The same request under a new xid is a new call, and runs.
  EXPECT_EQ(send(2).code(), ErrorCode::kNotFound);
}

TEST_F(FacadeOverNfsTest, StaleRootRecoveredThroughRefresher) {
  // Build a proxy with a refresher, then restart the NFS server so every
  // handle (including the cached facade root) goes stale. The next call
  // must transparently re-acquire the root and succeed — standard NFS
  // ESTALE recovery.
  auto root = client_->Root();
  ASSERT_TRUE(root.ok());
  auto refresher = [this]() -> StatusOr<vfs::VnodePtr> {
    client_->ForgetRoot();
    return client_->Root();
  };
  RemotePhysical proxy(root.value(), refresher);
  ASSERT_TRUE(proxy.Connect().ok());
  ASSERT_TRUE(proxy.GetAttributes(kRootFileId).ok());

  server_->FlushHandles();
  client_->InvalidateCaches();

  EXPECT_TRUE(proxy.GetAttributes(kRootFileId).ok());
}

TEST_F(FacadeOverNfsTest, StaleRootWithoutRefresherStaysStale) {
  auto root = client_->Root();
  ASSERT_TRUE(root.ok());
  RemotePhysical proxy(root.value());  // no refresher
  ASSERT_TRUE(proxy.Connect().ok());
  server_->FlushHandles();
  client_->InvalidateCaches();
  EXPECT_EQ(proxy.GetAttributes(kRootFileId).status().code(), ErrorCode::kStale);
}

TEST_F(FacadeOverNfsTest, PartitionSurfacesAsUnreachable) {
  auto proxy = NfsProxy();
  network_.DisconnectPair(client_host_, server_host_);
  EXPECT_EQ(proxy->GetAttributes(kRootFileId).status().code(), ErrorCode::kUnreachable);
  network_.ConnectPair(client_host_, server_host_);
  EXPECT_TRUE(proxy->GetAttributes(kRootFileId).ok());
}

}  // namespace
}  // namespace ficus::repl
