// Builds the paper's Figure 1 / Figure 2 stacks end to end:
//   co-resident:   system calls -> logical -> physical -> UFS
//   cross-host:    system calls -> logical -> NFS client -> network ->
//                  NFS server -> physical facade -> physical -> UFS
// and verifies the same client-visible behaviour through both.
#include <gtest/gtest.h>

#include "src/nfs/client.h"
#include "src/nfs/server.h"
#include "src/repl/facade.h"
#include "src/repl/logical.h"
#include "src/repl/physical.h"
#include "src/vfs/pass_through.h"
#include "src/vfs/path_ops.h"
#include "src/vfs/syscalls.h"
#include "tests/repl/replica_fixture.h"

namespace ficus::repl {
namespace {

// Resolver that serves one replica through an arbitrary PhysicalApi
// (lets us splice a RemotePhysical into the logical layer's path).
class SpliceResolver : public ReplicaResolver {
 public:
  void Add(ReplicaId replica, PhysicalApi* api) { replicas_[replica] = api; }

  std::vector<ReplicaId> ReplicasOf(const VolumeId&) override {
    std::vector<ReplicaId> out;
    for (const auto& [id, api] : replicas_) {
      out.push_back(id);
    }
    return out;
  }

  StatusOr<PhysicalApi*> Access(const VolumeId&, ReplicaId replica) override {
    auto it = replicas_.find(replica);
    if (it == replicas_.end()) {
      return NotFoundError("no replica");
    }
    return it->second;
  }

 private:
  std::map<ReplicaId, PhysicalApi*> replicas_;
};

class FullStackTest : public ::testing::Test {
 protected:
  FullStackTest()
      : network_(&clock_), device_(8192), cache_(&device_, 256), ufs_(&cache_, &clock_) {
    EXPECT_TRUE(ufs_.Format(1024).ok());
    physical_ = std::make_unique<PhysicalLayer>(&ufs_, &clock_);
    EXPECT_TRUE(physical_->CreateVolume(VolumeId{1, 1}, 1, "vol", true).ok());
    facade_ = std::make_unique<PhysicalFacadeVfs>(physical_.get());

    server_host_ = network_.AddHost("server");
    client_host_ = network_.AddHost("client");
    server_ = std::make_unique<nfs::NfsServer>(&network_, server_host_, facade_.get());
    nfs::ClientConfig config;
    config.attr_cache_ttl = 0;
    config.dnlc_ttl = 0;
    nfs_client_ = std::make_unique<nfs::NfsClient>(&network_, client_host_, server_host_,
                                                   &clock_, config);
  }

  SimClock clock_;
  net::Network network_;
  storage::BlockDevice device_;
  storage::BufferCache cache_;
  ufs::Ufs ufs_;
  std::unique_ptr<PhysicalLayer> physical_;
  std::unique_ptr<PhysicalFacadeVfs> facade_;
  net::HostId server_host_, client_host_;
  std::unique_ptr<nfs::NfsServer> server_;
  std::unique_ptr<nfs::NfsClient> nfs_client_;
};

TEST_F(FullStackTest, CoResidentStack) {
  // Figure 1 without the NFS layer: logical directly over physical.
  SpliceResolver resolver;
  resolver.Add(1, physical_.get());
  LogicalLayer logical(VolumeId{1, 1}, &resolver, nullptr, nullptr, &clock_);

  ASSERT_TRUE(vfs::MkdirAll(&logical, "home/user").ok());
  ASSERT_TRUE(vfs::WriteFileAt(&logical, "home/user/notes.txt", "co-resident").ok());
  auto contents = vfs::ReadFileAt(&logical, "home/user/notes.txt");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "co-resident");
}

TEST_F(FullStackTest, CrossHostStackThroughNfs) {
  // Figure 2: the logical layer's physical replica lives across an NFS
  // transport, reached via the lookup-encoded facade protocol.
  auto export_root = nfs_client_->Root();
  ASSERT_TRUE(export_root.ok());
  auto proxy = std::make_unique<RemotePhysical>(export_root.value());
  ASSERT_TRUE(proxy->Connect().ok());

  SpliceResolver resolver;
  resolver.Add(1, proxy.get());
  LogicalLayer logical(VolumeId{1, 1}, &resolver, nullptr, nullptr, &clock_);

  ASSERT_TRUE(vfs::MkdirAll(&logical, "home/user").ok());
  ASSERT_TRUE(vfs::WriteFileAt(&logical, "home/user/notes.txt", "over the wire").ok());
  auto contents = vfs::ReadFileAt(&logical, "home/user/notes.txt");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "over the wire");

  // The bytes genuinely live in the server-side UFS.
  SpliceResolver local_resolver;
  local_resolver.Add(1, physical_.get());
  LogicalLayer local_view(VolumeId{1, 1}, &local_resolver, nullptr, nullptr, &clock_);
  auto local_contents = vfs::ReadFileAt(&local_view, "home/user/notes.txt");
  ASSERT_TRUE(local_contents.ok());
  EXPECT_EQ(local_contents.value(), "over the wire");
}

TEST_F(FullStackTest, NullLayersSliceInTransparently) {
  // "layers can indeed be transparently inserted between other layers"
  // (section 7): wrap the logical layer in pass-through layers and run
  // the same workload.
  SpliceResolver resolver;
  resolver.Add(1, physical_.get());
  LogicalLayer logical(VolumeId{1, 1}, &resolver, nullptr, nullptr, &clock_);
  vfs::PassThroughVfs wrapped(&logical);
  vfs::PassThroughVfs doubly_wrapped(&wrapped);

  ASSERT_TRUE(vfs::WriteFileAt(&doubly_wrapped, "f", "through 2 null layers").ok());
  auto through_bottom = vfs::ReadFileAt(&logical, "f");
  ASSERT_TRUE(through_bottom.ok());
  EXPECT_EQ(through_bottom.value(), "through 2 null layers");
}

TEST_F(FullStackTest, ColdOpenCostsFourExtraReads) {
  // Experiment P2 in miniature (the bench sweeps this properly): opening
  // a file in a non-recently-accessed directory costs 4 device reads
  // beyond the normal Unix overhead — the underlying Unix directory
  // (inode + data) and the auxiliary attribute file (inode + data).
  SpliceResolver resolver;
  resolver.Add(1, physical_.get());
  LogicalLayer logical(VolumeId{1, 1}, &resolver, nullptr, nullptr, &clock_);
  ASSERT_TRUE(vfs::MkdirAll(&logical, "dir").ok());
  ASSERT_TRUE(vfs::WriteFileAt(&logical, "dir/file", "payload").ok());

  // Cold: drop the buffer cache entirely.
  cache_.Invalidate();
  device_.ResetStats();
  ASSERT_TRUE(vfs::OpenReadClose(&logical, "dir/file").ok());
  uint64_t cold_reads = device_.stats().reads;

  // Warm: repeat immediately; the paper says no overhead beyond normal
  // Unix — with everything cached that means zero device reads.
  device_.ResetStats();
  ASSERT_TRUE(vfs::OpenReadClose(&logical, "dir/file").ok());
  uint64_t warm_reads = device_.stats().reads;

  EXPECT_GT(cold_reads, 4u);  // includes the normal Unix reads too
  EXPECT_EQ(warm_reads, 0u);
}

TEST_F(FullStackTest, RenameOntoItselfKeepsTheFile) {
  SpliceResolver resolver;
  resolver.Add(1, physical_.get());
  LogicalLayer logical(VolumeId{1, 1}, &resolver, nullptr, nullptr, &clock_);
  vfs::SyscallInterface sys(&logical);
  ASSERT_TRUE(vfs::WriteFileAt(&logical, "a", "contents").ok());
  ASSERT_TRUE(sys.Rename("/a", "/a").ok());
  auto collected = physical_->GarbageCollect();
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected.value(), 0);
  auto contents = vfs::ReadFileAt(&logical, "a");
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value(), "contents");
  auto problems = physical_->CheckConsistency();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

TEST_F(FullStackTest, UfsStaysCleanUnderFicusTraffic) {
  SpliceResolver resolver;
  resolver.Add(1, physical_.get());
  LogicalLayer logical(VolumeId{1, 1}, &resolver, nullptr, nullptr, &clock_);
  for (int i = 0; i < 20; ++i) {
    std::string dir = "d" + std::to_string(i % 4);
    ASSERT_TRUE(vfs::MkdirAll(&logical, dir).ok());
    ASSERT_TRUE(
        vfs::WriteFileAt(&logical, dir + "/f" + std::to_string(i), std::string(i * 100, 'x'))
            .ok());
  }
  for (int i = 0; i < 20; i += 3) {
    std::string path = "d" + std::to_string(i % 4) + "/f" + std::to_string(i);
    ASSERT_TRUE(vfs::RemovePath(&logical, path).ok());
  }
  ASSERT_TRUE(physical_->GarbageCollect().ok());
  auto problems = ufs_.Check();
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty()) << problems->front();
}

}  // namespace
}  // namespace ficus::repl
