// Adversarial inputs to the NFS server: truncated requests and headers,
// unknown procedures, bogus handles, and random garbage must produce error
// responses — never crashes or silent corruption. A resent call runs once.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/nfs/client.h"
#include "src/nfs/server.h"
#include "src/vfs/mem_vfs.h"
#include "src/vfs/path_ops.h"

namespace ficus::nfs {
namespace {

class ProtocolRobustnessTest : public ::testing::Test {
 protected:
  ProtocolRobustnessTest() : network_(&clock_), exported_(&clock_) {
    server_host_ = network_.AddHost("server");
    client_host_ = network_.AddHost("client");
    server_ = std::make_unique<NfsServer>(&network_, server_host_, &exported_);
    EXPECT_TRUE(vfs::WriteFileAt(&exported_, "canary", "alive").ok());
  }

  // Frames `body` (procedure number onward) behind a call header with a
  // fresh xid, as client 0 (an id no NfsClient takes).
  net::Payload Framed(const net::Payload& body) {
    net::Payload request;
    ByteWriter w(request);
    ++xid_;
    PutCallHeader(w, CallHeader{.client = 0, .xid = xid_, .floor = xid_});
    request.insert(request.end(), body.begin(), body.end());
    return request;
  }

  // Sends raw bytes as an RPC and returns the decoded leading status.
  Status SendRaw(const net::Payload& request) {
    auto response = network_.Rpc(client_host_, server_host_, kNfsService, request);
    if (!response.ok()) {
      return response.status();
    }
    ByteReader r(response.value());
    return ReadWireStatus(r);
  }

  // The exported filesystem must be untouched by hostile traffic.
  void ExpectCanaryIntact() {
    auto canary = vfs::ReadFileAt(&exported_, "canary");
    ASSERT_TRUE(canary.ok());
    EXPECT_EQ(canary.value(), "alive");
  }

  SimClock clock_;
  net::Network network_;
  vfs::MemVfs exported_;
  net::HostId server_host_, client_host_;
  std::unique_ptr<NfsServer> server_;
  uint64_t xid_ = 0;
};

TEST_F(ProtocolRobustnessTest, EmptyRequestRejected) {
  EXPECT_FALSE(SendRaw(Framed({})).ok());
  ExpectCanaryIntact();
}

TEST_F(ProtocolRobustnessTest, TruncatedHeaderIsCorruptAndRunsNothing) {
  NfsClient client(&network_, client_host_, server_host_, &clock_);
  auto root = client.Root();
  ASSERT_TRUE(root.ok());
  net::Payload remove;
  ByteWriter w(remove);
  w.PutU8(static_cast<uint8_t>(NfsProc::kRemove));
  PutContext(w, vfs::OpContext{});
  w.PutU64(dynamic_cast<NfsVnode*>(root->get())->handle());
  w.PutString("canary");
  const uint64_t calls_before = server_->stats().calls;
  net::Payload framed = Framed(remove);
  for (size_t length = 0; length < kCallHeaderSize; ++length) {
    net::Payload cut(framed.begin(), framed.begin() + static_cast<ptrdiff_t>(length));
    EXPECT_EQ(SendRaw(cut).code(), ErrorCode::kCorrupt) << length << " bytes";
  }
  EXPECT_EQ(server_->stats().calls - calls_before, kCallHeaderSize);
  EXPECT_EQ(server_->stats().errors, kCallHeaderSize);
  ExpectCanaryIntact();
}

TEST_F(ProtocolRobustnessTest, ResentCallRunsOnce) {
  // A REMOVE whose reply was lost is resent with the same xid. Running it
  // again would fail with kNotFound although the first run removed the
  // file; the server answers the resend with the reply it kept.
  NfsClient client(&network_, client_host_, server_host_, &clock_);
  auto root = client.Root();
  ASSERT_TRUE(root.ok());
  net::Payload body;
  ByteWriter w(body);
  w.PutU8(static_cast<uint8_t>(NfsProc::kRemove));
  PutContext(w, vfs::OpContext{});
  w.PutU64(dynamic_cast<NfsVnode*>(root->get())->handle());
  w.PutString("canary");
  net::Payload remove = Framed(body);
  EXPECT_TRUE(SendRaw(remove).ok());
  EXPECT_TRUE(SendRaw(remove).ok());
  EXPECT_EQ(vfs::ReadFileAt(&exported_, "canary").status().code(), ErrorCode::kNotFound);
  // The same call under a new xid is a new call, and runs.
  EXPECT_EQ(SendRaw(Framed(body)).code(), ErrorCode::kNotFound);
  // A restart empties the cache: the resend now runs, against a handle
  // the restart retired.
  server_->FlushHandles();
  EXPECT_EQ(SendRaw(remove).code(), ErrorCode::kStale);
}

TEST_F(ProtocolRobustnessTest, UnknownProcedureRejected) {
  net::Payload request;
  ByteWriter w(request);
  w.PutU8(250);  // no such procedure
  PutContext(w, vfs::OpContext{});
  Status status = SendRaw(Framed(request));
  EXPECT_FALSE(status.ok());
  ExpectCanaryIntact();
}

TEST_F(ProtocolRobustnessTest, BogusHandleIsStale) {
  net::Payload request;
  ByteWriter w(request);
  w.PutU8(static_cast<uint8_t>(NfsProc::kGetAttr));
  PutContext(w, vfs::OpContext{});
  w.PutU64(0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(SendRaw(Framed(request)).code(), ErrorCode::kStale);
}

TEST_F(ProtocolRobustnessTest, TruncatedArgumentsRejected) {
  // A lookup with the name chopped off mid-length-prefix.
  net::Payload request;
  ByteWriter w(request);
  w.PutU8(static_cast<uint8_t>(NfsProc::kLookup));
  PutContext(w, vfs::OpContext{});
  w.PutU64(1);
  request.push_back(0x05);  // half of a u16 length
  const uint64_t errors_before = server_->stats().errors;
  EXPECT_FALSE(SendRaw(Framed(request)).ok());
  EXPECT_EQ(server_->stats().errors - errors_before, 1u);
  // The call itself succeeds: it carries an NFS error reply, like any
  // other failed request.
  auto response = network_.Rpc(client_host_, server_host_, kNfsService, Framed(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ByteReader r(response.value());
  EXPECT_EQ(ReadWireStatus(r).code(), ErrorCode::kCorrupt);
  ExpectCanaryIntact();
}

TEST_F(ProtocolRobustnessTest, RandomGarbageNeverCrashes) {
  Rng rng(SeedFromEnvOr(20260705, "nfs_robustness.random_garbage"));
  for (int trial = 0; trial < 500; ++trial) {
    size_t length = rng.NextBelow(64);
    net::Payload request(length);
    for (auto& b : request) {
      b = static_cast<uint8_t>(rng.Next());
    }
    (void)SendRaw(request);  // must not crash; status may be anything
  }
  ExpectCanaryIntact();
  // The server keeps working for honest clients afterwards.
  NfsClient client(&network_, client_host_, server_host_, &clock_);
  auto contents = vfs::ReadFileAt(&client, "canary");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "alive");
}

TEST_F(ProtocolRobustnessTest, MutationWithBogusHandleChangesNothing) {
  net::Payload request;
  ByteWriter w(request);
  w.PutU8(static_cast<uint8_t>(NfsProc::kRemove));
  PutContext(w, vfs::OpContext{});
  w.PutU64(424242);
  w.PutString("canary");
  EXPECT_FALSE(SendRaw(Framed(request)).ok());
  ExpectCanaryIntact();
}

TEST_F(ProtocolRobustnessTest, OversizedWritePayloadHandled) {
  // Get a real handle first.
  NfsClient client(&network_, client_host_, server_host_, &clock_);
  auto root = client.Root();
  ASSERT_TRUE(root.ok());
  auto file = (*root)->Lookup("canary", {});
  ASSERT_TRUE(file.ok());
  // Claim a byte-array length far beyond the actual payload.
  net::Payload request;
  ByteWriter w(request);
  w.PutU8(static_cast<uint8_t>(NfsProc::kWrite));
  PutContext(w, vfs::OpContext{});
  w.PutU64(dynamic_cast<NfsVnode*>(file->get())->handle());
  w.PutU64(0);
  w.PutU32(0x7FFFFFFF);  // lies: "2 GiB follow"
  request.push_back('x');
  EXPECT_FALSE(SendRaw(Framed(request)).ok());
  ExpectCanaryIntact();
}

}  // namespace
}  // namespace ficus::nfs
