// Wire protocol for the simulated NFS transport (paper section 2.2).
//
// Deliberate fidelity to the real NFS of the paper's era:
//   * stateless: the server holds no open-file state. Its file-handle
//     table maps durable names, and its duplicate-request cache keeps
//     about one reply per client, so a retried call runs once;
//   * there are NO open/close procedures — a layer above an NFS hop that
//     wants open/close must tunnel them (Ficus overloads lookup, §2.3);
//   * there is no ioctl-style escape hatch either, which is why the
//     overloading trick is needed at all.
#ifndef FICUS_SRC_NFS_PROTOCOL_H_
#define FICUS_SRC_NFS_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/status.h"
#include "src/vfs/vnode.h"

namespace ficus::nfs {

// Durable server-side name for a vnode.
using NfsHandle = uint64_t;
constexpr NfsHandle kInvalidHandle = 0;

// Entries per READDIR page — clients loop with a cookie until EOF, as in
// the real protocol (a directory can exceed any single response).
inline constexpr uint32_t kReaddirPageSize = 128;

// RPC procedure numbers. Note the absence of OPEN and CLOSE.
enum class NfsProc : uint8_t {
  kNull = 0,
  kGetRoot = 1,
  kGetAttr = 2,
  kSetAttr = 3,
  kLookup = 4,
  kCreate = 5,
  kRemove = 6,
  kMkdir = 7,
  kRmdir = 8,
  kLink = 9,
  kRename = 10,
  kReaddir = 11,
  kSymlink = 12,
  kReadlink = 13,
  kRead = 14,
  kWrite = 15,
  kStatfs = 16,
  // Batched readdir + per-entry attributes, one page per RPC — the
  // NFSv3 READDIRPLUS idea, here so an `ls -l` scan of an N-entry
  // directory does not cost N+1 round trips.
  kReaddirPlus = 17,
  // Combined LOOKUP + whole-contents READ of the named child in one RPC,
  // with no handle minted for the child. Not an NFSv2 procedure: it is
  // the carrier of every small Ficus facade request (an encoded name in,
  // the marshalled response out), one round trip instead of two.
  kLookupRead = 18,
};

// Number of procedures (for per-proc counter tables).
inline constexpr size_t kNfsProcCount = 19;

// Stable lower-case name of a procedure ("lookup", "read", ...) used to
// build per-proc metric names like `nfs.client.proc.lookup`. Returns
// "unknown" for out-of-range values.
const char* NfsProcName(NfsProc proc);

// Name of the RPC service an NfsServer registers on its host port.
inline constexpr char kNfsService[] = "nfs";

// Every call opens with this header, ahead of the procedure number: the
// sending client, the call's transaction id (xid), which every retry of
// the call reuses, and the lowest xid that client still has in flight. A
// server answers a repeated (client, xid) from its reply cache instead of
// running the call twice, and forgets the client's replies below `floor`.
struct CallHeader {
  uint64_t client = 0;
  uint64_t xid = 0;
  uint64_t floor = 0;
};
inline constexpr size_t kCallHeaderSize = 24;

// --- shared marshalling helpers (Status: src/common/serialize.h) ---

void PutCallHeader(ByteWriter& w, const CallHeader& header);
Status GetCallHeader(ByteReader& r, CallHeader& header);

void PutVAttr(ByteWriter& w, const vfs::VAttr& attr);
Status GetVAttr(ByteReader& r, vfs::VAttr& attr);

void PutSetAttr(ByteWriter& w, const vfs::SetAttrRequest& request);
Status GetSetAttr(ByteReader& r, vfs::SetAttrRequest& request);

void PutCred(ByteWriter& w, const vfs::Credentials& cred);
Status GetCred(ByteReader& r, vfs::Credentials& cred);

// Per-operation context on the wire: credentials plus trace id and
// absolute deadline, so a remote layer continues the caller's trace and
// can refuse work whose deadline already passed. Every request carries
// one, directly after the procedure number.
void PutContext(ByteWriter& w, const vfs::OpContext& ctx);
// Fills cred/trace/deadline; clock and metrics are local concerns the
// receiver attaches itself.
Status GetContext(ByteReader& r, vfs::OpContext& ctx);

}  // namespace ficus::nfs

#endif  // FICUS_SRC_NFS_PROTOCOL_H_
