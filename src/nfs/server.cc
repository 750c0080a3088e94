#include "src/nfs/server.h"

#include <algorithm>
#include <future>
#include <mutex>
#include <utility>

namespace ficus::nfs {

using net::Payload;
using vfs::Credentials;
using vfs::OpContext;
using vfs::SetAttrRequest;
using vfs::VAttr;
using vfs::VnodePtr;

NfsServer::NfsServer(net::Network* network, net::HostId host, vfs::Vfs* exported,
                     std::string service, const Clock* clock, MetricRegistry* metrics)
    : network_(network),
      host_(host),
      exported_(exported),
      clock_(clock),
      registry_(metrics != nullptr ? metrics : &owned_registry_) {
  stats_.calls = registry_->counter("nfs.server.calls");
  stats_.errors = registry_->counter("nfs.server.errors");
  for (size_t i = 0; i < kNfsProcCount; ++i) {
    proc_cells_[i] = registry_->counter(std::string("nfs.server.proc.") +
                                        NfsProcName(static_cast<NfsProc>(i)));
  }
  net::HostPort* port = network_->port(host_);
  if (port != nullptr) {
    port->RegisterRpcService(
        std::move(service), [this](net::HostId sender, const Payload& request) {
          return Serve(sender, request);
        });
  }
}

namespace {

Payload ErrorResponse(const Status& status) {
  Payload out;
  ByteWriter w(out);
  PutStatus(w, status);
  return out;
}

}  // namespace

StatusOr<Payload> NfsServer::Serve(net::HostId sender, const Payload& request) {
  ByteReader r(request);
  CallHeader header;
  Status framed = GetCallHeader(r, header);
  if (!framed.ok()) {
    stats_.calls->Increment();
    stats_.errors->Increment();
    return ErrorResponse(framed);
  }
  const auto client = std::make_pair(sender, header.client);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& kept = replies_[client];
    kept.erase(kept.begin(), kept.lower_bound(header.floor));
    auto replay = kept.find(header.xid);
    if (replay != kept.end()) {
      return replay->second;
    }
  }
  StatusOr<Payload> reply = [this, &r]() -> StatusOr<Payload> {
    if (service_pool_ == nullptr) {
      return Dispatch(r);
    }
    // Hand the request to the bounded service pool and wait for its reply.
    // Submit() blocks when every service slot is busy, which is the
    // backpressure a fixed nfsd population applies to its transports.
    std::promise<StatusOr<Payload>> served;
    std::future<StatusOr<Payload>> got = served.get_future();
    service_pool_->Submit([this, &r, &served] { served.set_value(Dispatch(r)); });
    return got.get();
  }();
  std::lock_guard<std::mutex> lock(mu_);
  replies_[client].insert_or_assign(header.xid, reply);
  return reply;
}

ServerStats NfsServer::stats() const {
  ServerStats out;
  out.calls = stats_.calls->value();
  out.errors = stats_.errors->value();
  return out;
}

void NfsServer::FlushHandles() {
  std::lock_guard<std::mutex> lock(mu_);
  handle_to_vnode_.clear();
  file_to_handle_.clear();
  replies_.clear();
}

NfsHandle NfsServer::HandleFor(const VnodePtr& vnode) {
  // Different vnode objects can name the same file (each Lookup may mint a
  // fresh vnode); unify on (fsid, fileid) so handles are durable names.
  // GetAttr runs before taking mu_ so the table lock is not held across a
  // vnode-stack call on the common path.
  auto attr = vnode->GetAttr();
  std::lock_guard<std::mutex> lock(mu_);
  if (attr.ok()) {
    auto key = std::make_pair(attr->fsid, attr->fileid);
    auto it = file_to_handle_.find(key);
    if (it != file_to_handle_.end()) {
      // Re-point the handle at the fresh vnode: facade session vnodes and
      // post-rename vnodes carry state the stale object lacks.
      handle_to_vnode_[it->second] = vnode;
      return it->second;
    }
  }
  NfsHandle handle = next_handle_++;
  handle_to_vnode_[handle] = vnode;
  if (attr.ok()) {
    file_to_handle_[std::make_pair(attr->fsid, attr->fileid)] = handle;
  }
  EvictExcessHandlesLocked();
  return handle;
}

void NfsServer::EvictExcessHandlesLocked() {
  while (handle_to_vnode_.size() > kMaxHandles) {
    // Handles are issued in increasing order, so begin() is the oldest.
    auto oldest = handle_to_vnode_.begin();
    if (oldest->first == root_handle_) {
      ++oldest;
      if (oldest == handle_to_vnode_.end()) {
        return;
      }
    }
    auto attr = oldest->second->GetAttr();
    if (attr.ok()) {
      file_to_handle_.erase(std::make_pair(attr->fsid, attr->fileid));
    }
    handle_to_vnode_.erase(oldest);
  }
}

StatusOr<VnodePtr> NfsServer::VnodeFor(NfsHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handle_to_vnode_.find(handle);
  if (it == handle_to_vnode_.end()) {
    return StaleError("handle " + std::to_string(handle));
  }
  return it->second;
}

StatusOr<Payload> NfsServer::Dispatch(ByteReader& r) {
  stats_.calls->Increment();
  auto fail = [this](const Status& status) -> StatusOr<Payload> {
    stats_.errors->Increment();
    return ErrorResponse(status);
  };

  auto proc_or = r.GetU8();
  if (!proc_or.ok()) {
    return fail(proc_or.status());
  }
  NfsProc proc = static_cast<NfsProc>(proc_or.value());
  if (proc_or.value() < kNfsProcCount) {
    proc_cells_[proc_or.value()]->Increment();
  }
  vfs::OpContext ctx;
  Status ctx_status = GetContext(r, ctx);
  if (!ctx_status.ok()) {
    return fail(ctx_status);
  }
  // The wire carries the deadline as absolute sim time; judge it against
  // the server's clock so an RPC that spent its budget in transit is
  // refused here instead of doing work its caller already abandoned.
  ctx.clock = clock_;
  Status deadline_status = ctx.CheckDeadline("nfs.server");
  if (!deadline_status.ok()) {
    return fail(deadline_status);
  }

  // Every failure gets an NFS error reply and counts as an error, a
  // request cut short or malformed inside its arguments included.
  StatusOr<Payload> reply = Execute(proc, r, ctx);
  if (!reply.ok()) {
    return fail(reply.status());
  }
  return reply;
}

StatusOr<Payload> NfsServer::Execute(NfsProc proc, ByteReader& r, const vfs::OpContext& ctx) {
  Payload out;
  ByteWriter w(out);

  switch (proc) {
    case NfsProc::kNull: {
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kGetRoot: {
      FICUS_ASSIGN_OR_RETURN(VnodePtr root, exported_->Root());
      FICUS_ASSIGN_OR_RETURN(VAttr attr, root->GetAttr(ctx));
      PutStatus(w, OkStatus());
      NfsHandle handle = HandleFor(root);
      {
        std::lock_guard<std::mutex> lock(mu_);
        root_handle_ = handle;
      }
      w.PutU64(handle);
      PutVAttr(w, attr);
      return out;
    }
    case NfsProc::kGetAttr: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(VnodePtr vnode, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(VAttr attr, vnode->GetAttr(ctx));
      PutStatus(w, OkStatus());
      PutVAttr(w, attr);
      return out;
    }
    case NfsProc::kSetAttr: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      SetAttrRequest setattr;
      FICUS_RETURN_IF_ERROR(GetSetAttr(r, setattr));
      FICUS_ASSIGN_OR_RETURN(VnodePtr vnode, VnodeFor(handle));
      FICUS_RETURN_IF_ERROR(vnode->SetAttr(setattr, ctx));
      FICUS_ASSIGN_OR_RETURN(VAttr attr, vnode->GetAttr(ctx));
      PutStatus(w, OkStatus());
      PutVAttr(w, attr);
      return out;
    }
    case NfsProc::kLookup: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(VnodePtr child, dir->Lookup(name, ctx));
      FICUS_ASSIGN_OR_RETURN(VAttr attr, child->GetAttr(ctx));
      PutStatus(w, OkStatus());
      w.PutU64(HandleFor(child));
      PutVAttr(w, attr);
      return out;
    }
    case NfsProc::kLookupRead: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      // Server-side composition: the exported vfs does the lookup and the
      // full read locally, so the client pays one round trip for both.
      FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> contents, dir->LookupRead(name, ctx));
      PutStatus(w, OkStatus());
      w.PutBytes(contents);
      return out;
    }
    case NfsProc::kCreate: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      VAttr requested;
      FICUS_RETURN_IF_ERROR(GetVAttr(r, requested));
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(VnodePtr child, dir->Create(name, requested, ctx));
      FICUS_ASSIGN_OR_RETURN(VAttr attr, child->GetAttr(ctx));
      PutStatus(w, OkStatus());
      w.PutU64(HandleFor(child));
      PutVAttr(w, attr);
      return out;
    }
    case NfsProc::kRemove: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      FICUS_RETURN_IF_ERROR(dir->Remove(name, ctx));
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kMkdir: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      VAttr requested;
      FICUS_RETURN_IF_ERROR(GetVAttr(r, requested));
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(VnodePtr child, dir->Mkdir(name, requested, ctx));
      FICUS_ASSIGN_OR_RETURN(VAttr attr, child->GetAttr(ctx));
      PutStatus(w, OkStatus());
      w.PutU64(HandleFor(child));
      PutVAttr(w, attr);
      return out;
    }
    case NfsProc::kRmdir: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      FICUS_RETURN_IF_ERROR(dir->Rmdir(name, ctx));
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kLink: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle dir_handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(NfsHandle target_handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(dir_handle));
      FICUS_ASSIGN_OR_RETURN(VnodePtr target, VnodeFor(target_handle));
      FICUS_RETURN_IF_ERROR(dir->Link(name, target, ctx));
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kRename: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle src_handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string old_name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(NfsHandle dst_handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string new_name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(VnodePtr src, VnodeFor(src_handle));
      FICUS_ASSIGN_OR_RETURN(VnodePtr dst, VnodeFor(dst_handle));
      FICUS_RETURN_IF_ERROR(src->Rename(old_name, dst, new_name, ctx));
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kReaddir: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint32_t cookie, r.GetU32());
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(std::vector<vfs::DirEntry> entries, dir->Readdir(ctx));
      // One page starting at the cookie; the client loops until eof. The
      // cookie is an index into the (stable within one burst) listing —
      // the same weak-consistency contract real NFS readdir cookies have.
      size_t total = entries.size();
      size_t begin = std::min<size_t>(cookie, total);
      size_t end = std::min<size_t>(begin + kReaddirPageSize, total);
      PutStatus(w, OkStatus());
      w.PutU32(static_cast<uint32_t>(end - begin));
      for (size_t i = begin; i < end; ++i) {
        const auto& e = entries[i];
        w.PutString(e.name);
        w.PutU64(e.fileid);
        w.PutU8(static_cast<uint8_t>(e.type));
      }
      w.PutU8(end >= total ? 1 : 0);  // eof
      w.PutU32(static_cast<uint32_t>(end));  // next cookie
      return out;
    }
    case NfsProc::kReaddirPlus: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint32_t cookie, r.GetU32());
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(std::vector<vfs::DirEntryPlus> rows, dir->ReaddirPlus(ctx));
      // Same cookie contract as kReaddir: an index into the listing,
      // stable within one client burst.
      size_t total = rows.size();
      size_t begin = std::min<size_t>(cookie, total);
      size_t end = std::min<size_t>(begin + kReaddirPageSize, total);
      PutStatus(w, OkStatus());
      w.PutU32(static_cast<uint32_t>(end - begin));
      for (size_t i = begin; i < end; ++i) {
        const auto& row = rows[i];
        w.PutString(row.entry.name);
        w.PutU64(row.entry.fileid);
        w.PutU8(static_cast<uint8_t>(row.entry.type));
        PutStatus(w, row.attr_status);
        if (row.attr_status.ok()) {
          PutVAttr(w, row.attr);
        }
      }
      w.PutU8(end >= total ? 1 : 0);  // eof
      w.PutU32(static_cast<uint32_t>(end));  // next cookie
      return out;
    }
    case NfsProc::kSymlink: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(std::string target, r.GetString());
      FICUS_ASSIGN_OR_RETURN(VnodePtr dir, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(VnodePtr child, dir->Symlink(name, target, ctx));
      FICUS_ASSIGN_OR_RETURN(VAttr attr, child->GetAttr(ctx));
      PutStatus(w, OkStatus());
      w.PutU64(HandleFor(child));
      PutVAttr(w, attr);
      return out;
    }
    case NfsProc::kReadlink: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(VnodePtr vnode, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(std::string target, vnode->Readlink(ctx));
      PutStatus(w, OkStatus());
      w.PutString(target);
      return out;
    }
    case NfsProc::kRead: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint32_t length, r.GetU32());
      FICUS_ASSIGN_OR_RETURN(VnodePtr vnode, VnodeFor(handle));
      std::vector<uint8_t> data;
      FICUS_RETURN_IF_ERROR(vnode->Read(offset, length, data, ctx).status());
      PutStatus(w, OkStatus());
      w.PutBytes(data);
      return out;
    }
    case NfsProc::kWrite: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> data, r.GetBytes());
      FICUS_ASSIGN_OR_RETURN(VnodePtr vnode, VnodeFor(handle));
      FICUS_ASSIGN_OR_RETURN(size_t count, vnode->Write(offset, data, ctx));
      // NFS writes are synchronous through to stable storage.
      FICUS_RETURN_IF_ERROR(vnode->Fsync(ctx));
      FICUS_ASSIGN_OR_RETURN(VAttr attr, vnode->GetAttr(ctx));
      PutStatus(w, OkStatus());
      w.PutU32(static_cast<uint32_t>(count));
      PutVAttr(w, attr);
      return out;
    }
    case NfsProc::kStatfs: {
      FICUS_ASSIGN_OR_RETURN(vfs::FsStats stats, exported_->Statfs());
      PutStatus(w, OkStatus());
      w.PutU64(stats.total_blocks);
      w.PutU64(stats.free_blocks);
      w.PutU64(stats.total_inodes);
      w.PutU64(stats.free_inodes);
      return out;
    }
  }
  return InvalidArgumentError("unknown NFS procedure");
}

}  // namespace ficus::nfs
