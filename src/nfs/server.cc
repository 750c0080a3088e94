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

  Payload out;
  ByteWriter w(out);

  switch (proc) {
    case NfsProc::kNull: {
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kGetRoot: {
      auto root = exported_->Root();
      if (!root.ok()) {
        return fail(root.status());
      }
      auto attr = root.value()->GetAttr(ctx);
      if (!attr.ok()) {
        return fail(attr.status());
      }
      PutStatus(w, OkStatus());
      NfsHandle handle = HandleFor(root.value());
      {
        std::lock_guard<std::mutex> lock(mu_);
        root_handle_ = handle;
      }
      w.PutU64(handle);
      PutVAttr(w, attr.value());
      return out;
    }
    case NfsProc::kGetAttr: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      auto vnode = VnodeFor(handle);
      if (!vnode.ok()) {
        return fail(vnode.status());
      }
      auto attr = vnode.value()->GetAttr(ctx);
      if (!attr.ok()) {
        return fail(attr.status());
      }
      PutStatus(w, OkStatus());
      PutVAttr(w, attr.value());
      return out;
    }
    case NfsProc::kSetAttr: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      SetAttrRequest setattr;
      FICUS_RETURN_IF_ERROR(GetSetAttr(r, setattr));
      auto vnode = VnodeFor(handle);
      if (!vnode.ok()) {
        return fail(vnode.status());
      }
      Status status = vnode.value()->SetAttr(setattr, ctx);
      if (!status.ok()) {
        return fail(status);
      }
      auto attr = vnode.value()->GetAttr(ctx);
      if (!attr.ok()) {
        return fail(attr.status());
      }
      PutStatus(w, OkStatus());
      PutVAttr(w, attr.value());
      return out;
    }
    case NfsProc::kLookup: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      auto child = dir.value()->Lookup(name, ctx);
      if (!child.ok()) {
        return fail(child.status());
      }
      auto attr = child.value()->GetAttr(ctx);
      if (!attr.ok()) {
        return fail(attr.status());
      }
      PutStatus(w, OkStatus());
      w.PutU64(HandleFor(child.value()));
      PutVAttr(w, attr.value());
      return out;
    }
    case NfsProc::kLookupRead: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      // Server-side composition: the exported vfs does the lookup and the
      // full read locally, so the client pays one round trip for both.
      auto contents = dir.value()->LookupRead(name, ctx);
      if (!contents.ok()) {
        return fail(contents.status());
      }
      PutStatus(w, OkStatus());
      w.PutBytes(contents.value());
      return out;
    }
    case NfsProc::kCreate: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      VAttr requested;
      FICUS_RETURN_IF_ERROR(GetVAttr(r, requested));
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      auto child = dir.value()->Create(name, requested, ctx);
      if (!child.ok()) {
        return fail(child.status());
      }
      auto attr = child.value()->GetAttr(ctx);
      if (!attr.ok()) {
        return fail(attr.status());
      }
      PutStatus(w, OkStatus());
      w.PutU64(HandleFor(child.value()));
      PutVAttr(w, attr.value());
      return out;
    }
    case NfsProc::kRemove: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      Status status = dir.value()->Remove(name, ctx);
      if (!status.ok()) {
        return fail(status);
      }
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kMkdir: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      VAttr requested;
      FICUS_RETURN_IF_ERROR(GetVAttr(r, requested));
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      auto child = dir.value()->Mkdir(name, requested, ctx);
      if (!child.ok()) {
        return fail(child.status());
      }
      auto attr = child.value()->GetAttr(ctx);
      if (!attr.ok()) {
        return fail(attr.status());
      }
      PutStatus(w, OkStatus());
      w.PutU64(HandleFor(child.value()));
      PutVAttr(w, attr.value());
      return out;
    }
    case NfsProc::kRmdir: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      Status status = dir.value()->Rmdir(name, ctx);
      if (!status.ok()) {
        return fail(status);
      }
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kLink: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle dir_handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(NfsHandle target_handle, r.GetU64());
      auto dir = VnodeFor(dir_handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      auto target = VnodeFor(target_handle);
      if (!target.ok()) {
        return fail(target.status());
      }
      Status status = dir.value()->Link(name, target.value(), ctx);
      if (!status.ok()) {
        return fail(status);
      }
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kRename: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle src_handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string old_name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(NfsHandle dst_handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::string new_name, r.GetString());
      auto src = VnodeFor(src_handle);
      if (!src.ok()) {
        return fail(src.status());
      }
      auto dst = VnodeFor(dst_handle);
      if (!dst.ok()) {
        return fail(dst.status());
      }
      Status status = src.value()->Rename(old_name, dst.value(), new_name, ctx);
      if (!status.ok()) {
        return fail(status);
      }
      PutStatus(w, OkStatus());
      return out;
    }
    case NfsProc::kReaddir: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint32_t cookie, r.GetU32());
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      auto entries = dir.value()->Readdir(ctx);
      if (!entries.ok()) {
        return fail(entries.status());
      }
      // One page starting at the cookie; the client loops until eof. The
      // cookie is an index into the (stable within one burst) listing —
      // the same weak-consistency contract real NFS readdir cookies have.
      size_t total = entries.value().size();
      size_t begin = std::min<size_t>(cookie, total);
      size_t end = std::min<size_t>(begin + kReaddirPageSize, total);
      PutStatus(w, OkStatus());
      w.PutU32(static_cast<uint32_t>(end - begin));
      for (size_t i = begin; i < end; ++i) {
        const auto& e = entries.value()[i];
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
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      auto rows = dir.value()->ReaddirPlus(ctx);
      if (!rows.ok()) {
        return fail(rows.status());
      }
      // Same cookie contract as kReaddir: an index into the listing,
      // stable within one client burst.
      size_t total = rows.value().size();
      size_t begin = std::min<size_t>(cookie, total);
      size_t end = std::min<size_t>(begin + kReaddirPageSize, total);
      PutStatus(w, OkStatus());
      w.PutU32(static_cast<uint32_t>(end - begin));
      for (size_t i = begin; i < end; ++i) {
        const auto& row = rows.value()[i];
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
      auto dir = VnodeFor(handle);
      if (!dir.ok()) {
        return fail(dir.status());
      }
      auto child = dir.value()->Symlink(name, target, ctx);
      if (!child.ok()) {
        return fail(child.status());
      }
      auto attr = child.value()->GetAttr(ctx);
      if (!attr.ok()) {
        return fail(attr.status());
      }
      PutStatus(w, OkStatus());
      w.PutU64(HandleFor(child.value()));
      PutVAttr(w, attr.value());
      return out;
    }
    case NfsProc::kReadlink: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      auto vnode = VnodeFor(handle);
      if (!vnode.ok()) {
        return fail(vnode.status());
      }
      auto target = vnode.value()->Readlink(ctx);
      if (!target.ok()) {
        return fail(target.status());
      }
      PutStatus(w, OkStatus());
      w.PutString(target.value());
      return out;
    }
    case NfsProc::kRead: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint32_t length, r.GetU32());
      auto vnode = VnodeFor(handle);
      if (!vnode.ok()) {
        return fail(vnode.status());
      }
      std::vector<uint8_t> data;
      auto count = vnode.value()->Read(offset, length, data, ctx);
      if (!count.ok()) {
        return fail(count.status());
      }
      PutStatus(w, OkStatus());
      w.PutBytes(data);
      return out;
    }
    case NfsProc::kWrite: {
      FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(std::vector<uint8_t> data, r.GetBytes());
      auto vnode = VnodeFor(handle);
      if (!vnode.ok()) {
        return fail(vnode.status());
      }
      auto count = vnode.value()->Write(offset, data, ctx);
      if (!count.ok()) {
        return fail(count.status());
      }
      // NFS writes are synchronous through to stable storage.
      Status synced = vnode.value()->Fsync(ctx);
      if (!synced.ok()) {
        return fail(synced);
      }
      auto attr = vnode.value()->GetAttr(ctx);
      if (!attr.ok()) {
        return fail(attr.status());
      }
      PutStatus(w, OkStatus());
      w.PutU32(static_cast<uint32_t>(count.value()));
      PutVAttr(w, attr.value());
      return out;
    }
    case NfsProc::kStatfs: {
      auto stats = exported_->Statfs();
      if (!stats.ok()) {
        return fail(stats.status());
      }
      PutStatus(w, OkStatus());
      w.PutU64(stats->total_blocks);
      w.PutU64(stats->free_blocks);
      w.PutU64(stats->total_inodes);
      w.PutU64(stats->free_inodes);
      return out;
    }
  }
  return fail(InvalidArgumentError("unknown NFS procedure"));
}

}  // namespace ficus::nfs
