#include "src/nfs/client.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "src/common/backoff.h"

namespace ficus::nfs {

using net::Payload;
using vfs::Credentials;
using vfs::OpContext;
using vfs::DirEntry;
using vfs::SetAttrRequest;
using vfs::VAttr;
using vfs::VnodePtr;

namespace {
// Client ids start at 1; no NfsClient sends as client 0.
std::atomic<uint64_t> next_client_id{1};
}  // namespace

NfsClient::NfsClient(net::Network* network, net::HostId local_host, net::HostId server_host,
                     const Clock* clock, ClientConfig config, std::string service,
                     MetricRegistry* metrics)
    : network_(network),
      local_host_(local_host),
      server_host_(server_host),
      clock_(clock),
      config_(config),
      service_(std::move(service)),
      registry_(metrics != nullptr ? metrics : &owned_registry_),
      client_id_(next_client_id.fetch_add(1, std::memory_order_relaxed)),
      // Deterministic per-endpoint-pair jitter stream: the plan-level seed
      // mixed with both host ids, so two clients never share a stream but
      // a rerun with the same seed replays exactly.
      retry_rng_(config.retry.rng_seed ^
                 (0x9E3779B97F4A7C15ull * (uint64_t{local_host} << 32 | server_host))) {
  stats_.rpcs = registry_->counter("nfs.client.rpcs");
  stats_.attr_cache_hits = registry_->counter("nfs.client.attr_cache_hits");
  stats_.attr_cache_misses = registry_->counter("nfs.client.attr_cache_misses");
  stats_.dnlc_hits = registry_->counter("nfs.client.dnlc_hits");
  stats_.dnlc_misses = registry_->counter("nfs.client.dnlc_misses");
  stats_.opens_dropped = registry_->counter("nfs.client.opens_dropped");
  stats_.closes_dropped = registry_->counter("nfs.client.closes_dropped");
  stats_.retry_attempts = registry_->counter("nfs.retries.attempts");
  stats_.retry_recovered = registry_->counter("nfs.retries.recovered");
  stats_.retry_exhausted = registry_->counter("nfs.retries.exhausted");
  stats_.retry_deadline_aborts = registry_->counter("nfs.retries.deadline_aborts");
  stats_.retry_backoff_us = registry_->counter("nfs.retries.backoff_us");
  for (size_t i = 0; i < kNfsProcCount; ++i) {
    proc_cells_[i] = registry_->counter(std::string("nfs.client.proc.") +
                                        NfsProcName(static_cast<NfsProc>(i)));
  }
}

ClientStats NfsClient::stats() const {
  ClientStats out;
  out.rpcs = stats_.rpcs->value();
  out.attr_cache_hits = stats_.attr_cache_hits->value();
  out.attr_cache_misses = stats_.attr_cache_misses->value();
  out.dnlc_hits = stats_.dnlc_hits->value();
  out.dnlc_misses = stats_.dnlc_misses->value();
  out.opens_dropped = stats_.opens_dropped->value();
  out.closes_dropped = stats_.closes_dropped->value();
  out.retry_attempts = stats_.retry_attempts->value();
  out.retry_recovered = stats_.retry_recovered->value();
  out.retry_exhausted = stats_.retry_exhausted->value();
  out.retry_deadline_aborts = stats_.retry_deadline_aborts->value();
  out.retry_backoff_us = stats_.retry_backoff_us->value();
  return out;
}

void NfsClient::ResetStats() {
  stats_.rpcs->Reset();
  stats_.attr_cache_hits->Reset();
  stats_.attr_cache_misses->Reset();
  stats_.dnlc_hits->Reset();
  stats_.dnlc_misses->Reset();
  stats_.opens_dropped->Reset();
  stats_.closes_dropped->Reset();
  stats_.retry_attempts->Reset();
  stats_.retry_recovered->Reset();
  stats_.retry_exhausted->Reset();
  stats_.retry_deadline_aborts->Reset();
  stats_.retry_backoff_us->Reset();
}

StatusOr<Payload> NfsClient::Call(const Payload& request, const OpContext& ctx) {
  CallHeader header{.client = client_id_};
  {
    std::lock_guard<std::mutex> lock(mu_);
    header.xid = next_xid_++;
    in_flight_.insert(header.xid);
    header.floor = *in_flight_.begin();
  }
  Payload framed;
  framed.reserve(kCallHeaderSize + request.size());
  ByteWriter w(framed);
  PutCallHeader(w, header);
  framed.insert(framed.end(), request.begin(), request.end());
  StatusOr<Payload> result = Transmit(framed, ctx);
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_.erase(header.xid);
  return result;
}

StatusOr<Payload> NfsClient::Transmit(const Payload& framed, const OpContext& ctx) {
  const RetryPolicy& retry = config_.retry;
  // An unset cap means constant backoff at the base delay.
  const SimTime cap = retry.backoff_cap != 0 ? retry.backoff_cap : retry.backoff_base;
  for (uint32_t attempt = 0;; ++attempt) {
    stats_.rpcs->Increment();
    if (framed.size() > kCallHeaderSize && framed[kCallHeaderSize] < kNfsProcCount) {
      proc_cells_[framed[kCallHeaderSize]]->Increment();
    }
    StatusOr<Payload> result =
        network_->Rpc(local_host_, server_host_, service_, framed, retry.rpc_timeout);
    if (result.ok()) {
      if (attempt > 0) {
        stats_.retry_recovered->Increment();
      }
      ByteReader r(result.value());
      // A wire-level error (including the server refusing expired work
      // with kTimedOut) is the server's answer, not a lost message: never
      // retried.
      FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
      return result;
    }
    const Status& status = result.status();
    bool retryable = status.code() == ErrorCode::kTimedOut ||
                     (retry.retry_unreachable && status.code() == ErrorCode::kUnreachable);
    if (!retryable) {
      return status;
    }
    if (attempt >= retry.max_retries) {
      stats_.retry_exhausted->Increment();
      return status;
    }
    // Capped exponential backoff with equal jitter: uniform in [b/2, b].
    SimTime delay;
    {
      std::lock_guard<std::mutex> lock(mu_);
      delay = JitteredBackoffDelay(retry.backoff_base, cap, attempt, retry_rng_);
    }
    if (ctx.HasDeadline() && ctx.clock->Now() + delay > ctx.deadline) {
      // Sleeping would overrun the caller's deadline; give up now rather
      // than burn the remaining budget waiting.
      stats_.retry_deadline_aborts->Increment();
      return TimedOutError("deadline would expire during retry backoff");
    }
    if (delay != 0 && network_->sim_clock() != nullptr) {
      network_->sim_clock()->Advance(delay);
    }
    stats_.retry_backoff_us->Add(delay);
    stats_.retry_attempts->Increment();
  }
}

void NfsClient::InvalidateCaches() {
  std::lock_guard<std::mutex> lock(mu_);
  attr_cache_.clear();
  dnlc_.clear();
}

StatusOr<VAttr> NfsClient::CachedAttr(NfsHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = attr_cache_.find(handle);
  if (it != attr_cache_.end() && it->second.expires > Now()) {
    stats_.attr_cache_hits->Increment();
    return it->second.attr;
  }
  stats_.attr_cache_misses->Increment();
  return NotFoundError("attr not cached");
}

void NfsClient::StoreAttr(NfsHandle handle, const VAttr& attr) {
  if (config_.attr_cache_ttl == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  attr_cache_[handle] = AttrEntry{attr, Now() + config_.attr_cache_ttl};
}

void NfsClient::DropAttr(NfsHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  attr_cache_.erase(handle);
}

StatusOr<NfsHandle> NfsClient::CachedName(NfsHandle dir, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dnlc_.find(std::make_pair(dir, std::string(name)));
  if (it != dnlc_.end() && it->second.expires > Now()) {
    stats_.dnlc_hits->Increment();
    return it->second.child;
  }
  stats_.dnlc_misses->Increment();
  return NotFoundError("name not cached");
}

void NfsClient::StoreName(NfsHandle dir, std::string_view name, NfsHandle child) {
  if (config_.dnlc_ttl == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  dnlc_[std::make_pair(dir, std::string(name))] = NameEntry{child, Now() + config_.dnlc_ttl};
}

void NfsClient::DropName(NfsHandle dir, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  dnlc_.erase(std::make_pair(dir, std::string(name)));
}

void NfsClient::DropDirNames(NfsHandle dir) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dnlc_.lower_bound(std::make_pair(dir, std::string()));
  while (it != dnlc_.end() && it->first.first == dir) {
    it = dnlc_.erase(it);
  }
}

StatusOr<VnodePtr> NfsClient::Root() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (root_handle_ != kInvalidHandle) {
      return VnodePtr(std::make_shared<NfsVnode>(this, root_handle_));
    }
  }
  Payload request;
  ByteWriter w(request);
  w.PutU8(static_cast<uint8_t>(NfsProc::kGetRoot));
  PutContext(w, OpContext{});
  FICUS_ASSIGN_OR_RETURN(Payload response, Call(request));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  FICUS_ASSIGN_OR_RETURN(NfsHandle handle, r.GetU64());
  VAttr attr;
  FICUS_RETURN_IF_ERROR(GetVAttr(r, attr));
  {
    std::lock_guard<std::mutex> lock(mu_);
    root_handle_ = handle;
  }
  StoreAttr(handle, attr);
  return VnodePtr(std::make_shared<NfsVnode>(this, handle));
}

StatusOr<vfs::FsStats> NfsClient::Statfs() {
  Payload request;
  ByteWriter w(request);
  w.PutU8(static_cast<uint8_t>(NfsProc::kStatfs));
  PutContext(w, OpContext{});
  FICUS_ASSIGN_OR_RETURN(Payload response, Call(request));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  vfs::FsStats stats;
  FICUS_ASSIGN_OR_RETURN(stats.total_blocks, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(stats.free_blocks, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(stats.total_inodes, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(stats.free_inodes, r.GetU64());
  return stats;
}

namespace {
// Starts a request for `proc` on `handle` with credentials.
Payload BeginRequest(NfsProc proc, const OpContext& ctx, NfsHandle handle) {
  Payload request;
  ByteWriter w(request);
  w.PutU8(static_cast<uint8_t>(proc));
  PutContext(w, ctx);
  w.PutU64(handle);
  return request;
}
}  // namespace

StatusOr<VAttr> NfsVnode::GetAttr(const OpContext& ctx) {
  auto cached = client_->CachedAttr(handle_);
  if (cached.ok()) {
    return cached;
  }
  Payload request = BeginRequest(NfsProc::kGetAttr, ctx, handle_);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  VAttr attr;
  FICUS_RETURN_IF_ERROR(GetVAttr(r, attr));
  client_->StoreAttr(handle_, attr);
  return attr;
}

Status NfsVnode::SetAttr(const SetAttrRequest& request_attrs, const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kSetAttr, ctx, handle_);
  ByteWriter w(request);
  PutSetAttr(w, request_attrs);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  VAttr attr;
  FICUS_RETURN_IF_ERROR(GetVAttr(r, attr));
  client_->StoreAttr(handle_, attr);
  return OkStatus();
}

StatusOr<VnodePtr> NfsVnode::Lookup(std::string_view name, const OpContext& ctx) {
  auto cached = client_->CachedName(handle_, name);
  if (cached.ok()) {
    return VnodePtr(std::make_shared<NfsVnode>(client_, cached.value()));
  }
  Payload request = BeginRequest(NfsProc::kLookup, ctx, handle_);
  ByteWriter w(request);
  w.PutString(name);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  FICUS_ASSIGN_OR_RETURN(NfsHandle child, r.GetU64());
  VAttr attr;
  FICUS_RETURN_IF_ERROR(GetVAttr(r, attr));
  client_->StoreAttr(child, attr);
  client_->StoreName(handle_, name, child);
  return VnodePtr(std::make_shared<NfsVnode>(client_, child));
}

StatusOr<std::vector<uint8_t>> NfsVnode::LookupRead(std::string_view name,
                                                    const OpContext& ctx) {
  // One RPC for lookup + whole-contents read. No handle comes back, so
  // nothing is cached: the intended callers (Ficus facade transactions)
  // send one-shot requests that no client cache may answer.
  Payload request = BeginRequest(NfsProc::kLookupRead, ctx, handle_);
  ByteWriter w(request);
  w.PutString(name);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  return r.GetBytes();
}

StatusOr<VnodePtr> NfsVnode::Create(std::string_view name, const VAttr& attr,
                                    const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kCreate, ctx, handle_);
  ByteWriter w(request);
  w.PutString(name);
  PutVAttr(w, attr);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  FICUS_ASSIGN_OR_RETURN(NfsHandle child, r.GetU64());
  VAttr child_attr;
  FICUS_RETURN_IF_ERROR(GetVAttr(r, child_attr));
  client_->StoreAttr(child, child_attr);
  client_->StoreName(handle_, name, child);
  client_->DropAttr(handle_);  // directory mtime changed
  return VnodePtr(std::make_shared<NfsVnode>(client_, child));
}

Status NfsVnode::Remove(std::string_view name, const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kRemove, ctx, handle_);
  ByteWriter w(request);
  w.PutString(name);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  client_->DropName(handle_, name);
  client_->DropAttr(handle_);
  return OkStatus();
}

StatusOr<VnodePtr> NfsVnode::Mkdir(std::string_view name, const VAttr& attr,
                                   const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kMkdir, ctx, handle_);
  ByteWriter w(request);
  w.PutString(name);
  PutVAttr(w, attr);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  FICUS_ASSIGN_OR_RETURN(NfsHandle child, r.GetU64());
  VAttr child_attr;
  FICUS_RETURN_IF_ERROR(GetVAttr(r, child_attr));
  client_->StoreAttr(child, child_attr);
  client_->StoreName(handle_, name, child);
  client_->DropAttr(handle_);
  return VnodePtr(std::make_shared<NfsVnode>(client_, child));
}

Status NfsVnode::Rmdir(std::string_view name, const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kRmdir, ctx, handle_);
  ByteWriter w(request);
  w.PutString(name);
  // Capture the dying directory's handle so its cached child names can
  // be purged too (they would otherwise ghost until their TTL).
  auto victim = client_->CachedName(handle_, name);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  client_->DropName(handle_, name);
  if (victim.ok()) {
    client_->DropDirNames(victim.value());
    client_->DropAttr(victim.value());
  }
  client_->DropAttr(handle_);
  return OkStatus();
}

Status NfsVnode::Link(std::string_view name, const VnodePtr& target, const OpContext& ctx) {
  auto* nfs_target = dynamic_cast<NfsVnode*>(target.get());
  if (nfs_target == nullptr || nfs_target->client_ != client_) {
    return CrossDeviceError("link target is not on the same NFS mount");
  }
  Payload request = BeginRequest(NfsProc::kLink, ctx, handle_);
  ByteWriter w(request);
  w.PutString(name);
  w.PutU64(nfs_target->handle_);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  client_->DropAttr(handle_);
  client_->DropAttr(nfs_target->handle_);
  return OkStatus();
}

Status NfsVnode::Rename(std::string_view old_name, const VnodePtr& new_parent,
                        std::string_view new_name, const OpContext& ctx) {
  auto* nfs_parent = dynamic_cast<NfsVnode*>(new_parent.get());
  if (nfs_parent == nullptr || nfs_parent->client_ != client_) {
    return CrossDeviceError("rename target is not on the same NFS mount");
  }
  Payload request = BeginRequest(NfsProc::kRename, ctx, handle_);
  ByteWriter w(request);
  w.PutString(old_name);
  w.PutU64(nfs_parent->handle_);
  w.PutString(new_name);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  client_->DropName(handle_, old_name);
  client_->DropName(nfs_parent->handle_, new_name);
  client_->DropAttr(handle_);
  client_->DropAttr(nfs_parent->handle_);
  return OkStatus();
}

StatusOr<std::vector<DirEntry>> NfsVnode::Readdir(const OpContext& ctx) {
  // Page through the directory with cookies, as real clients do.
  std::vector<DirEntry> entries;
  uint32_t cookie = 0;
  for (;;) {
    Payload request = BeginRequest(NfsProc::kReaddir, ctx, handle_);
    ByteWriter w(request);
    w.PutU32(cookie);
    FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
    ByteReader r(response);
    FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
    // Minimum wire entry: name (2) + fileid (8) + type (1) = 11 bytes.
    FICUS_ASSIGN_OR_RETURN(uint32_t count, r.GetCount(11));
    entries.reserve(entries.size() + count);
    for (uint32_t i = 0; i < count; ++i) {
      DirEntry e;
      FICUS_ASSIGN_OR_RETURN(e.name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(e.fileid, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
      e.type = static_cast<vfs::VnodeType>(type);
      entries.push_back(std::move(e));
    }
    FICUS_ASSIGN_OR_RETURN(uint8_t eof, r.GetU8());
    FICUS_ASSIGN_OR_RETURN(cookie, r.GetU32());
    if (eof != 0) {
      break;
    }
  }
  return entries;
}

StatusOr<std::vector<vfs::DirEntryPlus>> NfsVnode::ReaddirPlus(const OpContext& ctx) {
  // Pages like Readdir, but each row carries the child's attributes — one
  // RPC per page instead of one GetAttr RPC per entry.
  std::vector<vfs::DirEntryPlus> rows;
  uint32_t cookie = 0;
  for (;;) {
    Payload request = BeginRequest(NfsProc::kReaddirPlus, ctx, handle_);
    ByteWriter w(request);
    w.PutU32(cookie);
    FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
    ByteReader r(response);
    FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
    // Minimum wire row: name (2) + fileid (8) + type (1) + status (6).
    FICUS_ASSIGN_OR_RETURN(uint32_t count, r.GetCount(17));
    rows.reserve(rows.size() + count);
    for (uint32_t i = 0; i < count; ++i) {
      vfs::DirEntryPlus row;
      FICUS_ASSIGN_OR_RETURN(row.entry.name, r.GetString());
      FICUS_ASSIGN_OR_RETURN(row.entry.fileid, r.GetU64());
      FICUS_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
      row.entry.type = static_cast<vfs::VnodeType>(type);
      row.attr_status = ReadWireStatus(r);
      if (row.attr_status.ok()) {
        FICUS_RETURN_IF_ERROR(GetVAttr(r, row.attr));
      } else if (row.attr_status.code() == ErrorCode::kCorrupt) {
        // A decode failure (vs. a per-row failure shipped in the row)
        // poisons the rest of the page.
        return row.attr_status;
      }
      rows.push_back(std::move(row));
    }
    FICUS_ASSIGN_OR_RETURN(uint8_t eof, r.GetU8());
    FICUS_ASSIGN_OR_RETURN(cookie, r.GetU32());
    if (eof != 0) {
      break;
    }
  }
  return rows;
}

StatusOr<VnodePtr> NfsVnode::Symlink(std::string_view name, std::string_view target,
                                     const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kSymlink, ctx, handle_);
  ByteWriter w(request);
  w.PutString(name);
  w.PutString(target);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  FICUS_ASSIGN_OR_RETURN(NfsHandle child, r.GetU64());
  VAttr child_attr;
  FICUS_RETURN_IF_ERROR(GetVAttr(r, child_attr));
  client_->StoreAttr(child, child_attr);
  client_->DropAttr(handle_);
  return VnodePtr(std::make_shared<NfsVnode>(client_, child));
}

StatusOr<std::string> NfsVnode::Readlink(const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kReadlink, ctx, handle_);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  return r.GetString();
}

Status NfsVnode::Open(uint32_t flags, const OpContext& ctx) {
  // "The vnode services open and close are not supported by the NFS
  // definition, and so are ignored: a layer intending to receive an open
  // will never get it if NFS is in between." (section 2.2)
  client_->stats_.opens_dropped->Increment();
  if ((flags & vfs::kOpenTruncate) != 0) {
    // Real NFS clients emulate O_TRUNC with a SETATTR; the open itself
    // still never reaches the server as an open.
    SetAttrRequest truncate;
    truncate.set_size = true;
    truncate.size = 0;
    return SetAttr(truncate, ctx);
  }
  return OkStatus();
}

Status NfsVnode::Close(uint32_t, const OpContext&) {
  client_->stats_.closes_dropped->Increment();
  return OkStatus();
}

StatusOr<size_t> NfsVnode::Read(uint64_t offset, size_t length, std::vector<uint8_t>& out,
                                const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kRead, ctx, handle_);
  ByteWriter w(request);
  w.PutU64(offset);
  w.PutU32(static_cast<uint32_t>(length));
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  FICUS_ASSIGN_OR_RETURN(out, r.GetBytes());
  return out.size();
}

StatusOr<size_t> NfsVnode::Write(uint64_t offset, const std::vector<uint8_t>& data,
                                 const OpContext& ctx) {
  Payload request = BeginRequest(NfsProc::kWrite, ctx, handle_);
  ByteWriter w(request);
  w.PutU64(offset);
  w.PutBytes(data);
  FICUS_ASSIGN_OR_RETURN(Payload response, client_->Call(request, ctx));
  ByteReader r(response);
  FICUS_RETURN_IF_ERROR(ReadWireStatus(r));
  FICUS_ASSIGN_OR_RETURN(uint32_t written, r.GetU32());
  VAttr attr;
  FICUS_RETURN_IF_ERROR(GetVAttr(r, attr));
  client_->StoreAttr(handle_, attr);
  return static_cast<size_t>(written);
}

Status NfsVnode::Fsync(const OpContext&) {
  // NFS writes are already synchronous on the server side.
  return OkStatus();
}

Status NfsVnode::Ioctl(std::string_view, const std::vector<uint8_t>&, std::vector<uint8_t>&,
                       const OpContext&) {
  // The NFS protocol has no ioctl procedure; an intermediate NFS hop
  // swallows any out-of-band extension. This is precisely why Ficus
  // encodes open/close requests inside Lookup names (section 2.3).
  return NotSupportedError("ioctl cannot cross an NFS transport");
}

}  // namespace ficus::nfs
