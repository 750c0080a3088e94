#include "src/nfs/protocol.h"

namespace ficus::nfs {

const char* NfsProcName(NfsProc proc) {
  switch (proc) {
    case NfsProc::kNull: return "null";
    case NfsProc::kGetRoot: return "getroot";
    case NfsProc::kGetAttr: return "getattr";
    case NfsProc::kSetAttr: return "setattr";
    case NfsProc::kLookup: return "lookup";
    case NfsProc::kCreate: return "create";
    case NfsProc::kRemove: return "remove";
    case NfsProc::kMkdir: return "mkdir";
    case NfsProc::kRmdir: return "rmdir";
    case NfsProc::kLink: return "link";
    case NfsProc::kRename: return "rename";
    case NfsProc::kReaddir: return "readdir";
    case NfsProc::kSymlink: return "symlink";
    case NfsProc::kReadlink: return "readlink";
    case NfsProc::kRead: return "read";
    case NfsProc::kWrite: return "write";
    case NfsProc::kStatfs: return "statfs";
    case NfsProc::kReaddirPlus: return "readdirplus";
    case NfsProc::kLookupRead: return "lookupread";
  }
  return "unknown";
}

void PutCallHeader(ByteWriter& w, const CallHeader& header) {
  w.PutU64(header.client);
  w.PutU64(header.xid);
  w.PutU64(header.floor);
}

Status GetCallHeader(ByteReader& r, CallHeader& header) {
  FICUS_ASSIGN_OR_RETURN(header.client, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(header.xid, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(header.floor, r.GetU64());
  return OkStatus();
}

void PutVAttr(ByteWriter& w, const vfs::VAttr& attr) {
  w.PutU8(static_cast<uint8_t>(attr.type));
  w.PutU32(attr.mode);
  w.PutU32(attr.uid);
  w.PutU32(attr.gid);
  w.PutU32(attr.nlink);
  w.PutU64(attr.size);
  w.PutU64(attr.atime);
  w.PutU64(attr.mtime);
  w.PutU64(attr.ctime);
  w.PutU64(attr.fileid);
  w.PutU64(attr.fsid);
}

Status GetVAttr(ByteReader& r, vfs::VAttr& attr) {
  FICUS_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type < 1 || type > 4) {
    return CorruptError("bad vnode type on wire");
  }
  attr.type = static_cast<vfs::VnodeType>(type);
  FICUS_ASSIGN_OR_RETURN(attr.mode, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(attr.uid, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(attr.gid, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(attr.nlink, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(attr.size, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(attr.atime, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(attr.mtime, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(attr.ctime, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(attr.fileid, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(attr.fsid, r.GetU64());
  return OkStatus();
}

void PutSetAttr(ByteWriter& w, const vfs::SetAttrRequest& request) {
  uint8_t flags = 0;
  flags |= request.set_mode ? 1u : 0u;
  flags |= request.set_uid ? 2u : 0u;
  flags |= request.set_gid ? 4u : 0u;
  flags |= request.set_size ? 8u : 0u;
  flags |= request.set_mtime ? 16u : 0u;
  w.PutU8(flags);
  w.PutU32(request.mode);
  w.PutU32(request.uid);
  w.PutU32(request.gid);
  w.PutU64(request.size);
  w.PutU64(request.mtime);
}

Status GetSetAttr(ByteReader& r, vfs::SetAttrRequest& request) {
  FICUS_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
  request.set_mode = (flags & 1) != 0;
  request.set_uid = (flags & 2) != 0;
  request.set_gid = (flags & 4) != 0;
  request.set_size = (flags & 8) != 0;
  request.set_mtime = (flags & 16) != 0;
  FICUS_ASSIGN_OR_RETURN(request.mode, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(request.uid, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(request.gid, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(request.size, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(request.mtime, r.GetU64());
  return OkStatus();
}

void PutCred(ByteWriter& w, const vfs::Credentials& cred) {
  w.PutU32(cred.uid);
  w.PutU32(cred.gid);
}

Status GetCred(ByteReader& r, vfs::Credentials& cred) {
  FICUS_ASSIGN_OR_RETURN(cred.uid, r.GetU32());
  FICUS_ASSIGN_OR_RETURN(cred.gid, r.GetU32());
  return OkStatus();
}

void PutContext(ByteWriter& w, const vfs::OpContext& ctx) {
  PutCred(w, ctx.cred);
  w.PutU64(ctx.trace);
  w.PutU64(ctx.deadline);
}

Status GetContext(ByteReader& r, vfs::OpContext& ctx) {
  FICUS_RETURN_IF_ERROR(GetCred(r, ctx.cred));
  FICUS_ASSIGN_OR_RETURN(ctx.trace, r.GetU64());
  FICUS_ASSIGN_OR_RETURN(ctx.deadline, r.GetU64());
  return OkStatus();
}

}  // namespace ficus::nfs
