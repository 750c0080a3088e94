#include "e2ebench/instrument.h"

namespace ficus::e2e {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kVfs: return "vfs";
    case Layer::kLogical: return "repl.logical";
    case Layer::kPhysicalLocal: return "repl.physical.local";
    case Layer::kPhysicalRemote: return "repl.physical.remote";
    case Layer::kPropagation: return "repl.propagation";
    case Layer::kReconcile: return "repl.reconcile";
    case Layer::kCount: break;
  }
  return "unknown";
}

int32_t SpanRecorder::Begin(Layer layer, const char* op) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.layer = layer;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.trace = stack_.empty() ? next_trace_++ : spans_[stack_.back()].trace;
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  if (id < 0) {
    return;
  }
  spans_[id].end_ns = NowNs();
  stack_.pop_back();
}

void SpanRecorder::Clear() {
  spans_.clear();
  stack_.clear();
}

// --- TimingPhysical ---

StatusOr<repl::ReplicaAttributes> TimingPhysical::GetAttributes(repl::FileId file) {
  ScopedSpan span(spans_, layer_, "GetAttributes");
  return inner_->GetAttributes(file);
}

Status TimingPhysical::SetConflict(repl::FileId file, bool conflict) {
  ScopedSpan span(spans_, layer_, "SetConflict");
  return inner_->SetConflict(file, conflict);
}

StatusOr<std::vector<repl::FileAttrResult>> TimingPhysical::BatchGetAttributes(
    const std::vector<repl::FileId>& files) {
  ScopedSpan span(spans_, layer_, "BatchGetAttributes");
  return inner_->BatchGetAttributes(files);
}

StatusOr<std::vector<repl::SubtreeDigest>> TimingPhysical::GetSubtreeDigests(
    const std::vector<repl::FileId>& dirs) {
  ScopedSpan span(spans_, layer_, "GetSubtreeDigests");
  return inner_->GetSubtreeDigests(dirs);
}

StatusOr<std::vector<uint8_t>> TimingPhysical::ReadData(repl::FileId file, uint64_t offset,
                                                        uint32_t length) {
  ScopedSpan span(spans_, layer_, "ReadData");
  return inner_->ReadData(file, offset, length);
}

StatusOr<std::vector<uint8_t>> TimingPhysical::ReadAllData(repl::FileId file) {
  ScopedSpan span(spans_, layer_, "ReadAllData");
  return inner_->ReadAllData(file);
}

StatusOr<uint64_t> TimingPhysical::DataSize(repl::FileId file) {
  ScopedSpan span(spans_, layer_, "DataSize");
  return inner_->DataSize(file);
}

StatusOr<repl::BlockDigestInfo> TimingPhysical::ReadBlockDigests(repl::FileId file) {
  ScopedSpan span(spans_, layer_, "ReadBlockDigests");
  return inner_->ReadBlockDigests(file);
}

Status TimingPhysical::WriteData(repl::FileId file, uint64_t offset,
                                 const std::vector<uint8_t>& data) {
  ScopedSpan span(spans_, layer_, "WriteData");
  return inner_->WriteData(file, offset, data);
}

Status TimingPhysical::TruncateData(repl::FileId file, uint64_t size) {
  ScopedSpan span(spans_, layer_, "TruncateData");
  return inner_->TruncateData(file, size);
}

Status TimingPhysical::InstallVersion(repl::FileId file, const std::vector<uint8_t>& contents,
                                      const repl::VersionVector& vv) {
  ScopedSpan span(spans_, layer_, "InstallVersion");
  return inner_->InstallVersion(file, contents, vv);
}

StatusOr<std::vector<repl::FicusDirEntry>> TimingPhysical::ReadDirectory(repl::FileId dir) {
  ScopedSpan span(spans_, layer_, "ReadDirectory");
  return inner_->ReadDirectory(dir);
}

StatusOr<std::vector<repl::DirEntryPlus>> TimingPhysical::ReadDirPlus(repl::FileId dir) {
  ScopedSpan span(spans_, layer_, "ReadDirPlus");
  return inner_->ReadDirPlus(dir);
}

StatusOr<repl::FileId> TimingPhysical::CreateChild(repl::FileId dir, std::string_view name,
                                                   repl::FicusFileType type,
                                                   uint32_t owner_uid) {
  ScopedSpan span(spans_, layer_, "CreateChild");
  return inner_->CreateChild(dir, name, type, owner_uid);
}

Status TimingPhysical::AddEntry(repl::FileId dir, std::string_view name, repl::FileId target,
                                repl::FicusFileType type) {
  ScopedSpan span(spans_, layer_, "AddEntry");
  return inner_->AddEntry(dir, name, target, type);
}

Status TimingPhysical::RemoveEntry(repl::FileId dir, std::string_view name) {
  ScopedSpan span(spans_, layer_, "RemoveEntry");
  return inner_->RemoveEntry(dir, name);
}

Status TimingPhysical::RenameEntry(repl::FileId old_dir, std::string_view old_name,
                                   repl::FileId new_dir, std::string_view new_name) {
  ScopedSpan span(spans_, layer_, "RenameEntry");
  return inner_->RenameEntry(old_dir, old_name, new_dir, new_name);
}

Status TimingPhysical::ApplyEntry(repl::FileId dir, const repl::FicusDirEntry& entry) {
  ScopedSpan span(spans_, layer_, "ApplyEntry");
  return inner_->ApplyEntry(dir, entry);
}

Status TimingPhysical::ApplyEntries(repl::FileId dir,
                                    const std::vector<repl::FicusDirEntry>& entries) {
  ScopedSpan span(spans_, layer_, "ApplyEntries");
  return inner_->ApplyEntries(dir, entries);
}

Status TimingPhysical::MergeDirVersion(repl::FileId dir, const repl::VersionVector& vv) {
  ScopedSpan span(spans_, layer_, "MergeDirVersion");
  return inner_->MergeDirVersion(dir, vv);
}

StatusOr<std::string> TimingPhysical::ReadLink(repl::FileId file) {
  ScopedSpan span(spans_, layer_, "ReadLink");
  return inner_->ReadLink(file);
}

Status TimingPhysical::WriteLink(repl::FileId file, std::string_view target) {
  ScopedSpan span(spans_, layer_, "WriteLink");
  return inner_->WriteLink(file, target);
}

Status TimingPhysical::NoteOpen(repl::FileId file) {
  ScopedSpan span(spans_, layer_, "NoteOpen");
  return inner_->NoteOpen(file);
}

Status TimingPhysical::NoteClose(repl::FileId file) {
  ScopedSpan span(spans_, layer_, "NoteClose");
  return inner_->NoteClose(file);
}

// --- TimingResolver ---

std::vector<repl::ReplicaId> TimingResolver::ReplicasOf(const repl::VolumeId& volume) {
  return host_->ReplicasOf(volume);
}

StatusOr<repl::PhysicalApi*> TimingResolver::Access(const repl::VolumeId& volume,
                                                    repl::ReplicaId replica) {
  FICUS_ASSIGN_OR_RETURN(repl::PhysicalApi * inner, host_->Access(volume, replica));
  std::unique_ptr<TimingPhysical>& wrapped = wrapped_[inner];
  if (wrapped == nullptr) {
    repl::PhysicalApi* local = host_->registry().LocalReplica(volume);
    wrapped = std::make_unique<TimingPhysical>(inner, inner != local, spans_);
  }
  return static_cast<repl::PhysicalApi*>(wrapped.get());
}

repl::ReplicaId TimingResolver::PreferredReplica(const repl::VolumeId& volume) {
  return host_->PreferredReplica(volume);
}

repl::PeerHealth TimingResolver::HealthOf(const repl::VolumeId& volume,
                                          repl::ReplicaId replica) {
  return host_->HealthOf(volume, replica);
}

uint64_t TimingResolver::ReadCost(const repl::VolumeId& volume, repl::ReplicaId replica) {
  return host_->ReadCost(volume, replica);
}

// --- TimingVfs ---

namespace {

// One kLogical span around each forwarded vnode operation. Vnodes the
// lower layer returns are wrapped again, so a whole path walk stays
// inside the timing layer.
class TimingVnode : public vfs::PassThroughVnode {
 public:
  TimingVnode(vfs::VnodePtr lower, SpanRecorder* spans)
      : PassThroughVnode(std::move(lower)), spans_(spans) {}

  StatusOr<vfs::VAttr> GetAttr(const vfs::OpContext& ctx = {}) override {
    ScopedSpan span(spans_, Layer::kLogical, "getattr");
    return PassThroughVnode::GetAttr(ctx);
  }
  Status SetAttr(const vfs::SetAttrRequest& request, const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "setattr");
    return PassThroughVnode::SetAttr(request, ctx);
  }
  StatusOr<vfs::VnodePtr> Lookup(std::string_view name, const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "lookup");
    return PassThroughVnode::Lookup(name, ctx);
  }
  StatusOr<vfs::VnodePtr> Create(std::string_view name, const vfs::VAttr& attr,
                                 const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "create");
    return PassThroughVnode::Create(name, attr, ctx);
  }
  Status Remove(std::string_view name, const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "remove");
    return PassThroughVnode::Remove(name, ctx);
  }
  StatusOr<vfs::VnodePtr> Mkdir(std::string_view name, const vfs::VAttr& attr,
                                const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "mkdir");
    return PassThroughVnode::Mkdir(name, attr, ctx);
  }
  Status Rmdir(std::string_view name, const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "rmdir");
    return PassThroughVnode::Rmdir(name, ctx);
  }
  Status Link(std::string_view name, const vfs::VnodePtr& target,
              const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "link");
    return PassThroughVnode::Link(name, target, ctx);
  }
  Status Rename(std::string_view old_name, const vfs::VnodePtr& new_parent,
                std::string_view new_name, const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "rename");
    return PassThroughVnode::Rename(old_name, new_parent, new_name, ctx);
  }
  StatusOr<std::vector<vfs::DirEntry>> Readdir(const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "readdir");
    return PassThroughVnode::Readdir(ctx);
  }
  StatusOr<std::vector<vfs::DirEntryPlus>> ReaddirPlus(const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "readdirplus");
    return PassThroughVnode::ReaddirPlus(ctx);
  }
  StatusOr<vfs::VnodePtr> Symlink(std::string_view name, std::string_view target,
                                  const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "symlink");
    return PassThroughVnode::Symlink(name, target, ctx);
  }
  StatusOr<std::string> Readlink(const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "readlink");
    return PassThroughVnode::Readlink(ctx);
  }
  Status Open(uint32_t flags, const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "open");
    return PassThroughVnode::Open(flags, ctx);
  }
  Status Close(uint32_t flags, const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "close");
    return PassThroughVnode::Close(flags, ctx);
  }
  StatusOr<size_t> Read(uint64_t offset, size_t length, std::vector<uint8_t>& out,
                        const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "read");
    return PassThroughVnode::Read(offset, length, out, ctx);
  }
  StatusOr<size_t> Write(uint64_t offset, const std::vector<uint8_t>& data,
                         const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "write");
    return PassThroughVnode::Write(offset, data, ctx);
  }
  Status Fsync(const vfs::OpContext& ctx) override {
    ScopedSpan span(spans_, Layer::kLogical, "fsync");
    return PassThroughVnode::Fsync(ctx);
  }

 protected:
  vfs::VnodePtr WrapLower(vfs::VnodePtr lower) override {
    return std::make_shared<TimingVnode>(std::move(lower), spans_);
  }

 private:
  SpanRecorder* spans_;
};

}  // namespace

StatusOr<vfs::VnodePtr> TimingVfs::Root() {
  FICUS_ASSIGN_OR_RETURN(vfs::VnodePtr root, lower_->Root());
  return vfs::VnodePtr(std::make_shared<TimingVnode>(std::move(root), spans_));
}

}  // namespace ficus::e2e
