// Measurement from outside the stack: an in-memory span recorder plus
// transparent decorators at the two boundaries the benchmark can reach
// without touching the program — the Vfs between SyscallInterface and the
// Ficus logical layer, and the PhysicalApi pointers a ReplicaResolver
// hands to that logical layer.
//
// Spans are recorded only when the recorder is enabled (the traced run);
// the untraced run mounts through FicusHost::MountVolume and never sees
// these classes at all.
#ifndef FICUS_E2EBENCH_INSTRUMENT_H_
#define FICUS_E2EBENCH_INSTRUMENT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/repl/physical_api.h"
#include "src/repl/resolver.h"
#include "src/sim/host.h"
#include "src/vfs/pass_through.h"

namespace ficus::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Layers a span is attributed to. kBench is the benchmark's own loop
// (op generation, probes, checks between timed calls).
enum class Layer : uint8_t {
  kBench,
  kVfs,
  kLogical,
  kPhysicalLocal,
  kPhysicalRemote,
  kPropagation,
  kReconcile,
  kCount,
};
const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kBench;
  const char* op = "";  // string literal
  uint64_t trace = 0;   // shared by every span under one root
  int32_t parent = -1;  // index into spans(); -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Records nested spans of one thread. The benchmark runs the
// deterministic runtime, so every layer executes on the caller's thread
// and a single stack gives correct nesting.
class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Returns the span's index, or -1 when disabled.
  int32_t Begin(Layer layer, const char* op);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear();

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint64_t next_trace_ = 1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer, const char* op)
      : recorder_(recorder), id_(recorder->Begin(layer, op)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

// PhysicalApi decorator: one span per call, attributed to the local or
// remote physical layer. Remote time covers the NFS client, the network
// and the serving host's physical/UFS/storage stack.
class TimingPhysical : public repl::PhysicalApi {
 public:
  TimingPhysical(repl::PhysicalApi* inner, bool remote, SpanRecorder* spans)
      : inner_(inner), layer_(remote ? Layer::kPhysicalRemote : Layer::kPhysicalLocal),
        spans_(spans) {}

  repl::VolumeId volume_id() const override { return inner_->volume_id(); }
  repl::ReplicaId replica_id() const override { return inner_->replica_id(); }
  StatusOr<repl::ReplicaAttributes> GetAttributes(repl::FileId file) override;
  Status SetConflict(repl::FileId file, bool conflict) override;
  StatusOr<std::vector<repl::FileAttrResult>> BatchGetAttributes(
      const std::vector<repl::FileId>& files) override;
  StatusOr<std::vector<repl::SubtreeDigest>> GetSubtreeDigests(
      const std::vector<repl::FileId>& dirs) override;
  StatusOr<std::vector<uint8_t>> ReadData(repl::FileId file, uint64_t offset,
                                          uint32_t length) override;
  StatusOr<std::vector<uint8_t>> ReadAllData(repl::FileId file) override;
  StatusOr<uint64_t> DataSize(repl::FileId file) override;
  StatusOr<repl::BlockDigestInfo> ReadBlockDigests(repl::FileId file) override;
  Status WriteData(repl::FileId file, uint64_t offset, const std::vector<uint8_t>& data) override;
  Status TruncateData(repl::FileId file, uint64_t size) override;
  Status InstallVersion(repl::FileId file, const std::vector<uint8_t>& contents,
                        const repl::VersionVector& vv) override;
  StatusOr<std::vector<repl::FicusDirEntry>> ReadDirectory(repl::FileId dir) override;
  StatusOr<std::vector<repl::DirEntryPlus>> ReadDirPlus(repl::FileId dir) override;
  StatusOr<repl::FileId> CreateChild(repl::FileId dir, std::string_view name,
                                     repl::FicusFileType type, uint32_t owner_uid) override;
  Status AddEntry(repl::FileId dir, std::string_view name, repl::FileId target,
                  repl::FicusFileType type) override;
  Status RemoveEntry(repl::FileId dir, std::string_view name) override;
  Status RenameEntry(repl::FileId old_dir, std::string_view old_name, repl::FileId new_dir,
                     std::string_view new_name) override;
  Status ApplyEntry(repl::FileId dir, const repl::FicusDirEntry& entry) override;
  Status ApplyEntries(repl::FileId dir, const std::vector<repl::FicusDirEntry>& entries) override;
  Status MergeDirVersion(repl::FileId dir, const repl::VersionVector& vv) override;
  StatusOr<std::string> ReadLink(repl::FileId file) override;
  Status WriteLink(repl::FileId file, std::string_view target) override;
  Status NoteOpen(repl::FileId file) override;
  Status NoteClose(repl::FileId file) override;

 private:
  repl::PhysicalApi* inner_;
  Layer layer_;
  SpanRecorder* spans_;
};

// Resolver for the traced logical layer: forwards every question to the
// host and wraps each PhysicalApi it hands out in a TimingPhysical (one
// decorator per underlying object, so pointer identity stays stable).
class TimingResolver : public repl::ReplicaResolver {
 public:
  TimingResolver(sim::FicusHost* host, SpanRecorder* spans) : host_(host), spans_(spans) {}

  std::vector<repl::ReplicaId> ReplicasOf(const repl::VolumeId& volume) override;
  StatusOr<repl::PhysicalApi*> Access(const repl::VolumeId& volume,
                                      repl::ReplicaId replica) override;
  repl::ReplicaId PreferredReplica(const repl::VolumeId& volume) override;
  repl::PeerHealth HealthOf(const repl::VolumeId& volume, repl::ReplicaId replica) override;
  uint64_t ReadCost(const repl::VolumeId& volume, repl::ReplicaId replica) override;

 private:
  sim::FicusHost* host_;
  SpanRecorder* spans_;
  std::map<repl::PhysicalApi*, std::unique_ptr<TimingPhysical>> wrapped_;
};

// Pass-through Vfs between SyscallInterface and the logical layer: one
// kLogical span per vnode operation.
class TimingVfs : public vfs::Vfs {
 public:
  TimingVfs(vfs::Vfs* lower, SpanRecorder* spans) : lower_(lower), spans_(spans) {}
  StatusOr<vfs::VnodePtr> Root() override;

 private:
  vfs::Vfs* lower_;
  SpanRecorder* spans_;
};

}  // namespace ficus::e2e

#endif  // FICUS_E2EBENCH_INSTRUMENT_H_
