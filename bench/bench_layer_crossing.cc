// Experiment P1 (paper section 6): "The actual cost of crossing a layer
// boundary is low — one additional procedure call, one pointer
// indirection, and storage for another vnode block."
//
// Measures vnode operations through stacks of 0..16 pass-through (null)
// layers over an in-memory filesystem, so the marginal cost per layer is
// isolated from any I/O. Also reports the full Ficus logical->physical
// stack against raw UFS for the same operation mix.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/rng.h"
#include "src/repl/logical.h"
#include "src/repl/physical.h"
#include "src/storage/block_device.h"
#include "src/storage/buffer_cache.h"
#include "src/ufs/ufs.h"
#include "src/ufs/ufs_vfs.h"
#include "src/vfs/mem_vfs.h"
#include "src/vfs/pass_through.h"
#include "src/vfs/path_ops.h"
#include "src/vfs/trace_layer.h"

namespace {

using namespace ficus;  // NOLINT

// GetAttr through N null layers: the purest layer-crossing measurement.
void BM_GetAttrThroughNullLayers(benchmark::State& state) {
  vfs::MemVfs base;
  auto top = vfs::StackNullLayers(&base, static_cast<int>(state.range(0)));
  if (!top.ok()) {
    state.SkipWithError("stack construction failed");
    return;
  }
  for (auto _ : state) {
    auto attr = (*top)->GetAttr();
    benchmark::DoNotOptimize(attr);
  }
  state.SetLabel(std::to_string(state.range(0)) + " layers");
}
BENCHMARK(BM_GetAttrThroughNullLayers)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Lookup + read of a small file through N null layers.
void BM_OpenReadThroughNullLayers(benchmark::State& state) {
  vfs::MemVfs base;
  if (!vfs::MkdirAll(&base, "dir").ok() ||
      !vfs::WriteFileAt(&base, "dir/file", std::string(1024, 'x')).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  auto base_root = base.Root();
  auto top = vfs::StackNullLayers(&base, static_cast<int>(state.range(0)));
  if (!top.ok()) {
    state.SkipWithError("stack construction failed");
    return;
  }
  vfs::Credentials cred;
  std::vector<uint8_t> out;
  for (auto _ : state) {
    auto dir = (*top)->Lookup("dir", cred);
    auto file = (*dir)->Lookup("file", cred);
    auto n = (*file)->Read(0, 1024, out, cred);
    benchmark::DoNotOptimize(n);
  }
  state.SetLabel(std::to_string(state.range(0)) + " layers");
}
BENCHMARK(BM_OpenReadThroughNullLayers)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

struct FicusStack {
  FicusStack()
      : device(16384), cache(&device, 2048), ufs(&cache, &clock) {
    (void)ufs.Format(2048);
    physical = std::make_unique<repl::PhysicalLayer>(&ufs, &clock);
    (void)physical->CreateVolume(repl::VolumeId{1, 1}, 1, "vol", true);
    resolver.Add(physical.get());
    logical = std::make_unique<repl::LogicalLayer>(repl::VolumeId{1, 1}, &resolver, nullptr,
                                                   nullptr, &clock);
  }

  struct MiniResolver : repl::ReplicaResolver {
    void Add(repl::PhysicalLayer* layer) { layer_ = layer; }
    std::vector<repl::ReplicaId> ReplicasOf(const repl::VolumeId&) override { return {1}; }
    StatusOr<repl::PhysicalApi*> Access(const repl::VolumeId&, repl::ReplicaId) override {
      return static_cast<repl::PhysicalApi*>(layer_);
    }
    repl::PhysicalLayer* layer_ = nullptr;
  };

  SimClock clock;
  storage::BlockDevice device;
  storage::BufferCache cache;
  ufs::Ufs ufs;
  std::unique_ptr<repl::PhysicalLayer> physical;
  MiniResolver resolver;
  std::unique_ptr<repl::LogicalLayer> logical;
};

// The same open+read mix against raw UFS (the monolithic baseline)...
void BM_OpenReadRawUfs(benchmark::State& state) {
  FicusStack stack;
  ufs::UfsVfs raw(&stack.ufs);
  (void)vfs::MkdirAll(&raw, "dir");
  (void)vfs::WriteFileAt(&raw, "dir/file", std::string(1024, 'x'));
  for (auto _ : state) {
    auto contents = vfs::OpenReadClose(&raw, "dir/file");
    benchmark::DoNotOptimize(contents);
  }
  state.SetLabel("raw UFS (monolithic)");
}
BENCHMARK(BM_OpenReadRawUfs);

// ...and through the full Ficus logical->physical stack on that UFS.
void BM_OpenReadFicusStack(benchmark::State& state) {
  FicusStack stack;
  (void)vfs::MkdirAll(stack.logical.get(), "dir");
  (void)vfs::WriteFileAt(stack.logical.get(), "dir/file", std::string(1024, 'x'));
  for (auto _ : state) {
    auto contents = vfs::OpenReadClose(stack.logical.get(), "dir/file");
    benchmark::DoNotOptimize(contents);
  }
  state.SetLabel("Ficus logical+physical over UFS");
}
BENCHMARK(BM_OpenReadFicusStack);

// --- per-layer attribution -------------------------------------------------
//
// The google-benchmark runs above give the end-to-end cost of an N-deep
// stack; this pass answers the finer question "where did the time go?"
// by slipping one TraceVfs onto every boundary (all sharing a registry)
// and running a fixed op mix. The self cost of boundary i is the time
// attributed below i minus the time attributed below i-1.

constexpr int kTraceBoundaries = 4;

// FICUS_BENCH_SMOKE=1 (CI) cuts the attribution passes to a correctness
// check: same code paths and JSON shape, a fraction of the runtime.
int TraceIterations() {
  static const int iterations = EnvFlag("FICUS_BENCH_SMOKE") ? 500 : 20000;
  return iterations;
}

struct LayerOpCost {
  std::string layer;
  std::string op;
  uint64_t calls = 0;
  double mean_ns = 0.0;
  double self_ns = 0.0;
};

// Runs the fixed mix through `kTraceBoundaries` traced null boundaries
// over MemVfs and returns the per-layer, per-op breakdown (top first).
std::vector<LayerOpCost> AttributeNullStack(MetricRegistry& registry) {
  vfs::MemVfs base;
  (void)vfs::MkdirAll(&base, "dir");
  (void)vfs::WriteFileAt(&base, "dir/file", std::string(1024, 'x'));

  std::vector<std::unique_ptr<vfs::TraceVfs>> layers;
  vfs::Vfs* lower = &base;
  for (int i = 1; i <= kTraceBoundaries; ++i) {
    layers.push_back(
        std::make_unique<vfs::TraceVfs>(lower, "l" + std::to_string(i), &registry));
    lower = layers.back().get();
  }
  vfs::Vfs* top = lower;

  vfs::OpContext ctx;
  std::vector<uint8_t> out;
  for (int i = 0; i < TraceIterations(); ++i) {
    ctx.trace = NextTraceId();
    auto root = top->Root();
    auto dir = (*root)->Lookup("dir", ctx);
    auto file = (*dir)->Lookup("file", ctx);
    auto attr = (*file)->GetAttr(ctx);
    benchmark::DoNotOptimize(attr);
    auto n = (*file)->Read(0, 1024, out, ctx);
    benchmark::DoNotOptimize(n);
  }

  const vfs::VnodeOp kOps[] = {vfs::VnodeOp::kLookup, vfs::VnodeOp::kGetAttr,
                               vfs::VnodeOp::kRead};
  std::vector<LayerOpCost> costs;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {  // top first
    vfs::TraceVfs* layer = it->get();
    vfs::TraceVfs* below = (it + 1) != layers.rend() ? (it + 1)->get() : nullptr;
    for (vfs::VnodeOp op : kOps) {
      LayerOpCost cost;
      cost.layer = layer->sink().layer_name();
      cost.op = std::string(vfs::VnodeOpName(op));
      cost.calls = layer->sink().Calls(op);
      if (cost.calls > 0) {
        cost.mean_ns = static_cast<double>(layer->sink().TotalNs(op)) /
                       static_cast<double>(cost.calls);
        double below_mean =
            below == nullptr
                ? 0.0
                : static_cast<double>(below->sink().TotalNs(op)) /
                      static_cast<double>(below->sink().Calls(op));
        // The bottom boundary's "self" time includes the MemVfs work.
        cost.self_ns = cost.mean_ns - below_mean;
      }
      costs.push_back(cost);
    }
  }
  return costs;
}

// Open+read through the full Ficus stack vs raw UFS, each behind its own
// trace boundary, so the replication layers' self cost falls out as the
// difference of the two totals.
struct StackComparison {
  double logical_mean_ns = 0.0;
  double ufs_mean_ns = 0.0;
  double replication_self_ns = 0.0;
};

double TracedOpenReadMeanNs(vfs::Vfs* fs, std::string_view name,
                            MetricRegistry& registry) {
  vfs::TraceVfs traced(fs, name, &registry);
  for (int i = 0; i < TraceIterations() / 10; ++i) {
    auto contents = vfs::OpenReadClose(&traced, "dir/file");
    benchmark::DoNotOptimize(contents);
  }
  uint64_t total = 0;
  uint64_t calls = 0;
  for (size_t i = 0; i < static_cast<size_t>(vfs::VnodeOp::kCount); ++i) {
    total += traced.sink().TotalNs(static_cast<vfs::VnodeOp>(i));
    calls += traced.sink().Calls(static_cast<vfs::VnodeOp>(i));
  }
  (void)calls;
  return static_cast<double>(total) / (TraceIterations() / 10);
}

StackComparison AttributeFicusStack(MetricRegistry& registry) {
  StackComparison comparison;
  {
    FicusStack stack;
    ufs::UfsVfs raw(&stack.ufs);
    (void)vfs::MkdirAll(&raw, "dir");
    (void)vfs::WriteFileAt(&raw, "dir/file", std::string(1024, 'x'));
    comparison.ufs_mean_ns = TracedOpenReadMeanNs(&raw, "ufs", registry);
  }
  {
    FicusStack stack;
    (void)vfs::MkdirAll(stack.logical.get(), "dir");
    (void)vfs::WriteFileAt(stack.logical.get(), "dir/file", std::string(1024, 'x'));
    comparison.logical_mean_ns =
        TracedOpenReadMeanNs(stack.logical.get(), "logical", registry);
  }
  comparison.replication_self_ns =
      comparison.logical_mean_ns - comparison.ufs_mean_ns;
  return comparison;
}

void EmitJson(const std::vector<LayerOpCost>& costs, const StackComparison& comparison,
              MetricRegistry& registry) {
  std::ostringstream json;
  json << "{\"bench\":\"layer_crossing\",\"iterations\":" << TraceIterations()
       << ",\"boundaries\":" << kTraceBoundaries << ",\"per_layer\":[";
  for (size_t i = 0; i < costs.size(); ++i) {
    const LayerOpCost& cost = costs[i];
    if (i > 0) json << ",";
    json << "{\"layer\":\"" << cost.layer << "\",\"op\":\"" << cost.op
         << "\",\"calls\":" << cost.calls << ",\"mean_ns\":" << cost.mean_ns
         << ",\"self_ns\":" << cost.self_ns << "}";
  }
  json << "],\"ficus_stack\":{\"logical_mean_ns\":" << comparison.logical_mean_ns
       << ",\"ufs_mean_ns\":" << comparison.ufs_mean_ns
       << ",\"replication_self_ns\":" << comparison.replication_self_ns << "}"
       << ",\"metrics\":" << registry.ToJson() << "}";
  std::ofstream out("BENCH_layer_crossing.json");
  out << json.str() << "\n";
  std::printf("\nwrote BENCH_layer_crossing.json\n");
}

void RunAttribution() {
  MetricRegistry registry;
  std::vector<LayerOpCost> costs = AttributeNullStack(registry);
  StackComparison comparison = AttributeFicusStack(registry);

  std::printf("\nPer-layer attribution (%d traced null boundaries over MemVfs,\n"
              "%d iterations; self = this boundary's cost alone; the bottom\n"
              "boundary's self time includes the MemVfs work):\n\n",
              kTraceBoundaries, TraceIterations());
  std::printf("%8s %10s %10s %12s %12s\n", "layer", "op", "calls", "mean ns", "self ns");
  for (const LayerOpCost& cost : costs) {
    std::printf("%8s %10s %10llu %12.1f %12.1f\n", cost.layer.c_str(), cost.op.c_str(),
                static_cast<unsigned long long>(cost.calls), cost.mean_ns, cost.self_ns);
  }
  std::printf("\nFicus stack vs raw UFS (open+read+close, traced):\n"
              "  logical+physical over UFS: %10.1f ns/op\n"
              "  raw UFS:                   %10.1f ns/op\n"
              "  replication layers' self:  %10.1f ns/op\n",
              comparison.logical_mean_ns, comparison.ufs_mean_ns,
              comparison.replication_self_ns);
  EmitJson(costs, comparison, registry);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunAttribution();
  return 0;
}
