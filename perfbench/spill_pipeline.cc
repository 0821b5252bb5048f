// spill_pipeline: the F1 caching-layer pipeline under memory pressure. One
// driver keeps 16 chains in flight; a chain Puts a 4 MiB payload and passes
// it by reference through 4 stage tasks, and its last output is resolved
// with GetAsync under a bounded deadline. Each server's store holds a
// quarter of the in-flight working set, so the caching layer evicts to the
// one memory blade (3x the working set, spill enabled on every server) and
// fetches back over the fabric. It is the only workload whose working set
// exceeds the program's stores.
//
// Checks: each chain's output has the payload's size and carries the
// payload's tag advanced once per stage. A chain that misses the deadline
// or resolves to an error counts as failed.
#include <cstring>

#include "perfbench/perfbench.h"
#include "src/common/random.h"
#include "src/common/trace.h"

namespace perfbench {
namespace {

using skadi::Buffer;
using skadi::Result;
using skadi::Status;

constexpr int kStages = 4;
constexpr int64_t kGetTimeoutMs = 250;

int64_t TagOf(const Buffer& b) {
  int64_t tag = 0;
  if (b.size() >= sizeof(tag)) {
    std::memcpy(&tag, b.data(), sizeof(tag));
  }
  return tag;
}

Buffer Tagged(size_t size, int64_t tag) {
  std::vector<uint8_t> bytes(size);
  std::memcpy(bytes.data(), &tag, sizeof(tag));
  return Buffer(std::move(bytes));
}

class SpillPipeline : public Workload {
 public:
  void Prepare(uint64_t seed, bool smoke) override {
    rng_ = skadi::Rng(seed);
    chains_ = smoke ? 4 : 16;
    payload_bytes_ = smoke ? (256 << 10) : (4 << 20);
  }

  void Teardown() override { skadi_.reset(); }

  Status Setup() override {
    Teardown();
    const int64_t working_set =
        static_cast<int64_t>(chains_) * (kStages + 1) * payload_bytes_;
    skadi::SkadiOptions options = BaseOptions();
    options.cluster.server_store_bytes = working_set / 4;
    options.cluster.memory_blades = 1;
    options.cluster.blade_bytes = 3 * working_set;
    SKADI_ASSIGN_OR_RETURN(skadi_, skadi::Skadi::Start(options));
    SKADI_RETURN_IF_ERROR(skadi_->registry().Register(
        "perfbench.stage",
        [](skadi::TaskContext&, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
          const Buffer& in = args.at(0);
          return std::vector<Buffer>{Tagged(in.size(), TagOf(in) + 1)};
        }));
    for (const skadi::ClusterNode& node : skadi_->cluster().nodes()) {
      if (node.role == skadi::NodeRole::kServer) {
        SKADI_RETURN_IF_ERROR(skadi_->cache().EnableSpillToBlade(node.id));
      }
    }
    return Status::Ok();
  }

  skadi::Skadi& skadi() override { return *skadi_; }
  OpKind op_kind() const override { return OpKind::kChain; }

  PhaseResult Run(double seconds) override {
    refs_.assign(static_cast<size_t>(chains_), {});
    PhaseResult out = RunWindow(
        chains_, seconds, kGetTimeoutMs + 5000,
        [&](int slot, const std::shared_ptr<CompletionQueue>& queue) {
          return Start(slot, queue);
        },
        [&](int slot) {
          for (const skadi::ObjectRef& ref : refs_[static_cast<size_t>(slot)]) {
            (void)skadi_->runtime().Release(ref);
          }
          refs_[static_cast<size_t>(slot)].clear();
        });
    out.payload_bytes = static_cast<int64_t>(out.latency_ms[0].size()) * payload_bytes_;
    return out;
  }

 private:
  // Puts a tagged payload and chains the stages on it by reference; the
  // last output's GetAsync completes the slot.
  int Start(int slot, const std::shared_ptr<CompletionQueue>& queue) {
    skadi::SkadiRuntime& runtime = skadi_->runtime();
    std::vector<skadi::ObjectRef>& refs = refs_[static_cast<size_t>(slot)];
    const int64_t tag = static_cast<int64_t>(rng_.NextU64() >> 8);
    OpTrace op = BeginOpTrace();
    skadi::trace::ScopedContext in_op(op.ctx);
    Result<skadi::ObjectRef> current =
        runtime.Put(Tagged(static_cast<size_t>(payload_bytes_), tag));
    for (int s = 0; s < kStages && current.ok(); ++s) {
      refs.push_back(*current);
      skadi::TaskSpec spec;
      spec.function = "perfbench.stage";
      spec.args = {skadi::TaskArg::Ref(*current)};
      auto outputs = runtime.Submit(std::move(spec));
      current = outputs.ok() ? Result<skadi::ObjectRef>((*outputs)[0])
                             : Result<skadi::ObjectRef>(outputs.status());
    }
    if (!current.ok()) {
      skadi::trace::EndSpan(op.root);
      for (const skadi::ObjectRef& ref : refs) {
        (void)runtime.Release(ref);
      }
      refs.clear();
      return -1;
    }
    refs.push_back(*current);
    runtime.GetAsync(
        *current,
        [queue, slot, size = payload_bytes_, want = tag + kStages,
         root = op.root](Result<Buffer> value) mutable {
          Completion c;
          c.end_nanos = NowNanos();
          skadi::trace::EndSpan(root);
          c.slot = slot;
          c.ok = value.ok();
          c.right = c.ok && static_cast<int64_t>(value->size()) == size && TagOf(*value) == want;
          queue->Post(c);
        },
        kGetTimeoutMs);
    return 0;
  }

  skadi::Rng rng_{0};
  int chains_ = 16;
  int64_t payload_bytes_ = 4 << 20;
  // Every object of each slot's chain: the payload and the stage outputs.
  std::vector<std::vector<skadi::ObjectRef>> refs_;
  std::unique_ptr<skadi::Skadi> skadi_;
};

}  // namespace

std::unique_ptr<Workload> MakeSpillPipeline() { return std::make_unique<SpillPipeline>(); }

}  // namespace perfbench
