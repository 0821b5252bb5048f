// task_actor: one driver thread keeps a fixed window of outstanding
// futures, three echo tasks for every call to one of 8 counter actors; the
// calls come in bursts of four to one actor.
// There is no access layer and no kernel: the scheduler, raylet dispatch,
// ownership, the reactor and the fabric do all the work. Actor calls take
// the same dispatch path serially, so a gain for one kind of call that
// costs the other shows up.
//
// Checks: every echo returns its argument, every actor call returns its own
// sequence number, and after each phase each actor's counter equals the sum
// of the deltas sent to it. Calls that ran after a later call from the same
// driver are counted as order violations (the runtime does not yet order
// actor calls per caller).
#include <cstring>

#include "perfbench/perfbench.h"
#include "src/common/random.h"
#include "src/common/trace.h"

namespace perfbench {
namespace {

using skadi::Buffer;
using skadi::Result;
using skadi::Status;

constexpr int kActors = 8;
constexpr uint64_t kCallsPerActor = 4;
constexpr int64_t kGetTimeoutMs = 10'000;

Buffer I64Pair(int64_t a, int64_t b) {
  int64_t words[2] = {a, b};
  return Buffer::FromBytes(words, sizeof(words));
}

bool ReadPair(const Buffer& buffer, int64_t& a, int64_t& b) {
  if (buffer.size() != 2 * sizeof(int64_t)) {
    return false;
  }
  std::memcpy(&a, buffer.data(), sizeof(a));
  std::memcpy(&b, buffer.data() + sizeof(a), sizeof(b));
  return true;
}

// State cell of one counter actor. Calls run one at a time against it.
struct Counter {
  int64_t sum = 0;
  int64_t max_seq = -1;
  int64_t order_violations = 0;
};

class TaskActor : public Workload {
 public:
  void Prepare(uint64_t seed, bool smoke) override {
    rng_ = skadi::Rng(seed);
    window_ = smoke ? 4 : 16;
  }

  void Teardown() override {
    skadi_.reset();
    counters_.clear();
  }

  Status Setup() override {
    Teardown();
    SKADI_ASSIGN_OR_RETURN(skadi_, skadi::Skadi::Start(BaseOptions()));
    skadi::FunctionRegistry& registry = skadi_->registry();
    SKADI_RETURN_IF_ERROR(registry.Register(
        "perfbench.echo",
        [](skadi::TaskContext&, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
          return std::vector<Buffer>{args.at(0)};
        }));
    SKADI_RETURN_IF_ERROR(registry.Register(
        "perfbench.counter_add",
        [](skadi::TaskContext& ctx, std::vector<Buffer>& args) -> Result<std::vector<Buffer>> {
          int64_t seq = 0;
          int64_t delta = 0;
          if (!ReadPair(args.at(0), seq, delta)) {
            return Status::InvalidArgument("counter_add takes (seq, delta)");
          }
          auto* counter = static_cast<Counter*>(ctx.actor_state->get());
          if (seq < counter->max_seq) {
            counter->order_violations++;
          } else {
            counter->max_seq = seq;
          }
          counter->sum += delta;
          return std::vector<Buffer>{I64Pair(seq, counter->sum)};
        }));
    std::vector<skadi::NodeId> nodes = skadi_->cluster().ComputeNodes();
    for (int a = 0; a < kActors; ++a) {
      auto state = std::make_shared<Counter>();
      SKADI_ASSIGN_OR_RETURN(
          skadi::ActorId id,
          skadi_->runtime().CreateActor(nodes[static_cast<size_t>(a) % nodes.size()], state));
      counters_.push_back({id, state, 0, 0});
    }
    return Status::Ok();
  }

  skadi::Skadi& skadi() override { return *skadi_; }
  OpKind op_kind() const override { return OpKind::kTask; }

  PhaseResult Run(double seconds) override {
    int64_t violations_before = 0;
    for (const ActorEntry& a : counters_) {
      violations_before += a.state->order_violations;
    }
    refs_.assign(static_cast<size_t>(window_), skadi::ObjectRef{});
    PhaseResult out = RunWindow(
        window_, seconds, kGetTimeoutMs + 5000,
        [&](int slot, const std::shared_ptr<CompletionQueue>& queue) {
          return Start(slot, queue);
        },
        [&](int slot) { (void)skadi_->runtime().Release(refs_[static_cast<size_t>(slot)]); });

    for (const ActorEntry& a : counters_) {
      order_violations_ += a.state->order_violations;
      if (a.state->sum != a.expected_sum) {
        out.wrong++;
      }
    }
    order_violations_ -= violations_before;
    return out;
  }

  std::map<std::string, double> TakeLayerFigures() override {
    std::map<std::string, double> out = {
        {"runtime.submit_us", Quantile(submit_us_[0], 0.5)},
        {"runtime.actor_submit_us", Quantile(submit_us_[1], 0.5)},
        {"actor.order_violations", static_cast<double>(order_violations_)}};
    submit_us_[0].clear();
    submit_us_[1].clear();
    order_violations_ = 0;
    return out;
  }

 private:
  struct ActorEntry {
    skadi::ActorId id;
    std::shared_ptr<Counter> state;
    int64_t next_seq;
    int64_t expected_sum;
  };

  // Starts one echo task or actor call in `slot` (three echoes per call);
  // returns its latency kind, or -1 when the runtime refused it.
  int Start(int slot, const std::shared_ptr<CompletionQueue>& queue) {
    // Every 16 operations: 12 echo tasks, then kCallsPerActor calls to one
    // actor back to back, so calls to it are in flight together.
    const int kind = (op_index_++ % 16 >= 16 - kCallsPerActor) ? 1 : 0;
    skadi::TaskSpec spec;
    int64_t expect = 0;
    int64_t delta = 0;
    ActorEntry* actor = nullptr;
    if (kind == 0) {
      spec.function = "perfbench.echo";
      expect = static_cast<int64_t>(rng_.NextU64() >> 1);
      spec.args = {skadi::TaskArg::Value(I64Pair(expect, ~expect))};
    } else {
      if (actor_calls_++ % kCallsPerActor == 0) {
        current_actor_ = rng_.NextBounded(kActors);
      }
      actor = &counters_[current_actor_];
      expect = actor->next_seq++;
      delta = rng_.NextI64InRange(1, 1000);
      spec.function = "perfbench.counter_add";
      spec.args = {skadi::TaskArg::Value(I64Pair(expect, delta))};
    }

    OpTrace op = BeginOpTrace();
    skadi::trace::ScopedContext in_op(op.ctx);
    const int64_t t0 = NowNanos();
    Result<std::vector<skadi::ObjectRef>> refs =
        actor == nullptr ? skadi_->runtime().Submit(std::move(spec))
                         : skadi_->runtime().SubmitActorTask(actor->id, std::move(spec));
    submit_us_[kind].push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    if (!refs.ok() || refs->size() != 1) {
      skadi::trace::EndSpan(op.root);
      return -1;
    }
    if (actor != nullptr) {
      actor->expected_sum += delta;
    }
    refs_[static_cast<size_t>(slot)] = (*refs)[0];
    skadi_->runtime().GetAsync(
        (*refs)[0],
        [queue, slot, kind, expect, root = op.root](Result<Buffer> value) mutable {
          Completion c;
          c.end_nanos = NowNanos();
          skadi::trace::EndSpan(root);
          c.slot = slot;
          c.ok = value.ok();
          int64_t a = 0;
          int64_t b = 0;
          c.right = c.ok && ReadPair(*value, a, b) && a == expect && (kind == 1 || b == ~expect);
          queue->Post(c);
        },
        kGetTimeoutMs);
    return kind;
  }

  skadi::Rng rng_{0};
  int window_ = 16;
  uint64_t op_index_ = 0;
  uint64_t actor_calls_ = 0;
  uint64_t current_actor_ = 0;
  std::vector<ActorEntry> counters_;
  std::vector<skadi::ObjectRef> refs_;  // the future each slot waits on
  // Submit latency per kind (echo, actor call), in microseconds.
  std::vector<double> submit_us_[2];
  int64_t order_violations_ = 0;
  std::unique_ptr<skadi::Skadi> skadi_;
};

}  // namespace

std::unique_ptr<Workload> MakeTaskActor() { return std::make_unique<TaskActor>(); }

}  // namespace perfbench
