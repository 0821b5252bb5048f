// Streaming frontend: discretized micro-batch streams (D-Streams style)
// over the stateful serverless runtime. One of the execution models the
// distributed runtime must host (§1: "BSP, task-parallel, streaming, graph,
// ML"), and the natural consumer of stateful actors: running aggregates live
// in partitioned actor state, not in durable storage.
//
// Pipeline per micro-batch:
//   transform (stateless IR task)  ->  hash partition by key  ->
//   one actor task per state partition updating its running (sum, count).
#ifndef SRC_ACCESS_STREAMING_H_
#define SRC_ACCESS_STREAMING_H_

#include <memory>
#include <vector>

#include "src/format/record_batch.h"
#include "src/ir/ir.h"
#include "src/runtime/runtime.h"

namespace skadi {

struct StreamingOptions {
  // Number of state partitions (each one actor, spread over compute nodes).
  int parallelism = 2;
  // Column names in the *transformed* batch.
  std::string key_column = "key";
  std::string value_column = "value";
};

// A running streaming aggregation job. Not thread-safe: one driver pushes
// batches in order (micro-batch semantics).
class StreamingJob {
 public:
  // `transform` maps each raw micro-batch (table -> table); nullptr means
  // identity. The transformed batch must contain the configured key (int64)
  // and value (numeric) columns.
  static Result<std::unique_ptr<StreamingJob>> Start(
      SkadiRuntime* runtime, std::shared_ptr<IrFunction> transform,
      StreamingOptions options = {});

  // Feeds one micro-batch; returns once state updates are applied (synchronous
  // micro-batch barrier, as in discretized streams).
  Status PushBatch(const RecordBatch& batch);

  // Current running aggregates: (key, sum, count) across all partitions.
  Result<RecordBatch> Snapshot();

  int64_t batches_processed() const { return batches_processed_; }

 private:
  StreamingJob() = default;

  SkadiRuntime* runtime_ = nullptr;
  StreamingOptions options_;
  // Task bodies, built once per job and put on every spec it submits; the
  // transform body is null for an identity transform.
  std::shared_ptr<const TaskFunction> transform_body_;
  std::shared_ptr<const TaskFunction> update_body_;
  std::shared_ptr<const TaskFunction> snapshot_body_;
  std::vector<ActorId> actors_;
  int64_t batches_processed_ = 0;
};

}  // namespace skadi

#endif  // SRC_ACCESS_STREAMING_H_
