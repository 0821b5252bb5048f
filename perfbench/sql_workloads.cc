// The two SQL workloads. Both drive Skadi::Sql from closed-loop client
// threads over seeded tables and compare every result with a reference the
// benchmark computes by plain loops over the same generated rows.
//
//   sql_dashboard: 2 clients, a fixed 4-shape mix (filter; group-by; join
//     with a 256-row dim; filter + group-by + HAVING + ORDER BY + LIMIT)
//     over a 20k-row fact table in 4 partitions. Queries are a few tiny
//     tasks each, so the per-task control path and the SQL front end
//     dominate.
//   sql_analytic: 1 client running a join with a 100k-row dim into a
//     100k-group group-by over a 2M-row fact table in 4 partitions, so the
//     kernels and the morsel pool do most of the work.
//
// Shapes rotate in a fixed order; the seed picks the data and each query's
// constants, so every seed runs the same mix.
#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/access/sql_ast.h"
#include "src/access/sql_planner.h"
#include "src/common/random.h"
#include "src/common/trace.h"
#include "src/format/compute.h"
#include "src/graph/flow_graph.h"
#include "src/graph/physical.h"

namespace perfbench {
namespace {

using skadi::Column;
using skadi::RecordBatch;
using skadi::Result;
using skadi::Status;
using Row = std::vector<int64_t>;

constexpr int kPartitions = 4;

RecordBatch MakeTable(const std::vector<std::string>& names,
                      std::vector<std::vector<int64_t>> columns) {
  std::vector<skadi::Field> fields;
  std::vector<Column> cols;
  for (size_t i = 0; i < names.size(); ++i) {
    fields.push_back({names[i], skadi::DataType::kInt64});
    cols.push_back(Column::MakeInt64(std::move(columns[i])));
  }
  return RecordBatch::Make(skadi::Schema(std::move(fields)), std::move(cols)).value();
}

// Reference result of one query instance.
struct Expected {
  enum class Kind {
    kRowSet,  // any row order; compared sorted
    kTopK,    // ordered by the `order_column` value descending, ties any order
  };
  Kind kind = Kind::kRowSet;
  std::vector<std::string> columns;
  std::vector<Row> rows;  // sorted for kRowSet, in result order for kTopK
  // kTopK: every row that passed HAVING, sorted, so tied rows are accepted.
  std::vector<Row> candidates;
  size_t order_column = 0;
};

struct QueryInstance {
  std::string sql;
  Expected expected;
};

// Rows of `result` projected onto `columns`; nullopt when a column is
// missing, not int64, or has nulls.
std::optional<std::vector<Row>> ExtractRows(const RecordBatch& result,
                                            const std::vector<std::string>& columns) {
  std::vector<const Column*> cols;
  for (const std::string& name : columns) {
    const Column* c = result.ColumnByName(name);
    if (c == nullptr || c->type() != skadi::DataType::kInt64 || c->has_nulls()) {
      return std::nullopt;
    }
    cols.push_back(c);
  }
  std::vector<Row> rows(static_cast<size_t>(result.num_rows()));
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    for (const Column* c : cols) {
      rows[static_cast<size_t>(r)].push_back(c->Int64At(r));
    }
  }
  return rows;
}

bool Matches(const RecordBatch& result, const Expected& expected) {
  auto rows = ExtractRows(result, expected.columns);
  if (!rows.has_value() || rows->size() != expected.rows.size()) {
    return false;
  }
  if (expected.kind == Expected::Kind::kRowSet) {
    std::sort(rows->begin(), rows->end());
    return *rows == expected.rows;
  }
  for (size_t i = 0; i < rows->size(); ++i) {
    const Row& row = (*rows)[i];
    if (row[expected.order_column] != expected.rows[i][expected.order_column] ||
        !std::binary_search(expected.candidates.begin(), expected.candidates.end(), row)) {
      return false;
    }
  }
  return true;
}

// Group -> (count, sum of v) over rows passing `keep`.
template <typename Keep>
std::map<int64_t, std::pair<int64_t, int64_t>> GroupCountSum(const std::vector<int64_t>& keys,
                                                             const std::vector<int64_t>& v,
                                                             Keep keep) {
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keep(i)) {
      auto& g = groups[keys[i]];
      g.first++;
      g.second += v[i];
    }
  }
  return groups;
}

Expected GroupsExpected(const std::vector<std::string>& columns,
                        const std::map<int64_t, std::pair<int64_t, int64_t>>& groups) {
  Expected e;
  e.columns = columns;  // key, n, s
  for (const auto& [key, ns] : groups) {
    e.rows.push_back({key, ns.first, ns.second});
  }
  return e;
}

template <typename T>
double MeanMicros(const std::vector<T>& nanos) {
  double sum = 0;
  for (T n : nanos) {
    sum += static_cast<double>(n);
  }
  return nanos.empty() ? 0.0 : sum / static_cast<double>(nanos.size()) / 1000.0;
}

// Shared driver for both SQL workloads.
class SqlWorkload : public Workload {
 public:
  SqlWorkload(int clients, int shapes) : clients_(clients), shapes_(shapes) {}

  Status Setup() override {
    Teardown();
    skadi::SkadiOptions options = BaseOptions();
    options.default_parallelism = kPartitions;
    SKADI_ASSIGN_OR_RETURN(skadi_, skadi::Skadi::Start(options));
    SKADI_RETURN_IF_ERROR(skadi_->RegisterTable("fact", fact_, kPartitions));
    return skadi_->RegisterTable("dim", dim_, 1);
  }

  void Teardown() override { skadi_.reset(); }
  skadi::Skadi& skadi() override { return *skadi_; }
  OpKind op_kind() const override { return OpKind::kQuery; }

  PhaseResult Run(double seconds) override {
    PhaseResult out;
    std::mutex mu;
    const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
    const int64_t start = NowNanos();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        ClientState& client = client_state_[static_cast<size_t>(c)];
        PhaseResult local;
        while (NowNanos() < deadline) {
          const int shape = static_cast<int>((client.next + static_cast<uint64_t>(c)) %
                                             static_cast<uint64_t>(shapes_));
          client.next++;
          const auto& pool = pools_[static_cast<size_t>(shape)];
          const QueryInstance& q = pool[client.rng.NextBounded(pool.size())];
          local.attempted++;
          int64_t t0 = NowNanos();
          Result<RecordBatch> result = [&] {
            skadi::trace::TraceSpan root(kOpSpan);
            return skadi_->Sql(q.sql);
          }();
          int64_t t1 = NowNanos();
          if (!result.ok()) {
            local.failed++;
          } else if (!Matches(*result, q.expected)) {
            local.wrong++;
          } else {
            local.Record(0, t0, t1);
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        out.Merge(local);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    out.wall_s = static_cast<double>(NowNanos() - start) / 1e9;
    return out;
  }

  // Front end stage by stage, as Skadi::Sql runs it, and the kernels on one
  // partition of the fact table; single-threaded, nothing else running.
  std::map<std::string, double> OfflineLayers() override {
    std::vector<int64_t> parse, plan, optimize, lower;
    int reps = std::max(1, front_end_reps_);
    for (int r = 0; r < reps; ++r) {
      for (const auto& pool : pools_) {
        for (const QueryInstance& q : pool) {
          if (!TimeFrontEnd(q.sql, parse, plan, optimize, lower)) {
            return {};  // Skadi::Sql rejected the same query, counted as failed
          }
        }
      }
    }
    std::map<std::string, double> out;
    out["access.parse_us"] = MeanMicros(parse);
    out["access.plan_us"] = MeanMicros(plan);
    out["graph.optimize_us"] = MeanMicros(optimize);
    out["graph.lower_us"] = MeanMicros(lower);

    RecordBatch part = fact_.Slice(0, (fact_.num_rows() + kPartitions - 1) / kPartitions);
    skadi::ExprPtr predicate = skadi::Expr::Binary(
        skadi::BinaryOp::kGt, skadi::Expr::Col("v"), skadi::Expr::Int(filter_threshold_));
    std::vector<skadi::AggregateSpec> aggs = {{skadi::AggKind::kCount, "", "n"},
                                              {skadi::AggKind::kSum, "v", "s"}};
    out["format.groupby_ms"] = TimeKernel([&] {
      return skadi::GroupAggregateBatch(part, {group_column_}, aggs).ok();
    });
    out["format.join_ms"] = TimeKernel([&] {
      return skadi::HashJoinBatch(part, dim_, {"k"}, {"dk"}).ok();
    });
    out["format.filter_ms"] = TimeKernel([&] {
      return skadi::FilterBatch(part, *predicate).ok();
    });
    return out;
  }

 protected:
  struct ClientState {
    skadi::Rng rng{0};
    uint64_t next = 0;
  };

  void InitClients(uint64_t seed) {
    client_state_.clear();
    for (int c = 0; c < clients_; ++c) {
      client_state_.push_back({skadi::Rng(seed * 1000003 + static_cast<uint64_t>(c) + 1), 0});
    }
  }

  // Median wall time of `kernel` over repeated calls, in milliseconds.
  template <typename Fn>
  double TimeKernel(Fn kernel) {
    std::vector<double> ms;
    const int64_t stop = NowNanos() + 300'000'000;
    while (ms.size() < 5 || (NowNanos() < stop && ms.size() < 200)) {
      int64_t t0 = NowNanos();
      if (!kernel()) {
        return 0.0;
      }
      ms.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
    }
    return Quantile(ms, 0.5);
  }

  // Mirrors Skadi::PrepareSql's option derivation for this cluster: the
  // plan is 4 shards wide and each shard gets one kernel thread.
  bool TimeFrontEnd(const std::string& sql, std::vector<int64_t>& parse,
                    std::vector<int64_t>& plan, std::vector<int64_t>& optimize,
                    std::vector<int64_t>& lower) {
    int64_t t0 = NowNanos();
    auto select = skadi::SqlParse(sql);
    int64_t t1 = NowNanos();
    if (!select.ok()) {
      return false;
    }
    skadi::SqlPlannerOptions planner;
    planner.parallelism = kPartitions;
    planner.intra_op_threads = 1;
    auto sql_plan = skadi::PlanSql(*select, planner);
    int64_t t2 = NowNanos();
    if (!sql_plan.ok() || !skadi::OptimizeFlowGraph(sql_plan->graph).ok()) {
      return false;
    }
    int64_t t3 = NowNanos();
    skadi::LoweringOptions lowering;
    lowering.default_parallelism = kPartitions;
    lowering.available_backends = skadi_->AvailableBackends();
    auto physical = skadi::LowerToPhysical(sql_plan->graph, lowering, &skadi_->registry());
    int64_t t4 = NowNanos();
    if (!physical.ok()) {
      return false;
    }
    parse.push_back(t1 - t0);
    plan.push_back(t2 - t1);
    optimize.push_back(t3 - t2);
    lower.push_back(t4 - t3);
    return true;
  }

  const int clients_;
  const int shapes_;
  RecordBatch fact_;
  RecordBatch dim_;
  std::vector<std::vector<QueryInstance>> pools_;  // one pool per shape
  std::vector<ClientState> client_state_;
  std::string group_column_;
  int64_t filter_threshold_ = 0;
  int front_end_reps_ = 1;
  std::unique_ptr<skadi::Skadi> skadi_;
};

constexpr int64_t kValueRange = 1'000'000;

class SqlDashboard : public SqlWorkload {
 public:
  SqlDashboard() : SqlWorkload(/*clients=*/2, /*shapes=*/4) {}

  void Prepare(uint64_t seed, bool smoke) override {
    const int64_t rows = smoke ? 2000 : 20000;
    constexpr int64_t kDimRows = 256;
    constexpr int64_t kGroups = 16;
    skadi::Rng rng(seed);
    std::vector<int64_t> id(static_cast<size_t>(rows)), k(id.size()), g(id.size()),
        v(id.size());
    for (size_t i = 0; i < id.size(); ++i) {
      id[i] = static_cast<int64_t>(i);
      k[i] = static_cast<int64_t>(rng.NextBounded(kDimRows));
      g[i] = static_cast<int64_t>(rng.NextBounded(kGroups));
      v[i] = static_cast<int64_t>(rng.NextBounded(kValueRange));
    }
    std::vector<int64_t> dk(kDimRows), zone(kDimRows);
    for (int64_t i = 0; i < kDimRows; ++i) {
      dk[static_cast<size_t>(i)] = i;
      zone[static_cast<size_t>(i)] = static_cast<int64_t>(rng.NextBounded(8));
    }
    fact_ = MakeTable({"id", "k", "g", "v"}, {id, k, g, v});
    dim_ = MakeTable({"dk", "zone"}, {dk, zone});
    group_column_ = "g";

    constexpr int kPerShape = 16;
    pools_.assign(4, {});
    for (int i = 0; i < kPerShape; ++i) {
      // Filter: ~0.5-1.5% of the rows.
      int64_t t = rng.NextI64InRange(985'000, 995'000);
      if (i == 0) {
        filter_threshold_ = t;
      }
      QueryInstance filter{"SELECT id, v FROM fact WHERE v > " + std::to_string(t), {}};
      filter.expected.columns = {"id", "v"};
      for (size_t r = 0; r < v.size(); ++r) {
        if (v[r] > t) {
          filter.expected.rows.push_back({id[r], v[r]});
        }
      }
      pools_[0].push_back(std::move(filter));

      // Group-by over the 16 groups.
      t = rng.NextI64InRange(100'000, kValueRange);
      pools_[1].push_back(
          {"SELECT g, COUNT(*) AS n, SUM(v) AS s FROM fact WHERE v < " + std::to_string(t) +
               " GROUP BY g",
           GroupsExpected({"g", "n", "s"},
                          GroupCountSum(g, v, [&](size_t r) { return v[r] < t; }))});

      // Join with the 256-row dim; selective filter keeps the result small.
      t = rng.NextI64InRange(985'000, 995'000);
      QueryInstance join{"SELECT id, zone FROM fact JOIN dim ON k = dk WHERE v > " +
                             std::to_string(t),
                         {}};
      join.expected.columns = {"id", "zone"};
      for (size_t r = 0; r < v.size(); ++r) {
        if (v[r] > t) {
          join.expected.rows.push_back({id[r], zone[static_cast<size_t>(k[r])]});
        }
      }
      std::sort(join.expected.rows.begin(), join.expected.rows.end());
      pools_[2].push_back(std::move(join));

      // Filter + group-by + HAVING + ORDER BY + LIMIT: HAVING at the median
      // group size keeps about half the groups, LIMIT keeps 5 of them.
      t = rng.NextI64InRange(0, 500'000);
      auto groups = GroupCountSum(g, v, [&](size_t r) { return v[r] > t; });
      std::vector<int64_t> counts;
      for (const auto& [key, ns] : groups) {
        counts.push_back(ns.first);
      }
      std::sort(counts.begin(), counts.end());
      int64_t having = counts.empty() ? 0 : counts[counts.size() / 2];
      QueryInstance top{"SELECT g, SUM(v) AS s, COUNT(*) AS n FROM fact WHERE v > " +
                            std::to_string(t) + " GROUP BY g HAVING n > " +
                            std::to_string(having) + " ORDER BY s DESC LIMIT 5",
                        {}};
      top.expected.kind = Expected::Kind::kTopK;
      top.expected.columns = {"g", "s", "n"};
      top.expected.order_column = 1;
      for (const auto& [key, ns] : groups) {
        if (ns.first > having) {
          top.expected.candidates.push_back({key, ns.second, ns.first});
        }
      }
      std::vector<Row> ordered = top.expected.candidates;
      std::stable_sort(ordered.begin(), ordered.end(),
                       [](const Row& a, const Row& b) { return a[1] > b[1]; });
      ordered.resize(std::min<size_t>(ordered.size(), 5));
      top.expected.rows = ordered;
      pools_[3].push_back(std::move(top));
    }
    front_end_reps_ = smoke ? 1 : 8;
    InitClients(seed);
  }
};

class SqlAnalytic : public SqlWorkload {
 public:
  SqlAnalytic() : SqlWorkload(/*clients=*/1, /*shapes=*/1) {}

  // A query takes 100-200 ms, so shorter chunks would hold none.
  double chunk_seconds() const override { return 0.5; }

  // One query shape: a join with the 100k-row dim feeding a group-by with
  // 100k groups, on the half of the fact rows that pass the filter. A single
  // shape keeps the latency distribution unimodal; the thresholds stay in a
  // narrow band so every query does about the same work.
  void Prepare(uint64_t seed, bool smoke) override {
    const int64_t rows = smoke ? 40'000 : 2'000'000;
    const int64_t keys = smoke ? 2'000 : 100'000;
    skadi::Rng rng(seed);
    std::vector<int64_t> k(static_cast<size_t>(rows)), v(k.size());
    for (size_t i = 0; i < k.size(); ++i) {
      k[i] = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(keys)));
      v[i] = static_cast<int64_t>(rng.NextBounded(kValueRange));
    }
    std::vector<int64_t> dk(static_cast<size_t>(keys)), w(dk.size());
    for (size_t i = 0; i < dk.size(); ++i) {
      dk[i] = static_cast<int64_t>(i);
      w[i] = static_cast<int64_t>(rng.NextBounded(1000));
    }
    fact_ = MakeTable({"k", "v"}, {k, v});
    dim_ = MakeTable({"dk", "w"}, {dk, w});
    group_column_ = "k";

    constexpr int kInstances = 3;
    pools_.assign(1, {});
    for (int i = 0; i < kInstances; ++i) {
      const int64_t t = rng.NextI64InRange(480'000, 520'000);
      if (i == 0) {
        filter_threshold_ = t;
      }
      QueryInstance q{"SELECT k, COUNT(*) AS n, SUM(v) AS s, SUM(w) AS sw FROM fact JOIN dim "
                      "ON k = dk WHERE v < " +
                          std::to_string(t) + " GROUP BY k",
                      {}};
      q.expected.columns = {"k", "n", "s", "sw"};
      for (const auto& [key, ns] : GroupCountSum(k, v, [&](size_t r) { return v[r] < t; })) {
        q.expected.rows.push_back({key, ns.first, ns.second, ns.first * w[static_cast<size_t>(key)]});
      }
      pools_[0].push_back(std::move(q));
    }
    front_end_reps_ = smoke ? 1 : 50;
    InitClients(seed);
  }
};

}  // namespace

std::unique_ptr<Workload> MakeSqlDashboard() { return std::make_unique<SqlDashboard>(); }
std::unique_ptr<Workload> MakeSqlAnalytic() { return std::make_unique<SqlAnalytic>(); }

}  // namespace perfbench
