// Property test: random expression trees evaluated by the typed column
// loops (EvalExpr) match two independent row-at-a-time oracles: the
// interpreter below and reference::EvalExpr. Covers null propagation (nulls
// on one or both sides, AND/OR/NOT over nulls), literals on either side or
// both, DIV/MOD by zero -> null, and int->float promotion.
#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/format/compute.h"
#include "src/format/expr.h"

namespace skadi {
namespace {

// A dynamically typed scalar for the reference interpreter.
struct RefValue {
  enum class Kind { kNull, kInt, kFloat, kBool } kind = Kind::kNull;
  int64_t i = 0;
  double f = 0;
  bool b = false;

  static RefValue Null() { return {}; }
  static RefValue Int(int64_t v) { return {Kind::kInt, v, 0, false}; }
  static RefValue Float(double v) { return {Kind::kFloat, 0, v, false}; }
  static RefValue Bool(bool v) { return {Kind::kBool, 0, 0, v}; }

  // Bools compare as 0/1 (only = and != take bool operands).
  double AsFloat() const {
    return kind == Kind::kInt ? static_cast<double>(i) : kind == Kind::kBool ? (b ? 1.0 : 0.0) : f;
  }
  bool numeric() const { return kind == Kind::kInt || kind == Kind::kFloat; }
};

RefValue RefEval(const Expr& e, const RecordBatch& batch, int64_t row) {
  switch (e.kind()) {
    case ExprKind::kColumn: {
      const Column* col = batch.ColumnByName(e.column_name());
      if (col->IsNull(row)) {
        return RefValue::Null();
      }
      switch (col->type()) {
        case DataType::kInt64:
          return RefValue::Int(col->Int64At(row));
        case DataType::kFloat64:
          return RefValue::Float(col->Float64At(row));
        case DataType::kBool:
          return RefValue::Bool(col->BoolAt(row));
        default:
          return RefValue::Null();
      }
    }
    case ExprKind::kLiteral:
      switch (e.literal_type()) {
        case DataType::kInt64:
          return RefValue::Int(e.int_value());
        case DataType::kFloat64:
          return RefValue::Float(e.double_value());
        case DataType::kBool:
          return RefValue::Bool(e.bool_value());
        default:
          return RefValue::Null();
      }
    case ExprKind::kNot: {
      RefValue v = RefEval(*e.left(), batch, row);
      return v.kind == RefValue::Kind::kNull ? RefValue::Null() : RefValue::Bool(!v.b);
    }
    case ExprKind::kBinary:
      break;
  }
  RefValue l = RefEval(*e.left(), batch, row);
  RefValue r = RefEval(*e.right(), batch, row);
  if (l.kind == RefValue::Kind::kNull || r.kind == RefValue::Kind::kNull) {
    return RefValue::Null();
  }
  switch (e.op()) {
    case BinaryOp::kAnd:
      return RefValue::Bool(l.b && r.b);
    case BinaryOp::kOr:
      return RefValue::Bool(l.b || r.b);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      bool as_float = l.kind == RefValue::Kind::kFloat || r.kind == RefValue::Kind::kFloat;
      if (as_float) {
        double a = l.AsFloat();
        double b = r.AsFloat();
        double out = e.op() == BinaryOp::kAdd ? a + b
                     : e.op() == BinaryOp::kSub ? a - b
                                                : a * b;
        return RefValue::Float(out);
      }
      int64_t out = e.op() == BinaryOp::kAdd ? l.i + r.i
                    : e.op() == BinaryOp::kSub ? l.i - r.i
                                               : l.i * r.i;
      return RefValue::Int(out);
    }
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      bool as_float = l.kind == RefValue::Kind::kFloat || r.kind == RefValue::Kind::kFloat;
      bool div = e.op() == BinaryOp::kDiv;
      if (as_float) {
        if (r.AsFloat() == 0.0) {
          return RefValue::Null();
        }
        return RefValue::Float(div ? l.AsFloat() / r.AsFloat()
                                   : std::fmod(l.AsFloat(), r.AsFloat()));
      }
      if (r.i == 0) {
        return RefValue::Null();
      }
      return RefValue::Int(div ? l.i / r.i : l.i % r.i);
    }
    default: {  // comparisons
      double a = l.AsFloat();
      double b = r.AsFloat();
      bool out = false;
      switch (e.op()) {
        case BinaryOp::kLt:
          out = a < b;
          break;
        case BinaryOp::kLe:
          out = a <= b;
          break;
        case BinaryOp::kGt:
          out = a > b;
          break;
        case BinaryOp::kGe:
          out = a >= b;
          break;
        case BinaryOp::kEq:
          out = a == b;
          break;
        case BinaryOp::kNe:
          out = a != b;
          break;
        default:
          break;
      }
      return RefValue::Bool(out);
    }
  }
}

// Generates a random expression of the given result class.
// depth limits recursion; kind: 0 = numeric, 1 = boolean.
ExprPtr RandomExpr(Rng& rng, int depth, int kind) {
  if (kind == 1) {
    // boolean
    if (depth <= 0 || rng.NextBool(0.2)) {
      switch (rng.NextBounded(3)) {
        case 0:
          return Expr::Col("b");  // has nulls
        case 1:
          return Expr::Col("c");  // no nulls
        default:
          return Expr::Bool(rng.NextBool());
      }
    }
    switch (rng.NextBounded(4)) {
      case 0:
        return Expr::Binary(BinaryOp::kAnd, RandomExpr(rng, depth - 1, 1),
                            RandomExpr(rng, depth - 1, 1));
      case 1:
        return Expr::Binary(BinaryOp::kOr, RandomExpr(rng, depth - 1, 1),
                            RandomExpr(rng, depth - 1, 1));
      case 2:
        return Expr::Not(RandomExpr(rng, depth - 1, 1));
      default: {
        BinaryOp cmp = static_cast<BinaryOp>(
            static_cast<int>(BinaryOp::kLt) + static_cast<int>(rng.NextBounded(6)));
        return Expr::Binary(cmp, RandomExpr(rng, depth - 1, 0),
                            RandomExpr(rng, depth - 1, 0));
      }
    }
  }
  // numeric
  if (depth <= 0 || rng.NextBool(0.3)) {
    // Columns with nulls (i, f) and without (j, h); literals include 0.
    switch (rng.NextBounded(6)) {
      case 0:
        return Expr::Col("i");
      case 1:
        return Expr::Col("f");
      case 2:
        return Expr::Col("j");
      case 3:
        return Expr::Col("h");
      case 4:
        return Expr::Int(rng.NextI64InRange(-5, 5));
      default:
        return Expr::Float(static_cast<double>(rng.NextI64InRange(-5, 5)) / 2.0);
    }
  }
  BinaryOp op;
  switch (rng.NextBounded(5)) {
    case 0:
      op = BinaryOp::kAdd;
      break;
    case 1:
      op = BinaryOp::kSub;
      break;
    case 2:
      op = BinaryOp::kMul;
      break;
    case 3:
      op = BinaryOp::kDiv;
      break;
    default:
      op = BinaryOp::kMod;
      break;
  }
  return Expr::Binary(op, RandomExpr(rng, depth - 1, 0), RandomExpr(rng, depth - 1, 0));
}

// Random batch: i, f, b have ~10% nulls; j, h, c have none.
RecordBatch RandomBatch(Rng& rng, int64_t rows) {
  ColumnBuilder ints(DataType::kInt64);
  ColumnBuilder floats(DataType::kFloat64);
  ColumnBuilder bools(DataType::kBool);
  ColumnBuilder dense_ints(DataType::kInt64);
  ColumnBuilder dense_floats(DataType::kFloat64);
  ColumnBuilder dense_bools(DataType::kBool);
  for (int64_t r = 0; r < rows; ++r) {
    if (rng.NextBool(0.1)) {
      ints.AppendNull();
    } else {
      ints.AppendInt64(rng.NextI64InRange(-10, 10));
    }
    if (rng.NextBool(0.1)) {
      floats.AppendNull();
    } else {
      floats.AppendFloat64(static_cast<double>(rng.NextI64InRange(-20, 20)) / 4.0);
    }
    if (rng.NextBool(0.1)) {
      bools.AppendNull();
    } else {
      bools.AppendBool(rng.NextBool());
    }
    dense_ints.AppendInt64(rng.NextI64InRange(-10, 10));
    dense_floats.AppendFloat64(static_cast<double>(rng.NextI64InRange(-20, 20)) / 4.0);
    dense_bools.AppendBool(rng.NextBool());
  }
  Schema schema({{"i", DataType::kInt64},
                 {"f", DataType::kFloat64},
                 {"b", DataType::kBool},
                 {"j", DataType::kInt64},
                 {"h", DataType::kFloat64},
                 {"c", DataType::kBool}});
  auto batch = RecordBatch::Make(
      schema, {ints.Finish(), floats.Finish(), bools.Finish(), dense_ints.Finish(),
               dense_floats.Finish(), dense_bools.Finish()});
  EXPECT_TRUE(batch.ok());
  return std::move(batch).value();
}

// EvalExpr against both row-at-a-time oracles, row by row.
void ExpectMatchesOracles(const Expr& expr, const RecordBatch& batch) {
  SCOPED_TRACE("expr: " + expr.ToString());
  auto columnar = EvalExpr(expr, batch);
  ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
  const int64_t rows = batch.num_rows();
  ASSERT_EQ(columnar->length(), rows);
  auto reference = reference::EvalExpr(expr, batch);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(columnar->type(), reference->type());

  for (int64_t r = 0; r < rows; ++r) {
    ASSERT_EQ(columnar->IsNull(r), reference->IsNull(r)) << "row " << r;
    if (!columnar->IsNull(r)) {
      EXPECT_EQ(columnar->ValueToString(r), reference->ValueToString(r)) << "row " << r;
    }
    RefValue want = RefEval(expr, batch, r);
    if (want.kind == RefValue::Kind::kNull) {
      EXPECT_TRUE(columnar->IsNull(r)) << "row " << r;
      continue;
    }
    ASSERT_FALSE(columnar->IsNull(r)) << "row " << r;
    switch (want.kind) {
      case RefValue::Kind::kInt:
        ASSERT_EQ(columnar->type(), DataType::kInt64) << "row " << r;
        EXPECT_EQ(columnar->Int64At(r), want.i) << "row " << r;
        break;
      case RefValue::Kind::kFloat:
        ASSERT_EQ(columnar->type(), DataType::kFloat64) << "row " << r;
        EXPECT_NEAR(columnar->Float64At(r), want.f, 1e-9) << "row " << r;
        break;
      case RefValue::Kind::kBool:
        ASSERT_EQ(columnar->type(), DataType::kBool) << "row " << r;
        EXPECT_EQ(columnar->BoolAt(r), want.b) << "row " << r;
        break;
      case RefValue::Kind::kNull:
        break;
    }
  }
}

class ExprFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprFuzzTest, ColumnarMatchesRowWise) {
  Rng rng(GetParam());
  RecordBatch batch = RandomBatch(rng, 200);
  for (int trial = 0; trial < 10; ++trial) {
    ExprPtr expr = RandomExpr(rng, 3, static_cast<int>(rng.NextBounded(2)));
    ExpectMatchesOracles(*expr, batch);
  }
}

// The shapes the typed loops special-case, each spelled out once.
TEST(ExprEdgeCaseTest, LiteralsNullsAndZeroDivisorsMatchOracles) {
  Rng rng(7);
  RecordBatch batch = RandomBatch(rng, 64);
  auto bin = [](BinaryOp op, ExprPtr l, ExprPtr r) { return Expr::Binary(op, l, r); };
  const std::vector<ExprPtr> cases = {
      bin(BinaryOp::kGt, Expr::Int(3), Expr::Col("i")),        // literal on the left
      bin(BinaryOp::kLe, Expr::Float(0.5), Expr::Col("j")),    // float literal vs int column
      bin(BinaryOp::kLt, Expr::Int(2), Expr::Int(3)),          // both literal
      bin(BinaryOp::kAdd, Expr::Int(2), Expr::Float(0.25)),    // both literal, mixed
      bin(BinaryOp::kDiv, Expr::Int(1), Expr::Int(0)),         // literal / literal zero
      bin(BinaryOp::kMul, Expr::Col("i"),                      // column * constant null
          bin(BinaryOp::kMod, Expr::Int(4), Expr::Int(0))),
      bin(BinaryOp::kDiv, Expr::Col("j"), Expr::Int(0)),       // column / zero
      bin(BinaryOp::kMod, Expr::Col("i"), Expr::Col("j")),     // column % column with zeros
      bin(BinaryOp::kMod, Expr::Col("h"), Expr::Col("f")),     // float fmod, zeros, nulls
      bin(BinaryOp::kDiv, Expr::Col("f"), Expr::Float(0.0)),   // float / zero
      bin(BinaryOp::kSub, Expr::Col("i"), Expr::Col("f")),     // nulls on both sides
      bin(BinaryOp::kAdd, Expr::Col("j"), Expr::Col("f")),     // nulls on one side
      bin(BinaryOp::kEq, Expr::Col("j"), Expr::Col("h")),      // int vs float compare
      bin(BinaryOp::kNe, Expr::Col("h"), Expr::Int(1)),
      bin(BinaryOp::kGe, Expr::Col("i"), Expr::Col("j")),
      bin(BinaryOp::kAnd, Expr::Col("b"), Expr::Col("c")),     // AND over nulls
      bin(BinaryOp::kOr, Expr::Bool(true), Expr::Col("b")),    // OR, literal left
      bin(BinaryOp::kEq, Expr::Col("b"), Expr::Bool(false)),   // bool equality
      bin(BinaryOp::kNe, Expr::Col("c"), Expr::Col("b")),
      Expr::Not(Expr::Col("b")),                               // NOT over nulls
      Expr::Not(bin(BinaryOp::kAnd, Expr::Bool(true), Expr::Bool(false))),
      Expr::Int(7),                                            // bare literal
  };
  for (const ExprPtr& expr : cases) {
    ExpectMatchesOracles(*expr, batch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzzTest, ::testing::Range<uint64_t>(500, 515));

}  // namespace
}  // namespace skadi
