#include "src/format/expr.h"

#include <cmath>
#include <set>
#include <sstream>

namespace skadi {

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

ExprPtr Expr::Col(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Int(int64_t v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_type_ = DataType::kInt64;
  e->int_value_ = v;
  return e;
}

ExprPtr Expr::Float(double v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_type_ = DataType::kFloat64;
  e->double_value_ = v;
  return e;
}

ExprPtr Expr::Str(std::string v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_type_ = DataType::kString;
  e->string_value_ = std::move(v);
  return e;
}

ExprPtr Expr::Bool(bool v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_type_ = DataType::kBool;
  e->bool_value_ = v;
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kBinary;
  e->op_ = op;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kNot;
  e->left_ = std::move(operand);
  return e;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return column_name_;
    case ExprKind::kLiteral:
      switch (literal_type_) {
        case DataType::kInt64:
          return std::to_string(int_value_);
        case DataType::kFloat64:
          return std::to_string(double_value_);
        case DataType::kString:
          return "'" + string_value_ + "'";
        case DataType::kBool:
          return bool_value_ ? "true" : "false";
      }
      return "?";
    case ExprKind::kBinary: {
      std::ostringstream os;
      os << "(" << left_->ToString() << " " << BinaryOpName(op_) << " "
         << right_->ToString() << ")";
      return os.str();
    }
    case ExprKind::kNot:
      return "NOT (" + left_->ToString() + ")";
  }
  return "?";
}

namespace {
void CollectColumns(const Expr& e, std::set<std::string>& out) {
  switch (e.kind()) {
    case ExprKind::kColumn:
      out.insert(e.column_name());
      break;
    case ExprKind::kLiteral:
      break;
    case ExprKind::kBinary:
      CollectColumns(*e.left(), out);
      CollectColumns(*e.right(), out);
      break;
    case ExprKind::kNot:
      CollectColumns(*e.left(), out);
      break;
  }
}
}  // namespace

std::vector<std::string> Expr::ReferencedColumns() const {
  std::set<std::string> cols;
  CollectColumns(*this, cols);
  return std::vector<std::string>(cols.begin(), cols.end());
}

namespace {

bool IsNumeric(DataType t) { return t == DataType::kInt64 || t == DataType::kFloat64; }

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      return true;
    default:
      return false;
  }
}

// An evaluated operand: a column, or a literal (or constant subexpression)
// kept as one scalar value.
struct Value {
  DataType type = DataType::kInt64;
  bool is_scalar = false;
  Column column;
  int64_t i = 0;
  double f = 0.0;
  bool b = false;
  std::string_view s;  // aliases the literal's Expr node

  const uint8_t* validity() const {
    return !is_scalar && column.has_nulls() ? column.validity().data() : nullptr;
  }
};

// Per-row readers the typed loops are instantiated over; a scalar reader
// returns its one value for every row.
template <typename T>
struct ScalarIn {
  T v;
  T operator[](int64_t) const { return v; }
};
template <typename T>
struct ArrayIn {
  const T* p;
  T operator[](int64_t i) const { return p[i]; }
};
struct IntAsFloatIn {
  const int64_t* p;
  double operator[](int64_t i) const { return static_cast<double>(p[i]); }
};
struct BoolIn {
  const uint8_t* p;
  bool operator[](int64_t i) const { return p[i] != 0; }
};
struct StringIn {
  const Column* c;
  std::string_view operator[](int64_t i) const { return c->StringAt(i); }
};

// Each Read* calls fn with a reader of `v`: ReadFloat promotes int64.
template <typename Fn>
Column ReadFloat(const Value& v, Fn&& fn) {
  if (v.is_scalar) {
    return fn(ScalarIn<double>{v.type == DataType::kFloat64 ? v.f : static_cast<double>(v.i)});
  }
  if (v.type == DataType::kFloat64) {
    return fn(ArrayIn<double>{v.column.doubles().data()});
  }
  return fn(IntAsFloatIn{v.column.ints().data()});
}

template <typename Fn>
Column ReadInt(const Value& v, Fn&& fn) {
  if (v.is_scalar) {
    return fn(ScalarIn<int64_t>{v.i});
  }
  return fn(ArrayIn<int64_t>{v.column.ints().data()});
}

template <typename Fn>
Column ReadBool(const Value& v, Fn&& fn) {
  if (v.is_scalar) {
    return fn(ScalarIn<bool>{v.b});
  }
  return fn(BoolIn{v.column.bools().data()});
}

template <typename Fn>
Column ReadString(const Value& v, Fn&& fn) {
  if (v.is_scalar) {
    return fn(ScalarIn<std::string_view>{v.s});
  }
  return fn(StringIn{&v.column});
}

// Valid where both operands are, merged once per column; empty (no bitmap)
// when neither operand has nulls.
std::vector<uint8_t> MergeValidity(const Value& l, const Value& r, int64_t n) {
  const uint8_t* a = l.validity();
  const uint8_t* b = r.validity();
  if (a == nullptr && b == nullptr) {
    return {};
  }
  std::vector<uint8_t> out(static_cast<size_t>(n));
  if (a != nullptr && b != nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] = a[i] != 0 && b[i] != 0;
    }
  } else {
    const uint8_t* one = a != nullptr ? a : b;
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] = one[i] != 0;
    }
  }
  return out;
}

// Applies `f` to every row of the two readers.
template <typename T, typename L, typename R, typename F>
std::vector<T> Map(int64_t n, L l, R r, F f) {
  std::vector<T> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] = f(l[i], r[i]);
  }
  return out;
}

// Every comparison goes through operator< alone, so a NaN compares equal to
// everything, as reference::EvalExpr's three-way compare has it.
template <typename L, typename R>
Column Compare(BinaryOp op, int64_t n, L l, R r, std::vector<uint8_t> validity) {
  std::vector<uint8_t> out;
  switch (op) {
    case BinaryOp::kLt:
      out = Map<uint8_t>(n, l, r, [](auto a, auto b) { return a < b; });
      break;
    case BinaryOp::kLe:
      out = Map<uint8_t>(n, l, r, [](auto a, auto b) { return !(b < a); });
      break;
    case BinaryOp::kGt:
      out = Map<uint8_t>(n, l, r, [](auto a, auto b) { return b < a; });
      break;
    case BinaryOp::kGe:
      out = Map<uint8_t>(n, l, r, [](auto a, auto b) { return !(a < b); });
      break;
    case BinaryOp::kEq:
      out = Map<uint8_t>(n, l, r, [](auto a, auto b) { return !(a < b) && !(b < a); });
      break;
    default:  // kNe
      out = Map<uint8_t>(n, l, r, [](auto a, auto b) { return a < b || b < a; });
      break;
  }
  return Column::MakeBool(std::move(out), std::move(validity));
}

// int64 arithmetic wraps in two's complement (signed overflow, and
// INT64_MIN / -1, are otherwise undefined).
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }
int64_t Add(int64_t a, int64_t b) { return Wrap(static_cast<uint64_t>(a) + static_cast<uint64_t>(b)); }
int64_t Sub(int64_t a, int64_t b) { return Wrap(static_cast<uint64_t>(a) - static_cast<uint64_t>(b)); }
int64_t Mul(int64_t a, int64_t b) { return Wrap(static_cast<uint64_t>(a) * static_cast<uint64_t>(b)); }
int64_t Div(int64_t a, int64_t b) { return b == -1 ? Sub(0, a) : a / b; }
int64_t Mod(int64_t a, int64_t b) { return b == -1 ? 0 : a % b; }
double Add(double a, double b) { return a + b; }
double Sub(double a, double b) { return a - b; }
double Mul(double a, double b) { return a * b; }
double Div(double a, double b) { return a / b; }
double Mod(double a, double b) { return std::fmod(a, b); }

Column MakeColumn(std::vector<int64_t> v, std::vector<uint8_t> validity) {
  return Column::MakeInt64(std::move(v), std::move(validity));
}
Column MakeColumn(std::vector<double> v, std::vector<uint8_t> validity) {
  return Column::MakeFloat64(std::move(v), std::move(validity));
}

// Arithmetic in T (int64 or double); a zero divisor makes DIV/MOD null.
template <typename T, typename L, typename R>
Column Arithmetic(BinaryOp op, int64_t n, L l, R r, std::vector<uint8_t> validity) {
  std::vector<T> out;
  switch (op) {
    case BinaryOp::kAdd:
      out = Map<T>(n, l, r, [](T a, T b) { return Add(a, b); });
      break;
    case BinaryOp::kSub:
      out = Map<T>(n, l, r, [](T a, T b) { return Sub(a, b); });
      break;
    case BinaryOp::kMul:
      out = Map<T>(n, l, r, [](T a, T b) { return Mul(a, b); });
      break;
    default: {  // kDiv, kMod
      const bool div = op == BinaryOp::kDiv;
      if (validity.empty()) {
        validity.assign(static_cast<size_t>(n), 1);
      }
      out.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        const size_t row = static_cast<size_t>(i);
        const T b = r[i];
        if (b == 0) {
          validity[row] = 0;
        } else {
          out[row] = div ? Div(l[i], b) : Mod(l[i], b);
        }
      }
      break;
    }
  }
  return MakeColumn(std::move(out), std::move(validity));
}

// Evaluates `op` over `n` rows of two operands (n = 1 when both are
// scalars). Nulls propagate: a null operand row gives a null result row.
Result<Column> EvalBinary(BinaryOp op, const Value& l, const Value& r, int64_t n) {
  std::vector<uint8_t> validity = MergeValidity(l, r, n);

  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    if (l.type != DataType::kBool || r.type != DataType::kBool) {
      return Status::InvalidArgument("AND/OR require bool operands");
    }
    return ReadBool(l, [&](auto lin) {
      return ReadBool(r, [&](auto rin) {
        return Column::MakeBool(
            op == BinaryOp::kAnd ? Map<uint8_t>(n, lin, rin, [](bool a, bool b) { return a && b; })
                                 : Map<uint8_t>(n, lin, rin, [](bool a, bool b) { return a || b; }),
            std::move(validity));
      });
    });
  }

  if (l.type == DataType::kString && r.type == DataType::kString) {
    if (!IsComparison(op)) {
      return Status::InvalidArgument("strings support only comparisons, got " +
                                     std::string(BinaryOpName(op)));
    }
    return ReadString(l, [&](auto lin) {
      return ReadString(r,
                        [&](auto rin) { return Compare(op, n, lin, rin, std::move(validity)); });
    });
  }

  if (l.type == DataType::kBool && r.type == DataType::kBool &&
      (op == BinaryOp::kEq || op == BinaryOp::kNe)) {
    return ReadBool(l, [&](auto lin) {
      return ReadBool(r, [&](auto rin) { return Compare(op, n, lin, rin, std::move(validity)); });
    });
  }

  if (!IsNumeric(l.type) || !IsNumeric(r.type)) {
    return Status::InvalidArgument(
        "type mismatch: " + std::string(DataTypeName(l.type)) + " " +
        std::string(BinaryOpName(op)) + " " + std::string(DataTypeName(r.type)));
  }
  // AND/OR are handled above, so the operator is a comparison or arithmetic.
  if (l.type == DataType::kFloat64 || r.type == DataType::kFloat64) {
    return ReadFloat(l, [&](auto lin) {
      return ReadFloat(r, [&](auto rin) {
        return IsComparison(op) ? Compare(op, n, lin, rin, std::move(validity))
                                : Arithmetic<double>(op, n, lin, rin, std::move(validity));
      });
    });
  }
  return ReadInt(l, [&](auto lin) {
    return ReadInt(r, [&](auto rin) {
      return IsComparison(op) ? Compare(op, n, lin, rin, std::move(validity))
                              : Arithmetic<int64_t>(op, n, lin, rin, std::move(validity));
    });
  });
}

Value ColumnValue(Column column) {
  Value v;
  v.type = column.type();
  v.column = std::move(column);
  return v;
}

// Folds a one-row result of scalar operands back into a scalar. A null (a
// zero divisor) becomes an all-null column of `n` rows instead.
Value FoldScalar(const Column& one, int64_t n) {
  if (one.IsNull(0)) {
    ColumnBuilder nulls(one.type());
    for (int64_t i = 0; i < n; ++i) {
      nulls.AppendNull();
    }
    return ColumnValue(nulls.Finish());
  }
  Value v;
  v.type = one.type();
  v.is_scalar = true;
  if (v.type == DataType::kInt64) {
    v.i = one.Int64At(0);
  } else if (v.type == DataType::kFloat64) {
    v.f = one.Float64At(0);
  } else {
    v.b = one.BoolAt(0);  // no operator yields a string
  }
  return v;
}

Result<Value> Eval(const Expr& expr, const RecordBatch& batch) {
  switch (expr.kind()) {
    case ExprKind::kColumn: {
      const Column* col = batch.ColumnByName(expr.column_name());
      if (col == nullptr) {
        return Status::NotFound("column '" + expr.column_name() + "' not in schema " +
                                batch.schema().ToString());
      }
      return ColumnValue(*col);
    }
    case ExprKind::kLiteral: {
      Value v;
      v.type = expr.literal_type();
      v.is_scalar = true;
      v.i = expr.int_value();
      v.f = expr.double_value();
      v.b = expr.bool_value();
      v.s = expr.string_value();
      return v;
    }
    case ExprKind::kBinary: {
      SKADI_ASSIGN_OR_RETURN(Value l, Eval(*expr.left(), batch));
      SKADI_ASSIGN_OR_RETURN(Value r, Eval(*expr.right(), batch));
      if (l.is_scalar && r.is_scalar) {
        SKADI_ASSIGN_OR_RETURN(Column one, EvalBinary(expr.op(), l, r, 1));
        return FoldScalar(one, batch.num_rows());
      }
      SKADI_ASSIGN_OR_RETURN(Column out, EvalBinary(expr.op(), l, r, batch.num_rows()));
      return ColumnValue(std::move(out));
    }
    case ExprKind::kNot: {
      SKADI_ASSIGN_OR_RETURN(Value v, Eval(*expr.left(), batch));
      if (v.type != DataType::kBool) {
        return Status::InvalidArgument("NOT requires a bool operand");
      }
      if (v.is_scalar) {
        v.b = !v.b;
        return v;
      }
      const ArrayView<uint8_t> values = v.column.bools();
      std::vector<uint8_t> out(values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        out[i] = values[i] == 0;
      }
      return ColumnValue(Column::MakeBool(std::move(out), v.column.validity().ToVector()));
    }
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace

Result<Column> EvalExpr(const Expr& expr, const RecordBatch& batch) {
  SKADI_ASSIGN_OR_RETURN(Value v, Eval(expr, batch));
  if (!v.is_scalar) {
    return std::move(v.column);
  }
  // A constant expression: its one value on every row.
  const size_t n = static_cast<size_t>(batch.num_rows());
  switch (v.type) {
    case DataType::kInt64:
      return Column::MakeInt64(std::vector<int64_t>(n, v.i));
    case DataType::kFloat64:
      return Column::MakeFloat64(std::vector<double>(n, v.f));
    case DataType::kString:
      return Column::MakeString(std::vector<std::string>(n, std::string(v.s)));
    case DataType::kBool:
      return Column::MakeBool(std::vector<uint8_t>(n, v.b ? 1 : 0));
  }
  return Status::Internal("unknown data type");
}

}  // namespace skadi
