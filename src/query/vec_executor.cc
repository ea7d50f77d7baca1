#include "query/vec_executor.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "query/exec_common.h"
#include "relational/column_chunk.h"

namespace pcqe {

using exec_internal::EvalPredicate;
using exec_internal::SplitJoinPredicate;
using exec_internal::ValueVecEq;
using exec_internal::ValueVecHash;

namespace {

/// Splits an AND tree into conjuncts, left to right (same order the row
/// engine's join-predicate splitter walks).
void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {  // NOLINT(misc-no-recursion)
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kBinary && e->binary_op() == BinaryOp::kAnd) {
    FlattenConjuncts(e->left(), out);
    FlattenConjuncts(e->right(), out);
    return;
  }
  out->push_back(e);
}

/// Shape of a kernelizable comparison conjunct.
struct KernelShape {
  BinaryOp op = BinaryOp::kEq;
  size_t col_a = 0;
  /// Second column for column-column compares, else -1 (literal compare).
  int col_b = -1;
  const Value* literal = nullptr;
  /// True when the expression was `literal op column` — the comparison sign
  /// flips relative to `column op literal`.
  bool flipped = false;
};

bool IsCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Matches `col op literal`, `literal op col` or `col op col`; these cannot
/// error during evaluation, so applying them conjunct-by-conjunct preserves
/// the row engine's error behavior exactly.
std::optional<KernelShape> MatchFilterKernel(const Expr& e) {
  if (e.kind() != ExprKind::kBinary || !IsCompareOp(e.binary_op())) return std::nullopt;
  const Expr* l = e.left();
  const Expr* r = e.right();
  KernelShape shape;
  shape.op = e.binary_op();
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kColumnRef) {
    shape.col_a = l->column_index();
    shape.col_b = static_cast<int>(r->column_index());
    return shape;
  }
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral) {
    shape.col_a = l->column_index();
    shape.literal = &r->literal();
    return shape;
  }
  if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumnRef) {
    shape.col_a = r->column_index();
    shape.literal = &l->literal();
    shape.flipped = true;
    return shape;
  }
  return std::nullopt;
}

/// Mirror of `Value::Compare`'s numeric branch: both sides as doubles,
/// sign of the difference. Kernels must match its rounding exactly.
inline int NumericCompare(double a, double b) {
  double d = a - b;
  return d < 0 ? -1 : (d > 0 ? 1 : 0);
}

/// Applies comparison `op` to a three-way result.
inline bool CompareKeeps(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    case BinaryOp::kGe:
      return c >= 0;
    default:
      return false;
  }
}

/// `b op a` expressed as `a op' b`. Exact for `Value::Compare`, whose
/// numeric sign is antisymmetric (`a - b` is exactly `-(b - a)` in IEEE).
BinaryOp MirrorCompare(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

/// Resolved fast access to a borrowed typed column.
struct BorrowedColumn {
  const TableColumnData* data = nullptr;
  const std::vector<uint32_t>* sel = nullptr;
  size_t base_col = 0;
  DataType type = DataType::kNull;
};

std::optional<BorrowedColumn> ResolveBorrowed(const VecResult& r, size_t col) {
  const VecColumn& c = r.columns[col];
  if (c.borrowed_factor < 0) return std::nullopt;
  const VecFactor& f = r.factors[static_cast<size_t>(c.borrowed_factor)];
  BorrowedColumn b;
  b.data = &f.table->column_data();
  b.sel = &f.sel;
  b.base_col = c.base_col;
  b.type = f.table->schema().column(c.base_col).type;
  return b;
}

/// Keeps the candidates whose value in borrowed numeric column `col`
/// satisfies `value kOp literal` under `Value::Compare`'s numeric rule,
/// compacting `candidates` in place. Candidates are consumed in runs that
/// map into one chunk, so each run resolves its chunk, typed array and null
/// mask once; the operator and element type are fixed at compile time.
template <typename T, BinaryOp kOp>
void FilterNumericColumn(const BorrowedColumn& col, double literal,
                         std::vector<uint32_t>* candidates) {
  const std::vector<uint32_t>& sel = *col.sel;
  uint32_t* cand = candidates->data();
  const size_t n = candidates->size();
  size_t kept = 0;
  size_t i = 0;
  while (i < n) {
    const size_t chunk_index = TableColumnData::ChunkOf(sel[cand[i]]);
    const ColumnChunk& chunk = col.data->chunk(col.base_col, chunk_index);
    const T* values = nullptr;
    if constexpr (std::is_same_v<T, int64_t>) {
      values = chunk.IntData();
    } else {
      values = chunk.DoubleData();
    }
    const bool has_nulls = !chunk.AllNonNull();
    const auto first = static_cast<uint32_t>(chunk_index << kColumnChunkShift);
    for (; i < n; ++i) {
      const uint32_t row = cand[i];
      // Unsigned wrap-around sends rows below the chunk out of range too.
      const uint32_t off = sel[row] - first;
      if (off >= kColumnChunkCapacity) break;
      if (has_nulls && chunk.IsNull(off)) continue;
      cand[kept] = row;
      kept += CompareKeeps(kOp, NumericCompare(static_cast<double>(values[off]), literal));
    }
  }
  candidates->resize(kept);
}

template <typename T>
void FilterNumericColumn(const BorrowedColumn& col, BinaryOp op, double literal,
                         std::vector<uint32_t>* candidates) {
  switch (op) {
    case BinaryOp::kEq:
      return FilterNumericColumn<T, BinaryOp::kEq>(col, literal, candidates);
    case BinaryOp::kNe:
      return FilterNumericColumn<T, BinaryOp::kNe>(col, literal, candidates);
    case BinaryOp::kLt:
      return FilterNumericColumn<T, BinaryOp::kLt>(col, literal, candidates);
    case BinaryOp::kLe:
      return FilterNumericColumn<T, BinaryOp::kLe>(col, literal, candidates);
    case BinaryOp::kGt:
      return FilterNumericColumn<T, BinaryOp::kGt>(col, literal, candidates);
    case BinaryOp::kGe:
      return FilterNumericColumn<T, BinaryOp::kGe>(col, literal, candidates);
    default:
      PCQE_CHECK(false) << "not a comparison";
  }
}

/// How native GROUP BY reads one aggregate's argument for an input row.
struct AggInput {
  const PlanNode::AggregateSpec* spec = nullptr;
  /// Input column of a column-reference argument, else -1 (evaluated over
  /// the gathered row).
  int column = -1;
  /// Set for a column-reference argument borrowing a BIGINT/DOUBLE column.
  std::optional<BorrowedColumn> typed;
};

/// First-seen group ids over BIGINT grouping keys read straight from the
/// chunks. Keys compare as doubles, exactly as `Value::Compare` compares
/// BIGINTs, so the groups are the boxed path's: values that round to the same
/// double group together, and NULL keys (a mask bit, value 0) group with each
/// other. Open addressing over group ids; the keys themselves live flat, one
/// row of `num_keys` doubles per group.
class Int64KeyIndex {
 public:
  /// Mask bits bound the key count.
  static constexpr size_t kMaxKeys = 32;

  explicit Int64KeyIndex(size_t num_keys) : num_keys_(num_keys), slots_(64, kEmpty) {}

  size_t size() const { return nulls_.size(); }

  /// The group id of `key` (`num_keys` doubles, 0 where `nulls` has a bit);
  /// sets `*inserted` when the key opens a new group.
  uint32_t FindOrInsert(const double* key, uint32_t nulls, bool* inserted) {
    const uint64_t hash = Hash(key, nulls);
    size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t g = slots_[i];
      if (g == kEmpty) break;
      if (hashes_[g] == hash && nulls_[g] == nulls &&
          std::equal(key, key + num_keys_, keys_.data() + g * num_keys_)) {
        *inserted = false;
        return g;
      }
    }
    const auto g = static_cast<uint32_t>(size());
    keys_.insert(keys_.end(), key, key + num_keys_);
    nulls_.push_back(nulls);
    hashes_.push_back(hash);
    if (2 * size() > slots_.size()) {
      slots_.assign(2 * slots_.size(), kEmpty);
      mask = slots_.size() - 1;
      for (uint32_t h = 0; h < g; ++h) Place(h, mask);
    }
    Place(g, mask);
    *inserted = true;
    return g;
  }

 private:
  static constexpr uint32_t kEmpty = ~0U;

  /// A double's low mantissa bits are zero for small integers, so every key
  /// goes through a full 64-bit finalizer (MurmurHash3's fmix64): the
  /// probe position takes the low bits.
  uint64_t Hash(const double* key, uint32_t nulls) const {
    uint64_t h = nulls;
    for (size_t k = 0; k < num_keys_; ++k) {
      h ^= std::bit_cast<uint64_t>(key[k]) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
      h *= 0xC4CEB9FE1A85EC53ULL;
      h ^= h >> 33;
    }
    return h;
  }

  void Place(uint32_t g, size_t mask) {
    size_t i = hashes_[g] & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = g;
  }

  size_t num_keys_;
  std::vector<double> keys_;
  std::vector<uint32_t> nulls_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;
};

/// The group factor of a grouping over the single scan factor `scan`:
/// members become base rows, and each group's confidence folds exactly as
/// `EvaluateIndependent` folds the node the eager path interns. A
/// lone member gives its leaf's confidence (for DISTINCT, `1 - (1 - p)` is
/// not always `p`); otherwise GROUP BY multiplies the member confidences and
/// DISTINCT takes one minus the product of their complements, left to right
/// in member order. That fold stops once the product is 0, and multiplying on
/// by factors in [0, 1] keeps it 0, so one pass in input order, which meets
/// each group's members in member order, gives the same doubles.
std::unique_ptr<const GroupFactor> MakeGroupFactor(const VecFactor& scan, bool distinct,
                                                   const std::vector<uint32_t>& group_of,
                                                   std::vector<uint32_t> member_start,
                                                   std::vector<uint32_t> members) {
  const TableColumnData& data = scan.table->column_data();
  auto group = std::make_unique<GroupFactor>();
  group->table_id = scan.table->table_id();
  group->disjunctive = distinct;
  const size_t num_groups = member_start.size() - 1;
  std::vector<double>& conf = group->confidences;
  conf.assign(num_groups, 1.0);
  for (size_t i = 0; i < group_of.size(); ++i) {
    const double p = data.confidence(scan.sel[i]);
    conf[group_of[i]] *= distinct ? 1.0 - p : p;
  }
  for (uint32_t& m : members) m = scan.sel[m];
  for (size_t g = 0; g < num_groups; ++g) {
    if (member_start[g + 1] - member_start[g] == 1) {
      conf[g] = data.confidence(members[member_start[g]]);
    } else if (distinct) {
      conf[g] = 1.0 - conf[g];
    }
  }
  group->member_start = std::move(member_start);
  group->members = std::move(members);
  return group;
}

/// The DISTINCT / GROUP BY whose output reaches the plan root through
/// operators that only select, reorder or project rows (HAVING, ORDER BY,
/// LIMIT, the select list), or null. Only it may defer its lineage. Every
/// other grouping's formulas are interned by a join, set operation or
/// grouping above it; interning them there instead of in the grouping would
/// let a sibling subtree intern a node with the same children first, and
/// that node's child order would then differ from the row engine's.
const PlanNode* RootGrouping(const PlanNode& plan) {
  const PlanNode* node = &plan;
  while (node->kind == PlanKind::kFilter || node->kind == PlanKind::kProject ||
         node->kind == PlanKind::kSort || node->kind == PlanKind::kLimit) {
    node = node->left.get();
  }
  return node->kind == PlanKind::kDistinct || node->kind == PlanKind::kAggregate ? node
                                                                                   : nullptr;
}

}  // namespace

Result<VecResult> VectorExecutor::Execute(const PlanNode& plan) {
  root_grouping_ = RootGrouping(plan);
  return Run(plan);
}

Result<VecResult> VectorExecutor::Run(const PlanNode& plan) {  // NOLINT(misc-no-recursion)
  if (profiler_ == nullptr) return Dispatch(plan);
  size_t node = profiler_->Begin(plan.Summary());
  uint64_t chunks_before = stats_.chunks_scanned;
  uint64_t fallback_before = stats_.fallback_rows;
  uint64_t arena_before = arena_->size();
  uint64_t pruned_chunks_before = stats_.pruned_chunks;
  uint64_t pruned_rows_before = stats_.pruned_rows;
  Result<VecResult> result = Dispatch(plan);
  OperatorProfiler::Extra extra;
  extra.chunks = stats_.chunks_scanned - chunks_before;
  extra.fallback_rows = stats_.fallback_rows - fallback_before;
  extra.arena_nodes = arena_->size() - arena_before;
  extra.pruned_chunks = stats_.pruned_chunks - pruned_chunks_before;
  extra.pruned_rows = stats_.pruned_rows - pruned_rows_before;
  if (result.ok()) {
    for (const VecFactor& f : result->factors) {
      if (f.table != nullptr || f.group != nullptr) {
        ++extra.scan_factors;
      } else {
        ++extra.mat_factors;
      }
    }
  }
  profiler_->End(node, result.ok() ? result->num_rows : 0, extra);
  return result;
}

Result<VecResult> VectorExecutor::Dispatch(
    const PlanNode& plan) {  // NOLINT(misc-no-recursion)
  switch (plan.kind) {
    case PlanKind::kScan:
      return RunScan(plan);
    case PlanKind::kFilter:
      return RunFilter(plan);
    case PlanKind::kProject:
      return RunProject(plan);
    case PlanKind::kJoin:
      return RunJoin(plan);
    case PlanKind::kSort:
      return RunSort(plan);
    case PlanKind::kLimit:
      return RunLimit(plan);
    case PlanKind::kDistinct:
    case PlanKind::kAggregate:
      return RunHashGrouping(plan);
    case PlanKind::kUnionAll:
    case PlanKind::kUnion:
    case PlanKind::kExcept:
    case PlanKind::kIntersect:
      return RunSetOp(plan);
    case PlanKind::kConfidencePrune:
      return RunConfidencePrune(plan);
  }
  return Status::Internal("unknown plan kind");
}

Result<VecResult> VectorExecutor::RunConfidencePrune(const PlanNode& plan) {
  // Fused into the scan: the selection vector is built straight from the
  // confidence chunks instead of scanning everything and filtering after.
  PCQE_CHECK(plan.left != nullptr && plan.left->kind == PlanKind::kScan &&
             plan.left->table != nullptr);
  const Table* table = plan.left->table;
  const TableColumnData& data = table->column_data();
  tables_by_id_[table->table_id()] = table;

  VecFactor factor;
  factor.table = table;
  factor.sel.reserve(data.num_rows());
  for (size_t c = 0; c < data.num_chunks(); ++c) {
    const std::vector<double>& conf = data.confidence_chunk(c);
    auto base = static_cast<uint32_t>(c * kColumnChunkCapacity);
    // Keep test: conf > β + ε (the exact complement of the policy filter's
    // blocking test). Chunk max at or below the bar → nothing survives.
    if (!(data.conf_max(c) > plan.prune_beta + kEpsilon)) {
      ++stats_.pruned_chunks;
      stats_.pruned_rows += conf.size();
      continue;
    }
    if (data.conf_min(c) > plan.prune_beta + kEpsilon) {
      // Whole chunk clears the bar: emit without per-row tests.
      ++stats_.chunks_scanned;
      stats_.rows_scanned += conf.size();
      for (uint32_t i = 0; i < conf.size(); ++i) factor.sel.push_back(base + i);
      continue;
    }
    ++stats_.chunks_scanned;
    for (uint32_t i = 0; i < conf.size(); ++i) {
      if (conf[i] > plan.prune_beta + kEpsilon) {
        factor.sel.push_back(base + i);
        ++stats_.rows_scanned;
      } else {
        ++stats_.pruned_rows;
      }
    }
  }

  VecResult out;
  out.num_rows = factor.sel.size();
  out.factors.push_back(std::move(factor));
  out.columns.resize(data.num_columns());
  for (size_t c = 0; c < data.num_columns(); ++c) {
    out.columns[c].borrowed_factor = 0;
    out.columns[c].base_col = c;
  }
  return out;
}

Result<VecResult> VectorExecutor::RunScan(const PlanNode& plan) {
  PCQE_CHECK(plan.table != nullptr);
  const TableColumnData& data = plan.table->column_data();
  tables_by_id_[plan.table->table_id()] = plan.table;

  VecResult out;
  out.num_rows = data.num_rows();
  VecFactor factor;
  factor.table = plan.table;
  factor.sel.resize(out.num_rows);
  for (uint32_t i = 0; i < out.num_rows; ++i) factor.sel[i] = i;
  out.factors.push_back(std::move(factor));
  out.columns.resize(data.num_columns());
  for (size_t c = 0; c < data.num_columns(); ++c) {
    out.columns[c].borrowed_factor = 0;
    out.columns[c].base_col = c;
  }
  stats_.chunks_scanned += data.num_chunks();
  stats_.rows_scanned += data.num_rows();
  return out;
}

bool VectorExecutor::TryFilterKernel(const VecResult& r, const Expr& conjunct,
                                     std::vector<uint32_t>* candidates) {
  std::optional<KernelShape> shape = MatchFilterKernel(conjunct);
  if (!shape.has_value()) return false;
  // `literal op column` is `column op' literal` with the operator mirrored.
  const BinaryOp op = shape->flipped ? MirrorCompare(shape->op) : shape->op;
  std::vector<uint32_t>& cand = *candidates;
  size_t kept = 0;

  if (shape->col_b >= 0) {
    // Column-column compare: boxed path (either column layout), identical
    // semantics to Eval (NULL operand drops the row, else Value::Compare).
    size_t col_b = static_cast<size_t>(shape->col_b);
    for (uint32_t i : cand) {
      Value a = r.BoxedValue(shape->col_a, i);
      Value b = r.BoxedValue(col_b, i);
      if (a.is_null() || b.is_null()) continue;
      if (CompareKeeps(op, a.Compare(b))) cand[kept++] = i;
    }
    cand.resize(kept);
    return true;
  }

  const Value& lit = *shape->literal;
  std::optional<BorrowedColumn> borrowed = ResolveBorrowed(r, shape->col_a);
  if (borrowed.has_value() &&
      (borrowed->type == DataType::kInt64 || borrowed->type == DataType::kDouble) &&
      (lit.type() == DataType::kInt64 || lit.type() == DataType::kDouble)) {
    if (borrowed->type == DataType::kInt64) {
      FilterNumericColumn<int64_t>(*borrowed, op, *lit.AsDouble(), candidates);
    } else {
      FilterNumericColumn<double>(*borrowed, op, *lit.AsDouble(), candidates);
    }
    return true;
  }

  // Boxed fallback kernel: any column layout / type pairing.
  for (uint32_t i : cand) {
    Value v = r.BoxedValue(shape->col_a, i);
    if (v.is_null() || lit.is_null()) continue;
    if (CompareKeeps(op, v.Compare(lit))) cand[kept++] = i;
  }
  cand.resize(kept);
  return true;
}

Result<VecResult> VectorExecutor::RunFilter(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(VecResult in, Run(*plan.left));

  std::vector<uint32_t> candidates(in.num_rows);
  for (uint32_t i = 0; i < in.num_rows; ++i) candidates[i] = i;

  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(plan.predicate.get(), &conjuncts);
  bool all_kernels = !conjuncts.empty();
  for (const Expr* c : conjuncts) {
    if (!MatchFilterKernel(*c).has_value()) {
      all_kernels = false;
      break;
    }
  }

  if (all_kernels) {
    for (const Expr* c : conjuncts) {
      if (candidates.empty()) break;
      PCQE_CHECK(TryFilterKernel(in, *c, &candidates));
    }
  } else {
    // Whole-predicate fallback: gather each row and evaluate exactly as the
    // row engine does, so Kleene logic and evaluation errors match.
    std::vector<uint32_t> keep;
    keep.reserve(candidates.size());
    for (uint32_t i : candidates) {
      GatherRow(in, i, &row_scratch_);
      PCQE_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*plan.predicate, row_scratch_));
      if (ok) keep.push_back(i);
    }
    stats_.fallback_rows += candidates.size();
    candidates = std::move(keep);
  }

  ApplySelection(&in, candidates);
  return in;
}

Result<VecResult> VectorExecutor::RunProject(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(VecResult in, Run(*plan.left));

  std::vector<VecColumn> cols;
  cols.reserve(plan.projections.size());
  for (const auto& expr : plan.projections) {
    if (expr->kind() == ExprKind::kColumnRef) {
      // Pure column passthrough: keep borrowing (or copy the owned vector —
      // the same input column may be projected more than once).
      cols.push_back(in.columns[expr->column_index()]);
      continue;
    }
    VecColumn col;
    col.owned.reserve(in.num_rows);
    for (size_t i = 0; i < in.num_rows; ++i) {
      GatherRow(in, i, &row_scratch_);
      PCQE_ASSIGN_OR_RETURN(Value v, expr->Eval(row_scratch_));
      col.owned.push_back(std::move(v));
    }
    stats_.fallback_rows += in.num_rows;
    cols.push_back(std::move(col));
  }

  VecResult out;
  out.num_rows = in.num_rows;
  out.factors = std::move(in.factors);
  out.columns = std::move(cols);
  return out;
}

Result<VecResult> VectorExecutor::RunJoin(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(VecResult left, Run(*plan.left));
  PCQE_ASSIGN_OR_RETURN(VecResult right, Run(*plan.right));
  size_t left_width = plan.left->output_schema.num_columns();
  PCQE_DCHECK(left.columns.size() == left_width);

  std::vector<std::pair<size_t, size_t>> equi_pairs;
  std::vector<const Expr*> residual;
  SplitJoinPredicate(plan.predicate.get(), left_width, &equi_pairs, &residual);

  // Matched (left row, right row) pairs in the row engine's emission order:
  // probe rows in order, each key's matches in right-side insertion order.
  std::vector<uint32_t> lidx;
  std::vector<uint32_t> ridx;

  auto passes_residual = [&](uint32_t li, uint32_t ri) -> Result<bool> {
    if (residual.empty()) return true;
    row_scratch_.clear();
    row_scratch_.reserve(left.columns.size() + right.columns.size());
    for (size_t c = 0; c < left.columns.size(); ++c) {
      row_scratch_.push_back(left.BoxedValue(c, li));
    }
    for (size_t c = 0; c < right.columns.size(); ++c) {
      row_scratch_.push_back(right.BoxedValue(c, ri));
    }
    ++stats_.fallback_rows;
    for (const Expr* res : residual) {
      PCQE_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*res, row_scratch_));
      if (!keep) return false;
    }
    return true;
  };

  auto note_group = [&](size_t group_rows) {
    ++stats_.join_groups;
    if (group_rows > stats_.max_group_rows) stats_.max_group_rows = group_rows;
  };

  if (!equi_pairs.empty()) {
    std::optional<BorrowedColumn> lcol;
    std::optional<BorrowedColumn> rcol;
    if (equi_pairs.size() == 1) {
      lcol = ResolveBorrowed(left, equi_pairs[0].first);
      rcol = ResolveBorrowed(right, equi_pairs[0].second);
    }
    bool int64_fast = lcol.has_value() && rcol.has_value() &&
                      lcol->type == DataType::kInt64 && rcol->type == DataType::kInt64;

    lidx.reserve(left.num_rows);
    ridx.reserve(left.num_rows);

    if (int64_fast) {
      // Typed single-key hash join: build over the right side, probe the
      // left in order. SQL equality never matches NULL keys.
      std::unordered_map<int64_t, std::vector<uint32_t>> build;
      build.reserve(right.num_rows);
      for (uint32_t i = 0; i < right.num_rows; ++i) {
        uint32_t base = (*rcol->sel)[i];
        const ColumnChunk& ch =
            rcol->data->chunk(rcol->base_col, TableColumnData::ChunkOf(base));
        size_t off = TableColumnData::OffsetOf(base);
        if (ch.IsNull(off)) continue;
        build[ch.IntAt(off)].push_back(i);
      }
      for (uint32_t i = 0; i < left.num_rows; ++i) {
        uint32_t base = (*lcol->sel)[i];
        const ColumnChunk& ch =
            lcol->data->chunk(lcol->base_col, TableColumnData::ChunkOf(base));
        size_t off = TableColumnData::OffsetOf(base);
        if (ch.IsNull(off)) continue;
        auto it = build.find(ch.IntAt(off));
        if (it == build.end()) continue;
        note_group(it->second.size());
        for (uint32_t ri : it->second) {
          PCQE_ASSIGN_OR_RETURN(bool ok, passes_residual(i, ri));
          if (!ok) continue;
          lidx.push_back(i);
          ridx.push_back(ri);
        }
      }
    } else {
      // Generic multi-key / boxed hash join.
      std::unordered_map<std::vector<Value>, std::vector<uint32_t>, ValueVecHash,
                         ValueVecEq>
          build;
      build.reserve(right.num_rows);
      std::vector<Value> key;
      for (uint32_t i = 0; i < right.num_rows; ++i) {
        key.clear();
        bool has_null = false;
        for (const auto& [l_idx, r_idx] : equi_pairs) {
          (void)l_idx;
          Value v = right.BoxedValue(r_idx, i);
          if (v.is_null()) has_null = true;
          key.push_back(std::move(v));
        }
        if (!has_null) build[key].push_back(i);
      }
      for (uint32_t i = 0; i < left.num_rows; ++i) {
        key.clear();
        bool has_null = false;
        for (const auto& [l_idx, r_idx] : equi_pairs) {
          (void)r_idx;
          Value v = left.BoxedValue(l_idx, i);
          if (v.is_null()) has_null = true;
          key.push_back(std::move(v));
        }
        if (has_null) continue;
        auto it = build.find(key);
        if (it == build.end()) continue;
        note_group(it->second.size());
        for (uint32_t ri : it->second) {
          PCQE_ASSIGN_OR_RETURN(bool ok, passes_residual(i, ri));
          if (!ok) continue;
          lidx.push_back(i);
          ridx.push_back(ri);
        }
      }
    }
  } else {
    // Nested loop for theta joins and cross products.
    for (uint32_t i = 0; i < left.num_rows; ++i) {
      for (uint32_t ri = 0; ri < right.num_rows; ++ri) {
        PCQE_ASSIGN_OR_RETURN(bool ok, passes_residual(i, ri));
        if (!ok) continue;
        lidx.push_back(i);
        ridx.push_back(ri);
      }
    }
    if (right.num_rows > 0) {
      note_group(right.num_rows);
    }
  }

  // Compose the factorized output: factors keep their domains, only the
  // selection vectors are rewritten (no value is copied for borrowed
  // columns — this is where the cross product stays unmaterialized).
  size_t n = lidx.size();
  VecResult out;
  out.num_rows = n;
  out.factors.reserve(left.factors.size() + right.factors.size());
  for (VecFactor& f : left.factors) {
    VecFactor nf;
    nf.table = f.table;
    nf.lineages = std::move(f.lineages);
    nf.sel.resize(n);
    for (size_t j = 0; j < n; ++j) nf.sel[j] = f.sel[lidx[j]];
    out.factors.push_back(std::move(nf));
  }
  size_t left_factor_count = left.factors.size();
  for (VecFactor& f : right.factors) {
    VecFactor nf;
    nf.table = f.table;
    nf.lineages = std::move(f.lineages);
    nf.sel.resize(n);
    for (size_t j = 0; j < n; ++j) nf.sel[j] = f.sel[ridx[j]];
    out.factors.push_back(std::move(nf));
  }

  out.columns.reserve(left.columns.size() + right.columns.size());
  for (const VecColumn& c : left.columns) {
    VecColumn nc;
    if (c.borrowed_factor >= 0) {
      nc.borrowed_factor = c.borrowed_factor;
      nc.base_col = c.base_col;
    } else {
      nc.owned.reserve(n);
      for (size_t j = 0; j < n; ++j) nc.owned.push_back(c.owned[lidx[j]]);
    }
    out.columns.push_back(std::move(nc));
  }
  for (const VecColumn& c : right.columns) {
    VecColumn nc;
    if (c.borrowed_factor >= 0) {
      nc.borrowed_factor = c.borrowed_factor + static_cast<int>(left_factor_count);
      nc.base_col = c.base_col;
    } else {
      nc.owned.reserve(n);
      for (size_t j = 0; j < n; ++j) nc.owned.push_back(c.owned[ridx[j]]);
    }
    out.columns.push_back(std::move(nc));
  }
  return out;
}

Result<VecResult> VectorExecutor::RunSort(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(VecResult in, Run(*plan.left));

  std::vector<std::vector<Value>> keys(in.num_rows);
  for (size_t i = 0; i < in.num_rows; ++i) {
    GatherRow(in, i, &row_scratch_);
    keys[i].reserve(plan.sort_keys.size());
    for (const PlanNode::SortKey& k : plan.sort_keys) {
      PCQE_ASSIGN_OR_RETURN(Value v, k.expr->Eval(row_scratch_));
      keys[i].push_back(std::move(v));
    }
  }
  std::vector<uint32_t> order(in.num_rows);
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < plan.sort_keys.size(); ++k) {
      int c = keys[a][k].Compare(keys[b][k]);
      if (c != 0) return plan.sort_keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  ApplySelection(&in, order);
  return in;
}

Result<VecResult> VectorExecutor::RunLimit(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(VecResult in, Run(*plan.left));
  size_t cap = static_cast<size_t>(plan.limit);
  if (in.num_rows <= cap) return in;
  for (VecFactor& f : in.factors) f.sel.resize(cap);
  for (VecColumn& c : in.columns) {
    if (c.borrowed_factor < 0) c.owned.resize(cap);
  }
  in.num_rows = cap;
  return in;
}

Result<VecResult> VectorExecutor::RunHashGrouping(const PlanNode& plan) {
  PCQE_ASSIGN_OR_RETURN(VecResult in, Run(*plan.left));
  const bool distinct = plan.kind == PlanKind::kDistinct;
  const size_t num_keys = distinct ? in.columns.size() : plan.group_keys.size();
  const auto n = static_cast<uint32_t>(in.num_rows);
  VecResult out;
  out.columns.resize(plan.output_schema.num_columns());
  PCQE_DCHECK(out.columns.size() == num_keys + plan.aggregates.size());

  // Key k reads input column key_cols[k]: every column for DISTINCT, the
  // referenced column for a column GROUP BY key, and -1 for an expression
  // key, which is evaluated over the gathered row as the row engine does.
  std::vector<int> key_cols(num_keys, -1);
  bool gather_keys = false;
  for (size_t k = 0; k < num_keys; ++k) {
    if (distinct) {
      key_cols[k] = static_cast<int>(k);
    } else if (plan.group_keys[k]->kind() == ExprKind::kColumnRef) {
      key_cols[k] = static_cast<int>(plan.group_keys[k]->column_index());
    } else {
      gather_keys = true;
    }
  }
  // Typed keys when every key is a borrowed BIGINT column.
  std::vector<BorrowedColumn> int_keys;
  if (!gather_keys && num_keys > 0 && num_keys <= Int64KeyIndex::kMaxKeys) {
    for (int col : key_cols) {
      std::optional<BorrowedColumn> b = ResolveBorrowed(in, static_cast<size_t>(col));
      if (!b.has_value() || b->type != DataType::kInt64) break;
      int_keys.push_back(*b);
    }
    if (int_keys.size() != num_keys) int_keys.clear();
  }

  // Group ids in first-seen order under SQL grouping equality (NULL keys
  // group together). A group's output key is its first member's, boxed once
  // when the group opens.
  std::vector<uint32_t> group_of(n);
  size_t num_groups = 0;
  if (!int_keys.empty()) {
    Int64KeyIndex index(num_keys);
    std::vector<double> key(num_keys);
    std::vector<int64_t> raw(num_keys);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t nulls = 0;
      for (size_t k = 0; k < num_keys; ++k) {
        const BorrowedColumn& col = int_keys[k];
        const uint32_t base = (*col.sel)[i];
        const ColumnChunk& chunk =
            col.data->chunk(col.base_col, TableColumnData::ChunkOf(base));
        const size_t off = TableColumnData::OffsetOf(base);
        const bool null = chunk.IsNull(off);
        nulls |= static_cast<uint32_t>(null) << k;
        raw[k] = null ? 0 : chunk.IntAt(off);
        key[k] = static_cast<double>(raw[k]);
      }
      bool inserted = false;
      group_of[i] = index.FindOrInsert(key.data(), nulls, &inserted);
      if (!inserted) continue;
      for (size_t k = 0; k < num_keys; ++k) {
        out.columns[k].owned.push_back(((nulls >> k) & 1U) != 0 ? Value::Null()
                                                                : Value::Int(raw[k]));
      }
    }
    num_groups = index.size();
  } else {
    // The boxed key scratch is reused across rows; the index copies a key
    // only when it opens a group.
    std::unordered_map<std::vector<Value>, uint32_t, ValueVecHash, ValueVecEq> index;
    std::vector<Value> key(num_keys);
    for (uint32_t i = 0; i < n; ++i) {
      if (gather_keys) GatherRow(in, i, &row_scratch_);
      for (size_t k = 0; k < num_keys; ++k) {
        if (key_cols[k] >= 0) {
          key[k] = in.BoxedValue(static_cast<size_t>(key_cols[k]), i);
        } else {
          PCQE_ASSIGN_OR_RETURN(key[k], plan.group_keys[k]->Eval(row_scratch_));
        }
      }
      auto [it, inserted] = index.try_emplace(key, static_cast<uint32_t>(index.size()));
      if (inserted) {
        for (size_t k = 0; k < num_keys; ++k) out.columns[k].owned.push_back(key[k]);
      }
      group_of[i] = it->second;
    }
    num_groups = index.size();
    if (gather_keys) stats_.fallback_rows += n;
  }
  // A global aggregate (no keys) over no rows still has its one group.
  if (!distinct && num_keys == 0 && num_groups == 0) num_groups = 1;

  // Each group's members in input order: a counting sort of the group ids.
  std::vector<uint32_t> member_start(num_groups + 1, 0);
  for (uint32_t g : group_of) ++member_start[g + 1];
  for (size_t g = 0; g < num_groups; ++g) member_start[g + 1] += member_start[g];
  std::vector<uint32_t> members(n);
  {
    std::vector<uint32_t> next(member_start.begin(), member_start.end() - 1);
    for (uint32_t i = 0; i < n; ++i) members[next[group_of[i]]++] = i;
  }

  std::vector<AggInput> inputs(plan.aggregates.size());
  for (size_t j = 0; j < inputs.size(); ++j) {
    const PlanNode::AggregateSpec& spec = plan.aggregates[j];
    inputs[j].spec = &spec;
    if (spec.arg == nullptr || spec.arg->kind() != ExprKind::kColumnRef) continue;
    inputs[j].column = static_cast<int>(spec.arg->column_index());
    std::optional<BorrowedColumn> col = ResolveBorrowed(in, spec.arg->column_index());
    if (col.has_value() && (col->type == DataType::kInt64 || col->type == DataType::kDouble)) {
      inputs[j].typed = col;
    }
  }
  auto feed = [&](const AggInput& a, uint32_t row,
                  exec_internal::AggAccumulator* acc) -> Status {
    if (a.spec->arg == nullptr) {
      acc->AddRow();
      return Status::OK();
    }
    if (a.typed.has_value()) {
      const uint32_t base = (*a.typed->sel)[row];
      const ColumnChunk& chunk =
          a.typed->data->chunk(a.typed->base_col, TableColumnData::ChunkOf(base));
      const size_t off = TableColumnData::OffsetOf(base);
      if (chunk.IsNull(off)) return Status::OK();
      if (a.typed->type == DataType::kInt64) {
        acc->AddInt(chunk.IntAt(off));
      } else {
        acc->AddDouble(chunk.DoubleAt(off));
      }
      return Status::OK();
    }
    if (a.column >= 0) return acc->Add(in.BoxedValue(static_cast<size_t>(a.column), row));
    GatherRow(in, row, &row_scratch_);
    ++stats_.fallback_rows;
    PCQE_ASSIGN_OR_RETURN(Value v, a.spec->arg->Eval(row_scratch_));
    return acc->Add(v);
  };

  // One output row per group, aggregates folded over the members in member
  // order.
  for (uint32_t g = 0; g < num_groups; ++g) {
    for (size_t j = 0; j < inputs.size(); ++j) {
      exec_internal::AggAccumulator acc(inputs[j].spec->func);
      for (uint32_t m = member_start[g]; m < member_start[g + 1]; ++m) {
        PCQE_RETURN_NOT_OK(feed(inputs[j], members[m], &acc));
      }
      out.columns[num_keys + j].owned.push_back(acc.Finish());
    }
  }

  // Lineage: the OR (DISTINCT) or AND (GROUP BY; `true` for no members) of
  // the member lineages in member order.
  VecFactor factor;
  factor.sel.resize(num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) factor.sel[g] = g;
  if (&plan == root_grouping_ && in.factors.size() == 1 && in.factors[0].table != nullptr) {
    factor.group = MakeGroupFactor(in.factors[0], distinct, group_of, std::move(member_start),
                                   std::move(members));
  } else {
    // Member lineages are interned in input order, the order materializing
    // the input would intern them, so every shared node keeps the child
    // order the row engine gives it.
    arena_->Reserve(n);
    std::vector<LineageRef> row_lineage(n);
    for (uint32_t i = 0; i < n; ++i) {
      row_lineage[i] = in.BoxRowLineage(arena_, i, &lineage_scratch_);
    }
    factor.lineages.resize(num_groups);
    std::vector<LineageRef> group_lineage;
    for (uint32_t g = 0; g < num_groups; ++g) {
      group_lineage.clear();
      for (uint32_t m = member_start[g]; m < member_start[g + 1]; ++m) {
        group_lineage.push_back(row_lineage[members[m]]);
      }
      factor.lineages[g] = distinct ? arena_->Or(group_lineage) : arena_->And(group_lineage);
    }
  }
  out.num_rows = num_groups;
  out.factors.push_back(std::move(factor));
  return out;
}

Result<VecResult> VectorExecutor::RunSetOp(const PlanNode& plan) {
  // Both sides materialize in plan order into the shared row implementation.
  PCQE_ASSIGN_OR_RETURN(VecResult left, Run(*plan.left));
  PCQE_ASSIGN_OR_RETURN(VecResult right, Run(*plan.right));
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> lrows, Materialize(left));
  PCQE_ASSIGN_OR_RETURN(std::vector<ExecRow> rrows, Materialize(right));
  PCQE_ASSIGN_OR_RETURN(
      std::vector<ExecRow> rows,
      exec_internal::SetOpRows(plan.kind, std::move(lrows), std::move(rrows), arena_));
  return WrapRows(std::move(rows), plan.output_schema.num_columns());
}

Value VecResult::BoxedValue(size_t col, size_t row) const {
  const VecColumn& c = columns[col];
  if (c.borrowed_factor >= 0) {
    const VecFactor& f = factors[static_cast<size_t>(c.borrowed_factor)];
    return f.table->column_data().value(c.base_col, f.sel[row]);
  }
  return c.owned[row];
}

bool VecResult::DefersLineage() const {
  if (factors.size() == 1 && factors[0].group != nullptr) return true;
  if (factors.empty() || factors.size() > kMaxDeferredScanFactors) return false;
  for (const VecFactor& f : factors) {
    if (f.table == nullptr) return false;
  }
  return true;
}

double VecResult::DeferredConfidence(size_t row) const {
  if (factors[0].group != nullptr) return factors[0].group->confidences[factors[0].sel[row]];
  // One leaf per factor; a repeated (table, row) leaf — a self-join row
  // matching itself — contributes once, exactly as the `And` builder's
  // first-seen dedupe makes it. Factor counts are tiny (one per scanned
  // table), so a fixed-size scratch plus a quadratic dedupe scan suffices.
  PCQE_DCHECK(factors.size() <= kMaxDeferredScanFactors);
  uint64_t seen[kMaxDeferredScanFactors];
  size_t kept = 0;
  double p = 1.0;
  for (const VecFactor& f : factors) {
    const uint32_t r = f.sel[row];
    const uint64_t id = MakeTupleId(f.table->table_id(), r);
    bool duplicate = false;
    for (size_t j = 0; j < kept; ++j) {
      if (seen[j] == id) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    seen[kept++] = id;
    p *= f.table->column_data().confidence(r);
    if (p == 0.0) break;
  }
  return p;
}

LineageRef VecResult::BoxRowLineage(LineageArena* arena, size_t row,
                                    std::vector<LineageRef>* scratch) const {
  PCQE_DCHECK(!factors.empty());
  scratch->clear();
  if (factors[0].group != nullptr) {
    PCQE_DCHECK(factors.size() == 1);
    const GroupFactor& group = *factors[0].group;
    const uint32_t g = factors[0].sel[row];
    for (uint32_t m = group.member_start[g]; m < group.member_start[g + 1]; ++m) {
      scratch->push_back(arena->Var(MakeTupleId(group.table_id, group.members[m])));
    }
    return group.disjunctive ? arena->Or(*scratch) : arena->And(*scratch);
  }
  auto leaf = [&](const VecFactor& f) {
    const uint32_t r = f.sel[row];
    if (f.table == nullptr) return f.lineages[r];
    return arena->Var(MakeTupleId(f.table->table_id(), r));
  };
  if (factors.size() == 1) return leaf(factors[0]);
  for (const VecFactor& f : factors) scratch->push_back(leaf(f));
  return arena->And(*scratch);
}

void VectorExecutor::GatherRow(const VecResult& r, size_t row,
                               std::vector<Value>* out) const {
  out->clear();
  out->reserve(r.columns.size());
  for (size_t c = 0; c < r.columns.size(); ++c) {
    out->push_back(r.BoxedValue(c, row));
  }
}

double VectorExecutor::VarConfidence(LineageVarId id) const {
  auto it = tables_by_id_.find(TupleTableId(id));
  PCQE_CHECK(it != tables_by_id_.end()) << "lineage variable from unscanned table";
  return it->second->column_data().confidence(TupleRow(id));
}

Result<std::vector<ExecRow>> VectorExecutor::Materialize(const VecResult& r) {
  std::vector<ExecRow> rows;
  rows.reserve(r.num_rows);
  arena_->Reserve(r.num_rows);
  for (size_t i = 0; i < r.num_rows; ++i) {
    ExecRow row;
    row.values.reserve(r.columns.size());
    for (size_t c = 0; c < r.columns.size(); ++c) {
      row.values.push_back(r.BoxedValue(c, i));
    }
    row.lineage = r.BoxRowLineage(arena_, i, &lineage_scratch_);
    rows.push_back(std::move(row));
  }
  return rows;
}

VecResult VectorExecutor::WrapRows(std::vector<ExecRow> rows, size_t num_columns) {
  VecResult out;
  out.num_rows = rows.size();
  VecFactor factor;
  factor.lineages.resize(rows.size());
  factor.sel.resize(rows.size());
  out.columns.resize(num_columns);
  for (VecColumn& c : out.columns) c.owned.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    PCQE_DCHECK(rows[i].values.size() == num_columns);
    factor.lineages[i] = rows[i].lineage;
    factor.sel[i] = static_cast<uint32_t>(i);
    for (size_t c = 0; c < num_columns; ++c) {
      out.columns[c].owned.push_back(std::move(rows[i].values[c]));
    }
  }
  out.factors.push_back(std::move(factor));
  return out;
}

void VectorExecutor::ApplySelection(VecResult* r, const std::vector<uint32_t>& keep) {
  for (VecFactor& f : r->factors) {
    std::vector<uint32_t> nsel(keep.size());
    for (size_t j = 0; j < keep.size(); ++j) nsel[j] = f.sel[keep[j]];
    f.sel = std::move(nsel);
  }
  for (VecColumn& c : r->columns) {
    if (c.borrowed_factor >= 0) continue;
    std::vector<Value> nv;
    nv.reserve(keep.size());
    for (uint32_t j : keep) nv.push_back(c.owned[j]);
    c.owned = std::move(nv);
  }
  r->num_rows = keep.size();
}

}  // namespace pcqe
