#include "query/planner.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace pcqe {

namespace {

/// Cross join: pure concatenation, no predicate (executor treats a null
/// join predicate as always-true).
std::unique_ptr<PlanNode> MakeJoin(std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right,
                                   std::unique_ptr<Expr> condition) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kJoin;
  node->output_schema = left->output_schema.Concat(right->output_schema);
  node->left = std::move(left);
  node->right = std::move(right);
  node->predicate = std::move(condition);
  return node;
}

/// Splits an AND tree into its conjunct leaves (cloned).
void SplitConjuncts(const Expr* expr, std::vector<std::unique_ptr<Expr>>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kBinary && expr->binary_op() == BinaryOp::kAnd) {
    SplitConjuncts(expr->left(), out);
    SplitConjuncts(expr->right(), out);
    return;
  }
  out->push_back(expr->Clone());
}

/// Wraps `child` in a Filter for `predicate` (already bound to the child).
std::unique_ptr<PlanNode> MakeFilter(std::unique_ptr<PlanNode> child,
                                     std::unique_ptr<Expr> predicate) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kFilter;
  node->output_schema = child->output_schema;
  node->predicate = std::move(predicate);
  node->left = std::move(child);
  return node;
}

/// Rebuilds one predicate from conjuncts (nullptr when empty), bound
/// against `schema`.
Result<std::unique_ptr<Expr>> CombineConjuncts(
    std::vector<std::unique_ptr<Expr>> conjuncts, const Schema& schema) {
  std::unique_ptr<Expr> combined;
  for (auto& c : conjuncts) {
    combined = combined ? Expr::Binary(BinaryOp::kAnd, std::move(combined), std::move(c))
                        : std::move(c);
  }
  if (combined) PCQE_RETURN_NOT_OK(combined->Bind(schema));
  return combined;
}

class Planner {
 public:
  explicit Planner(const Catalog& catalog) : catalog_(catalog) {}

  Result<std::unique_ptr<PlanNode>> Plan(const SelectStatement& stmt) {
    PCQE_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, PlanCore(stmt));

    // Set-operation chain, left-associative.
    const SelectStatement* cur = &stmt;
    while (cur->set_op != SetOpKind::kNone) {
      const SelectStatement& rhs_stmt = *cur->set_rhs;
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> rhs, PlanCore(rhs_stmt));
      if (rhs->output_schema.num_columns() != plan->output_schema.num_columns()) {
        return Status::BindError(StrFormat(
            "set operation inputs have different arity: %zu vs %zu",
            plan->output_schema.num_columns(), rhs->output_schema.num_columns()));
      }
      auto node = std::make_unique<PlanNode>();
      switch (cur->set_op) {
        case SetOpKind::kUnion:
          node->kind = PlanKind::kUnion;
          break;
        case SetOpKind::kUnionAll:
          node->kind = PlanKind::kUnionAll;
          break;
        case SetOpKind::kExcept:
          node->kind = PlanKind::kExcept;
          break;
        case SetOpKind::kIntersect:
          node->kind = PlanKind::kIntersect;
          break;
        case SetOpKind::kNone:
          return Status::Internal("unreachable set op");
      }
      node->output_schema = plan->output_schema;
      node->left = std::move(plan);
      node->right = std::move(rhs);
      plan = std::move(node);
      cur = cur->set_rhs.get();
    }

    // ORDER BY binds against the final output schema, so aliases introduced
    // in the select list are referencable.
    if (!stmt.order_by.empty()) {
      auto node = std::make_unique<PlanNode>();
      node->kind = PlanKind::kSort;
      node->output_schema = plan->output_schema;
      for (const OrderByItem& item : stmt.order_by) {
        PlanNode::SortKey key;
        key.expr = item.expr->Clone();
        PCQE_RETURN_NOT_OK(key.expr->Bind(node->output_schema));
        key.ascending = item.ascending;
        node->sort_keys.push_back(std::move(key));
      }
      node->left = std::move(plan);
      plan = std::move(node);
    }

    if (stmt.limit >= 0) {
      auto node = std::make_unique<PlanNode>();
      node->kind = PlanKind::kLimit;
      node->output_schema = plan->output_schema;
      node->limit = stmt.limit;
      node->left = std::move(plan);
      plan = std::move(node);
    }
    return plan;
  }

 private:
  /// Plans one SELECT core (no set ops / ORDER BY / LIMIT).
  Result<std::unique_ptr<PlanNode>> PlanCore(const SelectStatement& stmt) {
    if (stmt.from.empty()) {
      return Status::BindError("FROM clause is required");
    }

    if (stmt.where && stmt.where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE (use HAVING)");
    }

    // Plan every source (FROM list + explicit JOIN tables, in order).
    std::vector<std::unique_ptr<PlanNode>> sources;
    for (const TableRef& ref : stmt.from) {
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> src, PlanTableRef(ref));
      sources.push_back(std::move(src));
    }
    for (const JoinClause& join : stmt.joins) {
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> src, PlanTableRef(join.table));
      sources.push_back(std::move(src));
    }

    // Collect conjuncts from WHERE and every ON condition. All joins are
    // inner, so `A JOIN B ON c` ≡ `A, B WHERE c` and each conjunct may be
    // evaluated at the *lowest* level of the join chain where its columns
    // are in scope (predicate pushdown).
    std::vector<std::unique_ptr<Expr>> conjuncts;
    SplitConjuncts(stmt.where.get(), &conjuncts);
    for (const JoinClause& join : stmt.joins) {
      SplitConjuncts(join.condition.get(), &conjuncts);
    }

    // Validation pass against the full scope: surfaces unknown columns,
    // ambiguous references and type errors exactly as an un-pushed filter
    // would, so pushdown never changes which queries are accepted.
    Schema full_schema;
    for (const auto& src : sources) {
      full_schema = full_schema.Concat(src->output_schema);
    }
    for (const auto& conjunct : conjuncts) {
      std::unique_ptr<Expr> probe = conjunct->Clone();
      PCQE_RETURN_NOT_OK(probe->Bind(full_schema));
      if (probe->result_type() != DataType::kBool &&
          probe->result_type() != DataType::kNull) {
        return Status::BindError("WHERE/ON conditions must be BOOLEAN");
      }
    }

    // Single-source conjuncts become filters directly above their source.
    std::vector<bool> placed(conjuncts.size(), false);
    for (auto& src : sources) {
      std::vector<std::unique_ptr<Expr>> local;
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        if (placed[c]) continue;
        std::unique_ptr<Expr> probe = conjuncts[c]->Clone();
        if (probe->Bind(src->output_schema).ok()) {
          local.push_back(std::move(probe));
          placed[c] = true;
        }
      }
      if (!local.empty()) {
        PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> predicate,
                              CombineConjuncts(std::move(local), src->output_schema));
        src = MakeFilter(std::move(src), std::move(predicate));
      }
    }

    // Left-deep join chain; each remaining conjunct attaches to the first
    // join whose combined scope covers it (equi conjuncts there feed the
    // executor's hash-join fast path).
    std::unique_ptr<PlanNode> plan = std::move(sources[0]);
    for (size_t i = 1; i < sources.size(); ++i) {
      Schema combined = plan->output_schema.Concat(sources[i]->output_schema);
      std::vector<std::unique_ptr<Expr>> level;
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        if (placed[c]) continue;
        std::unique_ptr<Expr> probe = conjuncts[c]->Clone();
        if (probe->Bind(combined).ok()) {
          level.push_back(std::move(probe));
          placed[c] = true;
        }
      }
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> condition,
                            CombineConjuncts(std::move(level), combined));
      plan = MakeJoin(std::move(plan), std::move(sources[i]), std::move(condition));
    }
    // The validation pass guarantees every conjunct bound somewhere.
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      PCQE_CHECK(placed[c]) << "conjunct not placed: " << conjuncts[c]->ToString();
    }

    // Aggregation: explicit GROUP BY, or aggregate calls in SELECT/HAVING.
    bool aggregating = !stmt.group_by.empty();
    if (stmt.having) aggregating = true;
    for (const SelectItem& item : stmt.select_list) {
      if (item.expr && item.expr->ContainsAggregate()) aggregating = true;
    }
    if (aggregating) {
      PCQE_ASSIGN_OR_RETURN(plan, PlanAggregation(stmt, std::move(plan)));
      if (stmt.distinct) {
        auto node = std::make_unique<PlanNode>();
        node->kind = PlanKind::kDistinct;
        node->output_schema = plan->output_schema;
        node->left = std::move(plan);
        plan = std::move(node);
      }
      return plan;
    }

    // Select list. A lone `*` needs no projection node.
    bool lone_star = stmt.select_list.size() == 1 && stmt.select_list[0].is_star;
    if (!lone_star) {
      auto node = std::make_unique<PlanNode>();
      node->kind = PlanKind::kProject;
      const Schema& input = plan->output_schema;
      for (const SelectItem& item : stmt.select_list) {
        if (item.is_star) {
          // Expand into one column-ref projection per input column.
          for (size_t c = 0; c < input.num_columns(); ++c) {
            auto ref = Expr::ColumnRef(input.column(c).QualifiedName());
            PCQE_RETURN_NOT_OK(ref->Bind(input));
            node->projections.push_back(std::move(ref));
            node->output_schema.AddColumn(input.column(c));
          }
          continue;
        }
        std::unique_ptr<Expr> expr = item.expr->Clone();
        PCQE_RETURN_NOT_OK(expr->Bind(input));
        Column out;
        out.type = expr->result_type();
        if (!item.alias.empty()) {
          out.name = item.alias;
        } else if (expr->kind() == ExprKind::kColumnRef) {
          const Column& src = input.column(expr->column_index());
          out.name = src.name;
          out.qualifier = src.qualifier;
        } else {
          out.name = StrFormat("col%zu", node->output_schema.num_columns());
        }
        node->projections.push_back(std::move(expr));
        node->output_schema.AddColumn(std::move(out));
      }
      node->left = std::move(plan);
      plan = std::move(node);
    }

    if (stmt.distinct) {
      auto node = std::make_unique<PlanNode>();
      node->kind = PlanKind::kDistinct;
      node->output_schema = plan->output_schema;
      node->left = std::move(plan);
      plan = std::move(node);
    }
    return plan;
  }

  /// Lowers GROUP BY + aggregates: an Aggregate node computing the keys and
  /// every lifted aggregate into synthetic `__agg<i>` columns, an optional
  /// HAVING filter on top, and a projection evaluating the rewritten SELECT
  /// expressions. Column references that are neither group keys nor
  /// aggregates fail to bind against the aggregate schema, which enforces
  /// the usual SQL rule.
  Result<std::unique_ptr<PlanNode>> PlanAggregation(const SelectStatement& stmt,
                                                    std::unique_ptr<PlanNode> child) {
    const Schema input = child->output_schema;
    auto agg = std::make_unique<PlanNode>();
    agg->kind = PlanKind::kAggregate;

    // Group keys, bound against the input; key columns keep their source
    // identity so SELECT/HAVING can reference them by name. Expression keys
    // get synthetic names and are matched in SELECT/HAVING *syntactically*
    // (SQL semantics for `GROUP BY a + b`).
    std::vector<std::pair<std::string, std::string>> key_syntax;
    for (size_t k = 0; k < stmt.group_by.size(); ++k) {
      std::unique_ptr<Expr> key = stmt.group_by[k]->Clone();
      if (key->ContainsAggregate()) {
        return Status::BindError("aggregates are not allowed in GROUP BY");
      }
      PCQE_RETURN_NOT_OK(key->Bind(input));
      Column out;
      out.type = key->result_type();
      if (key->kind() == ExprKind::kColumnRef) {
        out = input.column(key->column_index());
      } else {
        out.name = StrFormat("key%zu", k);
        key_syntax.emplace_back(key->ToString(), out.name);
      }
      agg->group_keys.push_back(std::move(key));
      agg->output_schema.AddColumn(std::move(out));
    }

    // Lift aggregates out of SELECT and HAVING.
    std::vector<std::unique_ptr<Expr>> lifted;
    std::vector<std::unique_ptr<Expr>> select_rewritten;
    std::vector<std::string> select_names;
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        return Status::BindError("'*' is not allowed with GROUP BY or aggregates");
      }
      std::string name = item.alias;
      if (name.empty()) {
        name = item.expr->kind() == ExprKind::kColumnRef ? item.expr->column_name()
                                                         : item.expr->ToString();
      }
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rewritten,
                            Expr::LiftAggregates(item.expr->Clone(), &lifted));
      rewritten = Expr::ReplaceBySyntax(std::move(rewritten), key_syntax);
      select_rewritten.push_back(std::move(rewritten));
      select_names.push_back(std::move(name));
    }
    std::unique_ptr<Expr> having_rewritten;
    if (stmt.having) {
      PCQE_ASSIGN_OR_RETURN(having_rewritten,
                            Expr::LiftAggregates(stmt.having->Clone(), &lifted));
      having_rewritten = Expr::ReplaceBySyntax(std::move(having_rewritten), key_syntax);
    }

    // Bind and type each aggregate; append its synthetic output column.
    for (size_t i = 0; i < lifted.size(); ++i) {
      PlanNode::AggregateSpec spec;
      spec.func = lifted[i]->agg_func();
      DataType out_type = DataType::kInt64;
      if (!lifted[i]->is_count_star()) {
        spec.arg = lifted[i]->left()->Clone();
        PCQE_RETURN_NOT_OK(spec.arg->Bind(input));
        DataType arg_type = spec.arg->result_type();
        switch (spec.func) {
          case AggFunc::kCount:
            out_type = DataType::kInt64;
            break;
          case AggFunc::kSum:
            if (arg_type != DataType::kInt64 && arg_type != DataType::kDouble &&
                arg_type != DataType::kNull) {
              return Status::BindError("SUM requires a numeric argument");
            }
            out_type = arg_type == DataType::kInt64 ? DataType::kInt64 : DataType::kDouble;
            break;
          case AggFunc::kAvg:
            if (arg_type != DataType::kInt64 && arg_type != DataType::kDouble &&
                arg_type != DataType::kNull) {
              return Status::BindError("AVG requires a numeric argument");
            }
            out_type = DataType::kDouble;
            break;
          case AggFunc::kMin:
          case AggFunc::kMax:
            out_type = arg_type;
            break;
        }
      }
      agg->aggregates.push_back(std::move(spec));
      agg->output_schema.AddColumn({StrFormat("__agg%zu", i), out_type, ""});
    }
    agg->left = std::move(child);
    std::unique_ptr<PlanNode> plan = std::move(agg);

    if (having_rewritten) {
      auto filter = std::make_unique<PlanNode>();
      filter->kind = PlanKind::kFilter;
      filter->output_schema = plan->output_schema;
      filter->predicate = std::move(having_rewritten);
      Status bound = filter->predicate->Bind(filter->output_schema);
      if (!bound.ok()) {
        return bound.WithContext(
            "HAVING may only reference GROUP BY keys and aggregates");
      }
      if (filter->predicate->result_type() != DataType::kBool &&
          filter->predicate->result_type() != DataType::kNull) {
        return Status::BindError("HAVING condition must be BOOLEAN");
      }
      filter->left = std::move(plan);
      plan = std::move(filter);
    }

    auto project = std::make_unique<PlanNode>();
    project->kind = PlanKind::kProject;
    for (size_t i = 0; i < select_rewritten.size(); ++i) {
      Status bound = select_rewritten[i]->Bind(plan->output_schema);
      if (!bound.ok()) {
        return bound.WithContext(
            "SELECT with GROUP BY may only reference keys and aggregates");
      }
      project->output_schema.AddColumn(
          {select_names[i], select_rewritten[i]->result_type(), ""});
      project->projections.push_back(std::move(select_rewritten[i]));
    }
    project->left = std::move(plan);
    return project;
  }

  Result<std::unique_ptr<PlanNode>> PlanTableRef(const TableRef& ref) {
    if (ref.subquery) {
      PCQE_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> sub, Plan(*ref.subquery));
      // The derived table's columns become visible under the alias only;
      // row layout is unchanged, so re-qualifying the schema suffices.
      sub->output_schema = sub->output_schema.WithQualifier(ref.alias);
      return sub;
    }
    auto table_result = catalog_.GetTable(ref.table_name);
    if (!table_result.ok()) {
      return Status::BindError(table_result.status().message());
    }
    const Table* table = *table_result;
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanKind::kScan;
    node->table = table;
    node->output_schema = table->schema().WithQualifier(ref.EffectiveName());
    return node;
  }

  const Catalog& catalog_;
};

/// Wraps every kScan in `plan` with a kConfidencePrune node carrying β.
void InsertConfidencePrunes(double beta,
                            std::unique_ptr<PlanNode>* node) {  // NOLINT(misc-no-recursion)
  PlanNode& plan = **node;
  if (plan.kind == PlanKind::kScan) {
    auto prune = std::make_unique<PlanNode>();
    prune->kind = PlanKind::kConfidencePrune;
    prune->output_schema = plan.output_schema;
    prune->prune_beta = beta;
    prune->left = std::move(*node);
    *node = std::move(prune);
    return;
  }
  if (plan.left) InsertConfidencePrunes(beta, &plan.left);
  if (plan.right) InsertConfidencePrunes(beta, &plan.right);
}

}  // namespace

namespace {

void CollectScannedTablesInto(const PlanNode& plan,
                              std::vector<std::string>* tables) {  // NOLINT(misc-no-recursion)
  if (plan.kind == PlanKind::kScan && plan.table != nullptr) {
    const std::string& name = plan.table->name();
    for (const std::string& existing : *tables) {
      if (EqualsIgnoreCaseAscii(existing, name)) return;
    }
    tables->push_back(name);
    return;
  }
  if (plan.left) CollectScannedTablesInto(*plan.left, tables);
  if (plan.right) CollectScannedTablesInto(*plan.right, tables);
}

}  // namespace

std::vector<std::string> CollectScannedTables(const PlanNode& plan) {
  std::vector<std::string> tables;
  CollectScannedTablesInto(plan, &tables);
  return tables;
}

bool IsConfidencePushdownSafe(const PlanNode& plan) {  // NOLINT(misc-no-recursion)
  switch (plan.kind) {
    case PlanKind::kScan:
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kJoin:
    case PlanKind::kSort:
    case PlanKind::kUnionAll:
    case PlanKind::kConfidencePrune:
      break;
    case PlanKind::kDistinct:
    case PlanKind::kUnion:
    case PlanKind::kExcept:
    case PlanKind::kIntersect:
    case PlanKind::kLimit:
    case PlanKind::kAggregate:
      return false;
  }
  if (plan.left && !IsConfidencePushdownSafe(*plan.left)) return false;
  if (plan.right && !IsConfidencePushdownSafe(*plan.right)) return false;
  return true;
}

Result<std::unique_ptr<PlanNode>> PlanQuery(const Catalog& catalog,
                                            const SelectStatement& stmt,
                                            std::optional<double> pushdown_beta) {
  Planner planner(catalog);
  PCQE_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, planner.Plan(stmt));
  // β ≤ 0 prunes nothing (confidences are ≥ 0 and the keep test is strict):
  // skip the wrap so policy-less requests execute the exact unpushed plan.
  if (pushdown_beta.has_value() && *pushdown_beta > 0.0 &&
      IsConfidencePushdownSafe(*plan)) {
    InsertConfidencePrunes(*pushdown_beta, &plan);
  }
  return plan;
}

}  // namespace pcqe
