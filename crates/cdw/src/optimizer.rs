//! Rule-based logical optimizer.
//!
//! Four rewrites, applied to fixpoint-ish (one bottom-up pass each, in
//! order, which suffices for the shapes the compiler emits):
//!
//! 1. **Constant folding** — column-free subexpressions evaluate at plan
//!    time (using the session clock, so `CURRENT_DATE` folds too).
//! 2. **Predicate pushdown** — filters slide through projections, sorts,
//!    unions, and into the inner side(s) of joins.
//! 3. **Projection pruning** — scans materialize only the columns the rest
//!    of the plan consumes (a narrow `Project` is inserted over the scan).
//! 4. **Two-phase split** — `Aggregate` and `Distinct` nodes over
//!    partition-preserving inputs split into a per-partition `Partial`
//!    under a merging `Final`, so the executor can run the hash-build
//!    phase partition-parallel (see `plan::AggMode` and DESIGN.md).

use std::sync::Arc;

use sigma_sql::JoinKind;
use sigma_value::{Batch, DataType, Field, Schema};

use crate::error::CdwError;
use crate::eval::{self, EvalCtx, PhysExpr};
use crate::plan::{AggMode, Plan};

/// Run all rules over a plan.
pub fn optimize(plan: Plan, ctx: &EvalCtx) -> Result<Plan, CdwError> {
    let plan = fold_constants_plan(plan, ctx)?;
    let plan = push_down_filters(plan)?;
    let plan = prune_scan_columns(plan)?;
    Ok(split_two_phase(plan))
}

// ---------------------------------------------------------------------
// constant folding
// ---------------------------------------------------------------------

fn fold_constants_plan(plan: Plan, ctx: &EvalCtx) -> Result<Plan, CdwError> {
    map_plan_exprs(plan, &|e| fold_expr(e, ctx))
}

/// Fold a single expression if it references no columns (and isn't already
/// a literal). Folding errors are ignored — the expression stays as-is and
/// any real error surfaces at execution.
fn fold_expr(expr: PhysExpr, ctx: &EvalCtx) -> Result<PhysExpr, CdwError> {
    let folded = try_fold(&expr, ctx);
    Ok(match folded {
        Some(lit) => lit,
        None => {
            // Recurse into children so partially constant trees shrink.
            match expr {
                PhysExpr::Unary { op, expr } => PhysExpr::Unary {
                    op,
                    expr: Box::new(fold_expr(*expr, ctx)?),
                },
                PhysExpr::Binary { op, left, right } => PhysExpr::Binary {
                    op,
                    left: Box::new(fold_expr(*left, ctx)?),
                    right: Box::new(fold_expr(*right, ctx)?),
                },
                PhysExpr::Func { func, args } => PhysExpr::Func {
                    func,
                    args: args
                        .into_iter()
                        .map(|a| fold_expr(a, ctx))
                        .collect::<Result<_, _>>()?,
                },
                PhysExpr::Case {
                    operand,
                    whens,
                    else_,
                } => PhysExpr::Case {
                    operand: operand
                        .map(|o| fold_expr(*o, ctx).map(Box::new))
                        .transpose()?,
                    whens: whens
                        .into_iter()
                        .map(|(w, t)| Ok::<_, CdwError>((fold_expr(w, ctx)?, fold_expr(t, ctx)?)))
                        .collect::<Result<_, _>>()?,
                    else_: else_
                        .map(|e| fold_expr(*e, ctx).map(Box::new))
                        .transpose()?,
                },
                PhysExpr::Cast {
                    expr,
                    dtype,
                    strict,
                } => PhysExpr::Cast {
                    expr: Box::new(fold_expr(*expr, ctx)?),
                    dtype,
                    strict,
                },
                PhysExpr::InList {
                    expr,
                    list,
                    negated,
                } => PhysExpr::InList {
                    expr: Box::new(fold_expr(*expr, ctx)?),
                    list: list
                        .into_iter()
                        .map(|l| fold_expr(l, ctx))
                        .collect::<Result<_, _>>()?,
                    negated,
                },
                PhysExpr::Between {
                    expr,
                    low,
                    high,
                    negated,
                } => PhysExpr::Between {
                    expr: Box::new(fold_expr(*expr, ctx)?),
                    low: Box::new(fold_expr(*low, ctx)?),
                    high: Box::new(fold_expr(*high, ctx)?),
                    negated,
                },
                PhysExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                    expr: Box::new(fold_expr(*expr, ctx)?),
                    negated,
                },
                PhysExpr::Like {
                    expr,
                    pattern,
                    negated,
                } => PhysExpr::Like {
                    expr: Box::new(fold_expr(*expr, ctx)?),
                    pattern: Box::new(fold_expr(*pattern, ctx)?),
                    negated,
                },
                leaf => leaf,
            }
        }
    })
}

fn try_fold(expr: &PhysExpr, ctx: &EvalCtx) -> Option<PhysExpr> {
    if matches!(expr, PhysExpr::Literal(_) | PhysExpr::Col(_)) {
        return None;
    }
    let mut cols = Vec::new();
    expr.columns_used(&mut cols);
    if !cols.is_empty() {
        return None;
    }
    let schema = Arc::new(Schema::new(vec![Field::new("$fold", DataType::Int)]));
    let batch = Batch::new(schema, vec![sigma_value::Column::from_ints(vec![0])]).ok()?;
    let col = eval::eval(expr, &batch, ctx).ok()?;
    Some(PhysExpr::Literal(col.value(0)))
}

/// Apply a rewrite to every expression embedded in the plan.
fn map_plan_exprs(
    plan: Plan,
    f: &dyn Fn(PhysExpr) -> Result<PhysExpr, CdwError>,
) -> Result<Plan, CdwError> {
    Ok(match plan {
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(map_plan_exprs(*input, f)?),
            predicate: f(predicate)?,
        },
        Plan::Project {
            input,
            exprs,
            schema,
        } => Plan::Project {
            input: Box::new(map_plan_exprs(*input, f)?),
            exprs: exprs.into_iter().map(f).collect::<Result<_, _>>()?,
            schema,
        },
        Plan::Aggregate {
            input,
            groups,
            aggs,
            schema,
            mode,
        } => Plan::Aggregate {
            input: Box::new(map_plan_exprs(*input, f)?),
            groups: groups.into_iter().map(f).collect::<Result<_, _>>()?,
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(f).transpose()?;
                    Ok::<_, CdwError>(a)
                })
                .collect::<Result<_, _>>()?,
            schema,
            mode,
        },
        Plan::Window {
            input,
            calls,
            schema,
        } => Plan::Window {
            input: Box::new(map_plan_exprs(*input, f)?),
            calls: calls
                .into_iter()
                .map(|mut c| {
                    c.args = c.args.into_iter().map(f).collect::<Result<_, _>>()?;
                    c.partition = c.partition.into_iter().map(f).collect::<Result<_, _>>()?;
                    c.order = c
                        .order
                        .into_iter()
                        .map(|mut o| {
                            o.expr = f(o.expr)?;
                            Ok::<_, CdwError>(o)
                        })
                        .collect::<Result<_, _>>()?;
                    Ok::<_, CdwError>(c)
                })
                .collect::<Result<_, _>>()?,
            schema,
        },
        Plan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        } => Plan::Join {
            left: Box::new(map_plan_exprs(*left, f)?),
            right: Box::new(map_plan_exprs(*right, f)?),
            kind,
            left_keys: left_keys.into_iter().map(f).collect::<Result<_, _>>()?,
            right_keys: right_keys.into_iter().map(f).collect::<Result<_, _>>()?,
            residual: residual.map(f).transpose()?,
            schema,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(map_plan_exprs(*input, f)?),
            keys: keys
                .into_iter()
                .map(|mut k| {
                    k.expr = f(k.expr)?;
                    Ok::<_, CdwError>(k)
                })
                .collect::<Result<_, _>>()?,
        },
        Plan::Limit {
            input,
            limit,
            offset,
        } => Plan::Limit {
            input: Box::new(map_plan_exprs(*input, f)?),
            limit,
            offset,
        },
        Plan::UnionAll { inputs, schema } => Plan::UnionAll {
            inputs: inputs
                .into_iter()
                .map(|p| map_plan_exprs(p, f))
                .collect::<Result<_, _>>()?,
            schema,
        },
        Plan::Distinct { input, mode } => Plan::Distinct {
            input: Box::new(map_plan_exprs(*input, f)?),
            mode,
        },
        leaf @ (Plan::Scan { .. } | Plan::ResultScan { .. } | Plan::Values { .. }) => leaf,
    })
}

// ---------------------------------------------------------------------
// predicate pushdown
// ---------------------------------------------------------------------

fn push_down_filters(plan: Plan) -> Result<Plan, CdwError> {
    Ok(match plan {
        Plan::Filter { input, predicate } => {
            let input = push_down_filters(*input)?;
            push_filter_into(input, predicate)?
        }
        Plan::Project {
            input,
            exprs,
            schema,
        } => Plan::Project {
            input: Box::new(push_down_filters(*input)?),
            exprs,
            schema,
        },
        Plan::Aggregate {
            input,
            groups,
            aggs,
            schema,
            mode,
        } => Plan::Aggregate {
            input: Box::new(push_down_filters(*input)?),
            groups,
            aggs,
            schema,
            mode,
        },
        Plan::Window {
            input,
            calls,
            schema,
        } => Plan::Window {
            input: Box::new(push_down_filters(*input)?),
            calls,
            schema,
        },
        Plan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        } => Plan::Join {
            left: Box::new(push_down_filters(*left)?),
            right: Box::new(push_down_filters(*right)?),
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(push_down_filters(*input)?),
            keys,
        },
        Plan::Limit {
            input,
            limit,
            offset,
        } => Plan::Limit {
            input: Box::new(push_down_filters(*input)?),
            limit,
            offset,
        },
        Plan::UnionAll { inputs, schema } => Plan::UnionAll {
            inputs: inputs
                .into_iter()
                .map(push_down_filters)
                .collect::<Result<_, _>>()?,
            schema,
        },
        Plan::Distinct { input, mode } => Plan::Distinct {
            input: Box::new(push_down_filters(*input)?),
            mode,
        },
        leaf => leaf,
    })
}

/// Push one predicate as deep as legal over the (already pushed-down) input.
fn push_filter_into(input: Plan, predicate: PhysExpr) -> Result<Plan, CdwError> {
    match input {
        // Filter(Project(x)) => Project(Filter'(x)) with the predicate
        // rewritten through the projection.
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            if let Some(rewritten) = substitute_through_projection(&predicate, &exprs) {
                let pushed = push_filter_into(*input, rewritten)?;
                Ok(Plan::Project {
                    input: Box::new(pushed),
                    exprs,
                    schema,
                })
            } else {
                Ok(Plan::Filter {
                    input: Box::new(Plan::Project {
                        input,
                        exprs,
                        schema,
                    }),
                    predicate,
                })
            }
        }
        // Filter(Sort(x)) => Sort(Filter(x)).
        Plan::Sort { input, keys } => {
            let pushed = push_filter_into(*input, predicate)?;
            Ok(Plan::Sort {
                input: Box::new(pushed),
                keys,
            })
        }
        // Filter(UnionAll(xs)) => UnionAll(Filter(x) for x in xs).
        Plan::UnionAll { inputs, schema } => {
            let inputs = inputs
                .into_iter()
                .map(|p| push_filter_into(p, predicate.clone()))
                .collect::<Result<_, _>>()?;
            Ok(Plan::UnionAll { inputs, schema })
        }
        // Filter(Join(l, r)): push side-local conjuncts into inner inputs.
        Plan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        } => {
            let left_width = left.schema().len();
            let mut conjuncts = Vec::new();
            split_phys_conjuncts(predicate, &mut conjuncts);
            let mut stay = Vec::new();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                c.columns_used(&mut cols);
                let all_left = cols.iter().all(|&i| i < left_width);
                let all_right = cols.iter().all(|&i| i >= left_width);
                // Pushing to the left is safe for inner and left joins;
                // pushing to the right only for inner joins.
                if all_left && matches!(kind, JoinKind::Inner | JoinKind::Left | JoinKind::Cross) {
                    to_left.push(c);
                } else if all_right && matches!(kind, JoinKind::Inner | JoinKind::Cross) {
                    let mut c = c;
                    c.remap_columns(&|i| i - left_width);
                    to_right.push(c);
                } else {
                    stay.push(c);
                }
            }
            let mut left = *left;
            for c in to_left {
                left = push_filter_into(left, c)?;
            }
            let mut right = *right;
            for c in to_right {
                right = push_filter_into(right, c)?;
            }
            let joined = Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                left_keys,
                right_keys,
                residual,
                schema,
            };
            Ok(match conjoin(stay) {
                Some(p) => Plan::Filter {
                    input: Box::new(joined),
                    predicate: p,
                },
                None => joined,
            })
        }
        // Filter(Filter(x)) => Filter(x, a AND b) — merged then re-pushed.
        Plan::Filter {
            input,
            predicate: inner,
        } => {
            let merged = PhysExpr::Binary {
                op: sigma_sql::SqlBinaryOp::And,
                left: Box::new(inner),
                right: Box::new(predicate),
            };
            push_filter_into(*input, merged)
        }
        other => Ok(Plan::Filter {
            input: Box::new(other),
            predicate,
        }),
    }
}

fn conjoin(preds: Vec<PhysExpr>) -> Option<PhysExpr> {
    preds.into_iter().reduce(|a, b| PhysExpr::Binary {
        op: sigma_sql::SqlBinaryOp::And,
        left: Box::new(a),
        right: Box::new(b),
    })
}

fn split_phys_conjuncts(e: PhysExpr, out: &mut Vec<PhysExpr>) {
    if let PhysExpr::Binary {
        op: sigma_sql::SqlBinaryOp::And,
        left,
        right,
    } = e
    {
        split_phys_conjuncts(*left, out);
        split_phys_conjuncts(*right, out);
    } else {
        out.push(e);
    }
}

/// Rewrite a predicate over a projection's output to one over its input by
/// inlining the projected expressions. Returns `None` if any referenced
/// projection slot is (or contains) something non-inlinable — we only
/// inline cheap expressions to avoid recomputation.
fn substitute_through_projection(pred: &PhysExpr, exprs: &[PhysExpr]) -> Option<PhysExpr> {
    let mut used = Vec::new();
    pred.columns_used(&mut used);
    for &i in &used {
        if i >= exprs.len() {
            return None;
        }
    }
    let mut out = pred.clone();
    let mut ok = true;
    substitute_cols(&mut out, &mut |i| {
        let replacement = exprs.get(i);
        match replacement {
            Some(e) => Some(e.clone()),
            None => {
                ok = false;
                None
            }
        }
    });
    ok.then_some(out)
}

fn substitute_cols(e: &mut PhysExpr, subst: &mut impl FnMut(usize) -> Option<PhysExpr>) {
    if let PhysExpr::Col(i) = e {
        if let Some(r) = subst(*i) {
            *e = r;
        }
        return;
    }
    match e {
        PhysExpr::Literal(_) | PhysExpr::Col(_) => {}
        PhysExpr::Unary { expr, .. } => substitute_cols(expr, subst),
        PhysExpr::Binary { left, right, .. } => {
            substitute_cols(left, subst);
            substitute_cols(right, subst);
        }
        PhysExpr::Func { args, .. } => {
            for a in args {
                substitute_cols(a, subst);
            }
        }
        PhysExpr::Case {
            operand,
            whens,
            else_,
        } => {
            if let Some(o) = operand {
                substitute_cols(o, subst);
            }
            for (w, t) in whens {
                substitute_cols(w, subst);
                substitute_cols(t, subst);
            }
            if let Some(el) = else_ {
                substitute_cols(el, subst);
            }
        }
        PhysExpr::Cast { expr, .. } => substitute_cols(expr, subst),
        PhysExpr::InList { expr, list, .. } => {
            substitute_cols(expr, subst);
            for l in list {
                substitute_cols(l, subst);
            }
        }
        PhysExpr::Between {
            expr, low, high, ..
        } => {
            substitute_cols(expr, subst);
            substitute_cols(low, subst);
            substitute_cols(high, subst);
        }
        PhysExpr::IsNull { expr, .. } => substitute_cols(expr, subst),
        PhysExpr::Like { expr, pattern, .. } => {
            substitute_cols(expr, subst);
            substitute_cols(pattern, subst);
        }
    }
}

// ---------------------------------------------------------------------
// projection pruning
// ---------------------------------------------------------------------

/// Insert narrow projections directly above scans when the plan uses only
/// a subset of the scanned columns.
///
/// Contract: `prune(plan, Some(needed))` returns a plan whose output schema
/// is the original schema restricted to `needed` (sorted, deduplicated, in
/// ascending original order); the caller is responsible for remapping its
/// own column references through that order. `prune(plan, None)` leaves the
/// output schema unchanged.
fn prune_scan_columns(plan: Plan) -> Result<Plan, CdwError> {
    prune(plan, None)
}

fn normalize(needed: &mut Vec<usize>) {
    needed.sort_unstable();
    needed.dedup();
}

/// Normalize and guarantee at least one column survives: a zero-column
/// batch cannot carry a row count, so COUNT(*)-style plans keep column 0.
fn normalize_nonempty(needed: &mut Vec<usize>, width: usize) {
    normalize(needed);
    if needed.is_empty() && width > 0 {
        needed.push(0);
    }
}

/// Wrap `plan` in a projection selecting `needed` (already normalized)
/// ordinals of its output, unless that would be a no-op.
fn narrow(plan: Plan, needed: &[usize]) -> Plan {
    let schema = plan.schema();
    if needed.len() >= schema.len() {
        return plan;
    }
    let fields: Vec<Field> = needed.iter().map(|&i| schema.field(i).clone()).collect();
    let exprs: Vec<PhysExpr> = needed.iter().map(|&i| PhysExpr::Col(i)).collect();
    Plan::Project {
        input: Box::new(plan),
        exprs,
        schema: Arc::new(Schema::new(fields)),
    }
}

/// Old-ordinal -> new-ordinal map induced by a normalized needed set.
fn remap_of(needed: &[usize]) -> std::collections::HashMap<usize, usize> {
    needed
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new))
        .collect()
}

fn prune(plan: Plan, needed: Option<Vec<usize>>) -> Result<Plan, CdwError> {
    let width = plan.schema().len();
    let needed = needed.map(|mut n| {
        normalize_nonempty(&mut n, width);
        n
    });
    match plan {
        Plan::Scan { table, schema } => {
            let scan = Plan::Scan { table, schema };
            Ok(match needed {
                Some(cols) => narrow(scan, &cols),
                None => scan,
            })
        }
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            // Keep only the projected expressions the parent needs.
            let (kept_exprs, kept_fields): (Vec<PhysExpr>, Vec<Field>) = match &needed {
                Some(cols) => cols
                    .iter()
                    .map(|&i| (exprs[i].clone(), schema.field(i).clone()))
                    .unzip(),
                None => (exprs, schema.fields().to_vec()),
            };
            let mut child_need = Vec::new();
            for e in &kept_exprs {
                e.columns_used(&mut child_need);
            }
            normalize_nonempty(&mut child_need, input.schema().len());
            let narrowed = child_need.len() < input.schema().len();
            let map = remap_of(&child_need);
            let pruned = prune(*input, Some(child_need))?;
            let mut kept_exprs = kept_exprs;
            if narrowed {
                for e in &mut kept_exprs {
                    e.remap_columns(&|i| map[&i]);
                }
            }
            Ok(Plan::Project {
                input: Box::new(pruned),
                exprs: kept_exprs,
                schema: Arc::new(Schema::new(kept_fields)),
            })
        }
        Plan::Filter { input, predicate } => {
            let width = input.schema().len();
            let mut union: Vec<usize> = match &needed {
                Some(cols) => cols.clone(),
                None => (0..width).collect(),
            };
            predicate.columns_used(&mut union);
            normalize_nonempty(&mut union, width);
            let narrowed = union.len() < width;
            let map = remap_of(&union);
            let pruned = prune(*input, Some(union.clone()))?;
            let mut predicate = predicate;
            if narrowed {
                predicate.remap_columns(&|i| map[&i]);
            }
            let filtered = Plan::Filter {
                input: Box::new(pruned),
                predicate,
            };
            // If the parent wanted fewer columns than the filter needed,
            // narrow above (positions of `needed` within `union`).
            Ok(match needed {
                Some(cols) if cols.len() < union.len() => {
                    let positions: Vec<usize> = cols
                        .iter()
                        .map(|c| union.iter().position(|u| u == c).unwrap())
                        .collect();
                    narrow(filtered, &positions)
                }
                _ => filtered,
            })
        }
        Plan::Aggregate {
            input,
            groups,
            aggs,
            schema,
            mode,
        } => {
            let mut child_need = Vec::new();
            for g in &groups {
                g.columns_used(&mut child_need);
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.columns_used(&mut child_need);
                }
            }
            normalize_nonempty(&mut child_need, input.schema().len());
            let narrowed = child_need.len() < input.schema().len();
            let map = remap_of(&child_need);
            let pruned = prune(*input, Some(child_need))?;
            let mut groups = groups;
            let mut aggs = aggs;
            if narrowed {
                for g in &mut groups {
                    g.remap_columns(&|i| map[&i]);
                }
                for a in &mut aggs {
                    if let Some(arg) = &mut a.arg {
                        arg.remap_columns(&|i| map[&i]);
                    }
                }
            }
            let agg = Plan::Aggregate {
                input: Box::new(pruned),
                groups,
                aggs,
                schema,
                mode,
            };
            Ok(match needed {
                Some(cols) => narrow(agg, &cols),
                None => agg,
            })
        }
        // Remaining nodes are treated as boundaries: children keep their
        // full schemas, and the parent's narrowing happens above the node.
        Plan::Window {
            input,
            calls,
            schema,
        } => {
            let w = Plan::Window {
                input: Box::new(prune(*input, None)?),
                calls,
                schema,
            };
            Ok(match needed {
                Some(cols) => narrow(w, &cols),
                None => w,
            })
        }
        Plan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        } => {
            let j = Plan::Join {
                left: Box::new(prune(*left, None)?),
                right: Box::new(prune(*right, None)?),
                kind,
                left_keys,
                right_keys,
                residual,
                schema,
            };
            Ok(match needed {
                Some(cols) => narrow(j, &cols),
                None => j,
            })
        }
        Plan::Sort { input, keys } => {
            let s = Plan::Sort {
                input: Box::new(prune(*input, None)?),
                keys,
            };
            Ok(match needed {
                Some(cols) => narrow(s, &cols),
                None => s,
            })
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            let l = Plan::Limit {
                input: Box::new(prune(*input, None)?),
                limit,
                offset,
            };
            Ok(match needed {
                Some(cols) => narrow(l, &cols),
                None => l,
            })
        }
        Plan::UnionAll { inputs, schema } => {
            let u = Plan::UnionAll {
                inputs: inputs
                    .into_iter()
                    .map(|p| prune(p, None))
                    .collect::<Result<_, _>>()?,
                schema,
            };
            Ok(match needed {
                Some(cols) => narrow(u, &cols),
                None => u,
            })
        }
        Plan::Distinct { input, mode } => {
            let d = Plan::Distinct {
                input: Box::new(prune(*input, None)?),
                mode,
            };
            Ok(match needed {
                Some(cols) => narrow(d, &cols),
                None => d,
            })
        }
        leaf => Ok(match needed {
            Some(cols) => narrow(leaf, &cols),
            None => leaf,
        }),
    }
}

// ---------------------------------------------------------------------
// two-phase split
// ---------------------------------------------------------------------

/// Does the executor preserve partition structure for this subtree?
///
/// Scans emit one part per storage partition; Filter/Project map over
/// parts; UnionAll concatenates its inputs' parts; a Join emits one part
/// per probe (left) partition; a partial Distinct dedups within parts.
/// Everything else collapses to a single batch, where a two-phase split
/// would only add a pointless merge pass.
fn partition_preserving(plan: &Plan) -> bool {
    match plan {
        Plan::Scan { .. } => true,
        Plan::Filter { input, .. } | Plan::Project { input, .. } => partition_preserving(input),
        Plan::UnionAll { inputs, .. } => {
            inputs.len() > 1 || inputs.iter().any(partition_preserving)
        }
        Plan::Join { left, .. } => partition_preserving(left),
        Plan::Distinct {
            input,
            mode: AggMode::Partial,
        } => partition_preserving(input),
        _ => false,
    }
}

/// Rewrite `Single` Aggregate/Distinct nodes over partition-preserving
/// inputs into `Final(Partial(input))` pairs. The split is decided purely
/// by plan shape — never by the parallelism knob — so a query runs the
/// identical plan (and produces bit-identical results) at any parallelism.
fn split_two_phase(plan: Plan) -> Plan {
    match plan {
        Plan::Aggregate {
            input,
            groups,
            aggs,
            schema,
            mode: AggMode::Single,
        } => {
            let input = split_two_phase(*input);
            if partition_preserving(&input) {
                // The Final node restates the same spec as its Partial
                // child; the executor fuses the pair and evaluates the
                // child's expressions against the raw input partitions.
                Plan::Aggregate {
                    input: Box::new(Plan::Aggregate {
                        input: Box::new(input),
                        groups: groups.clone(),
                        aggs: aggs.clone(),
                        schema: schema.clone(),
                        mode: AggMode::Partial,
                    }),
                    groups,
                    aggs,
                    schema,
                    mode: AggMode::Final,
                }
            } else {
                Plan::Aggregate {
                    input: Box::new(input),
                    groups,
                    aggs,
                    schema,
                    mode: AggMode::Single,
                }
            }
        }
        Plan::Distinct {
            input,
            mode: AggMode::Single,
        } => {
            let input = split_two_phase(*input);
            if partition_preserving(&input) {
                Plan::Distinct {
                    input: Box::new(Plan::Distinct {
                        input: Box::new(input),
                        mode: AggMode::Partial,
                    }),
                    mode: AggMode::Final,
                }
            } else {
                Plan::Distinct {
                    input: Box::new(input),
                    mode: AggMode::Single,
                }
            }
        }
        Plan::Aggregate {
            input,
            groups,
            aggs,
            schema,
            mode,
        } => Plan::Aggregate {
            input: Box::new(split_two_phase(*input)),
            groups,
            aggs,
            schema,
            mode,
        },
        Plan::Distinct { input, mode } => Plan::Distinct {
            input: Box::new(split_two_phase(*input)),
            mode,
        },
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(split_two_phase(*input)),
            predicate,
        },
        Plan::Project {
            input,
            exprs,
            schema,
        } => Plan::Project {
            input: Box::new(split_two_phase(*input)),
            exprs,
            schema,
        },
        Plan::Window {
            input,
            calls,
            schema,
        } => Plan::Window {
            input: Box::new(split_two_phase(*input)),
            calls,
            schema,
        },
        Plan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        } => Plan::Join {
            left: Box::new(split_two_phase(*left)),
            right: Box::new(split_two_phase(*right)),
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(split_two_phase(*input)),
            keys,
        },
        Plan::Limit {
            input,
            limit,
            offset,
        } => Plan::Limit {
            input: Box::new(split_two_phase(*input)),
            limit,
            offset,
        },
        Plan::UnionAll { inputs, schema } => Plan::UnionAll {
            inputs: inputs.into_iter().map(split_two_phase).collect(),
            schema,
        },
        leaf @ (Plan::Scan { .. } | Plan::ResultScan { .. } | Plan::Values { .. }) => leaf,
    }
}
