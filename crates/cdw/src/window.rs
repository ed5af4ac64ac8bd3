//! Window function execution.
//!
//! Partitions are hash-built, each partition sorted by the window ordering,
//! then every call produces one value per row (placed back at the original
//! row positions). `IGNORE NULLS` is supported for the navigation functions
//! — the engine feature behind the paper's `FillDown` formula.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;

use sigma_sql::{FrameBound, WindowFrame};
use sigma_value::{hash, sort, Batch, Column, ColumnBuilder, DataType, Value};

use crate::error::CdwError;
use crate::eval::{eval, EvalCtx};
use crate::exec::timed;
use crate::plan::{AggFunc, WinFunc, WindowCall};

/// Compute one window call over a batch, returning the appended column.
/// `eval_ns` accumulates the nanoseconds spent evaluating the call's
/// partition / order / argument expressions (per-operator stats).
pub fn compute_window(
    call: &WindowCall,
    batch: &Batch,
    out_type: DataType,
    ctx: &EvalCtx,
    eval_ns: &AtomicU64,
) -> Result<Column, CdwError> {
    let rows = batch.num_rows();
    // Evaluate partition / order / argument expressions once.
    type Cols = (Vec<Column>, Vec<Column>, Vec<Column>);
    let (part_cols, order_cols, arg_cols): Cols = timed(eval_ns, || {
        let part_cols: Vec<Column> = call
            .partition
            .iter()
            .map(|p| eval(p, batch, ctx))
            .collect::<Result<_, _>>()?;
        let order_cols: Vec<Column> = call
            .order
            .iter()
            .map(|o| eval(&o.expr, batch, ctx))
            .collect::<Result<_, _>>()?;
        let arg_cols: Vec<Column> = call
            .args
            .iter()
            .map(|a| eval(a, batch, ctx))
            .collect::<Result<_, _>>()?;
        Ok::<_, CdwError>((part_cols, order_cols, arg_cols))
    })?;

    // Build partitions preserving first-seen order.
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    if part_cols.is_empty() {
        partitions.push((0..rows).collect());
    } else {
        let refs: Vec<&Column> = part_cols.iter().collect();
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut key = Vec::new();
        for row in 0..rows {
            key.clear();
            hash::encode_key(&refs, row, &mut key);
            let next = partitions.len();
            let slot = *index.entry(key.clone()).or_insert(next);
            if slot == partitions.len() {
                partitions.push(Vec::new());
            }
            partitions[slot].push(row);
        }
    }

    // Sort rows within each partition by the window ordering.
    let sort_keys: Vec<sort::SortKey> = call
        .order
        .iter()
        .map(|o| sort::SortKey {
            descending: o.descending,
            nulls_last: o.nulls_last.unwrap_or(o.descending),
        })
        .collect();
    let order_refs: Vec<&Column> = order_cols.iter().collect();
    for p in &mut partitions {
        if !order_refs.is_empty() {
            sort::sort_subset(&order_refs, &sort_keys, p);
        }
    }

    let mut out: Vec<Value> = vec![Value::Null; rows];
    for part in &partitions {
        compute_partition(call, part, &arg_cols, &order_refs, &sort_keys, &mut out)?;
    }
    let mut b = ColumnBuilder::new(out_type, rows);
    for v in out {
        b.push(v).map_err(CdwError::from)?;
    }
    Ok(b.finish())
}

/// Effective ROWS frame for a call: explicit, else running when ordered,
/// else the whole partition.
fn effective_frame(call: &WindowCall) -> WindowFrame {
    call.frame.unwrap_or({
        if call.order.is_empty() {
            WindowFrame {
                start: FrameBound::UnboundedPreceding,
                end: FrameBound::UnboundedFollowing,
            }
        } else {
            WindowFrame {
                start: FrameBound::UnboundedPreceding,
                end: FrameBound::CurrentRow,
            }
        }
    })
}

fn frame_range(frame: &WindowFrame, i: usize, n: usize) -> (usize, usize) {
    let start = match frame.start {
        FrameBound::UnboundedPreceding => 0,
        FrameBound::Preceding(k) => i.saturating_sub(k as usize),
        FrameBound::CurrentRow => i,
        FrameBound::Following(k) => (i + k as usize).min(n),
        FrameBound::UnboundedFollowing => n,
    };
    let end = match frame.end {
        FrameBound::UnboundedPreceding => 0,
        FrameBound::Preceding(k) => (i + 1).saturating_sub(k as usize),
        FrameBound::CurrentRow => i + 1,
        FrameBound::Following(k) => (i + 1 + k as usize).min(n),
        FrameBound::UnboundedFollowing => n,
    };
    (start.min(n), end.min(n).max(start.min(n)))
}

fn compute_partition(
    call: &WindowCall,
    part: &[usize],
    arg_cols: &[Column],
    order_refs: &[&Column],
    sort_keys: &[sort::SortKey],
    out: &mut [Value],
) -> Result<(), CdwError> {
    let n = part.len();
    let arg = |slot: usize, pos: usize| -> Value { arg_cols[slot].value(part[pos]) };
    match &call.func {
        WinFunc::RowNumber => {
            for (i, &row) in part.iter().enumerate() {
                out[row] = Value::Int(i as i64 + 1);
            }
        }
        WinFunc::Rank | WinFunc::DenseRank => {
            let dense = matches!(call.func, WinFunc::DenseRank);
            let mut rank = 0i64;
            let mut dense_rank = 0i64;
            for (i, &row) in part.iter().enumerate() {
                let is_peer = i > 0
                    && sort::compare_rows(order_refs, sort_keys, part[i - 1], part[i])
                        == std::cmp::Ordering::Equal;
                if !is_peer {
                    rank = i as i64 + 1;
                    dense_rank += 1;
                }
                out[row] = Value::Int(if dense { dense_rank } else { rank });
            }
        }
        WinFunc::Ntile => {
            let buckets = call
                .args
                .first()
                .and_then(|_| arg_cols[0].value(part[0]).as_i64())
                .unwrap_or(1)
                .max(1) as usize;
            // SQL NTILE: first (n % buckets) buckets get one extra row.
            let base = n / buckets;
            let extra = n % buckets;
            let mut i = 0usize;
            for b in 0..buckets {
                let size = base + usize::from(b < extra);
                for _ in 0..size {
                    if i < n {
                        out[part[i]] = Value::Int(b as i64 + 1);
                        i += 1;
                    }
                }
            }
        }
        WinFunc::Lag | WinFunc::Lead => {
            let offset = if call.args.len() > 1 {
                arg_cols[1].value(part[0]).as_i64().unwrap_or(1)
            } else {
                1
            };
            for (i, &row) in part.iter().enumerate() {
                let target = if matches!(call.func, WinFunc::Lag) {
                    i as i64 - offset
                } else {
                    i as i64 + offset
                };
                let v = if call.ignore_nulls {
                    // Nth non-null value before/after the current row.
                    let mut remaining = offset.max(0);
                    let mut found = Value::Null;
                    if matches!(call.func, WinFunc::Lag) {
                        for j in (0..i).rev() {
                            if !arg(0, j).is_null() {
                                remaining -= 1;
                                if remaining == 0 {
                                    found = arg(0, j);
                                    break;
                                }
                            }
                        }
                    } else {
                        for j in i + 1..n {
                            if !arg(0, j).is_null() {
                                remaining -= 1;
                                if remaining == 0 {
                                    found = arg(0, j);
                                    break;
                                }
                            }
                        }
                    }
                    found
                } else if target >= 0 && (target as usize) < n {
                    arg(0, target as usize)
                } else {
                    Value::Null
                };
                let v = if v.is_null() && call.args.len() > 2 {
                    arg(2, i)
                } else {
                    v
                };
                out[row] = v;
            }
        }
        WinFunc::FirstValue | WinFunc::LastValue | WinFunc::NthValue => {
            let frame = effective_frame(call);
            for (i, &row) in part.iter().enumerate() {
                let (s, e) = frame_range(&frame, i, n);
                let v = match call.func {
                    WinFunc::FirstValue => {
                        if call.ignore_nulls {
                            (s..e).map(|j| arg(0, j)).find(|v| !v.is_null())
                        } else {
                            (s < e).then(|| arg(0, s))
                        }
                    }
                    WinFunc::LastValue => {
                        if call.ignore_nulls {
                            (s..e).rev().map(|j| arg(0, j)).find(|v| !v.is_null())
                        } else {
                            (s < e).then(|| arg(0, e - 1))
                        }
                    }
                    WinFunc::NthValue => {
                        let k = arg_cols[1].value(row).as_i64().unwrap_or(1).max(1) as usize;
                        if call.ignore_nulls {
                            (s..e)
                                .map(|j| arg(0, j))
                                .filter(|v| !v.is_null())
                                .nth(k - 1)
                        } else {
                            (s + k <= e).then(|| arg(0, s + k - 1))
                        }
                    }
                    _ => unreachable!(),
                };
                out[row] = v.unwrap_or(Value::Null);
            }
        }
        WinFunc::Agg(f) => {
            let frame = effective_frame(call);
            let running = frame.start == FrameBound::UnboundedPreceding
                && frame.end == FrameBound::CurrentRow;
            if running
                && matches!(
                    f,
                    AggFunc::Sum | AggFunc::Avg | AggFunc::Count | AggFunc::CountStar
                )
            {
                // Incremental running accumulation.
                let mut sum = 0.0f64;
                let mut isum = 0i64;
                let mut count = 0i64;
                let mut any = false;
                let is_int = arg_cols
                    .first()
                    .map(|c| c.dtype() == DataType::Int)
                    .unwrap_or(false);
                for (i, &row) in part.iter().enumerate() {
                    if matches!(f, AggFunc::CountStar) {
                        count += 1;
                    } else {
                        let v = arg(0, i);
                        if !v.is_null() {
                            count += 1;
                            any = true;
                            if let Some(x) = v.as_f64() {
                                sum += x;
                            }
                            if let Some(x) = v.as_i64() {
                                isum += x;
                            }
                        }
                    }
                    out[row] = match f {
                        AggFunc::Count | AggFunc::CountStar => Value::Int(count),
                        AggFunc::Sum => {
                            if !any {
                                Value::Null
                            } else if is_int {
                                Value::Int(isum)
                            } else {
                                Value::Float(sum)
                            }
                        }
                        AggFunc::Avg => {
                            if count == 0 {
                                Value::Null
                            } else {
                                Value::Float(sum / count as f64)
                            }
                        }
                        _ => unreachable!(),
                    };
                }
            } else {
                // General frame: recompute per row.
                for (i, &row) in part.iter().enumerate() {
                    let (s, e) = frame_range(&frame, i, n);
                    // Preserve Int-ness of SUM over Int columns (matches
                    // the planner's output type).
                    let mut state =
                        crate::exec::AggState::new_for(f, arg_cols.first().map(|c| c.dtype()));
                    for j in s..e {
                        if matches!(f, AggFunc::CountStar) {
                            state.update(&Value::Int(1));
                        } else {
                            state.update(&arg(0, j));
                        }
                    }
                    out[row] = state.finish();
                }
            }
        }
    }
    Ok(())
}
