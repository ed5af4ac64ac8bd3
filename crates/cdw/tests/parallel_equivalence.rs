//! The two-phase split's safety net: for generated GROUP BY / JOIN /
//! DISTINCT queries over randomly partitioned tables, `parallelism = 1`
//! and `parallelism = 4` must produce **bit-identical** batches (same
//! rows, same order, same float bit patterns). The optimizer decides the
//! partial/final placement purely from plan shape and the executor merges
//! partial states in partition-index order, so thread count can never
//! change a result — this test pins that invariant.
//!
//! The skew suite extends the pin to the scheduler's worst case:
//! pathological partition layouts (one ~90% partition, empties, 1-row
//! tails) at parallelism {1, 4, 16} × memory budget {unbounded, 1 byte}
//! must all agree bit-for-bit with serial in-memory execution — LEFT/FULL
//! probes, ORDER BY, windows, and every spilling operator included. Two
//! oracles apply: serial execution of the same warehouse, and the
//! `eval_interp` row interpreter run once over the whole unpartitioned
//! table for Filter → Project queries, which shares no partitioning,
//! selection-vector, or vectorized-kernel code with the executor.

use proptest::prelude::*;
use sigma_cdw::eval::{eval_interp, EvalCtx};
use sigma_cdw::plan::Plan;
use sigma_cdw::Warehouse;
use sigma_value::{Batch, Column, DataType, Field, Schema, Value};
use std::sync::Arc;

/// Open the persistent worker pool to 16 slots for every test in this
/// binary. `parallelism = p` then occupies `min(p, 16)` pool slots, so
/// sweeping `parallelism` {1, 4, 16} is exactly a sweep of pooled worker
/// counts {1, 4, 16} — the per-query knob and the pool budget clamp
/// through `effective_workers(min(requested, pool_target))`. Grow-only
/// (monotonic `fetch_max`) so concurrent tests in this binary can't race
/// each other's budgets.
fn open_pool() {
    sigma_cdw::grow_worker_pool_target(16);
}

/// Queries covering the operators the two-phase refactor touches.
const QUERIES: &[&str] = &[
    // Grouped aggregation across every mergeable state.
    "SELECT g, COUNT(*) AS c, COUNT(v) AS cv, COUNT(DISTINCT v) AS cd, \
            SUM(v) AS s, AVG(v) AS a, MIN(v) AS mn, MAX(v) AS mx, \
            STDDEV(v) AS sd, MEDIAN(v) AS md \
     FROM t GROUP BY g",
    // Global aggregate (one row even over empty filters).
    "SELECT COUNT(*) AS c, SUM(d) AS s, AVG(d) AS a, STDDEV(d) AS sd FROM t",
    "SELECT COUNT(*) AS c, SUM(v) AS s FROM t WHERE v > 1000",
    // DISTINCT: partial dedup per partition + global merge.
    "SELECT DISTINCT g, v FROM t",
    // Partitioned hash join (shared build side).
    "SELECT t.g, t.v, u.lab FROM t JOIN u ON t.jk = u.k",
    "SELECT t.g, u.lab FROM t LEFT JOIN u ON t.jk = u.k",
    // Aggregation over a join: the join's per-partition output feeds a
    // two-phase aggregate.
    "SELECT u.lab, COUNT(*) AS n, SUM(t.v) AS s \
     FROM t LEFT JOIN u ON t.jk = u.k GROUP BY u.lab",
    // Aggregation over UNION ALL (parts from both inputs retained).
    "SELECT g, SUM(v) AS s FROM (SELECT g, v FROM t UNION ALL SELECT g, v FROM t) x GROUP BY g",
    // FULL join: unmatched lefts per probe partition, matched-right flags
    // unioned across partitions.
    "SELECT t.g, t.v, u.lab FROM t FULL JOIN u ON t.jk = u.k",
    // ORDER BY (external sorted runs under the 1-byte budget).
    "SELECT g, v, d FROM t ORDER BY v DESC, d, g",
    "SELECT g, v FROM t ORDER BY g",
    // Windows over the collapsed input.
    "SELECT g, v, SUM(v) OVER (PARTITION BY g ORDER BY v) AS w, \
            ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) AS rn FROM t",
    "SELECT g, AVG(d) OVER (PARTITION BY jk) AS a, LAG(v) OVER (ORDER BY g) AS l FROM t",
];

fn fact_batch(rows: &[(i64, Option<i64>, i64)]) -> Batch {
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("d", DataType::Float),
        Field::new("jk", DataType::Int),
    ]));
    Batch::new(
        schema,
        vec![
            Column::from_ints(rows.iter().map(|(g, _, _)| *g).collect()),
            Column::from_opt_ints(rows.iter().map(|(_, v, _)| *v).collect()),
            Column::from_floats(
                rows.iter()
                    .map(|(_, v, j)| v.unwrap_or(*j) as f64 / 3.0)
                    .collect(),
            ),
            Column::from_ints(rows.iter().map(|(_, _, j)| *j).collect()),
        ],
    )
    .unwrap()
}

/// Small dimension table: keys 0..6 so some jk values (6..8) dangle.
fn dim_batch() -> Batch {
    Batch::new(
        Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("lab", DataType::Text),
        ])),
        vec![
            Column::from_ints((0..6).collect()),
            Column::from_texts((0..6).map(|i| format!("l{i}")).collect()),
        ],
    )
    .unwrap()
}

fn load(rows: &[(i64, Option<i64>, i64)], partition_rows: usize) -> Warehouse {
    open_pool();
    let wh = Warehouse::default();
    wh.load_table_partitioned("t", fact_batch(rows), partition_rows)
        .unwrap();
    wh.load_table("u", dim_batch()).unwrap();
    wh
}

/// Filter → Project queries the row-interpreter oracle can replay over
/// the whole table (see [`interp_oracle`]).
const INTERP_QUERIES: &[&str] = &[
    "SELECT v * 2 + jk AS x, d * 3.0 - g AS y FROM t WHERE jk < 6",
    "SELECT CASE WHEN v > 0 THEN d ELSE -d END AS z, g % 3 AS m FROM t \
     WHERE v > -10 AND g <> 2",
    "SELECT COALESCE(v, jk) + g AS c FROM t",
];

/// Load `t` with a deliberately pathological partition layout: one
/// partition holding ~90% of the rows, empty partitions interleaved, and
/// `tails` single-row partitions. This is the layout static
/// `i % threads` chunking handled worst and the work-stealing scheduler
/// must handle without changing a single bit.
fn load_skewed(rows: &[(i64, Option<i64>, i64)], tails: usize) -> Warehouse {
    open_pool();
    let wh = Warehouse::default();
    let batch = fact_batch(rows);
    let n = batch.num_rows();
    let tails = tails.min(n.saturating_sub(1));
    let big = n - tails;
    let schema = batch.schema().clone();
    let mut parts = vec![
        Batch::empty(schema.clone()),
        batch.slice(0, big),
        Batch::empty(schema.clone()),
    ];
    for i in 0..tails {
        parts.push(batch.slice(big + i, 1));
    }
    parts.push(Batch::empty(schema));
    wh.load_table_parts("t", parts).unwrap();
    wh.load_table("u", dim_batch()).unwrap();
    wh
}

/// Evaluate a query's optimized Scan/Filter/Project plan with the
/// `eval_interp` row interpreter over `table`, the whole unpartitioned
/// fact batch: one boxed-`Value` pass per expression, no partitions, no
/// selection vectors, no vectorized kernels.
fn interp_oracle(plan: &Plan, table: &Batch) -> Batch {
    let ctx = EvalCtx::default();
    match plan {
        Plan::Scan { .. } => table.clone(),
        Plan::Filter { input, predicate } => {
            let batch = interp_oracle(input, table);
            let mask = eval_interp(predicate, &batch, &ctx).unwrap();
            let keep: Vec<usize> = (0..batch.num_rows())
                .filter(|&i| mask.value(i) == Value::Bool(true))
                .collect();
            batch.take(&keep)
        }
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            let batch = interp_oracle(input, table);
            let cols = exprs
                .iter()
                .zip(schema.fields())
                .map(|(e, f)| eval_interp(e, &batch, &ctx).unwrap().cast(f.dtype).unwrap())
                .collect();
            Batch::new(schema.clone(), cols).unwrap()
        }
        other => panic!(
            "interp oracle covers Scan/Filter/Project only, got:\n{}",
            other.explain()
        ),
    }
}

/// Equality down to float bit patterns (NaN-safe, -0.0 ≠ 0.0 visible).
fn assert_bit_identical(serial: &Batch, parallel: &Batch, sql: &str) {
    assert_eq!(serial.num_rows(), parallel.num_rows(), "row count: {sql}");
    assert_eq!(
        serial.num_columns(),
        parallel.num_columns(),
        "column count: {sql}"
    );
    for c in 0..serial.num_columns() {
        assert_eq!(
            serial.column(c).dtype(),
            parallel.column(c).dtype(),
            "dtype of column {c}: {sql}"
        );
        for r in 0..serial.num_rows() {
            let (a, b) = (serial.value(r, c), parallel.value(r, c));
            match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "float bits at ({r}, {c}): {x} vs {y}: {sql}"
                ),
                _ => assert_eq!(a, b, "value at ({r}, {c}): {sql}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn parallel_and_serial_execution_bit_identical(
        rows in proptest::collection::vec(
            (0i64..5, proptest::option::of(-50i64..50), 0i64..8),
            1..120,
        ),
        partition_rows in 1usize..24,
    ) {
        let wh = load(&rows, partition_rows);
        for sql in QUERIES {
            wh.set_parallelism(1);
            let serial = wh.execute_sql(sql).unwrap().batch;
            wh.set_parallelism(4);
            let parallel = wh.execute_sql(sql).unwrap().batch;
            assert_bit_identical(&serial, &parallel, sql);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Skewed layouts are the scheduler's worst case: one ~90% partition,
    /// empty partitions, and 1-row tails. Serial in-memory execution is
    /// the oracle; every combination of parallelism {1, 4, 16} × memory
    /// budget {unbounded, 1 byte} must reproduce it bit-for-bit. The
    /// 1-byte budget forces every spill-capable operator out of core.
    /// Filter → Project queries are also pinned against the row
    /// interpreter over the unpartitioned table.
    #[test]
    fn skewed_partitions_bit_identical(
        rows in proptest::collection::vec(
            (0i64..5, proptest::option::of(-50i64..50), 0i64..8),
            30..140,
        ),
        tails in 1usize..6,
    ) {
        let wh = load_skewed(&rows, tails);
        let table = fact_batch(&rows);
        let mut cases: Vec<(&str, Batch)> = Vec::new();
        for sql in QUERIES {
            wh.set_parallelism(1);
            wh.set_memory_budget(None);
            cases.push((sql, wh.execute_sql(sql).unwrap().batch));
        }
        for sql in INTERP_QUERIES {
            cases.push((sql, interp_oracle(&wh.plan_sql(sql).unwrap(), &table)));
        }
        for (sql, oracle) in cases {
            for &parallelism in &[1usize, 4, 16] {
                wh.set_parallelism(parallelism);
                for budget in [None, Some(1)] {
                    wh.set_memory_budget(budget);
                    let got = wh.execute_sql(sql).unwrap().batch;
                    let what = format!("{sql} [p={parallelism} budget={budget:?}]");
                    assert_bit_identical(&oracle, &got, &what);
                }
            }
        }
    }
}

/// Deterministic worst-case layout, checked down to the scheduler
/// counters: `[empty, 36-row, empty, 1-row × 4, empty]` aggregates over
/// all 8 partitions at parallelism 4 and still matches the serial oracle
/// exactly.
#[test]
fn skewed_layout_stats_and_equivalence() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..40).map(|i| (i % 4, Some(i), i % 8)).collect();
    let wh = load_skewed(&rows, 4);
    let sql = "SELECT g, COUNT(*) AS c, SUM(v) AS s, AVG(d) AS a FROM t GROUP BY g";
    wh.set_parallelism(1);
    let oracle = wh.execute_sql(sql).unwrap().batch;

    wh.set_parallelism(4);
    let result = wh.execute_sql(sql).unwrap();
    assert_bit_identical(&oracle, &result.batch, sql);
    let partial = result
        .operators
        .iter()
        .find(|o| o.op.starts_with("Aggregate[partial]"))
        .unwrap();
    assert_eq!(partial.partitions, 8, "{partial:?}");
    let analyzed = wh.explain_analyze(sql).unwrap();

    // The pooled scheduler reports per-query counters: a 4-way
    // partition-parallel aggregate dispatches one task per partition, and
    // every task is accounted to either an own-queue pop or a steal.
    assert!(analyzed.contains("scheduler: tasks="), "{analyzed}");
    assert!(
        analyzed.contains("local=") && analyzed.contains("steals="),
        "{analyzed}"
    );
    let sched_line = analyzed
        .lines()
        .find(|l| l.starts_with("scheduler:"))
        .unwrap();
    let field = |k: &str| -> usize {
        sched_line
            .split_whitespace()
            .find_map(|t| t.strip_prefix(k))
            .unwrap()
            .parse()
            .unwrap()
    };
    let (tasks, local, steals) = (field("tasks="), field("local="), field("steals="));
    assert!(
        tasks >= 8,
        "parallel aggregate dispatched fewer tasks than partitions: {sched_line}"
    );
    assert_eq!(
        local + steals,
        tasks,
        "every task is an own-queue pop or a steal: {sched_line}"
    );
}

/// The split must actually engage: a grouped aggregate over a partitioned
/// scan plans as Final-over-Partial and reports per-operator stats.
#[test]
fn two_phase_split_visible_in_plan_and_stats() {
    let rows: Vec<(i64, Option<i64>, i64)> = (0..40).map(|i| (i % 4, Some(i), i % 8)).collect();
    let wh = load(&rows, 8); // 5 partitions
    let plan = wh
        .plan_sql("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    let explain = plan.explain();
    assert!(explain.contains("Aggregate[final]"), "{explain}");
    assert!(explain.contains("Aggregate[partial]"), "{explain}");

    wh.set_parallelism(4);
    let result = wh
        .execute_sql("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    assert_eq!(result.batch.num_rows(), 4);
    assert_eq!(result.partitions_scanned, 5);
    let ops: Vec<&str> = result.operators.iter().map(|o| o.op.as_str()).collect();
    assert!(
        ops.iter().any(|o| o.starts_with("Aggregate[final]")),
        "{ops:?}"
    );
    assert!(
        ops.iter().any(|o| o.starts_with("Aggregate[partial]")),
        "{ops:?}"
    );
    let partial = result
        .operators
        .iter()
        .find(|o| o.op.starts_with("Aggregate[partial]"))
        .unwrap();
    // 5 partitions × up to 4 groups each, merged down to 4 final groups.
    assert_eq!(partial.partitions, 5);
    assert!(partial.rows_out >= 4, "{partial:?}");
    let analyzed = wh
        .explain_analyze("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        .unwrap();
    assert!(analyzed.contains("Aggregate[partial]"), "{analyzed}");
    assert!(analyzed.contains("rows_out="), "{analyzed}");
}
