//! `scenarios_cold`: the paper's three §5 scenarios through
//! `SigmaService::run_query` in process, one caller, closed loop. Every
//! request carries a request-unique, result-neutral literal in its first
//! stage, so no request is answered from the query directory.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sigma_cdw::{Warehouse, WarehouseConfig};
use sigma_core::Workbook;
use sigma_flights::{load_airports, load_flights};
use sigma_service::workload::Priority;
use sigma_service::{QueryOutcome, QueryRequest, SigmaService};
use sigma_value::{codec, Batch};
use sigma_workbook::demo;

use crate::gen::{self, Scenario, SCENARIOS};
use crate::replay::Shadow;
use crate::trace::Recorder;
use crate::{stats, Acc, Args, Checks, RunResult, Window};

pub struct ColdEnv {
    pub warehouse: Arc<Warehouse>,
    pub service: Arc<SigmaService>,
    pub token: String,
    /// The augmentation workbook after `project_input_table`.
    pub augmented: Workbook,
    pub fact_rows: usize,
}

/// The `scenarios_cold` warehouse: queries run on every cpu, since the
/// default parallelism of 1 leaves the worker pool idle; and 32 persisted
/// results instead of 256, since its requests never read one back and 256
/// retained 200k-row stage results hold about 4 GiB.
pub fn cold_config() -> WarehouseConfig {
    WarehouseConfig {
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        max_persisted_results: 32,
        ..WarehouseConfig::default()
    }
}

/// Generate and load the data and project the input table.
pub fn build(seed: u64, rows: usize, config: WarehouseConfig) -> ColdEnv {
    let warehouse = Arc::new(Warehouse::new(config));
    let fact_rows =
        load_flights(&warehouse, &gen::flights_config(rows, seed)).expect("load flights");
    load_airports(&warehouse).expect("load airports");
    let (service, token) = demo::demo_service(warehouse.clone());
    let mut augmented = demo::augmentation_workbook();
    service
        .project_input_table(&token, "primary", &mut augmented, "Airport Info")
        .expect("project the pasted airports table");
    ColdEnv {
        warehouse,
        service,
        token,
        augmented,
        fact_rows,
    }
}

impl ColdEnv {
    pub fn query(&self, json: &str, element: &str) -> Result<QueryOutcome, String> {
        self.service
            .run_query(&QueryRequest {
                token: &self.token,
                connection: "primary",
                workbook_json: json,
                element,
                priority: Priority::Interactive,
            })
            .map_err(|e| e.to_string())
    }
}

/// The scenario's answer invariants; `Err` names the broken one.
pub fn invariants(sc: Scenario, batch: &Batch, fact_rows: usize) -> Result<(), String> {
    match sc {
        Scenario::Cohort => {
            let col = batch
                .schema()
                .index_of("Pct Active")
                .ok_or("cohort answer has no Pct Active")?;
            for r in 0..batch.num_rows() {
                let v = batch.value(r, col).as_f64().unwrap_or(0.0);
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("cohort Pct Active {v} outside [0, 1]"));
                }
            }
        }
        Scenario::Sessionization => {
            if batch.num_rows() == 0 {
                return Err("sessionization answer is empty".into());
            }
        }
        Scenario::Augmentation => {
            if batch.num_rows() != fact_rows {
                return Err(format!(
                    "augmentation rows {} != fact rows {fact_rows}",
                    batch.num_rows()
                ));
            }
        }
    }
    Ok(())
}

/// Reference digests: each scenario as the paper builds it (warehouse
/// table source, no literal change), answered once.
pub fn reference(env: &ColdEnv) -> Result<[u64; 3], String> {
    let mut out = [0u64; 3];
    for (i, sc) in SCENARIOS.iter().enumerate() {
        let wb = sc.workbook(&env.augmented);
        let json = wb.to_json().map_err(|e| e.to_string())?;
        let batch = env.query(&json, sc.element())?.batch;
        invariants(*sc, &batch, env.fact_rows)?;
        out[i] = stats::digest(&codec::encode_batch(&batch));
    }
    Ok(out)
}

/// Issues request-unique literals across setups and windows.
struct Requests {
    seed: u64,
    next: u64,
}

impl Requests {
    fn next(&mut self, env: &ColdEnv, sc: Scenario) -> (u64, Workbook) {
        let i = self.next;
        self.next += 1;
        (
            i,
            gen::cold_request(sc.workbook(&env.augmented), gen::unique(self.seed, i)),
        )
    }
}

fn setup(seed: u64, reqs: &mut Requests) -> Result<(ColdEnv, f64), String> {
    let t = Instant::now();
    let env = build(seed, gen::COLD_ROWS, cold_config());
    // Warm-up: one cold request per scenario.
    for sc in SCENARIOS {
        let (_, wb) = reqs.next(&env, sc);
        env.query(&wb.to_json().map_err(|e| e.to_string())?, sc.element())?;
    }
    Ok((env, t.elapsed().as_secs_f64()))
}

struct Ctx<'a> {
    env: &'a ColdEnv,
    refs: [u64; 3],
    corrupt: bool,
}

impl Ctx<'_> {
    fn check(&self, checks: &mut Checks, sc_idx: usize, batch: &Batch) {
        let sc = SCENARIOS[sc_idx];
        if let Err(e) = invariants(sc, batch, self.env.fact_rows) {
            checks.wrong += 1;
            checks.note(format!("{}: {e}", sc.name()));
            return;
        }
        let corrupt = self.corrupt && checks.attempted == 1;
        let got = stats::digest(&codec::encode_batch(batch));
        checks.expect_digest(got, self.refs[sc_idx], false, corrupt, sc.name());
    }
}

/// One closed-loop window of whole scenario rotations. With a recorder,
/// each request is traced and its server-side chain replayed on `shadow`.
fn window(
    ctx: &Ctx,
    args: &Args,
    seconds: Duration,
    reqs: &mut Requests,
    checks: &mut Checks,
    mut traced: Option<(&Recorder, &mut Shadow, &mut Acc)>,
) -> Window {
    let env = ctx.env;
    let first = (args.seed % 3) as usize;
    let mut w = Window::default();
    let mut rows_scanned = 0usize;
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() - paused < seconds {
        for k in 0..3 {
            let sc_idx = (first + k) % 3;
            let sc = SCENARIOS[sc_idx];
            let (i, wb) = reqs.next(env, sc);
            checks.attempted += 1;
            let t = Instant::now();
            let (result, elapsed) = match traced.as_mut() {
                None => {
                    let json = wb.to_json().expect("workbook serializes");
                    let result = env.query(&json, sc.element());
                    (result, t.elapsed())
                }
                Some((rec, shadow, acc)) => {
                    let root = rec.open(i, None, op_name(sc), false);
                    let (json, s) = rec.time(i, Some(root), "core.to_json", || {
                        wb.to_json().expect("workbook serializes")
                    });
                    acc.add("core.to_json_ms", rec.span(s).duration_ms());
                    let (result, rq) = rec.time(i, Some(root), "service.run_query", || {
                        env.query(&json, sc.element())
                    });
                    rec.close(root);
                    let elapsed = t.elapsed();
                    acc.add("service.run_query_ms", rec.span(rq).duration_ms());
                    let pause = Instant::now();
                    if let Err(e) = shadow.replay(rec, i, rq, &json, sc.element(), false, acc) {
                        checks.errors += 1;
                        checks.note(format!("replay {}: {e}", sc.name()));
                    }
                    paused += pause.elapsed();
                    (result, elapsed)
                }
            };
            let pause = Instant::now();
            match result {
                Ok(outcome) => {
                    w.latencies_ms.push(stats::ms(elapsed));
                    rows_scanned += outcome.rows_scanned;
                    if let Some((_, _, acc)) = traced.as_mut() {
                        acc.add("service.queue_wait_ms", stats::ms(outcome.queue_wait));
                        acc.add("service.stages_executed", outcome.stages_executed as f64);
                    }
                    ctx.check(checks, sc_idx, &outcome.batch);
                }
                Err(e) => {
                    checks.errors += 1;
                    checks.note(format!("{}: {e}", sc.name()));
                }
            }
            paused += pause.elapsed();
        }
    }
    w.wall_s = (start.elapsed() - paused).as_secs_f64();
    w.extra
        .push(("rows_per_s", rows_scanned as f64 / w.wall_s, "1/s"));
    w
}

fn op_name(sc: Scenario) -> &'static str {
    match sc {
        Scenario::Cohort => "op.cohort",
        Scenario::Sessionization => "op.sessionization",
        Scenario::Augmentation => "op.augmentation",
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut reqs = Requests {
        seed: args.seed,
        next: 0,
    };
    let mut out = RunResult {
        clients: 1,
        ..RunResult::default()
    };
    let setups = if args.trace { 1 } else { 3 };
    let mut env = None;
    for _ in 0..setups {
        // Drop the previous set-up before building the next.
        drop(env.take());
        let (e, secs) = setup(args.seed, &mut reqs)?;
        out.setup_s.push(secs);
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    let ctx = Ctx {
        refs: reference(&env)?,
        env: &env,
        corrupt: args.corrupt,
    };
    let mut checks = Checks::default();
    if !args.trace {
        out.window = window(&ctx, args, args.window(), &mut reqs, &mut checks, None);
        out.peak_rss_mb = stats::peak_rss_mb();
        out.checks = checks;
        return Ok(out);
    }

    let half = args.window() / 2;
    out.window = window(&ctx, args, half, &mut reqs, &mut checks, None);
    let shadow_env = build(args.seed, gen::COLD_ROWS, cold_config());
    let mut shadow = Shadow::new(
        shadow_env.service.clone(),
        shadow_env.warehouse.clone(),
        shadow_env.token.clone(),
    );
    let rec = Recorder::new();
    let mut acc = Acc::default();
    let dir0 = env.service.directory_stats("primary").unwrap_or_default();
    let wl0 = env.service.workload_stats("primary").unwrap_or_default();
    let q0 = env.warehouse.queries_executed();
    let traced = window(
        &ctx,
        args,
        half,
        &mut reqs,
        &mut checks,
        Some((&rec, &mut shadow, &mut acc)),
    );
    let dir1 = env.service.directory_stats("primary").unwrap_or_default();
    let wl1 = env.service.workload_stats("primary").unwrap_or_default();
    let ops = traced.latencies_ms.len().max(1) as f64;
    let mut layers = BTreeMap::new();
    crate::common_layers(&mut layers, &rec.spans(), &acc, &out.window, &traced);
    crate::service_layers(&mut layers, &acc, &dir0, &dir1, wl1.shed - wl0.shed);
    layers.insert(
        "cdw.queries_executed",
        (env.warehouse.queries_executed() - q0) as f64 / ops,
    );
    out.layers = layers;
    out.trace_file = crate::write_trace(&rec, &args.workload, args.seed);
    out.checks = checks;
    Ok(out)
}
