//! `tab_edit_write`: one `BrowserSession` (no simulated network latency)
//! working the augmentation workbook interactively: filter tweaks,
//! formula and grouping edits, undo/redo back to earlier states, and
//! seeded writes — input-table cell fixes sent with `propagate_edits`,
//! each followed by `on_element_edited` and a re-read. The 24 view states
//! fit every cache.
//!
//! That re-read is timed and checked, but today it can be stale: the tab
//! keeps stage-cache entries whose fingerprints do not change when table
//! contents do. Its mismatches are counted apart
//! (`stale_without_reinstall`), not as failures. The tab then re-installs
//! the edited table in its local engine, untimed, and every later read
//! must be right; the cost of refilling the caches lands in those reads.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use sigma_browser::{BrowserSession, Source};
use sigma_core::{CompileOptions, Compiler, Workbook};
use sigma_value::{codec, Batch, Value};
use sigma_workbook::demo::WarehouseSchemas;

use crate::cold::{self, ColdEnv};
use crate::gen::{self, TabOp, View, TAB_GROUPINGS, TAB_THRESHOLDS};
use crate::replay::Shadow;
use crate::trace::Recorder;
use crate::{stats, Acc, Args, Checks, RunResult, Window};
use sigma_cdw::WarehouseConfig;

/// Dirty airport codes the writes toggle: 2 codes give 4 input-table
/// contents, each checked against the oracle in all 24 views.
const WRITABLE: usize = 2;

/// One dirty input-table row a write can fix or dirty again.
#[derive(Debug, Clone)]
pub struct Dirty {
    pub row_id: u64,
    pub lower: String,
    pub upper: String,
    /// Fixing the code changes how many flights find a city.
    pub visible: bool,
}

pub struct TabEnv {
    pub env: ColdEnv,
    pub session: BrowserSession,
    /// The warehouse table the input element is projected to.
    pub table: String,
    pub dirty: Vec<Dirty>,
    pub thresholds: Vec<f64>,
}

/// The writable dirty rows: the first [`WRITABLE`] in table order whose
/// fix is visible in the answer (the code is some flight's origin and the
/// city cell is not blank); invisible ones only when too few are visible.
pub fn dirty_rows(env: &ColdEnv) -> Result<Vec<Dirty>, String> {
    let origins: BTreeSet<String> = {
        let r = env
            .warehouse
            .execute_sql("SELECT DISTINCT origin FROM flights")
            .map_err(|e| e.to_string())?;
        (0..r.batch.num_rows())
            .map(|i| r.batch.value(i, 0).render())
            .collect()
    };
    let input = input_spec(&env.augmented);
    let code = input.column_index("code").ok_or("no code column")?;
    let city = input.column_index("city").ok_or("no city column")?;
    let mut dirty: Vec<Dirty> = input
        .rows
        .iter()
        .filter_map(|(id, values)| {
            let lower = values[code].render();
            let upper = lower.to_uppercase();
            (lower != upper).then(|| Dirty {
                row_id: *id,
                visible: origins.contains(&upper)
                    && !matches!(values[city], Value::Null)
                    && !values[city].render().is_empty(),
                lower,
                upper,
            })
        })
        .collect();
    dirty.sort_by_key(|d| !d.visible);
    dirty.truncate(WRITABLE);
    if dirty.is_empty() {
        return Err("the pasted airports table has no dirty codes".into());
    }
    Ok(dirty)
}

fn input_spec(wb: &Workbook) -> &sigma_core::editable::InputTableSpec {
    match &wb.element("Airport Info").expect("input element").kind {
        sigma_core::ElementKind::Input(t) => t,
        _ => panic!("Airport Info is an input table"),
    }
}

pub fn build(seed: u64) -> Result<TabEnv, String> {
    let env = cold::build(seed, gen::TAB_ROWS, WarehouseConfig::default());
    let session = BrowserSession::new(env.service.clone(), env.token.clone(), "primary");
    let policy = session.prefetch_policy.clone();
    session.prefetch(&env.warehouse, &policy);
    let table = input_spec(&env.augmented)
        .warehouse_table
        .clone()
        .ok_or("input table not projected")?;
    Ok(TabEnv {
        dirty: dirty_rows(&env)?,
        thresholds: gen::tab_thresholds(seed),
        env,
        session,
        table,
    })
}

/// Every view state, in a fixed order (the warm-up visits each once).
pub fn all_views() -> Vec<View> {
    let mut v = Vec::new();
    for threshold in 0..TAB_THRESHOLDS {
        for formula in [false, true] {
            for grouping in 0..TAB_GROUPINGS {
                v.push(View {
                    threshold,
                    formula,
                    grouping,
                });
            }
        }
    }
    v
}

fn setup(seed: u64) -> Result<(TabEnv, f64), String> {
    let t = Instant::now();
    let tab = build(seed)?;
    for view in all_views() {
        let wb = gen::apply_view(&tab.env.augmented, view, &tab.thresholds);
        tab.session
            .query_element(&wb, "Flights")
            .map_err(|e| e.to_string())?;
    }
    Ok((tab, t.elapsed().as_secs_f64()))
}

/// The view the write check compares: lowest threshold, ungrouped.
const WRITE_CHECK_VIEW: View = View {
    threshold: 0,
    formula: false,
    grouping: 0,
};

fn digest(batch: &Batch) -> u64 {
    stats::digest(&codec::encode_batch(batch))
}

fn origin_city_nulls(batch: &Batch) -> usize {
    batch
        .column_by_name("Origin City")
        .map_or(0, |c| c.null_count())
}

/// One answered read, kept for the after-the-window oracle check.
struct Read {
    view: View,
    /// Bit `i` set: dirty row `i` is currently fixed.
    mask: u32,
    digest: u64,
    /// The re-read right after a write, before the tab re-installs the
    /// edited table.
    write_probe: bool,
    /// The first read after that re-install.
    after_write: bool,
}

/// The tab's state between operations.
struct Tab {
    history: Vec<View>,
    cursor: usize,
    mask: u32,
}

impl Tab {
    fn view(&self) -> View {
        self.history[self.cursor]
    }

    fn push(&mut self, view: View) {
        self.history.truncate(self.cursor + 1);
        self.history.push(view);
        self.cursor += 1;
    }
}

/// The root span name of an op, and the name of its p50 in the report.
fn op_name(op: TabOp) -> (&'static str, &'static str) {
    match op {
        TabOp::FilterTweak(_) => ("op.filter_tweak", "p50_ms.filter_tweak"),
        TabOp::FormulaToggle => ("op.formula_toggle", "p50_ms.formula_toggle"),
        TabOp::Regroup => ("op.regroup", "p50_ms.regroup"),
        TabOp::Undo => ("op.undo", "p50_ms.undo"),
        TabOp::Redo => ("op.redo", "p50_ms.redo"),
        TabOp::Write(_) => ("op.write", "p50_ms.write"),
    }
}

/// Write `row` of the dirty set: toggle it between dirty and fixed,
/// propagate, and tell the tab the input element changed. Returns the
/// `propagate_edits` latency.
fn write(
    tab: &mut TabEnv,
    state: &mut Tab,
    row: usize,
    rec: Option<(&Recorder, u64, crate::trace::SpanId)>,
) -> Result<Duration, String> {
    let d = tab.dirty[row].clone();
    state.mask ^= 1 << row;
    let fixed = state.mask & (1 << row) != 0;
    let code = if fixed { d.upper } else { d.lower };
    let span = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| match rec {
        Some((rec, req, root)) => rec.time(req, Some(root), name, f).0,
        None => f(),
    };
    span("core.set_cell", &mut || {
        tab.env
            .augmented
            .input_table_mut("Airport Info")
            .expect("input element")
            .set_cell(d.row_id, "code", code.clone().into())
            .map_err(|e| e.to_string())
    })?;
    let t = Instant::now();
    span("service.propagate_edits", &mut || {
        tab.env
            .service
            .propagate_edits(
                &tab.env.token,
                "primary",
                &mut tab.env.augmented,
                "Airport Info",
            )
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    let propagate = t.elapsed();
    span("browser.on_element_edited", &mut || {
        tab.session.on_element_edited("Airport Info");
        Ok(())
    })?;
    Ok(propagate)
}

/// Re-install the edited input table in the tab's local engine, which
/// drops the stage-cache entries built on its old contents, then drop the
/// result-cache entries the write's first re-read stored.
fn reinstall(tab: &TabEnv) -> Result<(), String> {
    let batch = input_spec(&tab.env.augmented)
        .to_batch()
        .map_err(|e| e.to_string())?;
    tab.session
        .local
        .install_table(&tab.table, batch)
        .map_err(|e| e.to_string())?;
    tab.session.on_element_edited("Airport Info");
    Ok(())
}

/// Mirror a write on the shadow service the traced run replays on.
fn mirror_write(shadow: &mut Shadow, wb: &mut Workbook, table: &str, d: &Dirty, fixed: bool) {
    let code = if fixed { &d.upper } else { &d.lower };
    if let Some(input) = wb.input_table_mut("Airport Info") {
        let _ = input.set_cell(d.row_id, "code", code.clone().into());
    }
    let _ = shadow
        .service
        .propagate_edits(&shadow.token, "primary", wb, "Airport Info");
    shadow.invalidate_table(table);
}

struct Traced<'a> {
    rec: &'a Recorder,
    shadow: &'a mut Shadow,
    shadow_wb: &'a mut Workbook,
    acc: &'a mut Acc,
    sources: BTreeMap<&'static str, u64>,
}

fn source_key(s: Source) -> &'static str {
    match s {
        Source::BrowserCache => "browser.source.browser_cache_ratio",
        Source::LocalEngine => "browser.source.local_engine_ratio",
        Source::LocalDelta => "browser.source.local_delta_ratio",
        Source::LocalResidual => "browser.source.local_residual_ratio",
        Source::ServiceDirectory => "browser.source.service_directory_ratio",
        Source::Warehouse => "browser.source.warehouse_ratio",
    }
}

#[allow(clippy::too_many_arguments)]
fn window(
    tab: &mut TabEnv,
    state: &mut Tab,
    script: &[TabOp],
    next: &mut usize,
    seconds: Duration,
    checks: &mut Checks,
    reads: &mut Vec<Read>,
    mut traced: Option<&mut Traced>,
) -> Result<Window, String> {
    let mut w = Window::default();
    let mut propagate_ms = Vec::new();
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut after_write = false;
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() - paused < seconds {
        let op = script[*next % script.len()];
        let req = *next as u64;
        *next += 1;
        checks.attempted += 1;
        let t = Instant::now();
        let root = traced
            .as_ref()
            .map(|tr| tr.rec.open(req, None, op_name(op).0, false));
        let mut cur = state.view();
        match op {
            TabOp::FilterTweak(i) => {
                cur.threshold = i;
                state.push(cur);
            }
            TabOp::FormulaToggle => {
                cur.formula = !cur.formula;
                state.push(cur);
            }
            TabOp::Regroup => {
                cur.grouping = (cur.grouping + 1) % TAB_GROUPINGS;
                state.push(cur);
            }
            TabOp::Undo => state.cursor = state.cursor.saturating_sub(1),
            TabOp::Redo => state.cursor = (state.cursor + 1).min(state.history.len() - 1),
            TabOp::Write(row) => {
                let rec = traced.as_ref().map(|tr| (tr.rec, req, root.expect("root")));
                let lat = write(tab, state, row, rec)?;
                propagate_ms.push(stats::ms(lat));
            }
        }
        let view = state.view();
        let wb = gen::apply_view(&tab.env.augmented, view, &tab.thresholds);
        let answer = match (&mut traced, root) {
            (Some(tr), Some(root)) => {
                let (a, q) = tr.rec.time(req, Some(root), "browser.query_element", || {
                    tab.session.query_element(&wb, "Flights")
                });
                tr.rec.close(root);
                let elapsed = t.elapsed();
                let pause = Instant::now();
                if let TabOp::Write(row) = op {
                    let fixed = state.mask & (1 << row) != 0;
                    mirror_write(tr.shadow, tr.shadow_wb, &tab.table, &tab.dirty[row], fixed);
                }
                if let Ok(o) = &a {
                    explain_read(tr, tab, req, q, &wb, o.source)?;
                }
                paused += pause.elapsed();
                a.map(|o| (o, elapsed))
            }
            _ => tab
                .session
                .query_element(&wb, "Flights")
                .map(|o| (o, t.elapsed())),
        };
        let pause = Instant::now();
        match answer {
            Ok((o, elapsed)) => {
                w.latencies_ms.push(stats::ms(elapsed));
                by_kind
                    .entry(op_name(op).1)
                    .or_default()
                    .push(stats::ms(elapsed));
                reads.push(Read {
                    view,
                    mask: state.mask,
                    digest: digest(&o.batch),
                    write_probe: matches!(op, TabOp::Write(_)),
                    after_write: std::mem::take(&mut after_write),
                });
            }
            Err(e) => {
                checks.errors += 1;
                checks.note(format!("op {req}: {e}"));
            }
        }
        if let TabOp::Write(_) = op {
            reinstall(tab)?;
            after_write = true;
        }
        paused += pause.elapsed();
    }
    w.wall_s = (start.elapsed() - paused).as_secs_f64();
    w.extra
        .push(("write_p50_ms", stats::median(&propagate_ms), "ms"));
    w.extra.push(("writes", propagate_ms.len() as f64, "count"));
    for (name, lat) in by_kind {
        w.extra.push((name, stats::median(&lat), "ms"));
    }
    Ok(w)
}

/// Attach replayed children to a traced `query_element`: the client-side
/// compile for every tier below the result cache, and for answers that
/// went to the service, the JSON encoding and the server-side chain.
fn explain_read(
    tr: &mut Traced,
    tab: &TabEnv,
    req: u64,
    q: crate::trace::SpanId,
    wb: &Workbook,
    source: Source,
) -> Result<(), String> {
    *tr.sources.entry(source_key(source)).or_default() += 1;
    if source == Source::BrowserCache {
        return Ok(());
    }
    let schemas = WarehouseSchemas(tab.env.warehouse.clone());
    let (_, s) = tr.rec.replay(req, Some(q), "core.compile", || {
        Compiler::new(wb, &schemas, CompileOptions::default()).compile_element("Flights")
    });
    tr.acc.add("core.compile_ms", tr.rec.span(s).duration_ms());
    if matches!(source, Source::Warehouse | Source::ServiceDirectory) {
        let (json, s) = tr.rec.replay(req, Some(q), "core.to_json", || wb.to_json());
        tr.acc.add("core.to_json_ms", tr.rec.span(s).duration_ms());
        let json = json.map_err(|e| e.to_string())?;
        tr.shadow
            .replay(tr.rec, req, q, &json, "Flights", false, tr.acc)?;
    } else {
        tr.acc
            .add("browser.local_eval_ms", tr.rec.span(q).duration_ms());
    }
    Ok(())
}

/// Check every read against a fresh, cache-free `BrowserSession` on an
/// identically seeded service with stage caching off, brought to the
/// same input-table contents, and check that the oracle shows each write.
fn verify(
    seed: u64,
    dirty: &[Dirty],
    reads: &[Read],
    corrupt: bool,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut oracle = cold::build(seed, gen::TAB_ROWS, WarehouseConfig::default());
    oracle.service.set_stage_caching(false);
    let thresholds = gen::tab_thresholds(seed);
    // (mask, view) → (digest, null Origin City count) of the oracle's answer.
    let mut wanted: BTreeMap<u32, BTreeMap<View, (u64, usize)>> = BTreeMap::new();
    for r in reads {
        let views = wanted.entry(r.mask).or_default();
        views.insert(r.view, (0, 0));
        views.insert(WRITE_CHECK_VIEW, (0, 0));
    }
    let mut mask_now = 0u32;
    for (mask, views) in wanted.iter_mut() {
        for (i, d) in dirty.iter().enumerate() {
            if (mask ^ mask_now) & (1 << i) != 0 {
                let code = if mask & (1 << i) != 0 {
                    &d.upper
                } else {
                    &d.lower
                };
                oracle
                    .augmented
                    .input_table_mut("Airport Info")
                    .expect("input element")
                    .set_cell(d.row_id, "code", code.clone().into())
                    .map_err(|e| e.to_string())?;
            }
        }
        oracle
            .service
            .propagate_edits(
                &oracle.token,
                "primary",
                &mut oracle.augmented,
                "Airport Info",
            )
            .map_err(|e| e.to_string())?;
        mask_now = *mask;
        for (view, want) in views.iter_mut() {
            let fresh =
                BrowserSession::new(oracle.service.clone(), oracle.token.clone(), "primary");
            let wb = gen::apply_view(&oracle.augmented, *view, &thresholds);
            let o = fresh
                .query_element(&wb, "Flights")
                .map_err(|e| e.to_string())?;
            *want = (digest(&o.batch), origin_city_nulls(&o.batch));
        }
    }
    // The writes themselves must show: fixing a visible code leaves fewer
    // flights without an Origin City.
    for (&mask, views) in &wanted {
        for (i, d) in dirty.iter().enumerate() {
            let fixed = mask | 1 << i;
            if !d.visible || fixed == mask || !wanted.contains_key(&fixed) {
                continue;
            }
            let (dirty_nulls, fixed_nulls) = (
                views[&WRITE_CHECK_VIEW].1,
                wanted[&fixed][&WRITE_CHECK_VIEW].1,
            );
            if fixed_nulls >= dirty_nulls {
                checks.wrong += 1;
                checks.note(format!(
                    "fixing {} left {fixed_nulls} of {dirty_nulls} flights without an Origin City",
                    d.upper
                ));
            }
        }
    }
    let mut corrupt = corrupt;
    for r in reads {
        let want = wanted[&r.mask][&r.view].0;
        if r.write_probe {
            checks.writes_probed += 1;
            checks.stale_without_reinstall += u64::from(r.digest != want);
            continue;
        }
        checks.expect_digest(
            r.digest,
            want,
            r.after_write,
            std::mem::take(&mut corrupt),
            &format!("view {} with fixes {:b}", r.view.id(), r.mask),
        );
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut out = RunResult {
        clients: 1,
        ..RunResult::default()
    };
    // Set-up takes ~0.1 s here, so it is repeated more for a steady median.
    let setups = if args.trace { 1 } else { 9 };
    let mut tab = None;
    for _ in 0..setups {
        drop(tab.take());
        let (t, secs) = setup(args.seed)?;
        out.setup_s.push(secs);
        tab = Some(t);
    }
    let mut tab = tab.expect("at least one set-up");
    let script = gen::tab_script(args.seed, 1 << 16, tab.dirty.len());
    let mut state = Tab {
        history: vec![View {
            threshold: 0,
            formula: false,
            grouping: 0,
        }],
        cursor: 0,
        mask: 0,
    };
    let mut next = 0usize;
    let mut checks = Checks::default();
    let mut reads = Vec::new();
    let seconds = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    out.window = window(
        &mut tab,
        &mut state,
        &script,
        &mut next,
        seconds,
        &mut checks,
        &mut reads,
        None,
    )?;
    out.peak_rss_mb = stats::peak_rss_mb();
    if args.trace {
        let shadow_env = cold::build(args.seed, gen::TAB_ROWS, WarehouseConfig::default());
        let mut shadow_wb = shadow_env.augmented.clone();
        // Bring the shadow to the live input-table contents.
        for (i, d) in tab.dirty.iter().enumerate() {
            if state.mask & (1 << i) != 0 {
                let _ = shadow_wb
                    .input_table_mut("Airport Info")
                    .expect("input element")
                    .set_cell(d.row_id, "code", d.upper.clone().into());
            }
        }
        let mut shadow = Shadow::new(
            shadow_env.service.clone(),
            shadow_env.warehouse.clone(),
            shadow_env.token.clone(),
        );
        let _ = shadow.service.propagate_edits(
            &shadow.token,
            "primary",
            &mut shadow_wb,
            "Airport Info",
        );
        let rec = Recorder::new();
        let mut acc = Acc::default();
        let cache0 = tab.session.cache.stats();
        let stage0 = tab.session.local.stage_stats();
        let dir0 = tab
            .env
            .service
            .directory_stats("primary")
            .unwrap_or_default();
        let wl0 = tab
            .env
            .service
            .workload_stats("primary")
            .unwrap_or_default();
        let q0 = tab.env.warehouse.queries_executed();
        let mut tr = Traced {
            rec: &rec,
            shadow: &mut shadow,
            shadow_wb: &mut shadow_wb,
            acc: &mut acc,
            sources: BTreeMap::new(),
        };
        let traced = window(
            &mut tab,
            &mut state,
            &script,
            &mut next,
            seconds,
            &mut checks,
            &mut reads,
            Some(&mut tr),
        )?;
        let sources = std::mem::take(&mut tr.sources);
        let cache1 = tab.session.cache.stats();
        let stage1 = tab.session.local.stage_stats();
        let dir1 = tab
            .env
            .service
            .directory_stats("primary")
            .unwrap_or_default();
        let wl1 = tab
            .env
            .service
            .workload_stats("primary")
            .unwrap_or_default();
        let queries = tab.env.warehouse.queries_executed() - q0;
        let spans = rec.spans();
        let propagate: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "service.propagate_edits")
            .map(|s| s.duration_ms())
            .collect();
        let mut layers = BTreeMap::new();
        crate::common_layers(&mut layers, &spans, &acc, &out.window, &traced);
        crate::service_layers(&mut layers, &acc, &dir0, &dir1, wl1.shed - wl0.shed);
        let reads_n = traced.latencies_ms.len().max(1) as f64;
        for (name, n) in sources {
            layers.insert(name, n as f64 / reads_n);
        }
        let hit = |h1: u64, h0: u64, m1: u64, m0: u64| {
            crate::ratio((h1 - h0) as f64, (h1 - h0 + m1 - m0) as f64)
        };
        layers.insert(
            "browser.result_cache_hit_ratio",
            hit(cache1.hits, cache0.hits, cache1.misses, cache0.misses),
        );
        layers.insert(
            "browser.stage_cache_hit_ratio",
            hit(stage1.hits, stage0.hits, stage1.misses, stage0.misses),
        );
        layers.insert("browser.local_eval_ms", acc.mean("browser.local_eval_ms"));
        layers.insert(
            "browser.warehouse_queries_per_edit",
            queries as f64 / reads_n,
        );
        layers.insert("cdw.queries_executed", queries as f64 / reads_n);
        layers.insert("service.propagate_ms", stats::mean(&propagate));
        out.layers = layers;
        out.trace_file = crate::write_trace(&rec, &args.workload, args.seed);
    }
    verify(args.seed, &tab.dirty, &reads, args.corrupt, &mut checks)?;
    if args.trace {
        out.layers.insert(
            "browser.stale_without_reinstall_ratio",
            crate::ratio(
                checks.stale_without_reinstall as f64,
                checks.writes_probed as f64,
            ),
        );
    }
    out.checks = checks;
    Ok(out)
}
