//! The server-side chain, replayed in process for the traced run.
//!
//! `SigmaService::run_query` is opaque from outside the service crate, so
//! the traced run repeats each request on an identically seeded service
//! through the same public functions the service uses:
//! `Tenancy::authenticate` → `Workbook::from_json` →
//! `SigmaService::compile_with_token` → per-stage `Warehouse::execute_sql`
//! (operator stats from `Warehouse::explain_analyze`) → for wire requests
//! `WireBatch::from_batch` and `encode_response`. Stage reuse mirrors the
//! query directory: a stage whose fingerprint ran before (and whose
//! result the warehouse still holds) is read back via `RESULT_SCAN`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sigma_cdw::Warehouse;
use sigma_core::Workbook;
use sigma_protocol::{Response, WireBatch, WireOutcome};
use sigma_service::SigmaService;
use sigma_value::{codec, Batch};

use crate::trace::{Recorder, SpanId};
use crate::Acc;

/// An identically seeded service the chain is replayed on.
pub struct Shadow {
    pub service: Arc<SigmaService>,
    pub warehouse: Arc<Warehouse>,
    pub token: String,
    /// Stage fingerprint → (query id, tables the stage read).
    reuse: HashMap<u128, (String, Vec<String>)>,
}

impl Shadow {
    pub fn new(service: Arc<SigmaService>, warehouse: Arc<Warehouse>, token: String) -> Shadow {
        Shadow {
            service,
            warehouse,
            token,
            reuse: HashMap::new(),
        }
    }

    /// Forget reusable stages that read `table` (a write changed it).
    pub fn invalidate_table(&mut self, table: &str) {
        let table = table.to_ascii_lowercase();
        self.reuse.retain(|_, (_, tables)| !tables.contains(&table));
    }

    /// Replay one request under `parent`; returns the answer.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        rec: &Recorder,
        req: u64,
        parent: SpanId,
        json: &str,
        element: &str,
        wire: bool,
        acc: &mut Acc,
    ) -> Result<Batch, String> {
        let chain = rec.open(req, Some(parent), "service.chain", true);
        let (auth, s) = rec.replay(req, Some(chain), "service.authenticate", || {
            self.service.tenancy.authenticate(&self.token)
        });
        auth.map_err(|e| e.to_string())?;
        acc.add("service.auth_us", span_ms(rec, s) * 1e3);
        let (wb, s) = rec.replay(req, Some(chain), "core.from_json", || {
            Workbook::from_json(json)
        });
        let wb = wb.map_err(|e| e.to_string())?;
        acc.add("core.from_json_ms", span_ms(rec, s));
        let (compiled, s) = rec.replay(req, Some(chain), "core.compile_with_token", || {
            self.service
                .compile_with_token(&self.token, "primary", &wb, element)
        });
        let compiled = compiled.map_err(|e| e.to_string())?;
        acc.add("core.compile_ms", span_ms(rec, s));
        acc.add("core.stages_per_plan", compiled.stages.nodes.len() as f64);
        acc.add("core.sql_bytes", compiled.sql.len() as f64);

        let mut executed = Vec::new();
        let batch = self.run_stages(rec, req, chain, &compiled.stages, acc, &mut executed)?;

        if wire {
            let (wb, from) = rec.replay(req, Some(chain), "protocol.from_batch", || {
                WireBatch::from_batch(&batch)
            });
            let (_, enc) = rec.replay(req, Some(from), "value.encode_batch", || {
                codec::encode_batch(&batch)
            });
            acc.add("value.encode_batch_ms", span_ms(rec, enc));
            let response = Response::Query(WireOutcome {
                batch: wb,
                query_id: String::new(),
                sql: compiled.sql,
                served_from: "warehouse".into(),
                queue_wait_us: 0,
                stage_hits: 0,
                stages_executed: 0,
                rows_scanned: 0,
            });
            let (frame, resp) = rec.replay(req, Some(chain), "protocol.encode_response", || {
                sigma_protocol::encode_response(&response)
            });
            frame.map_err(|e| e.to_string())?;
            acc.add(
                "protocol.response_encode_ms",
                span_ms(rec, from) + span_ms(rec, resp),
            );
        }
        rec.close(chain);
        acc.add("service.chain_ms", span_ms(rec, chain));
        // Operator self times and scheduler counts: each executed stage
        // again, untimed and outside the chain, rendered by EXPLAIN ANALYZE.
        for sql in executed {
            if let Ok(text) = self.warehouse.explain_analyze(&sql) {
                let ex = parse_explain(&text);
                for (kind, ms) in ex.self_ms {
                    acc.add(kind, ms);
                }
                acc.add("cdw.sched_tasks", ex.tasks as f64);
                acc.add("cdw.sched_steals", ex.steals as f64);
            }
        }
        Ok(batch)
    }

    /// Execute the stage DAG with directory-style prefix reuse.
    fn run_stages(
        &mut self,
        rec: &Recorder,
        req: u64,
        chain: SpanId,
        plan: &sigma_core::StagePlan,
        acc: &mut Acc,
        executed: &mut Vec<String>,
    ) -> Result<Batch, String> {
        let n = plan.nodes.len();
        let mut reuse: Vec<Option<String>> = vec![None; n];
        let mut needed = vec![false; n];
        needed[n - 1] = true;
        for idx in (0..n).rev() {
            if !needed[idx] {
                continue;
            }
            if let Some((qid, _)) = self.reuse.get(&plan.nodes[idx].fingerprint.0) {
                if self.warehouse.touch_result(qid) {
                    reuse[idx] = Some(qid.clone());
                    continue;
                }
            }
            for &input in &plan.nodes[idx].inputs {
                needed[input] = true;
            }
        }
        let dialect = self.warehouse.dialect();
        let mut qids: HashMap<usize, String> = HashMap::new();
        let mut last = None;
        for idx in 0..n {
            if let Some(qid) = &reuse[idx] {
                qids.insert(idx, qid.clone());
                continue;
            }
            if !needed[idx] {
                continue;
            }
            let node = &plan.nodes[idx];
            let mut query = node.query.clone();
            let scans: HashMap<String, String> = node
                .inputs
                .iter()
                .map(|&i| (plan.nodes[i].name.to_ascii_lowercase(), qids[&i].clone()))
                .collect();
            sigma_sql::substitute_result_scans(&mut query, &scans);
            let sql = sigma_sql::printer::print_query(&query, &dialect);
            let (result, s) = rec.replay(req, Some(chain), "cdw.execute_sql", || {
                self.warehouse.execute_sql(&sql)
            });
            let result = result.map_err(|e| e.to_string())?;
            acc.add("cdw.execute_ms", span_ms(rec, s));
            acc.add("cdw.scan_partitions", result.partitions_scanned as f64);
            acc.add("cdw.spilled_bytes", result.spilled_bytes as f64);
            executed.push(sql);
            self.reuse.insert(
                node.fingerprint.0,
                (result.query_id.clone(), node.all_tables.clone()),
            );
            qids.insert(idx, result.query_id.clone());
            last = Some(result.batch);
        }
        acc.add("service.replayed_requests", 1.0);
        match last {
            Some(b) => Ok(b),
            None => self
                .warehouse
                .persisted_result(&qids[&(n - 1)])
                .ok_or_else(|| "reused sink result evicted".to_string()),
        }
    }
}

fn span_ms(rec: &Recorder, id: SpanId) -> f64 {
    rec.span(id).duration_ms()
}

/// Operator self times (`cdw.op.*_self_ms` keys) and scheduler counts
/// parsed from `Warehouse::explain_analyze` output.
#[derive(Debug, Default, PartialEq)]
pub struct Explain {
    pub self_ms: BTreeMap<&'static str, f64>,
    pub tasks: u64,
    pub steals: u64,
}

fn op_kind(label: &str) -> Option<&'static str> {
    let word = label.split([' ', '[', '(']).next().unwrap_or("");
    Some(match word {
        "Scan" | "ResultScan" | "Values" => "cdw.op.scan_self_ms",
        "Filter" => "cdw.op.filter_self_ms",
        "Project" => "cdw.op.project_self_ms",
        "Aggregate" | "Distinct" => "cdw.op.aggregate_self_ms",
        "Join" => "cdw.op.join_self_ms",
        "Sort" | "Limit" => "cdw.op.sort_self_ms",
        "Window" => "cdw.op.window_self_ms",
        _ => return None,
    })
}

pub fn parse_explain(text: &str) -> Explain {
    // (depth, kind, elapsed ms) per operator line, in pre-order.
    let mut ops: Vec<(usize, Option<&'static str>, f64)> = Vec::new();
    let mut out = Explain::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("scheduler:") {
            for kv in rest.split_whitespace() {
                match kv.split_once('=') {
                    Some(("tasks", v)) => out.tasks = v.parse().unwrap_or(0),
                    Some(("steals", v)) => out.steals = v.parse().unwrap_or(0),
                    _ => {}
                }
            }
            continue;
        }
        let Some(elapsed) = line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("elapsed="))
            .and_then(|v| v.trim_end_matches("ms").parse::<f64>().ok())
        else {
            continue;
        };
        let indent = line.len() - line.trim_start().len();
        ops.push((indent / 2, op_kind(line.trim_start()), elapsed));
    }
    for i in 0..ops.len() {
        let (depth, kind, elapsed) = ops[i];
        let children: f64 = ops[i + 1..]
            .iter()
            .take_while(|(d, _, _)| *d > depth)
            .filter(|(d, _, _)| *d == depth + 1)
            .map(|(_, _, e)| e)
            .sum();
        if let Some(kind) = kind {
            *out.self_ms.entry(kind).or_default() += (elapsed - children).max(0.0);
        }
    }
    out
}

/// Per-layer metrics derived from the replayed chains, per replayed
/// request.
pub fn chain_layers(out: &mut BTreeMap<&'static str, f64>, acc: &Acc) {
    let reqs = acc.count("service.replayed_requests").max(1) as f64;
    for name in [
        "service.auth_us",
        "core.from_json_ms",
        "core.compile_ms",
        "core.stages_per_plan",
        "core.sql_bytes",
        "cdw.execute_ms",
        "value.encode_batch_ms",
        "protocol.response_encode_ms",
    ] {
        out.insert(name, acc.mean(name));
    }
    for name in [
        "cdw.op.scan_self_ms",
        "cdw.op.filter_self_ms",
        "cdw.op.project_self_ms",
        "cdw.op.aggregate_self_ms",
        "cdw.op.join_self_ms",
        "cdw.op.sort_self_ms",
        "cdw.op.window_self_ms",
        "cdw.scan_partitions",
        "cdw.sched_tasks",
        "cdw.sched_steals",
        "cdw.spilled_bytes",
    ] {
        out.insert(name, acc.sum(name) / reqs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_self_times_subtract_children() {
        let text = "Sort (1 keys)  rows_in=10 rows_out=10 partitions=1 elapsed=10.000ms eval_ns=0\n\
                    \x20 Aggregate[final] (groups=1, aggs=1)  rows_in=5 rows_out=10 partitions=1 elapsed=7.000ms eval_ns=0\n\
                    \x20   Scan flights  rows_in=0 rows_out=5 partitions=4 elapsed=2.500ms eval_ns=0\n\
                    \x20 Scan other  rows_in=0 rows_out=5 partitions=1 elapsed=1.000ms eval_ns=0\n\
                    memory: budget=unbounded spilled_bytes=0 spill_rounds=0\n\
                    scheduler: tasks=12 local=10 steals=2 unparks=1\n";
        let ex = parse_explain(text);
        assert_eq!(ex.tasks, 12);
        assert_eq!(ex.steals, 2);
        assert!((ex.self_ms["cdw.op.sort_self_ms"] - 2.0).abs() < 1e-9);
        assert!((ex.self_ms["cdw.op.aggregate_self_ms"] - 4.5).abs() < 1e-9);
        assert!((ex.self_ms["cdw.op.scan_self_ms"] - 3.5).abs() < 1e-9);
    }
}
