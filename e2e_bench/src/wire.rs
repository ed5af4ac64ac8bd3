//! `edit_wire`: one client thread per connection ([`crate::WIRE_CLIENTS`])
//! against a live `sigma_server::serve` socket, closed loop. Each
//! connection replays the scripted edit session (load → filter tweak →
//! formula column → regroup) over a small flights table; detail steps
//! answer ~1.7k rows, and every step carries a new threshold literal, so
//! the query directory misses.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sigma_core::Workbook;
use sigma_protocol::{Request, Response, WirePriority};
use sigma_server::{QueryReply, ServerHandle, SigmaClient};
use sigma_value::codec;

use crate::cold::{self, ColdEnv};
use crate::gen::{self, WireStep, WIRE_SCRIPT};
use crate::replay::Shadow;
use crate::trace::{Recorder, SpanId};
use crate::{stats, Acc, Args, Checks, RunResult, Window};
use sigma_cdw::WarehouseConfig;

struct WireEnv {
    env: ColdEnv,
    handle: ServerHandle,
    clients: Vec<SigmaClient>,
}

/// One answered request, kept for the after-the-window checks.
struct Answer {
    req: u64,
    step: WireStep,
    threshold: f64,
    digest: u64,
    /// Traced requests: the workbook JSON and the round-trip span the
    /// replayed server chain is attached to.
    traced: Option<(String, SpanId)>,
}

fn connect(handle: &ServerHandle, token: &str) -> Result<SigmaClient, String> {
    let mut c = SigmaClient::connect(handle.addr()).map_err(|e| e.to_string())?;
    c.auth(token).map_err(|e| e.to_string())?;
    c.open_session("primary").map_err(|e| e.to_string())?;
    Ok(c)
}

/// One request as the product client sends it: serialize, send, wait,
/// decode.
fn query(client: &mut SigmaClient, wb: &Workbook) -> Result<QueryReply, String> {
    let json = wb.to_json().map_err(|e| e.to_string())?;
    client
        .query_element(&json, "Flights", WirePriority::Interactive, None)
        .map_err(|e| e.to_string())
}

fn setup(seed: u64, clients: usize, next: &mut u64) -> Result<(WireEnv, f64), String> {
    let t = Instant::now();
    let env = cold::build(seed, gen::WIRE_ROWS, WarehouseConfig::default());
    let handle =
        sigma_server::serve(env.service.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut conns = Vec::new();
    for _ in 0..clients {
        conns.push(connect(&handle, &env.token)?);
    }
    // Warm-up: one scripted session, its steps spread over the
    // connections.
    for (k, step) in WIRE_SCRIPT.into_iter().enumerate() {
        let wb = gen::wire_request(step, gen::wire_threshold(seed, *next));
        *next += 1;
        query(&mut conns[k % clients], &wb)?;
    }
    Ok((
        WireEnv {
            env,
            handle,
            clients: conns,
        },
        t.elapsed().as_secs_f64(),
    ))
}

fn op_name(step: WireStep) -> &'static str {
    match step {
        WireStep::Load => "op.load",
        WireStep::FilterTweak => "op.filter_tweak",
        WireStep::FormulaColumn => "op.formula_column",
        WireStep::Regroup => "op.regroup",
    }
}

/// A raw protocol connection for the traced window: frames are written
/// and read with the protocol crate's functions so that encode, round
/// trip and decode are timed apart.
struct RawConn {
    writer: TcpStream,
    reader: TcpStream,
}

impl RawConn {
    fn open(handle: &ServerHandle, token: &str) -> Result<RawConn, String> {
        let stream = TcpStream::connect(handle.addr()).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = RawConn {
            writer: stream,
            reader,
        };
        conn.call(&Request::Auth {
            token: token.to_string(),
        })?;
        conn.call(&Request::OpenSession {
            connection: "primary".into(),
        })?;
        Ok(conn)
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        sigma_protocol::write_request(&mut self.writer, req).map_err(|e| e.to_string())?;
        sigma_protocol::read_response(&mut self.reader).map_err(|e| e.to_string())
    }
}

/// Per-thread results of a window.
#[derive(Default)]
struct ClientRun {
    latencies_ms: Vec<f64>,
    rows_scanned: u64,
    answers: Vec<Answer>,
    checks: Checks,
    acc: Acc,
}

/// Client `c` of `n`: its `k`-th request has index `base + k * n + c`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    seed: u64,
    c: usize,
    n: usize,
    base: u64,
    seconds: Duration,
    start: Instant,
    mut conn: Conn,
    rec: Option<&Recorder>,
) -> (ClientRun, u64) {
    let mut run = ClientRun::default();
    let mut k = 0u64;
    while start.elapsed() < seconds || !k.is_multiple_of(4) {
        let step = WIRE_SCRIPT[(k % 4) as usize];
        let req = base + k * n as u64 + c as u64;
        k += 1;
        let threshold = gen::wire_threshold(seed, req);
        run.checks.attempted += 1;
        let result = match (&mut conn, rec) {
            (Conn::Client(client), _) => {
                let wb = gen::wire_request(step, threshold);
                let t = Instant::now();
                let reply = query(client, &wb);
                let elapsed = t.elapsed();
                reply.map(|r| match r {
                    QueryReply::Ok(o) => Some((o.batch, o.rows_scanned, elapsed, None)),
                    QueryReply::Overloaded { .. } => None,
                })
            }
            (Conn::Raw(raw), Some(rec)) => {
                if k % 4 == 1 {
                    let t = Instant::now();
                    if raw.call(&Request::Ping).is_ok() {
                        run.acc
                            .add("server.ping_us", t.elapsed().as_secs_f64() * 1e6);
                    }
                }
                traced_query(rec, raw, req, step, threshold, &mut run.acc)
            }
            (Conn::Raw(_), None) => {
                unreachable!("raw connections are only used traced")
            }
        };
        match result {
            Ok(Some((batch, rows, elapsed, traced))) => {
                run.latencies_ms.push(stats::ms(elapsed));
                run.rows_scanned += rows;
                run.answers.push(Answer {
                    req,
                    step,
                    threshold,
                    digest: stats::digest(&codec::encode_batch(&batch)),
                    traced,
                });
            }
            Ok(None) => run.checks.shed += 1,
            Err(e) => {
                run.checks.errors += 1;
                run.checks.note(format!("request {req}: {e}"));
            }
        }
    }
    (run, k)
}

enum Conn {
    Client(SigmaClient),
    Raw(RawConn),
}

type Answered = Option<(sigma_value::Batch, u64, Duration, Option<(String, SpanId)>)>;

fn traced_query(
    rec: &Recorder,
    raw: &mut RawConn,
    req: u64,
    step: WireStep,
    threshold: f64,
    acc: &mut Acc,
) -> Result<Answered, String> {
    let wb = gen::wire_request(step, threshold);
    let t = Instant::now();
    let root = rec.open(req, None, op_name(step), false);
    let (json, s) = rec.time(req, Some(root), "core.to_json", || wb.to_json());
    let json = json.map_err(|e| e.to_string())?;
    acc.add("core.to_json_ms", rec.span(s).duration_ms());
    let (frame, s) = rec.time(req, Some(root), "protocol.request_encode", || {
        sigma_protocol::encode_request(&Request::QueryElement {
            workbook_json: json.clone(),
            element: "Flights".into(),
            priority: WirePriority::Interactive,
            deadline_ms: None,
        })
    });
    let frame = frame.map_err(|e| e.to_string())?;
    acc.add(
        "protocol.request_encode_us",
        rec.span(s).duration_ms() * 1e3,
    );
    let (payload, rt) = rec.time(req, Some(root), "server.roundtrip", || {
        raw.writer
            .write_all(&frame)
            .map_err(|e| e.to_string())
            .and_then(|_| sigma_protocol::read_frame(&mut raw.reader).map_err(|e| e.to_string()))
    });
    let payload = payload?;
    acc.add("server.roundtrip_ms", rec.span(rt).duration_ms());
    let dec = rec.open(req, Some(root), "protocol.response_decode", false);
    let (resp, _) = rec.time(req, Some(dec), "protocol.decode_response", || {
        sigma_protocol::decode_response(&payload)
    });
    let outcome = match resp.map_err(|e| e.to_string())? {
        Response::Query(o) => o,
        Response::Overloaded { .. } => {
            rec.close(dec);
            rec.close(root);
            return Ok(None);
        }
        other => return Err(format!("unexpected response {other:?}")),
    };
    let (batch, tb) = rec.time(req, Some(dec), "protocol.to_batch", || {
        outcome.batch.to_batch()
    });
    rec.close(dec);
    rec.close(root);
    let elapsed = t.elapsed();
    let batch = batch.map_err(|e| e.to_string())?;
    acc.add("protocol.response_decode_ms", rec.span(dec).duration_ms());
    acc.add("protocol.response_bytes", payload.len() as f64);
    acc.add("service.queue_wait_ms", outcome.queue_wait_us as f64 / 1e3);
    acc.add("service.stages_executed", outcome.stages_executed as f64);
    // The codec share of `to_batch`, timed on the same bytes.
    let bytes = codec::encode_batch(&batch);
    let (_, s) = rec.replay(req, Some(tb), "value.decode_batch", || {
        codec::decode_batch(&bytes)
    });
    acc.add("value.decode_batch_ms", rec.span(s).duration_ms());
    acc.add("value.codec_bytes", bytes.len() as f64);
    Ok(Some((
        batch,
        outcome.rows_scanned,
        elapsed,
        Some((json, rt)),
    )))
}

/// Run one closed-loop window on every connection; the connections are
/// consumed (dropping one ends its server session).
fn window(
    seed: u64,
    conns: Vec<Conn>,
    base: &mut u64,
    seconds: Duration,
    rec: Option<&Recorder>,
) -> (Window, Vec<Answer>, Checks, Acc) {
    let n = conns.len();
    let start = Instant::now();
    let results: Mutex<Vec<(usize, ClientRun, u64)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (c, conn) in conns.into_iter().enumerate() {
            let results = &results;
            let b = *base;
            s.spawn(move || {
                let (run, k) = client_loop(seed, c, n, b, seconds, start, conn, rec);
                results.lock().expect("results").push((c, run, k));
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut w = Window {
        wall_s: wall,
        ..Window::default()
    };
    let mut answers = Vec::new();
    let mut checks = Checks::default();
    let mut acc = Acc::default();
    let mut rows = 0u64;
    let mut max_k = 0;
    let mut runs = results.into_inner().expect("results");
    runs.sort_by_key(|(c, _, _)| *c);
    for (_, run, k) in runs {
        w.latencies_ms.extend(run.latencies_ms);
        rows += run.rows_scanned;
        answers.extend(run.answers);
        checks.merge(run.checks);
        acc.merge(run.acc);
        max_k = max_k.max(k);
    }
    *base += max_k * n as u64;
    w.extra.push(("rows_per_s", rows as f64 / wall, "1/s"));
    answers.sort_by_key(|a| a.req);
    (w, answers, checks, acc)
}

/// Check every networked answer against the same request answered in
/// process by an identically seeded service.
fn verify(seed: u64, answers: &[Answer], corrupt: bool, checks: &mut Checks) {
    let oracle = cold::build(seed, gen::WIRE_ROWS, WarehouseConfig::default());
    for (i, a) in answers.iter().enumerate() {
        let json = gen::wire_request(a.step, a.threshold)
            .to_json()
            .expect("workbook serializes");
        match oracle.query(&json, "Flights") {
            Ok(o) => checks.expect_digest(
                a.digest,
                stats::digest(&codec::encode_batch(&o.batch)),
                false,
                corrupt && i == 0,
                &format!("wire request {}", a.req),
            ),
            Err(e) => {
                checks.errors += 1;
                checks.note(format!("oracle request {}: {e}", a.req));
            }
        }
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let clients = crate::WIRE_CLIENTS;
    let mut next = 0u64;
    let mut out = RunResult {
        clients,
        ..RunResult::default()
    };
    let setups = if args.trace { 1 } else { 3 };
    let mut env = None;
    for _ in 0..setups {
        if let Some(prev) = env.take() {
            shutdown(prev);
        }
        let (e, secs) = setup(args.seed, clients, &mut next)?;
        out.setup_s.push(secs);
        env = Some(e);
    }
    let mut env = env.expect("at least one set-up");
    let mut base = 1 << 12;
    let conns: Vec<Conn> = env.clients.drain(..).map(Conn::Client).collect();
    let seconds = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let (w, answers, mut checks, _) = window(args.seed, conns, &mut base, seconds, None);
    out.peak_rss_mb = stats::peak_rss_mb();
    verify(args.seed, &answers, args.corrupt, &mut checks);
    out.window = w;
    if !args.trace {
        out.checks = checks;
        shutdown(env);
        return Ok(out);
    }

    let mut raws = Vec::new();
    for _ in 0..clients {
        raws.push(Conn::Raw(RawConn::open(&env.handle, &env.env.token)?));
    }
    let rec = Recorder::new();
    let live = &env.env;
    let dir0 = live.service.directory_stats("primary").unwrap_or_default();
    let wl0 = live.service.workload_stats("primary").unwrap_or_default();
    let q0 = live.warehouse.queries_executed();
    let (traced, answers, tchecks, mut acc) =
        window(args.seed, raws, &mut base, seconds, Some(&rec));
    let dir1 = live.service.directory_stats("primary").unwrap_or_default();
    let wl1 = live.service.workload_stats("primary").unwrap_or_default();
    let queries = live.warehouse.queries_executed() - q0;
    checks.merge(tchecks);
    verify(args.seed, &answers, false, &mut checks);

    // Replay the server-side chain of every traced request.
    let shadow_env = cold::build(args.seed, gen::WIRE_ROWS, WarehouseConfig::default());
    let mut shadow = Shadow::new(
        shadow_env.service.clone(),
        shadow_env.warehouse.clone(),
        shadow_env.token.clone(),
    );
    for a in &answers {
        let Some((json, rt)) = &a.traced else {
            continue;
        };
        match shadow.replay(&rec, a.req, *rt, json, "Flights", true, &mut acc) {
            Ok(batch) => checks.expect_digest(
                stats::digest(&codec::encode_batch(&batch)),
                a.digest,
                false,
                false,
                &format!("replayed request {}", a.req),
            ),
            Err(e) => {
                checks.errors += 1;
                checks.note(format!("replay {}: {e}", a.req));
            }
        }
    }
    let ops = traced.latencies_ms.len().max(1) as f64;
    let mut layers = BTreeMap::new();
    crate::common_layers(&mut layers, &rec.spans(), &acc, &out.window, &traced);
    crate::service_layers(&mut layers, &acc, &dir0, &dir1, wl1.shed - wl0.shed);
    for name in [
        "protocol.request_encode_us",
        "protocol.response_decode_ms",
        "protocol.response_bytes",
        "value.decode_batch_ms",
        "value.codec_bytes",
        "server.roundtrip_ms",
        "server.ping_us",
    ] {
        layers.insert(name, acc.mean(name));
    }
    layers.insert(
        "protocol.armor_ratio",
        crate::ratio(
            acc.sum("protocol.response_bytes"),
            acc.sum("value.codec_bytes"),
        ),
    );
    layers.insert("cdw.queries_executed", queries as f64 / ops);
    out.layers = layers;
    out.trace_file = crate::write_trace(&rec, &args.workload, args.seed);
    out.checks = checks;
    shutdown(env);
    Ok(out)
}

fn shutdown(env: WireEnv) {
    for c in env.clients {
        let _ = c.close();
    }
    env.handle.shutdown();
}
