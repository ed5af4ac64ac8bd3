//! Deeply nested input from the network must cost the sender an error
//! reply, never the server process. Each parser that reads
//! client-controlled text — the JSON codec under the wire protocol and
//! workbook documents, the formula parser, and the SQL parser — bounds
//! its nesting depth and returns a typed error past it, on the default
//! thread stack the server's session threads run on.
//!
//! The server test sends the historic crash frame (10k nested `[`,
//! unauthenticated) and workbooks with deeply nested formulas and SQL
//! over a live socket, and checks that a concurrent well-behaved
//! session's answer stays byte-identical to the in-process answer.

use std::io::Write;
use std::net::TcpStream;

use sigma_protocol::{ErrorKind, Response, WirePriority};
use sigma_server::{serve, ClientError, QueryReply, SigmaClient};
use sigma_workbook::core::document::ElementKind;
use sigma_workbook::core::table::{ColumnDef, DataSource, Level, TableSpec};
use sigma_workbook::core::Workbook;
use sigma_workbook::demo;
use sigma_workbook::service::workload::Priority;
use sigma_workbook::service::QueryRequest;

const DEPTH: usize = 100_000;
/// Nesting for payloads embedded in workbook JSON: far past every
/// parser's limit, yet short enough that the string stays small.
const EMBEDDED_DEPTH: usize = 1_000;

fn nested_array(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

/// Run `f` on a fresh thread with the default stack size; a stack
/// overflow aborts the whole test binary, so reaching the assertion at
/// all is half the check.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f)
        .join()
        .expect("parser thread panicked")
}

fn carriers_workbook(source: DataSource, formula: &str) -> String {
    let mut t = TableSpec::new(source);
    t.add_column(ColumnDef::source("Carrier", "carrier"))
        .unwrap();
    t.add_level(1, Level::keyed("By Carrier", vec!["Carrier".into()]))
        .unwrap();
    t.add_column(ColumnDef::formula("Flights", formula, 1))
        .unwrap();
    t.detail_level = 1;
    let mut wb = Workbook::new(Some("hostile"));
    wb.add_element(0, "ByCarrier", ElementKind::Table(t))
        .unwrap();
    wb.to_json().unwrap()
}

fn flights() -> DataSource {
    DataSource::WarehouseTable {
        table: "flights".into(),
    }
}

#[test]
fn parsers_reject_deep_nesting_with_errors() {
    let json = nested_array(DEPTH);
    assert!(on_default_stack(move || Workbook::from_json(&json).is_err()));
    let json = format!("{{\"elements\": {}}}", nested_array(DEPTH));
    assert!(on_default_stack(move || Workbook::from_json(&json).is_err()));

    let formula = format!("{}1{}", "(".repeat(DEPTH), ")".repeat(DEPTH));
    let err = on_default_stack(move || sigma_workbook::expr::parse_formula(&formula).unwrap_err());
    assert!(err.message.contains("nesting"), "{err}");

    let sql = format!("SELECT {}1{}", "(".repeat(DEPTH), ")".repeat(DEPTH));
    let err = on_default_stack(move || sigma_workbook::sql::parse_statement(&sql).unwrap_err());
    assert!(err.message.contains("nesting"), "{err}");
}

#[test]
fn server_answers_deep_nesting_with_bad_request_and_keeps_serving() {
    let (service, token) = demo::demo_service(demo::demo_warehouse(2_000));
    let handle = serve(service, "127.0.0.1:0").expect("bind");

    // A well-behaved session, open before and after the attacks.
    let mut client = SigmaClient::connect(handle.addr()).expect("connect");
    client.auth(&token).expect("auth");
    client.open_session("primary").expect("open session");
    let good = carriers_workbook(flights(), "Count()");
    let local = handle
        .service()
        .run_query(&QueryRequest {
            token: &token,
            connection: "primary",
            workbook_json: &good,
            element: "ByCarrier",
            priority: Priority::Interactive,
        })
        .expect("in-process query");
    let expected = sigma_workbook::value::codec::encode_batch(&local.batch);
    let mut check_good_session = |when: &str| {
        let QueryReply::Ok(remote) = client
            .query_element(&good, "ByCarrier", WirePriority::Interactive, None)
            .expect("query")
        else {
            panic!("unexpected shed on an idle server");
        };
        assert_eq!(
            sigma_workbook::value::codec::encode_batch(&remote.batch),
            expected,
            "networked answer diverged from in-process {when}"
        );
    };
    check_good_session("before the attacks");

    // The historic crash: one unauthenticated ~20 KB frame of 10k nested
    // arrays gets a BadRequest reply.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    sigma_protocol::write_frame(&mut raw, nested_array(10_000).as_bytes()).expect("send");
    raw.flush().unwrap();
    match sigma_protocol::read_response(&mut raw).expect("reply to the hostile frame") {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::BadRequest, "{message}");
            assert!(message.contains("recursion limit"), "{message}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    check_good_session("after the hostile frame");

    // Authenticated sessions carrying deep formulas and deep raw SQL
    // inside otherwise valid workbooks get error replies too. (The
    // compiler reports an underivable raw-SQL schema without the parse
    // error's text, so that reply is only checked to be an error.)
    let mut attacker = SigmaClient::connect(handle.addr()).expect("connect");
    attacker.auth(&token).expect("auth");
    attacker.open_session("primary").expect("open session");
    let n = EMBEDDED_DEPTH;
    let deep_formula = format!("{}Count(){}", "(".repeat(n), ")".repeat(n));
    let deep_sql = DataSource::RawSql {
        sql: format!(
            "SELECT * FROM {}flights{}",
            "(SELECT * FROM ".repeat(n),
            ") x".repeat(n)
        ),
    };
    for (what, workbook, reason) in [
        (
            "formula",
            carriers_workbook(flights(), &deep_formula),
            "nesting",
        ),
        ("sql", carriers_workbook(deep_sql, "Count()"), ""),
    ] {
        match attacker.query_element(&workbook, "ByCarrier", WirePriority::Interactive, None) {
            Err(ClientError::Server { message, .. }) => {
                assert!(message.contains(reason), "{what}: {message}")
            }
            Err(e) => panic!("{what}: expected an error reply, got {e}"),
            Ok(_) => panic!("{what}: deep nesting was accepted"),
        }
    }
    attacker.ping().expect("attacker session still serves");
    check_good_session("after the deep workbooks");

    client.close().expect("close");
    handle.shutdown();
}
