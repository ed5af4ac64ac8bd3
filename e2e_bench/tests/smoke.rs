//! Short runs of every workload, untraced and traced: the answer checks
//! pass, and a deliberately corrupted answer fails them.
//! Run with `--release`; the cold workload loads 200k rows.

use sigma_e2e_bench::{cold, tab, wire, Args, RunResult};

fn args(workload: &str, trace: bool, corrupt: bool) -> Args {
    Args {
        workload: workload.into(),
        seed: 11,
        seconds: 0.2,
        trace,
        corrupt,
    }
}

fn assert_clean(r: &RunResult) {
    assert!(r.checks.attempted > 0);
    assert_eq!(r.checks.failed(), 0, "{:?}", r.checks);
    assert!(!r.window.latencies_ms.is_empty());
}

#[test]
fn scenarios_cold_smoke() {
    let r = cold::run(&args("scenarios_cold", true, false)).unwrap();
    assert_clean(&r);
    assert_eq!(r.layers["service.directory_hit_ratio"], 0.0);
    assert!(r.layers["cdw.scan_partitions"] >= 2.0, "{:?}", r.layers);
    assert!(r.layers["cdw.self_ms"] > 0.0);
    let r = cold::run(&args("scenarios_cold", false, true)).unwrap();
    assert!(r.checks.wrong >= 1, "{:?}", r.checks);
}

#[test]
fn edit_wire_smoke() {
    let r = wire::run(&args("edit_wire", false, false)).unwrap();
    assert_clean(&r);
    let r = wire::run(&args("edit_wire", true, false)).unwrap();
    assert_clean(&r);
    assert!(r.layers["protocol.response_decode_ms"] > 0.0);
    assert!(r.layers["protocol.armor_ratio"] > 1.0);
    let r = wire::run(&args("edit_wire", false, true)).unwrap();
    assert!(r.checks.wrong >= 1, "{:?}", r.checks);
}

#[test]
fn tab_edit_write_smoke() {
    let r = tab::run(&args("tab_edit_write", false, false)).unwrap();
    assert_clean(&r);
    let writes = r.window.extra.iter().find(|e| e.0 == "writes").unwrap().1;
    assert!(writes >= 1.0, "no write in the smoke run");
    assert_eq!(r.checks.writes_probed as f64, writes);
    let r = tab::run(&args("tab_edit_write", true, false)).unwrap();
    assert_clean(&r);
    assert!(r.layers["browser.source.browser_cache_ratio"] > 0.0);
    let stale = r.layers["browser.stale_without_reinstall_ratio"];
    assert!((0.0..=1.0).contains(&stale), "{stale}");
    let r = tab::run(&args("tab_edit_write", false, true)).unwrap();
    assert!(r.checks.failed() >= 1, "{:?}", r.checks);
}
