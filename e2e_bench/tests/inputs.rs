//! The generated inputs: deterministic per seed, and request-unique so
//! that directory misses come from the design.

use std::collections::BTreeSet;

use sigma_cdw::WarehouseConfig;
use sigma_e2e_bench::cold;
use sigma_e2e_bench::gen::{self, Scenario, SCENARIOS, WIRE_SCRIPT};
use sigma_value::codec;

/// Every input a run of each workload hands the program, serialized.
fn inputs(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for rows in [gen::WIRE_ROWS, gen::TAB_ROWS] {
        let batch = sigma_flights::generate_flights(&gen::flights_config(rows, seed));
        out.extend(codec::encode_batch(&batch));
    }
    let augmented = sigma_workbook::demo::augmentation_workbook();
    for i in 0..6 {
        let sc = SCENARIOS[i % 3];
        let wb = gen::cold_request(sc.workbook(&augmented), gen::unique(seed, i as u64));
        out.extend(wb.to_json().unwrap().into_bytes());
    }
    for (i, step) in WIRE_SCRIPT.iter().enumerate() {
        let wb = gen::wire_request(*step, gen::wire_threshold(seed, i as u64));
        out.extend(wb.to_json().unwrap().into_bytes());
    }
    for t in gen::tab_thresholds(seed) {
        out.extend(t.to_le_bytes());
    }
    out.extend(format!("{:?}", gen::tab_script(seed, 200, 3)).into_bytes());
    out
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    assert_eq!(inputs(7), inputs(7));
    assert_ne!(inputs(7), inputs(8));
}

/// Root fingerprints of the first `n` requests of `scenarios_cold` and
/// `edit_wire` for a seed, compiled against a small warehouse.
fn root_fingerprints(env: &cold::ColdEnv, seed: u64, n: u64) -> Vec<u128> {
    let mut out = Vec::new();
    for i in 0..n {
        let sc: Scenario = SCENARIOS[(i % 3) as usize];
        let wb = gen::cold_request(sc.workbook(&env.augmented), gen::unique(seed, i));
        let step = WIRE_SCRIPT[(i % 4) as usize];
        let wire = gen::wire_request(step, gen::wire_threshold(seed, i));
        for (wb, element) in [(wb, sc.element()), (wire, "Flights")] {
            let compiled = env
                .service
                .compile_with_token(&env.token, "primary", &wb, element)
                .unwrap();
            out.push(compiled.stages.root_fingerprint().0);
        }
    }
    out
}

#[test]
fn two_seeds_give_disjoint_root_fingerprints() {
    let env = cold::build(1, 2_000, WarehouseConfig::default());
    let a = root_fingerprints(&env, 1, 24);
    let b = root_fingerprints(&env, 2, 24);
    let set_a: BTreeSet<u128> = a.iter().copied().collect();
    let set_b: BTreeSet<u128> = b.iter().copied().collect();
    // Within a seed every request is new to the directory ...
    assert_eq!(set_a.len(), a.len());
    assert_eq!(set_b.len(), b.len());
    // ... and no request of one seed is one of the other's.
    assert!(set_a.is_disjoint(&set_b));
}

#[test]
fn cold_literal_is_result_neutral() {
    let env = cold::build(3, 3_000, WarehouseConfig::default());
    for (i, sc) in SCENARIOS.iter().enumerate() {
        let plain = sc.workbook(&env.augmented).to_json().unwrap();
        let cold = gen::cold_request(sc.workbook(&env.augmented), gen::unique(3, i as u64))
            .to_json()
            .unwrap();
        let a = env.query(&plain, sc.element()).unwrap().batch;
        let b = env.query(&cold, sc.element()).unwrap().batch;
        assert_eq!(
            codec::encode_batch(&a),
            codec::encode_batch(&b),
            "{}",
            sc.name()
        );
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let names = sigma_e2e_bench::END_TO_END
        .iter()
        .chain(sigma_e2e_bench::PER_LAYER)
        .map(|(n, _)| *n)
        .chain(sigma_e2e_bench::WORKLOADS.iter().copied());
    let mut count = 0;
    for name in names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
        count += 1;
    }
    assert_eq!(text.matches("\"name\":").count(), count);
}
