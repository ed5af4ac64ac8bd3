//! Seeded input generation. Everything the program under test receives —
//! flights rows, filter thresholds, result-neutral literals, the order of
//! edits and writes — is derived from the `--seed` argument here, so the
//! same seed always produces byte-identical inputs.

use sigma_core::table::{ColumnDef, DataSource, FilterPredicate, FilterSpec, Level, TableSpec};
use sigma_core::{ElementKind, Workbook};
use sigma_flights::FlightsConfig;
use sigma_value::Value;
use sigma_workbook::demo;

/// Fact rows for `scenarios_cold`: four default 64 Ki-row partitions.
pub const COLD_ROWS: usize = 200_000;
/// Fact rows for `edit_wire`: detail steps return ~1.7k rows.
pub const WIRE_ROWS: usize = 6_000;
/// Fact rows for `tab_edit_write`: above the browser's 10k-row prefetch
/// gate, so edits the stage cache cannot serve go to the service.
pub const TAB_ROWS: usize = 20_000;

/// SplitMix64: a tiny, dependency-free seeded generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049b_b133_111e);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The flights generator config for a workload and seed.
pub fn flights_config(rows: usize, seed: u64) -> FlightsConfig {
    FlightsConfig {
        rows,
        seed: Rng::new(seed).next_u64(),
        ..FlightsConfig::default()
    }
}

/// A request-unique value for request `i` of a run: the low 20 bits of
/// the seed in the high bits, the request index in the low 20. Two seeds
/// that differ in their low 20 bits therefore never share a literal, so
/// directory misses across seeds come from the design, not from chance.
pub fn unique(seed: u64, i: u64) -> u64 {
    ((seed & 0xf_ffff) << 20) | (i & 0xf_ffff)
}

// ---------------------------------------------------------------------
// scenarios_cold
// ---------------------------------------------------------------------

/// The paper's three §5 scenarios, in rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    Cohort,
    Sessionization,
    Augmentation,
}

pub const SCENARIOS: [Scenario; 3] = [
    Scenario::Cohort,
    Scenario::Sessionization,
    Scenario::Augmentation,
];

impl Scenario {
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Cohort => "cohort",
            Scenario::Sessionization => "sessionization",
            Scenario::Augmentation => "augmentation",
        }
    }

    /// The element the scenario's answer is read from.
    pub fn element(self) -> &'static str {
        match self {
            Scenario::Sessionization => "Service Life",
            _ => "Flights",
        }
    }

    /// The scenario workbook as the paper builds it. `augmented` is the
    /// augmentation workbook after `project_input_table`.
    pub fn workbook(self, augmented: &Workbook) -> Workbook {
        match self {
            Scenario::Cohort => demo::cohort_workbook(),
            Scenario::Sessionization => demo::sessionization_workbook(),
            Scenario::Augmentation => augmented.clone(),
        }
    }
}

/// Make a scenario request miss every service cache without changing its
/// answer: the fact-table source becomes raw SQL carrying a filter that
/// every row passes (`air_time` is never null and never negative) with a
/// request-unique literal. The literal sits in the first stage, so every
/// stage fingerprint of the DAG is new.
pub fn cold_request(mut wb: Workbook, nonce: u64) -> Workbook {
    let t = wb
        .table_mut("Flights")
        .expect("every scenario has a Flights table");
    t.source = DataSource::RawSql {
        sql: format!(
            "SELECT * FROM flights WHERE air_time > -{}.5",
            1_000_000_000 + nonce
        ),
    };
    wb
}

// ---------------------------------------------------------------------
// edit_wire
// ---------------------------------------------------------------------

/// One step of the scripted edit session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStep {
    Load,
    FilterTweak,
    FormulaColumn,
    Regroup,
}

pub const WIRE_SCRIPT: [WireStep; 4] = [
    WireStep::Load,
    WireStep::FilterTweak,
    WireStep::FormulaColumn,
    WireStep::Regroup,
];

/// A delay threshold in the gap of the generator's delay distribution
/// (near-zero delays stay below 10 minutes, the heavy tail starts at 15),
/// so every threshold selects the same rows while the SQL literal is new.
pub fn wire_threshold(seed: u64, i: u64) -> f64 {
    10.5 + 4.0 * unique(seed, i) as f64 / (1u64 << 40) as f64
}

/// The workbook state for the `i`-th wire request of a run.
pub fn wire_request(step: WireStep, threshold: f64) -> Workbook {
    let mut t = TableSpec::new(DataSource::WarehouseTable {
        table: "flights".into(),
    });
    for (name, col) in [
        ("Tail Number", "tail_number"),
        ("Carrier", "carrier"),
        ("Origin", "origin"),
        ("Flight Date", "flight_date"),
        ("Dep Delay", "dep_delay"),
    ] {
        t.add_column(ColumnDef::source(name, col))
            .expect("distinct column names");
    }
    t.filters.push(FilterSpec {
        column: "Dep Delay".into(),
        predicate: FilterPredicate::Range {
            min: Some(Value::Float(threshold)),
            max: None,
        },
    });
    if matches!(step, WireStep::FormulaColumn | WireStep::Regroup) {
        t.add_column(ColumnDef::formula("Delay Hours", "[Dep Delay] / 60.0", 0))
            .expect("new column");
    }
    if step == WireStep::Regroup {
        t.add_level(
            1,
            Level::keyed("By Route", vec!["Carrier".into(), "Origin".into()]),
        )
        .expect("level 1");
        t.add_column(ColumnDef::formula("Flights", "Count()", 1))
            .expect("new column");
        t.add_column(ColumnDef::formula("Avg Hours", "Avg([Delay Hours])", 1))
            .expect("new column");
        t.detail_level = 1;
    }
    let mut wb = Workbook::new(Some("Delays"));
    wb.add_element(0, "Flights", ElementKind::Table(t))
        .expect("fresh workbook");
    wb
}

// ---------------------------------------------------------------------
// tab_edit_write
// ---------------------------------------------------------------------

/// The view state of the augmentation workbook's Flights table that the
/// tab's edits move between. The working set is the product of the
/// seeded thresholds, formula on/off and the three groupings: 24 states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct View {
    pub threshold: usize,
    pub formula: bool,
    pub grouping: usize,
}

pub const TAB_THRESHOLDS: usize = 4;
pub const TAB_GROUPINGS: usize = 3;

impl View {
    pub fn id(self) -> usize {
        (self.threshold * 2 + self.formula as usize) * TAB_GROUPINGS + self.grouping
    }
}

/// One user action in the tab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TabOp {
    FilterTweak(usize),
    FormulaToggle,
    Regroup,
    Undo,
    Redo,
    /// Toggle one dirty airport code (fix it, or put the dirt back) and
    /// propagate the edit.
    Write(usize),
}

/// Seeded delay thresholds (minutes), one per filter position.
pub fn tab_thresholds(seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x7ab);
    [-10.0, 5.0, 20.0, 60.0]
        .iter()
        .map(|base| base + rng.unit())
        .collect()
}

/// Every block of [`TAB_BLOCK`] ops holds one filter tweak, formula
/// toggle, regrouping, undo, redo and write each. The repository's
/// scripted edit session (load → filter tweak → formula column → regroup)
/// uses each edit once, and no recorded workbook traffic gives a basis to
/// weight one kind over another, so every kind gets an equal share; the
/// report line gives the p50 of each kind.
pub const TAB_BLOCK: usize = 6;

/// The seeded op script: `n` ops in blocks of [`TAB_BLOCK`], one of each
/// kind (one write in 6), shuffled within each block; the
/// seed picks the order, the filter positions and the rows written.
/// `dirty_rows` is the number of writable dirty codes.
pub fn tab_script(seed: u64, n: usize, dirty_rows: usize) -> Vec<TabOp> {
    let mut rng = Rng::new(seed ^ 0x7ab5c819);
    let mut out = Vec::with_capacity(n + TAB_BLOCK);
    while out.len() < n {
        let mut block: Vec<usize> = (0..TAB_BLOCK).collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for kind in block {
            out.push(match kind {
                0 => TabOp::FilterTweak(rng.below(TAB_THRESHOLDS as u64) as usize),
                1 => TabOp::FormulaToggle,
                2 => TabOp::Regroup,
                3 => TabOp::Undo,
                4 => TabOp::Redo,
                _ => TabOp::Write(rng.below(dirty_rows.max(1) as u64) as usize),
            });
        }
    }
    out.truncate(n);
    out
}

/// Apply a view to the augmentation workbook's Flights table.
pub fn apply_view(base: &Workbook, view: View, thresholds: &[f64]) -> Workbook {
    let mut wb = base.clone();
    let t = wb.table_mut("Flights").expect("augmentation has Flights");
    t.filters.push(FilterSpec {
        column: "Dep Delay".into(),
        predicate: FilterPredicate::Range {
            min: Some(Value::Float(thresholds[view.threshold])),
            max: None,
        },
    });
    if view.formula {
        t.add_column(ColumnDef::formula("Delay Hours", "[Dep Delay] / 60.0", 0))
            .expect("new column");
    }
    let keys: &[&str] = match view.grouping {
        1 => &["Carrier"],
        2 => &["Origin City"],
        _ => &[],
    };
    if !keys.is_empty() {
        t.add_level(
            1,
            Level::keyed("Grouped", keys.iter().map(|k| k.to_string()).collect()),
        )
        .expect("level 1");
        t.add_column(ColumnDef::formula("Flights", "Count()", 1))
            .expect("new column");
        t.add_column(ColumnDef::formula("Avg Delay", "Avg([Dep Delay])", 1))
            .expect("new column");
        t.detail_level = 1;
    }
    wb
}
