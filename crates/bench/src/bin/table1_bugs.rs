//! Table 1 — bugs found per emulated DBMS, by category.
//!
//! For each dialect profile, enables every mutant of that profile and runs
//! a CODDTest campaign. Each finding is attributed back to the mutant(s)
//! that reproduce it; the table reports the number of *unique* mutants
//! uncovered per category, next to the paper's counts.
//!
//! Usage: `table1_bugs [--budget N] [--seed S]` (default budget 12000
//! tests per dialect).

use std::collections::BTreeSet;

use coddb::bugs::{BugId, BugKind, BugRegistry};
use coddb::Dialect;
use coddtest::runner::{attribute_bugs, run_campaign, AttributionStats, CampaignConfig};
use coddtest_bench::{arg_budget, arg_seed, Table};

fn paper_counts(d: Dialect) -> (usize, usize, usize, usize) {
    // (logic, internal error, crash, hang) per Table 1.
    match d {
        Dialect::Sqlite => (6, 1, 0, 0),
        Dialect::Mysql => (1, 1, 0, 0),
        Dialect::Cockroach => (7, 4, 0, 2),
        Dialect::Duckdb => (5, 2, 2, 3),
        Dialect::Tidb => (5, 6, 0, 0),
    }
}

fn main() {
    let budget = arg_budget(12_000);
    let seed = arg_seed(0xC0DD);
    println!("# Table 1 — unique bugs found by CODDTest per DBMS profile");
    println!("# campaign budget: {budget} tests per dialect, seed {seed}\n");

    let mut table = Table::new(&[
        "DBMS",
        "logic",
        "internal",
        "crash",
        "hang",
        "total",
        "paper (L/I/C/H)",
    ]);
    let mut grand_total = 0usize;
    let mut attribution = AttributionStats::default();

    for dialect in Dialect::ALL {
        let cfg = CampaignConfig {
            bugs: BugRegistry::all_for_dialect(dialect),
            tests: budget,
            seed,
            ..CampaignConfig::new(dialect)
        };
        let mut oracle = coddtest::make_oracle("codd").expect("codd oracle");
        let mut result = run_campaign(oracle.as_mut(), &cfg);
        let stats = attribute_bugs(&mut result, &cfg, "codd");
        attribution.replays += stats.replays;
        attribution.replayed_tests += stats.replayed_tests;

        let unique: BTreeSet<BugId> = result.unique_attributed_bugs();
        let count = |k: BugKind| unique.iter().filter(|b| b.kind() == k).count();
        let (l, i, c, h) = (
            count(BugKind::Logic),
            count(BugKind::InternalError),
            count(BugKind::Crash),
            count(BugKind::Hang),
        );
        grand_total += unique.len();
        let (pl, pi, pc, ph) = paper_counts(dialect);
        table.row(&[
            dialect.name().to_string(),
            l.to_string(),
            i.to_string(),
            c.to_string(),
            h.to_string(),
            unique.len().to_string(),
            format!("{pl}/{pi}/{pc}/{ph}"),
        ]);

        // Per-dialect detail: which mutants were uncovered.
        eprintln!(
            "{dialect}: {} findings, {} unique mutants",
            result.findings.len(),
            unique.len()
        );
        for b in BugId::for_dialect(dialect) {
            let mark = if unique.contains(&b) {
                "found "
            } else {
                "MISSED"
            };
            eprintln!("  [{mark}] {:<40} {}", b.name(), b.description());
        }
    }
    table.print();
    println!("\ntotal unique bugs found: {grand_total} (paper: 45)");
    println!(
        "attribution: {} state replays, {} replayed tests",
        attribution.replays, attribution.replayed_tests
    );
}
