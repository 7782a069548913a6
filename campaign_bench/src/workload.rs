//! The four campaign workloads, the untraced campaign round that the
//! end-to-end metrics time, and the correctness gate every round passes.
//!
//! Every workload is a closed loop with one caller: `run_campaign` starts
//! the next test only after the previous one returns, and `attribute_bugs`
//! replays on its single worker thread, so a run never uses more than two
//! threads.

use std::collections::BTreeSet;
use std::time::Instant;

use coddb::bugs::BugRegistry;
use coddb::Dialect;
use coddtest::runner::{attribute_bugs, run_campaign, CampaignConfig, CampaignResult};

/// A workload: which oracle runs, on which engines, with which mutants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `codd` on a clean SQLite-profile engine, default `GenConfig`: the
    /// paper's configuration, dominated by fixed per-query costs.
    CoddTiny,
    /// `dqe` on a clean engine: UPDATE/DELETE beside reads, and a catalog
    /// snapshot/restore per test.
    DqeWrites,
    /// `codd` with every engine mutant of each of the five dialects, then
    /// `attribute_bugs`: the Table 1 bug-finding path.
    MutantHunt,
    /// `recover` on a clean engine: WAL append, checkpoint, recovery and
    /// scrub; no `Session` queries.
    RecoverDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CoddTiny,
        Workload::DqeWrites,
        Workload::MutantHunt,
        Workload::RecoverDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CoddTiny => "codd-tiny",
            Workload::DqeWrites => "dqe-writes",
            Workload::MutantHunt => "mutant-hunt",
            Workload::RecoverDurable => "recover-durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn oracle(self) -> &'static str {
        match self {
            Workload::CoddTiny | Workload::MutantHunt => "codd",
            Workload::DqeWrites => "dqe",
            Workload::RecoverDurable => "recover",
        }
    }

    /// Clean workloads run with no mutant enabled: any finding on them is
    /// a false alarm and fails the run.
    pub fn is_clean(self) -> bool {
        self != Workload::MutantHunt
    }

    /// Tests per dialect in one timed round. Sized so a round takes about
    /// two seconds on a 2-core box (the hunt: about seven, at the Table 1
    /// scale of 3,000 tests per dialect), so a run holds enough rounds for
    /// a median that rides out bursts of load from outside.
    pub fn round_tests(self) -> u64 {
        match self {
            Workload::CoddTiny => 20_000,
            Workload::DqeWrites => 30_000,
            Workload::MutantHunt => 3_000,
            Workload::RecoverDurable => 10_000,
        }
    }

    /// The campaign configurations of one round, one per dialect, at the
    /// default `GenConfig` and 20 tests per state.
    pub fn configs(self, seed: u64, tests: u64) -> Vec<CampaignConfig> {
        let dialects: &[Dialect] = if self.is_clean() {
            &[Dialect::Sqlite]
        } else {
            &Dialect::ALL
        };
        dialects
            .iter()
            .map(|&dialect| CampaignConfig {
                bugs: if self.is_clean() {
                    BugRegistry::none()
                } else {
                    BugRegistry::all_for_dialect(dialect)
                },
                tests,
                seed,
                ..CampaignConfig::new(dialect)
            })
            .collect()
    }
}

/// One dialect's campaign of a round, attributed, with its wall times.
pub struct DialectRun {
    pub cfg: CampaignConfig,
    pub result: CampaignResult,
    pub campaign_s: f64,
    pub attribution_s: f64,
}

/// Run one round: for each configuration, `run_campaign` then
/// `attribute_bugs`, each timed on its own.
pub fn run_round(workload: Workload, configs: &[CampaignConfig]) -> Vec<DialectRun> {
    configs
        .iter()
        .map(|cfg| {
            let mut oracle = coddtest::make_oracle(workload.oracle()).expect("known oracle");
            let start = Instant::now();
            let mut result = run_campaign(oracle.as_mut(), cfg);
            let campaign_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            attribute_bugs(&mut result, cfg, workload.oracle());
            let attribution_s = start.elapsed().as_secs_f64();
            DialectRun {
                cfg: cfg.clone(),
                result,
                campaign_s,
                attribution_s,
            }
        })
        .collect()
}

/// Mutants a configuration enables, over all four mutant families — the
/// multiplier `attribute_bugs` replays each finding under.
fn enabled_mutants(cfg: &CampaignConfig) -> u64 {
    (cfg.bugs.enabled().count()
        + cfg.bugs.enabled_recovery().count()
        + cfg.bugs.enabled_index().count()
        + cfg.bugs.enabled_media().count()) as u64
}

/// A test that panicked; the runner records it as a crash finding with
/// this detail prefix.
fn is_panic(finding: &coddtest::runner::Finding) -> bool {
    finding.report.detail.starts_with("oracle panicked")
}

/// The deterministic outputs of a round. Two rounds with the same seed
/// must produce equal `Counts`, or the run fails.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub tests: u64,
    pub passed: u64,
    pub skipped: u64,
    pub ok_queries: u64,
    pub err_queries: u64,
    /// Queries of completed tests per completed test, over all dialects.
    pub qpt: f64,
    /// Unique plan fingerprints, summed over dialects.
    pub unique_plans: u64,
    /// Branch coverage, averaged over dialects.
    pub coverage_pct: f64,
    pub findings: u64,
    pub setup_failures: u64,
    pub panics: u64,
    /// `rerun_test` calls `attribute_bugs` made: findings × enabled mutants.
    pub reruns: u64,
    /// Tests those reruns replayed: Σ (test_idx + 1) per rerun.
    pub replayed_tests: u64,
    /// Names of the unique attributed mutants.
    pub mutants: BTreeSet<&'static str>,
}

impl Counts {
    pub fn of(runs: &[DialectRun]) -> Counts {
        let mut c = Counts {
            tests: 0,
            passed: 0,
            skipped: 0,
            ok_queries: 0,
            err_queries: 0,
            qpt: 0.0,
            unique_plans: 0,
            coverage_pct: 0.0,
            findings: 0,
            setup_failures: 0,
            panics: 0,
            reruns: 0,
            replayed_tests: 0,
            mutants: BTreeSet::new(),
        };
        let mut completed_queries = 0u64;
        for run in runs {
            let r = &run.result;
            let mutants = enabled_mutants(&run.cfg);
            c.tests += r.tests_run;
            c.passed += r.passed;
            c.skipped += r.skipped;
            c.ok_queries += r.successful_queries;
            c.err_queries += r.unsuccessful_queries;
            completed_queries += r.passed_queries + r.finding_queries;
            c.unique_plans += r.unique_plans as u64;
            c.coverage_pct += r.coverage_percent / runs.len() as f64;
            c.findings += r.findings.len() as u64;
            c.setup_failures += r.setup_failures;
            c.panics += r.findings.iter().filter(|f| is_panic(f)).count() as u64;
            c.reruns += r.findings.len() as u64 * mutants;
            c.replayed_tests += r.findings.iter().map(|f| f.test_idx + 1).sum::<u64>() * mutants;
            c.mutants
                .extend(r.unique_attributed_bugs().into_iter().map(|b| b.name()));
        }
        c.qpt = completed_queries as f64 / (c.passed + c.findings).max(1) as f64;
        c
    }

    pub fn bugs_found(&self) -> u64 {
        self.mutants.len() as u64
    }

    /// Failed tests: panics anywhere, plus every finding on a clean
    /// workload (a false alarm).
    pub fn failed(&self, workload: Workload) -> u64 {
        if workload.is_clean() {
            // Panics are recorded as findings, so this counts them too.
            self.findings
        } else {
            self.panics
        }
    }
}

/// The correctness gate of one round: every campaign spent its whole
/// budget, no test panicked, and a clean workload raised no finding and
/// no setup failure. Returns one message per violation.
pub fn gate(workload: Workload, runs: &[DialectRun]) -> Vec<String> {
    let mut errors = Vec::new();
    for run in runs {
        let r = &run.result;
        let d = run.cfg.dialect.name();
        if r.tests_run != run.cfg.tests {
            errors.push(format!(
                "{d}: ran {} tests of a budget of {}",
                r.tests_run, run.cfg.tests
            ));
        }
        let panics = r.findings.iter().filter(|f| is_panic(f)).count();
        if panics > 0 {
            errors.push(format!("{d}: {panics} tests panicked"));
        }
        if workload.is_clean() && !r.findings.is_empty() {
            errors.push(format!(
                "{d}: {} findings on a clean engine, first: {}",
                r.findings.len(),
                r.findings[0].report.detail
            ));
        }
        if workload.is_clean() && r.setup_failures > 0 {
            errors.push(format!(
                "{d}: {} state setups failed on a clean engine",
                r.setup_failures
            ));
        }
    }
    errors
}

/// Wall-clock seconds of one round, summed over its dialects.
pub struct RoundTimes {
    pub campaign_s: f64,
    pub attribution_s: f64,
}

impl RoundTimes {
    pub fn of(runs: &[DialectRun]) -> RoundTimes {
        RoundTimes {
            campaign_s: runs.iter().map(|r| r.campaign_s).sum(),
            attribution_s: runs.iter().map(|r| r.attribution_s).sum(),
        }
    }
}
