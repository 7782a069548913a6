//! The traced run: drives a workload's campaign from outside through the
//! public API, under the runner's stable seed contract, and records a span
//! around every call into a layer.
//!
//! The outside loop repeats what `run_campaign` does state by state
//! (`state_seed` → `generate_state` → `Database::with_bugs` + `execute` →
//! `Session::new` → `Oracle::run_one` per `test_seed`), so its tallies must
//! reproduce the untraced `CampaignResult` exactly; [`Replica`] holds the
//! fields that are compared. After each state's tests a *probe* times the
//! layers `run_one` hides — query generation, rendering, plan, fingerprint,
//! query execution, snapshot/restore, WAL append, checkpoint, recovery and
//! scrub — on a separate copy of the same state, so the campaign database
//! is never touched by the probe. The probe uses the workload's own states
//! and generator, not the oracle's exact queries: shares derived from it
//! are estimates.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use coddb::bugs::BugRegistry;
use coddb::coverage::Coverage;
use coddb::plan::{fingerprint, plan_select, PlanCtx};
use coddb::recovery::{recover_detailed, scrub_images};
use coddb::wal::StorageMode;
use coddb::{Database, Severity};
use coddtest::runner::{rerun_test, state_seed, test_seed, CampaignConfig, CampaignResult};
use coddtest::{ReportKind, Session, TestOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen::expr::ExprGen;
use sqlgen::query::{build_random_query, gen_from_context};
use sqlgen::state::generate_state;
use sqlgen::SchemaInfo;

/// Probe queries generated and timed per campaign state.
const PROBE_QUERIES: u64 = 4;
/// Outside `rerun_test` calls timed on a campaign without findings (the
/// last test of each of the first this-many states).
pub const RERUN_SAMPLES: u64 = 16;
/// Mixed into the state seed so probe queries draw their own stream.
const PROBE_SALT: u64 = 0x5052_4F42_4551_5259;

/// One timed call: its layer name, interval, parent span and the test
/// coordinate it ran for.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub state_idx: Option<u64>,
    pub test_idx: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; spans nest in strict LIFO order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-layer totals over all spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl LayerTotal {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(
        &mut self,
        name: &'static str,
        state_idx: Option<u64>,
        test_idx: Option<u64>,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            state_idx,
            test_idx,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tstate_idx\ttest_idx")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.state_idx),
                opt(s.test_idx)
            )?;
        }
        out.flush()
    }
}

/// The fields of a `CampaignResult` the outside loop must reproduce, plus
/// each finding's attributed mutant names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replica {
    pub tests_run: u64,
    pub passed: u64,
    pub skipped: u64,
    pub successful_queries: u64,
    pub unsuccessful_queries: u64,
    pub passed_queries: u64,
    pub skipped_queries: u64,
    pub finding_queries: u64,
    pub setup_failures: u64,
    pub unique_plans: usize,
    pub coverage_percent: f64,
    /// `(state_idx, test_idx, report kind)` per finding, in campaign order.
    pub findings: Vec<(u64, u64, &'static str)>,
    /// Attributed mutant names per finding, in the order `attribute_bugs`
    /// fills them (engine, recovery, index, media).
    pub attributions: Vec<Vec<&'static str>>,
}

impl Replica {
    pub fn of(r: &CampaignResult) -> Replica {
        Replica {
            tests_run: r.tests_run,
            passed: r.passed,
            skipped: r.skipped,
            successful_queries: r.successful_queries,
            unsuccessful_queries: r.unsuccessful_queries,
            passed_queries: r.passed_queries,
            skipped_queries: r.skipped_queries,
            finding_queries: r.finding_queries,
            setup_failures: r.setup_failures,
            unique_plans: r.unique_plans,
            coverage_percent: r.coverage_percent,
            findings: r
                .findings
                .iter()
                .map(|f| (f.state_idx, f.test_idx, f.report.kind.label()))
                .collect(),
            attributions: r
                .findings
                .iter()
                .map(|f| {
                    f.attributed
                        .iter()
                        .map(|b| b.name())
                        .chain(f.attributed_recovery.iter().map(|b| b.name()))
                        .chain(f.attributed_index.iter().map(|b| b.name()))
                        .chain(f.attributed_media.iter().map(|b| b.name()))
                        .collect()
                })
                .collect(),
        }
    }
}

/// Counts the probe takes where the work happens; the bases of the
/// per-layer ratios.
#[derive(Debug, Clone, Default)]
pub struct ProbeCounts {
    pub queries: u64,
    pub fuel: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub wal_stmts: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub snapshot_bytes: u64,
    /// Probes that panicked; any one fails the run.
    pub panics: u64,
}

/// Everything one traced round produced.
pub struct Traced {
    pub tracer: Tracer,
    /// One replica per dialect campaign, attributions from outside reruns.
    pub replicas: Vec<Replica>,
    pub probe: ProbeCounts,
    /// Sample reruns on a clean campaign that reported a bug.
    pub rerun_false_alarms: u64,
}

/// Every mutant a configuration enables, each as a registry enabling it
/// alone, in `attribute_bugs`' order.
fn single_mutants(bugs: &BugRegistry) -> Vec<(&'static str, BugRegistry)> {
    bugs.enabled()
        .map(|b| (b.name(), BugRegistry::only(b)))
        .chain(
            bugs.enabled_recovery()
                .map(|b| (b.name(), BugRegistry::only_recovery(b))),
        )
        .chain(
            bugs.enabled_index()
                .map(|b| (b.name(), BugRegistry::only_index(b))),
        )
        .chain(
            bugs.enabled_media()
                .map(|b| (b.name(), BugRegistry::only_media(b))),
        )
        .collect()
}

/// Run one traced round of `oracle_name` over `configs`.
pub fn run_traced(oracle_name: &str, configs: &[CampaignConfig]) -> Traced {
    let mut traced = Traced {
        tracer: Tracer::new(),
        replicas: Vec::new(),
        probe: ProbeCounts::default(),
        rerun_false_alarms: 0,
    };
    for cfg in configs {
        let mut replica = trace_campaign(&mut traced, oracle_name, cfg);
        trace_attribution(&mut traced, oracle_name, cfg, &mut replica);
        traced.replicas.push(replica);
    }
    traced
}

/// The outside campaign loop: `drive_campaign` + `run_state`, one state at
/// a time, with the probe after each state's tests.
fn trace_campaign(traced: &mut Traced, oracle_name: &str, cfg: &CampaignConfig) -> Replica {
    let tr = &mut traced.tracer;
    let mut oracle = coddtest::make_oracle(oracle_name).expect("known oracle");
    let campaign = tr.open("campaign", None, None);
    let mut rep = Replica::default();
    let mut plans: BTreeSet<u64> = BTreeSet::new();
    let coverage = Coverage::new();
    let mut state_idx = 0u64;
    let mut consecutive_setup_failures = 0u64;
    while rep.tests_run < cfg.tests {
        let max_tests = cfg.tests_per_state.max(1).min(cfg.tests - rep.tests_run);
        let state = tr.open("state", Some(state_idx), None);

        let span = tr.open("sqlgen.state", Some(state_idx), None);
        let mut srng = StdRng::seed_from_u64(state_seed(cfg.seed, state_idx));
        let (stmts, schema) = generate_state(&mut srng, cfg.dialect, &cfg.gen);
        tr.close(span);

        let mut db = Database::with_bugs(cfg.dialect, cfg.bugs.clone());
        let span = tr.open("database.apply", Some(state_idx), None);
        let applied = stmts.iter().try_for_each(|s| db.execute(s).map(drop));
        tr.close(span);
        if let Err(e) = applied {
            rep.setup_failures += 1;
            if e.severity() == Severity::Expected {
                rep.unsuccessful_queries += 1;
            }
            coverage.merge(db.coverage());
            tr.close(state);
            consecutive_setup_failures += 1;
            if consecutive_setup_failures >= cfg.max_setup_retries.max(1) {
                rep.findings
                    .push((state_idx, 0, ReportKind::InternalError.label()));
                break;
            }
            state_idx += 1;
            continue;
        }
        consecutive_setup_failures = 0;

        let mut session = Session::new(&mut db);
        for test_idx in 0..max_tests {
            let before = session.queries_issued();
            let mut trng = StdRng::seed_from_u64(test_seed(cfg.seed, state_idx, test_idx));
            let span = tr.open("runner.test", Some(state_idx), Some(test_idx));
            let run = catch_unwind(AssertUnwindSafe(|| {
                oracle.run_one(&mut session, &schema, &mut trng)
            }));
            tr.close(span);
            let queries = session.queries_issued() - before;
            rep.tests_run += 1;
            match run {
                Err(_) => {
                    rep.finding_queries += queries;
                    rep.findings
                        .push((state_idx, test_idx, ReportKind::Crash.label()));
                    break;
                }
                Ok(TestOutcome::Pass) => {
                    rep.passed += 1;
                    rep.passed_queries += queries;
                }
                Ok(TestOutcome::Skipped(_)) => {
                    rep.skipped += 1;
                    rep.skipped_queries += queries;
                }
                Ok(TestOutcome::Bug(report)) => {
                    rep.finding_queries += queries;
                    rep.findings
                        .push((state_idx, test_idx, report.kind.label()));
                }
            }
        }
        rep.successful_queries += session.ok_queries;
        rep.unsuccessful_queries += session.err_queries;
        plans.extend(session.plans.iter().copied());
        coverage.merge(db.coverage());

        let span = tr.open("probe", Some(state_idx), None);
        let probe = catch_unwind(AssertUnwindSafe(|| {
            probe_state(tr, &mut traced.probe, cfg, state_idx, &stmts, &schema)
        }));
        if probe.is_err() {
            traced.probe.panics += 1;
            // A panic unwound past the probe's own spans: close them now
            // so the enclosing spans still close in order.
            while tr.open.last() != Some(&span) {
                let id = tr.open.pop().expect("probe span is open");
                tr.spans[id].end_ns = tr.now_ns();
            }
        }
        tr.close(span);
        tr.close(state);
        state_idx += 1;
    }
    rep.unique_plans = plans.len();
    rep.coverage_percent = coverage.percent();
    tr.close(campaign);
    rep
}

/// Time the layers `run_one` hides, on fresh copies of the state.
fn probe_state(
    tr: &mut Tracer,
    counts: &mut ProbeCounts,
    cfg: &CampaignConfig,
    state_idx: u64,
    stmts: &[coddb::ast::Statement],
    schema: &SchemaInfo,
) {
    let at = Some(state_idx);
    let mut db = Database::with_bugs(cfg.dialect, cfg.bugs.clone());
    for s in stmts {
        // The campaign database applied these same statements cleanly.
        let _ = db.execute(s);
    }
    let mut rng = StdRng::seed_from_u64(state_seed(cfg.seed, state_idx) ^ PROBE_SALT);
    let no_ctes = BTreeSet::new();
    for q_idx in 0..PROBE_QUERIES {
        let q_at = Some(q_idx);
        let span = tr.open("sqlgen.query", at, q_at);
        let from = gen_from_context(&mut rng, schema, &cfg.gen, cfg.dialect);
        let predicate = ExprGen::new(cfg.dialect, &cfg.gen, schema, &from.scope)
            .gen_predicate(&mut rng, cfg.gen.max_depth);
        let query = build_random_query(&mut rng, &from, Some(predicate));
        tr.close(span);

        let span = tr.open("render.sql", at, q_at);
        black_box(query.to_string());
        tr.close(span);

        let pctx = PlanCtx {
            catalog: db.catalog(),
            dialect: cfg.dialect,
            bugs: db.bugs(),
            cov: db.coverage(),
            optimize: true,
        };
        let span = tr.open("plan.plan", at, q_at);
        let plan = plan_select(&query, &pctx, &no_ctes);
        tr.close(span);
        let span = tr.open("plan.fingerprint", at, q_at);
        if let Ok(plan) = &plan {
            black_box(fingerprint(plan));
        }
        tr.close(span);

        let fuel_before = db.fuel_used();
        let span = tr.open("exec.query", at, q_at);
        let _ = black_box(db.query(&query));
        tr.close(span);
        counts.fuel += db.fuel_used() - fuel_before;
        counts.queries += 1;
    }
    let (hits, misses) = db.subquery_memo_stats();
    counts.memo_hits += hits;
    counts.memo_misses += misses;

    let span = tr.open("exec.snapshot_restore", at, None);
    let snapshot = db.snapshot();
    db.restore(snapshot);
    tr.close(span);

    // Storage: log the state durably, checkpointing halfway so recovery
    // loads a snapshot and replays a log suffix on top of it.
    let mut durable = Database::with_bugs(cfg.dialect, cfg.bugs.clone());
    durable.set_storage_mode(StorageMode::Durable);
    let log_len = |db: &Database| db.wal().expect("durable mode").image().len() as u64;
    for (i, s) in stmts.iter().enumerate() {
        if i == stmts.len() / 2 {
            let span = tr.open("wal.checkpoint", at, None);
            let _ = durable.checkpoint();
            tr.close(span);
            counts.checkpoints += 1;
            counts.snapshot_bytes +=
                durable.wal().expect("durable mode").snapshot_image().len() as u64;
        }
        let before = log_len(&durable);
        let span = tr.open("wal.append", at, None);
        let _ = durable.execute(s);
        tr.close(span);
        counts.wal_stmts += 1;
        counts.wal_bytes += log_len(&durable).saturating_sub(before);
    }
    let wal = durable.wal().expect("durable mode");
    let span = tr.open("recovery.recover", at, None);
    let _ = black_box(recover_detailed(
        wal.image(),
        wal.snapshot_image(),
        cfg.dialect,
        &cfg.bugs,
    ));
    tr.close(span);
    let span = tr.open("recovery.scrub", at, None);
    black_box(scrub_images(wal.image(), wal.snapshot_image(), &cfg.bugs));
    tr.close(span);
}

/// Outside attribution: one timed `rerun_test` per (finding, enabled
/// mutant) pair, the same jobs `attribute_bugs` runs. A campaign without
/// findings instead times sample reruns of its own clean tests.
fn trace_attribution(
    traced: &mut Traced,
    oracle_name: &str,
    cfg: &CampaignConfig,
    replica: &mut Replica,
) {
    let tr = &mut traced.tracer;
    let span = tr.open("attribution", None, None);
    if replica.findings.is_empty() {
        let last_test = cfg.tests_per_state.max(1) - 1;
        for state_idx in 0..RERUN_SAMPLES {
            let rerun = tr.open("runner.rerun", Some(state_idx), Some(last_test));
            let hit = rerun_test(oracle_name, cfg, state_idx, last_test, &cfg.bugs);
            tr.close(rerun);
            traced.rerun_false_alarms += u64::from(hit);
        }
    } else {
        let mutants = single_mutants(&cfg.bugs);
        for &(state_idx, test_idx, _) in &replica.findings {
            let mut hits = Vec::new();
            for (name, registry) in &mutants {
                let rerun = tr.open("runner.rerun", Some(state_idx), Some(test_idx));
                let hit = rerun_test(oracle_name, cfg, state_idx, test_idx, registry);
                tr.close(rerun);
                if hit {
                    hits.push(*name);
                }
            }
            replica.attributions.push(hits);
        }
    }
    tr.close(span);
}
