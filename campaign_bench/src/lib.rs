//! Campaign-level benchmark for the CODDTest reproduction.
//!
//! One run measures one [`Workload`] for a fixed number of seconds through
//! the public campaign API (`run_campaign`, `attribute_bugs`) and reports
//! the end-to-end metrics; a traced run ([`trace`]) drives the same
//! campaign from outside and reports the per-layer metrics. Every run
//! passes a correctness gate or fails: clean workloads raise no finding,
//! every campaign spends its budget, no test panics, and every
//! deterministic count repeats exactly across rounds with the same seed.

pub mod trace;
pub mod workload;

use std::time::{Duration, Instant};

use trace::{run_traced, Replica, Traced};
pub use workload::Workload;
use workload::{gate, run_round, Counts, DialectRun, RoundTimes};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// A set-up's warm-up round runs the round budget divided by this.
const WARMUP_DIVISOR: u64 = 10;
/// The warm-up round's campaign seed. Fixed, so every run's set-up does
/// the same work and `setup_s` moves only with the program and machine.
const WARMUP_SEED: u64 = 0xC0DD;
/// Share of `--seconds` a traced run spends on untraced rounds, the
/// reference for `trace.overhead_pct`.
const TRACE_UNTRACED_SHARE: f64 = 0.6;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tests per dialect per round; the workload's default when absent.
    /// Used to cross-check against the paper harnesses' budgets.
    pub tests: Option<u64>,
}

pub const USAGE: &str =
    "usage: campaign-bench --workload <codd-tiny|dqe-writes|mutant-hunt|recover-durable> \
     --seed <n> --seconds <n> --trace <0|1> [--tests <n per dialect>]";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut tests = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || parse_u64(value).ok_or_else(|| format!("{flag}: bad number {value}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                "--tests" => tests = Some(number()?.max(1)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tests,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the result object, the metrics, and human-readable
/// lines (deterministic counts, the mutant set, the self-time profile).
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result object, one line of JSON.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.errors.push(format!("{name} is not finite: {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in 0..=100.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process, from the kernel's high-water
/// mark, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The timed rounds of a run: each round's deterministic counts and wall
/// times, plus the last round's campaign results.
struct Rounds {
    counts: Counts,
    times: Vec<RoundTimes>,
    last: Vec<DialectRun>,
}

impl Rounds {
    fn median_of(&self, f: impl Fn(&RoundTimes) -> f64) -> f64 {
        median(&self.times.iter().map(f).collect::<Vec<_>>())
    }

    fn tests_per_s(&self) -> f64 {
        self.median_of(|t| self.counts.tests as f64 / t.campaign_s)
    }

    fn attributed_tests_per_s(&self) -> f64 {
        self.median_of(|t| self.counts.tests as f64 / (t.campaign_s + t.attribution_s))
    }

    fn findings_per_s(&self) -> f64 {
        self.median_of(|t| self.counts.findings as f64 / (t.campaign_s + t.attribution_s))
    }
}

/// Run rounds until at least `min_rounds` ran and another round would
/// likely end past `budget`, gating each round and checking its counts
/// against the first.
fn timed_rounds(
    workload: Workload,
    configs: &[coddtest::runner::CampaignConfig],
    budget: Duration,
    min_rounds: usize,
    out: &mut Outcome,
) -> Rounds {
    let start = Instant::now();
    let mut first: Option<Counts> = None;
    let mut times = Vec::new();
    loop {
        let round_start = Instant::now();
        let runs = run_round(workload, configs);
        let round = round_start.elapsed();
        out.errors.extend(gate(workload, &runs));
        let counts = Counts::of(&runs);
        out.attempted += counts.tests;
        out.failed += counts.failed(workload);
        match &first {
            None => first = Some(counts),
            Some(f) if *f != counts => out.errors.push(format!(
                "round {} is not deterministic: {counts:?} after {f:?}",
                times.len()
            )),
            Some(_) => {}
        }
        times.push(RoundTimes::of(&runs));
        if times.len() >= min_rounds && start.elapsed() + round >= budget {
            return Rounds {
                counts: first.expect("at least one round ran"),
                times,
                last: runs,
            };
        }
    }
}

/// Run the benchmark as `args` asks.
pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let tests = args.tests.unwrap_or(w.round_tests());
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        lines: Vec::new(),
    };

    // Set-up: build the workload's configurations from the seed and run a
    // warm-up round; repeated, and reported as the median.
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        let warmup = w.configs(WARMUP_SEED, (tests / WARMUP_DIVISOR).max(1));
        let runs = run_round(w, &warmup);
        setups.push(start.elapsed().as_secs_f64());
        out.errors.extend(gate(w, &runs));
        let counts = Counts::of(&runs);
        out.attempted += counts.tests;
        out.failed += counts.failed(w);
    }
    let configs = w.configs(args.seed, tests);

    let seconds = Duration::from_secs(args.seconds);
    let rounds = if args.trace {
        timed_rounds(
            w,
            &configs,
            seconds.mul_f64(TRACE_UNTRACED_SHARE),
            1,
            &mut out,
        )
    } else {
        timed_rounds(w, &configs, seconds, 2, &mut out)
    };
    describe_counts(w, &rounds, &mut out);

    if args.trace {
        let traced = run_traced(w.oracle(), &configs);
        out.attempted += traced.replicas.iter().map(|r| r.tests_run).sum::<u64>();
        reconcile(&rounds.last, &traced, &mut out);
        per_layer(&rounds, &traced, &mut out);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
        let path = dir.join(format!("{}-{}.tsv", w.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| traced.tracer.write_tsv(&path)) {
            Ok(()) => out
                .lines
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
    } else {
        out.push("tests_per_s", rounds.tests_per_s(), "1/s");
        out.push(
            "attributed_tests_per_s",
            rounds.attributed_tests_per_s(),
            "1/s",
        );
        out.push("setup_s", median(&setups), "s");
        // Printed, not declared: the peak is set by each seed's rarest
        // large allocation, so it spreads too widely to bound.
        out.lines
            .push(format!("peak_rss_mb = {} MB", peak_rss_mb()));
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.lines
        .push(format!("failed_ratio = {failed_ratio} ratio"));
    out
}

/// Human-readable lines: the deterministic counts of a round, the
/// hunt's figures and its mutant set.
fn describe_counts(w: Workload, rounds: &Rounds, out: &mut Outcome) {
    let c = &rounds.counts;
    out.lines.push(format!(
        "workload {} (oracle {}): {} rounds of {} tests",
        w.name(),
        w.oracle(),
        rounds.times.len(),
        c.tests
    ));
    out.lines.push(format!(
        "counts: tests={} queries={} qpt={} unique_plans={} coverage_pct={} findings={} \
         reruns={} replayed_tests={} bugs_found={}",
        c.tests,
        c.ok_queries + c.err_queries,
        c.qpt,
        c.unique_plans,
        c.coverage_pct,
        c.findings,
        c.reruns,
        c.replayed_tests,
        c.bugs_found()
    ));
    let per_round: Vec<String> = rounds
        .times
        .iter()
        .map(|t| format!("{:.0}", c.tests as f64 / t.campaign_s))
        .collect();
    out.lines
        .push(format!("tests_per_s by round: {}", per_round.join(" ")));
    out.lines
        .push(format!("findings_per_s = {} 1/s", rounds.findings_per_s()));
    out.lines
        .push(format!("bugs_found = {} count", c.bugs_found()));
    if !w.is_clean() {
        let names: Vec<&str> = c.mutants.iter().copied().collect();
        out.lines
            .push(format!("detected mutants: {}", names.join(" ")));
    }
}

/// The traced round must reproduce the untraced campaigns exactly, and
/// its outside reruns must reproduce `attribute_bugs`' attributions.
fn reconcile(untraced: &[DialectRun], traced: &Traced, out: &mut Outcome) {
    for (run, replica) in untraced.iter().zip(&traced.replicas) {
        let expected = Replica::of(&run.result);
        if expected != *replica {
            out.errors.push(format!(
                "{}: traced campaign does not reproduce the untraced one: {replica:?} vs {expected:?}",
                run.cfg.dialect.name()
            ));
        }
    }
    if traced.probe.panics > 0 {
        out.errors
            .push(format!("{} probes panicked", traced.probe.panics));
    }
    if traced.rerun_false_alarms > 0 {
        out.errors.push(format!(
            "{} sample reruns reported a bug on a clean engine",
            traced.rerun_false_alarms
        ));
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(rounds: &Rounds, traced: &Traced, out: &mut Outcome) {
    let totals = traced.tracer.totals();
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    let us = |name: &str| layer(name).mean_us();
    let c = &rounds.counts;
    let p = &traced.probe;

    out.push("sqlgen.state_us", us("sqlgen.state"), "us");
    out.push("database.apply_us", us("database.apply"), "us");
    out.push("sqlgen.query_us", us("sqlgen.query"), "us");
    out.push("render.sql_us", us("render.sql"), "us");
    out.push("plan.plan_us", us("plan.plan"), "us");
    out.push("plan.fingerprint_us", us("plan.fingerprint"), "us");
    out.push("exec.query_us", us("exec.query"), "us");
    out.push(
        "exec.bind_exec_us",
        us("exec.query") - us("plan.plan") - us("plan.fingerprint"),
        "us",
    );
    out.push("exec.probe_queries", p.queries as f64, "count");
    out.push(
        "exec.fuel_per_query",
        p.fuel as f64 / p.queries.max(1) as f64,
        "fuel",
    );
    let lookups = p.memo_hits + p.memo_misses;
    out.push(
        "exec.memo_hit_ratio",
        p.memo_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.push("exec.memo_lookups", lookups as f64, "count");
    out.push(
        "exec.snapshot_restore_us",
        us("exec.snapshot_restore"),
        "us",
    );

    let mut tests_ns = traced.tracer.durations("runner.test");
    tests_ns.sort_unstable();
    out.push(
        "runner.test_us.p50",
        percentile(&tests_ns, 50.0) as f64 / 1e3,
        "us",
    );
    out.push(
        "runner.test_us.p99",
        percentile(&tests_ns, 99.0) as f64 / 1e3,
        "us",
    );
    out.push("runner.test_us.samples", tests_ns.len() as f64, "count");
    out.push("runner.qpt", c.qpt, "queries/test");
    out.push("runner.unique_plans", c.unique_plans as f64, "count");
    out.push("runner.coverage_pct", c.coverage_pct, "%");
    out.push("runner.tests", c.tests as f64, "count");
    out.push(
        "runner.useful_ratio",
        (c.passed + c.findings) as f64 / c.tests.max(1) as f64,
        "ratio",
    );
    let queries = c.ok_queries + c.err_queries;
    out.push("runner.queries", queries as f64, "count");
    out.push(
        "runner.err_query_ratio",
        c.err_queries as f64 / queries.max(1) as f64,
        "ratio",
    );
    out.push("runner.campaign_s", rounds.median_of(|t| t.campaign_s), "s");
    out.push(
        "runner.attribution_s",
        rounds.median_of(|t| t.attribution_s),
        "s",
    );
    out.push("runner.findings", c.findings as f64, "count");
    out.push("runner.findings_per_s", rounds.findings_per_s(), "1/s");
    out.push("runner.bugs_found", c.bugs_found() as f64, "count");
    out.push("runner.reruns", c.reruns as f64, "count");
    out.push("runner.replayed_tests", c.replayed_tests as f64, "count");
    out.push("runner.rerun_ms", us("runner.rerun") / 1e3, "ms");
    out.push(
        "runner.rerun_samples",
        layer("runner.rerun").count as f64,
        "count",
    );

    out.push("wal.append_us", us("wal.append"), "us");
    out.push(
        "wal.bytes_per_stmt",
        p.wal_bytes as f64 / p.wal_stmts.max(1) as f64,
        "B",
    );
    out.push("wal.checkpoint_us", us("wal.checkpoint"), "us");
    out.push(
        "wal.snapshot_bytes",
        p.snapshot_bytes as f64 / p.checkpoints.max(1) as f64,
        "B",
    );
    out.push("recovery.recover_us", us("recovery.recover"), "us");
    out.push("recovery.scrub_us", us("recovery.scrub"), "us");

    // Overhead: the traced loop's own time (probes excluded) against the
    // untraced campaigns' time for the same tests.
    let traced_s = (layer("campaign").total_ns as f64 - layer("probe").total_ns as f64) / 1e9;
    let traced_tps = c.tests as f64 / traced_s;
    out.push(
        "trace.overhead_pct",
        (rounds.tests_per_s() / traced_tps - 1.0) * 100.0,
        "%",
    );
    out.push("trace.spans", traced.tracer.spans().len() as f64, "count");

    // Self-time profile of the traced campaign, as estimated shares.
    let campaign_ns = layer("campaign").total_ns.max(1) as f64;
    out.lines.push(
        "self-time profile (estimate; probe work is outside the campaign's own cost):".into(),
    );
    for (name, t) in &totals {
        out.lines.push(format!(
            "  {name:<24} calls={:<8} total_ms={:<12.3} self_ms={:<12.3} share_of_campaign={:.4}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / campaign_ns
        ));
    }
}
