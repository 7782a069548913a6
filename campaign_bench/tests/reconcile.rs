//! Reconciliation and reporting tests for the campaign benchmark.
//!
//! * The traced, outside-driven loop reproduces `run_campaign`'s result
//!   for every workload (tests, queries, plans, coverage, findings), and
//!   its outside `rerun_test` jobs reproduce `attribute_bugs`.
//! * Every metric `BENCHMARK.json` names is printed with its unit, and no
//!   other metric is.
//! * The correctness gate fails a clean round that raised a finding or
//!   did not spend its budget.

use campaign_bench::trace::{run_traced, Replica, RERUN_SAMPLES};
use campaign_bench::workload::{gate, run_round, Counts};
use campaign_bench::{run, Args, Workload};
use coddtest::runner::Finding;
use coddtest::{BugReport, ReportKind};

const SEED: u64 = 0xC0DD;

/// Small per-dialect budgets, so the suite stays quick in a debug build.
fn small_budget(w: Workload) -> u64 {
    match w {
        Workload::MutantHunt => 200,
        Workload::RecoverDurable => 100,
        Workload::CoddTiny | Workload::DqeWrites => 300,
    }
}

#[test]
fn traced_loop_reproduces_every_workload() {
    for w in Workload::ALL {
        let configs = w.configs(SEED, small_budget(w));
        let untraced = run_round(w, &configs);
        let traced = run_traced(w.oracle(), &configs);
        assert_eq!(traced.replicas.len(), untraced.len(), "{}", w.name());
        for (run, replica) in untraced.iter().zip(&traced.replicas) {
            assert_eq!(
                *replica,
                Replica::of(&run.result),
                "{} on {}",
                w.name(),
                run.cfg.dialect.name()
            );
            assert_eq!(replica.tests_run, run.cfg.tests);
        }
        assert_eq!(traced.probe.panics, 0, "{}", w.name());
        assert_eq!(traced.rerun_false_alarms, 0, "{}", w.name());
    }
}

#[test]
fn outside_reruns_reproduce_attribution() {
    let w = Workload::MutantHunt;
    let configs = w.configs(SEED, small_budget(w));
    let untraced = run_round(w, &configs);
    let counts = Counts::of(&untraced);
    assert!(
        counts.findings > 0,
        "the hunt must find something to attribute"
    );
    assert!(counts.bugs_found() > 0);
    let traced = run_traced(w.oracle(), &configs);
    let attributed: Vec<_> = traced
        .replicas
        .iter()
        .flat_map(|r| r.attributions.iter())
        .collect();
    assert_eq!(attributed.len() as u64, counts.findings);
    assert!(attributed.iter().any(|names| !names.is_empty()));
    // One outside rerun per attribution job, plus the sample reruns of
    // each dialect whose campaign found nothing.
    let quiet = untraced
        .iter()
        .filter(|r| r.result.findings.is_empty())
        .count() as u64;
    let reruns = traced.tracer.durations("runner.rerun").len() as u64;
    assert_eq!(reruns, counts.reruns + quiet * RERUN_SAMPLES);
    for (run, replica) in untraced.iter().zip(&traced.replicas) {
        assert_eq!(replica.attributions, Replica::of(&run.result).attributions);
    }
}

#[test]
fn counts_repeat_for_a_seed() {
    for w in Workload::ALL {
        let configs = w.configs(SEED, small_budget(w));
        assert_eq!(
            Counts::of(&run_round(w, &configs)),
            Counts::of(&run_round(w, &configs)),
            "{}",
            w.name()
        );
    }
}

#[test]
fn gate_fails_false_alarms_and_short_campaigns() {
    let w = Workload::CoddTiny;
    let mut runs = run_round(w, &w.configs(SEED, small_budget(w)));
    assert!(gate(w, &runs).is_empty(), "{:?}", gate(w, &runs));

    runs[0].result.findings.push(Finding {
        report: BugReport {
            oracle: "codd",
            kind: ReportKind::LogicDiscrepancy,
            queries: Vec::new(),
            detail: "injected".into(),
        },
        state_idx: 0,
        test_idx: 0,
        attributed: Vec::new(),
        attributed_recovery: Vec::new(),
        attributed_index: Vec::new(),
        attributed_media: Vec::new(),
    });
    assert_eq!(gate(w, &runs).len(), 1);
    assert_eq!(Counts::of(&runs).failed(w), 1);

    runs[0].result.findings.clear();
    runs[0].result.tests_run -= 1;
    assert_eq!(gate(w, &runs).len(), 1);
}

/// A minimal JSON reader: enough for `BENCHMARK.json`.
mod json {
    #[derive(Debug, Clone)]
    pub enum Value {
        /// `null`, `true`, `false` or a number; no test reads their value.
        Scalar,
        Str(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Value {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters");
        v
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
            self.i += 1;
        }

        fn peek(&mut self) -> u8 {
            self.ws();
            self.s[self.i]
        }

        fn value(&mut self) -> Value {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    let mut fields = Vec::new();
                    while self.peek() != b'}' {
                        let key = self.string();
                        self.eat(b':');
                        fields.push((key, self.value()));
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b'}');
                    Value::Object(fields)
                }
                b'[' => {
                    self.eat(b'[');
                    let mut items = Vec::new();
                    while self.peek() != b']' {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b']');
                    Value::Array(items)
                }
                b'"' => Value::Str(self.string()),
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && !b",}] \n\r\t".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let token = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
                    assert!(
                        ["null", "true", "false"].contains(&token) || token.parse::<f64>().is_ok(),
                        "bad token {token}"
                    );
                    Value::Scalar
                }
            }
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let mut out = String::new();
            while self.s[self.i] != b'"' {
                if self.s[self.i] == b'\\' {
                    self.i += 1;
                }
                out.push(self.s[self.i] as char);
                self.i += 1;
            }
            self.i += 1;
            out
        }
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text);
    doc.get(section)
        .and_then(json::Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        for w in [Workload::CoddTiny, Workload::MutantHunt] {
            let outcome = run(&Args {
                workload: w,
                seed: SEED,
                seconds: 1,
                trace,
                tests: Some(small_budget(w)),
            });
            assert!(outcome.correct(), "{:?}", outcome.errors);
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(section), "{} trace={trace}", w.name());
            let line = outcome.json();
            for (name, unit) in &printed {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
            let doc = json::parse(&line);
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(doc.get(key).is_some(), "{key}");
            }
        }
    }
}

#[test]
fn args_parse_the_driver_command_line() {
    let argv: Vec<String> = "--workload dqe-writes --seed 7 --seconds 10 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let args = Args::parse(&argv).expect("valid");
    assert_eq!(args.workload, Workload::DqeWrites);
    assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
    assert!(args.tests.is_none());
    assert!(Args::parse(&argv[..6]).is_err(), "--trace is required");
    assert!(Args::parse(&["--workload".into(), "nope".into()]).is_err());
}
