//! Differential suite for bug attribution: `attribute_bugs_parallel`,
//! which replays each finding-bearing state once per enabled mutant, must
//! attribute exactly like a naive loop that calls `rerun_test` once per
//! (finding, enabled mutant) — at every thread count, in order, in all
//! four mutant families. The suite also pins the work the per-state
//! replay does, as counted by `AttributionStats`.

use std::collections::BTreeMap;

use coddb::bugs::{BugId, BugRegistry, IndexBugId, MediaBugId, RecoveryBugId};
use coddb::Dialect;
use coddtest::make_oracle;
use coddtest::runner::{
    attribute_bugs_parallel, rerun_test, run_campaign, AttributionStats, CampaignConfig,
    CampaignResult,
};

const THREADS: &[usize] = &[1, 2, 4];

/// One finding's attributions, one list per mutant family.
type Attributed = (
    Vec<BugId>,
    Vec<RecoveryBugId>,
    Vec<IndexBugId>,
    Vec<MediaBugId>,
);

fn attributions(result: &CampaignResult) -> Vec<Attributed> {
    result
        .findings
        .iter()
        .map(|f| {
            (
                f.attributed.clone(),
                f.attributed_recovery.clone(),
                f.attributed_index.clone(),
                f.attributed_media.clone(),
            )
        })
        .collect()
}

/// The reference: one `rerun_test` per (finding, enabled mutant), in
/// enabled-mutant order within each family.
fn naive_attributions(
    result: &CampaignResult,
    cfg: &CampaignConfig,
    oracle: &str,
) -> Vec<Attributed> {
    result
        .findings
        .iter()
        .map(|f| {
            let reproduces =
                |bugs: BugRegistry| rerun_test(oracle, cfg, f.state_idx, f.test_idx, &bugs);
            (
                cfg.bugs
                    .enabled()
                    .filter(|&b| reproduces(BugRegistry::only(b)))
                    .collect(),
                cfg.bugs
                    .enabled_recovery()
                    .filter(|&b| reproduces(BugRegistry::only_recovery(b)))
                    .collect(),
                cfg.bugs
                    .enabled_index()
                    .filter(|&b| reproduces(BugRegistry::only_index(b)))
                    .collect(),
                cfg.bugs
                    .enabled_media()
                    .filter(|&b| reproduces(BugRegistry::only_media(b)))
                    .collect(),
            )
        })
        .collect()
}

fn enabled_mutants(cfg: &CampaignConfig) -> u64 {
    (cfg.bugs.enabled().count()
        + cfg.bugs.enabled_recovery().count()
        + cfg.bugs.enabled_index().count()
        + cfg.bugs.enabled_media().count()) as u64
}

/// Largest finding test index per finding-bearing state.
fn last_finding_per_state(result: &CampaignResult) -> BTreeMap<u64, u64> {
    let mut last = BTreeMap::new();
    for f in &result.findings {
        let t = last.entry(f.state_idx).or_insert(f.test_idx);
        *t = (*t).max(f.test_idx);
    }
    last
}

/// Run the campaign, attribute it at every thread count, and check each
/// attribution against the naive reference and the stats against the
/// per-state replay formula. Returns the campaign and its stats.
fn check(oracle: &str, cfg: &CampaignConfig, label: &str) -> (CampaignResult, AttributionStats) {
    let mut o = make_oracle(oracle).unwrap();
    let campaign = run_campaign(o.as_mut(), cfg);
    assert!(!campaign.findings.is_empty(), "{label}: no findings");
    let expected = naive_attributions(&campaign, cfg, oracle);
    assert!(
        expected.iter().any(|a| a != &Attributed::default()),
        "{label}: no finding attributes to any mutant"
    );

    let mutants = enabled_mutants(cfg);
    let last = last_finding_per_state(&campaign);
    let want = AttributionStats {
        replays: last.len() as u64 * mutants,
        replayed_tests: last.values().map(|t| t + 1).sum::<u64>() * mutants,
    };
    for &threads in THREADS {
        let mut result = campaign.clone();
        let stats = attribute_bugs_parallel(&mut result, cfg, oracle, threads);
        assert_eq!(
            attributions(&result),
            expected,
            "{label}: threads={threads} differs from per-finding reruns"
        );
        assert_eq!(stats, want, "{label}: threads={threads} stats");
    }
    (campaign, want)
}

/// Did any state produce more than one finding?
fn has_multi_finding_state(result: &CampaignResult) -> bool {
    last_finding_per_state(result).len() < result.findings.len()
}

/// The Table 1 configuration: codd with every engine mutant of each
/// dialect. The budget is large enough that some state carries several
/// findings, the case the per-state replay folds together; there both
/// `AttributionStats` counts are strictly below one rerun per (finding,
/// mutant).
#[test]
fn codd_table1_attribution_matches_per_finding_reruns() {
    let mut multi = 0;
    for dialect in Dialect::ALL {
        let cfg = CampaignConfig {
            bugs: BugRegistry::all_for_dialect(dialect),
            tests: 1000,
            ..CampaignConfig::new(dialect)
        };
        let (campaign, stats) = check("codd", &cfg, dialect.name());
        if !has_multi_finding_state(&campaign) {
            continue;
        }
        multi += 1;
        let mutants = enabled_mutants(&cfg);
        let per_finding_reruns = campaign.findings.len() as u64 * mutants;
        let per_finding_tests: u64 = campaign
            .findings
            .iter()
            .map(|f| (f.test_idx + 1) * mutants)
            .sum();
        assert!(stats.replays < per_finding_reruns, "{dialect}: {stats:?}");
        assert!(
            stats.replayed_tests < per_finding_tests,
            "{dialect}: {stats:?}"
        );
    }
    assert!(multi > 0, "no dialect had a state with two findings");
}

/// Crash-recovery campaign with every recovery and media mutant enabled.
#[test]
fn recover_attribution_matches_per_finding_reruns() {
    let mut bugs = BugRegistry::all_recovery();
    for b in MediaBugId::ALL {
        bugs.enable_media(b);
    }
    let cfg = CampaignConfig {
        bugs,
        tests: 40,
        ..CampaignConfig::new(Dialect::Sqlite)
    };
    check("recover", &cfg, "recover");
}

/// A metamorphic oracle other than codd, with every index mutant enabled.
#[test]
fn tlp_index_attribution_matches_per_finding_reruns() {
    let cfg = CampaignConfig {
        bugs: BugRegistry::all_index(),
        tests: 1500,
        ..CampaignConfig::new(Dialect::Sqlite)
    };
    check("tlp", &cfg, "tlp/index");
}
