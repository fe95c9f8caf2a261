//! The chaos soak driver: clean-vs-chaos containment differentials,
//! fault accumulation to a target count, and schedule shrinking.
//!
//! The containment argument is a differential, not an absolute: for one
//! `(scenario, seed)` pair, the clean run defines what the program is
//! *allowed* to observe, and a chaos run under any plan must either
//! reproduce that digest exactly (the fault was absorbed — retried,
//! rescanned, re-sent) or end in a precise guest-side kill. Anything
//! else — a different exit value, different registers, a silently
//! altered data page — means an injected fault leaked architecturally,
//! which is exactly the fail-open outcome the stack promises never to
//! produce. Invariant violations from [`crate::ChaosInvariants`] are
//! folded into the same problem list.

use crate::programs::{run_scenario, Scenario, ScenarioRun, ALL_SCENARIOS};
use lz_machine::fields;
use lz_machine::json::{Json, Object};
use lz_machine::rng::splitmix64;
use lz_machine::FaultPlan;
use std::collections::BTreeSet;

/// One scenario, one seed, one plan: everything the report aggregates.
#[derive(Debug, Clone)]
pub struct PlanVerdict {
    pub scenario: Scenario,
    pub seed: u64,
    pub run: ScenarioRun,
    /// Containment/invariant problems. Empty = fail-closed held.
    pub problems: Vec<String>,
}

/// Run `scenario(seed)` clean and under `plan`, and check the
/// fail-closed contract between the two runs.
pub fn verify_plan(scenario: Scenario, seed: u64, plan: &FaultPlan) -> PlanVerdict {
    let clean = run_scenario(scenario, seed, None);
    let chaos = run_scenario(scenario, seed, Some(plan));
    let mut problems = Vec::new();
    for v in &clean.violations {
        problems.push(format!("clean run invariant violation: {v}"));
    }
    if clean.killed {
        problems.push(format!("clean run was killed (digest {})", clean.digest));
    }
    if clean.injected != 0 {
        problems.push("clean run injected faults with no plan installed".to_string());
    }
    for v in &chaos.violations {
        problems.push(format!("chaos run invariant violation: {v}"));
    }
    if chaos.digest != clean.digest && !chaos.killed {
        problems.push(format!(
            "containment breach: chaos digest `{}` != clean digest `{}` without a guest kill",
            chaos.digest, clean.digest
        ));
    }
    PlanVerdict { scenario, seed, run: chaos, problems }
}

/// Aggregate outcome of a soak.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Scenario runs performed (clean + chaos pairs).
    pub runs: u64,
    /// Chaos runs that ended in a guest-side kill (allowed).
    pub kills: u64,
    pub faults_injected: u64,
    pub faults_contained: u64,
    pub ve_kills: u64,
    pub journal_dropped: u64,
    /// Every problem found, prefixed with its scenario and seed.
    pub problems: Vec<String>,
    /// The first failing `(scenario, seed, plan)` triple, kept for
    /// shrinking.
    pub first_failure: Option<(Scenario, u64, FaultPlan)>,
}

impl SoakReport {
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// Single-line JSON for the CI determinism leg (two invocations
    /// with the same arguments must emit identical bytes).
    pub fn to_json(&self, base_seed: u64, rate: u64) -> String {
        let obj = Object::new().field("benchmark", "chaos_soak").field("seed", &base_seed).field("rate", &rate);
        fields!(obj, self; runs, kills, faults_injected, faults_contained, ve_kills, journal_dropped)
            .field("invariant_violations", &self.problems.len())
            .to_json()
    }
}

/// Soak until at least `target_faults` faults have been injected (or
/// `max_rounds` rounds, whichever comes first), cycling all four
/// scenarios with per-round seeds derived from `base_seed`.
pub fn run_soak(base_seed: u64, rate: u64, target_faults: u64, max_rounds: u64) -> SoakReport {
    let mut report = SoakReport::default();
    for round in 0..max_rounds {
        if report.faults_injected >= target_faults {
            break;
        }
        for (i, &scenario) in ALL_SCENARIOS.iter().enumerate() {
            let seed = splitmix64(base_seed ^ splitmix64(round << 8 | i as u64));
            let plan = FaultPlan::new(splitmix64(seed)).with_rate(rate);
            let v = verify_plan(scenario, seed, &plan);
            report.runs += 1;
            report.kills += v.run.killed as u64;
            report.faults_injected += v.run.injected;
            report.faults_contained += v.run.contained;
            report.ve_kills += v.run.ve_kills;
            report.journal_dropped += v.run.journal_dropped;
            if !v.problems.is_empty() {
                for p in &v.problems {
                    report.problems.push(format!("[{} seed={seed:#x}] {p}", scenario.name()));
                }
                report.first_failure.get_or_insert((scenario, seed, plan));
            }
        }
    }
    report
}

/// Classic ddmin (Zeller/Hildebrandt delta debugging) over a set, with
/// a guaranteed-1-minimal result.
///
/// `fails(subset)` returns `Some(evidence)` when the failure still
/// reproduces on `subset` and `None` when it passes. Starting from
/// `full` (which must fail — otherwise this returns `None`), the chunked
/// phase partitions the current set into `n` chunks and tries reducing
/// to each chunk, then to each chunk's complement, doubling granularity
/// when neither helps. A final singleton-removal fixpoint pass then
/// drops any element whose individual removal still fails, so the
/// returned set is **1-minimal**: removing any single element makes the
/// predicate pass.
///
/// The chunked phase is what lets the result escape the local minima a
/// greedy single-removal loop gets stuck in: a predicate failing only on
/// `{a, b, c}` and `{a}` passes on every 2-element subset, so removing
/// one element at a time can never reach `{a}` — reducing *to a chunk*
/// can.
pub fn ddmin_set<T: Clone + Ord, E>(
    full: &BTreeSet<T>,
    mut fails: impl FnMut(&BTreeSet<T>) -> Option<E>,
) -> Option<(BTreeSet<T>, E)> {
    let mut set = full.clone();
    let mut evidence = fails(&set)?;
    let mut n = 2usize;
    'outer: while set.len() >= 2 {
        n = n.min(set.len());
        let items: Vec<T> = set.iter().cloned().collect();
        let chunk_len = items.len().div_ceil(n);
        let chunks: Vec<BTreeSet<T>> = items.chunks(chunk_len).map(|c| c.iter().cloned().collect()).collect();
        // Reduce to a failing chunk: the big jump toward minimality.
        for c in &chunks {
            if c.len() < set.len() {
                if let Some(e) = fails(c) {
                    set = c.clone();
                    evidence = e;
                    n = 2;
                    continue 'outer;
                }
            }
        }
        // Reduce to a failing complement (set minus one chunk).
        for c in &chunks {
            let complement: BTreeSet<T> = set.difference(c).cloned().collect();
            if complement.len() < set.len() && !complement.is_empty() {
                if let Some(e) = fails(&complement) {
                    set = complement;
                    evidence = e;
                    n = (n - 1).max(2);
                    continue 'outer;
                }
            }
        }
        if n >= set.len() {
            break; // already at singleton granularity, nothing helped
        }
        n = (n * 2).min(set.len());
    }
    // Singleton-removal fixpoint: guarantees 1-minimality (and reaches
    // the empty set if even a lone survivor turns out to be redundant).
    loop {
        let mut shrunk = false;
        for x in set.clone() {
            let mut candidate = set.clone();
            candidate.remove(&x);
            if let Some(e) = fails(&candidate) {
                set = candidate;
                evidence = e;
                shrunk = true;
            }
        }
        if !shrunk {
            break;
        }
    }
    Some((set, evidence))
}

/// Shrink a failing plan to a 1-minimal replayed fault schedule.
///
/// [`ddmin_set`] over the recorded `(seq, site)` schedule: re-run under
/// [`FaultPlan::replay`] with a subset of faults and keep any subset on
/// which the failure (any problem) still reproduces. Removing a fault
/// does not renumber the survivors — replay matches on the consultation
/// sequence numbers of the *original* run, which depend only on the
/// seed and site filter — so the subset schedule is exact, not
/// approximate.
///
/// Returns the shrunk schedule and the problems it still produces, or
/// `None` if the plan does not actually fail (nothing to shrink).
pub fn shrink_plan(scenario: Scenario, seed: u64, plan: &FaultPlan) -> Option<(BTreeSet<u64>, Vec<String>)> {
    let fails = |schedule: &BTreeSet<u64>| -> Option<Vec<String>> {
        let replay = plan.clone().replay(schedule.clone());
        let v = verify_plan(scenario, seed, &replay);
        if v.problems.is_empty() {
            None
        } else {
            Some(v.problems)
        }
    };
    let full = verify_plan(scenario, seed, plan);
    if full.problems.is_empty() {
        return None;
    }
    let schedule: BTreeSet<u64> = full.run.fired.iter().map(|&(seq, _)| seq).collect();
    ddmin_set(&schedule, fails) // replay of the full schedule must still fail
}

#[cfg(test)]
mod tests {
    use super::*;
    use lz_machine::FaultSite;

    #[test]
    fn seed_mixing_separates_rounds() {
        let a = splitmix64(1 ^ splitmix64(0));
        let b = splitmix64(1 ^ splitmix64(1));
        assert_ne!(a, b);
    }

    #[test]
    fn clean_randomized_scenario_verifies() {
        // A plan with an impossible rate injects nothing; the verdict
        // must be clean and digest-identical by construction.
        let plan = FaultPlan::new(7).with_max_faults(0);
        let v = verify_plan(Scenario::Randomized, 3, &plan);
        assert!(v.problems.is_empty(), "{:?}", v.problems);
        assert_eq!(v.run.injected, 0);
    }

    #[test]
    fn soak_injects_and_reports() {
        let report = run_soak(0xA5, 6, 1, 1);
        assert!(report.runs >= 4, "one round covers all scenarios");
        assert!(report.ok(), "soak found problems: {:?}", report.problems);
    }

    #[test]
    fn report_json_is_single_line() {
        let report = SoakReport::default();
        let json = report.to_json(1, 16);
        assert_eq!(json.lines().count(), 1);
        assert!(json.contains(r#""benchmark":"chaos_soak""#));
    }

    /// The shipped shrinker before the ddmin rewrite: remove one element
    /// at a time, keep the removal if the failure reproduces, iterate to
    /// fixpoint. Kept here verbatim as the regression baseline.
    fn greedy_shrink(full: &BTreeSet<u64>, fails: impl Fn(&BTreeSet<u64>) -> bool) -> BTreeSet<u64> {
        let mut set = full.clone();
        loop {
            let mut shrunk = false;
            for x in set.clone() {
                let mut candidate = set.clone();
                candidate.remove(&x);
                if fails(&candidate) {
                    set = candidate;
                    shrunk = true;
                }
            }
            if !shrunk {
                break;
            }
        }
        set
    }

    #[test]
    fn ddmin_escapes_greedy_local_minimum() {
        // A failure that reproduces only on {1,2,3} and {1}: every
        // 2-element subset passes, so single-element removal can never
        // leave {1,2,3} — the old greedy loop returns the full set.
        let full: BTreeSet<u64> = [1, 2, 3].into();
        let one: BTreeSet<u64> = [1].into();
        let fails_on = |s: &BTreeSet<u64>| *s == full || *s == one;

        let greedy = greedy_shrink(&full, fails_on);
        assert_eq!(greedy, full, "greedy baseline unexpectedly escaped the local minimum");

        let (shrunk, ()) = ddmin_set(&full, |s| if fails_on(s) { Some(()) } else { None }).expect("full set fails");
        assert_eq!(shrunk, one, "ddmin must reduce to the 1-minimal failing subset");
    }

    #[test]
    fn ddmin_output_is_one_minimal() {
        // Failure = subset contains {2, 5, 9}. ddmin must find exactly
        // that core from a 12-element haystack, and removing any single
        // element of the result must make the predicate pass.
        let full: BTreeSet<u64> = (0..12).collect();
        let core: BTreeSet<u64> = [2, 5, 9].into();
        let fails_on = |s: &BTreeSet<u64>| core.is_subset(s);
        let (shrunk, ()) = ddmin_set(&full, |s| if fails_on(s) { Some(()) } else { None }).expect("full set fails");
        assert_eq!(shrunk, core);
        for x in &shrunk {
            let mut cand = shrunk.clone();
            cand.remove(x);
            assert!(!fails_on(&cand), "result not 1-minimal: still fails without {x}");
        }
    }

    #[test]
    fn ddmin_reaches_empty_when_failure_is_unconditional() {
        let full: BTreeSet<u64> = (0..5).collect();
        let (shrunk, ()) = ddmin_set(&full, |_| Some(())).expect("always fails");
        assert!(shrunk.is_empty(), "unconditional failure must shrink to the empty schedule");
    }

    #[test]
    fn ddmin_rejects_passing_input() {
        let full: BTreeSet<u64> = (0..5).collect();
        assert!(ddmin_set::<u64, ()>(&full, |_| None).is_none());
    }

    #[test]
    fn sched_preempt_faults_are_absorbed() {
        // Scheduler preemption alone must never change the SMP outcome.
        let plan = FaultPlan::new(11).with_sites(&[FaultSite::SchedPreempt]).with_rate(2);
        let v = verify_plan(Scenario::Smp, 5, &plan);
        assert!(v.problems.is_empty(), "{:?}", v.problems);
        assert!(v.run.injected > 0, "preemption site never consulted");
    }
}
