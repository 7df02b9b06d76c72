//! The adaptive runtime: always-on profiling, drift-triggered
//! re-planning, and validated hot-swapping of sequence replicas.
//!
//! An [`AdaptiveRuntime`] owns an *instrumented, never cleaned-up*
//! module. The probes stay in the deployed program — the VM counts them
//! as architecturally free, so continuous profiling costs nothing — and
//! the clean-up pass is never run, so block ids stay stable and a
//! sequence can be re-spliced any number of times by rewriting its head
//! in place.
//!
//! At every VM epoch (a safe point: a sequence head at call depth 1)
//! the runtime folds the fresh counter deltas into per-sequence decayed
//! counters, asks the [`DriftDetector`] whether the live distribution
//! still matches the one the deployed ordering was selected under, and
//! on drift re-plans with [`decide()`], the per-sequence step the offline
//! pipeline runs too. A new ordering is deployed only if its chain cost
//! beats the *deployed* ordering's under the live profile by a margin,
//! and only through [`commit`] with a proof: the first deployment of an
//! ordering is certified against the pristine (pre-any-swap) function
//! and its certificate cached; re-deploying a previously proven
//! ordering (the common case under oscillating drift) admits by
//! *re-checking* the cached certificate with the independent checker —
//! O(certificate) instead of a fresh proof. A refutation or a failed
//! certificate check aborts the swap and leaves the function exactly
//! as deployed, never the run.

use std::collections::HashMap;

use br_ir::{FuncId, Module, SeqId};
use br_reorder::emit::form4_below_first;
use br_reorder::profile::plan_ranges;
use br_reorder::{
    commit, decide, detect_all, instrument_module, profiles_from_run, Decision, DetectedSequence,
    DispatchPlan, Ordering, Proof, SequenceCertificate, SequencePlan, SequenceProfile,
    StageFailure,
};
use br_vm::{EpochHook, Image, RunOutcome, Trap, VmOptions};

use crate::drift::{normalize, DriftDecision, DriftDetector, DriftThresholds};

/// Configuration of the adaptive runtime.
#[derive(Clone, Debug)]
pub struct AdaptOptions {
    /// VM configuration; `vm.epoch_blocks` is the adaptation epoch
    /// length (how often, in executed blocks, the runtime gets control).
    pub vm: VmOptions,
    /// Drift-detector thresholds, shared by every sequence.
    pub thresholds: DriftThresholds,
    /// Fractional cost margin a re-plan must clear to replace the
    /// deployed ordering (`new < deployed * (1 - min_gain)`); keeps
    /// marginal wins from churning replicas.
    pub min_gain: f64,
    /// Use the exhaustive ordering search when re-planning.
    pub exhaustive: bool,
    /// Heuristic Set IV at swap time: when the DP comparison tree or the
    /// jump table strictly beats the selected chain ordering under the
    /// live profile, deploy that structure instead. The first deployment
    /// gates on the deployed structure's cost, like the pipeline. Drift
    /// gating and the `min_gain` comparison still run on chain costs (a
    /// conservative overestimate of what actually gets deployed), so on
    /// drift this can only lower the cost of an admitted swap.
    pub opt_tree: bool,
}

impl Default for AdaptOptions {
    fn default() -> AdaptOptions {
        AdaptOptions {
            vm: VmOptions {
                epoch_blocks: 1_000,
                ..VmOptions::default()
            },
            thresholds: DriftThresholds::default(),
            min_gain: 0.05,
            exhaustive: false,
            opt_tree: false,
        }
    }
}

/// Live state of one reorderable sequence.
struct SeqState {
    func: FuncId,
    seq: DetectedSequence,
    sid: SeqId,
    /// Exponentially decayed range-exit counters (halved each epoch).
    decayed: Vec<f64>,
    /// Cumulative VM counters at the previous epoch of the current run
    /// (the VM's counters are per-run, so deltas are taken against this).
    last_cum: Vec<u64>,
    detector: DriftDetector,
    /// Currently deployed ordering; `None` means the original source
    /// order is still in place.
    deployed: Option<Ordering>,
    /// Proof certificates of every ordering deployed on this sequence,
    /// keyed by [`ordering_key`]; re-deployments admit on a re-check.
    certs: HashMap<u64, SequenceCertificate>,
    /// Swaps admitted by a certificate re-check (no re-proof).
    cert_admissions: u64,
    swaps: u64,
    aborted: u64,
    drift_epochs: u64,
}

/// A continuously reoptimizing execution environment for one module.
pub struct AdaptiveRuntime {
    module: Module,
    /// `module` decoded for the VM's fast engine; re-decoded after a
    /// segment that swapped.
    image: Image,
    /// The instrumented module before any swap: every replica is
    /// validated against this, so repeated swaps cannot compound error.
    pristine: Module,
    opts: AdaptOptions,
    seqs: Vec<SeqState>,
    epochs: u64,
}

impl AdaptiveRuntime {
    /// Build a runtime for an optimized module. The module is
    /// instrumented (probes are kept for the lifetime of the runtime);
    /// when `training` is given, a profiling run on it selects and
    /// deploys initial orderings, exactly like the offline pipeline —
    /// except that clean-up is skipped so later swaps stay possible.
    ///
    /// # Errors
    ///
    /// Returns the training run's [`Trap`], if any.
    pub fn new(
        optimized: &Module,
        training: Option<&[u8]>,
        opts: &AdaptOptions,
    ) -> Result<AdaptiveRuntime, Trap> {
        let detections = detect_all(optimized);
        let mut module = optimized.clone();
        let ids = instrument_module(&mut module, &detections);
        let pristine = module.clone();
        let mut seqs: Vec<SeqState> = detections
            .into_iter()
            .zip(&ids)
            .map(|((func, seq), &sid)| {
                let n = plan_ranges(&seq).len();
                SeqState {
                    func,
                    seq,
                    sid,
                    decayed: vec![0.0; n],
                    last_cum: vec![0; n],
                    detector: DriftDetector::new(None),
                    deployed: None,
                    certs: HashMap::new(),
                    cert_admissions: 0,
                    swaps: 0,
                    aborted: 0,
                    drift_epochs: 0,
                }
            })
            .collect();
        if let Some(input) = training {
            let outcome = br_vm::run(&module, input, &opts.vm)?;
            let profiles = profiles_from_run(&ids, &outcome.profiles);
            for (s, profile) in seqs.iter_mut().zip(&profiles) {
                let Some(decision) =
                    decide(s.func, &s.seq, profile, opts.exhaustive, opts.opt_tree)
                else {
                    continue;
                };
                // The training distribution is the selection basis even
                // when the original order is kept: that decision, too,
                // was made under it.
                let counts_f: Vec<f64> = profile.counts.iter().map(|&c| c as f64).collect();
                s.detector = DriftDetector::new(Some(normalize(&counts_f)));
                if decision.improves() && try_swap(&mut module, &pristine, s, &decision).is_ok() {
                    s.deployed = Some(decision.plan.ordering);
                }
            }
        }
        Ok(AdaptiveRuntime {
            image: Image::decode(&module),
            module,
            pristine,
            opts: opts.clone(),
            seqs,
            epochs: 0,
        })
    }

    /// Execute one input segment with adaptation enabled: the VM pauses
    /// at each epoch boundary and the runtime may hot-swap replicas.
    ///
    /// # Errors
    ///
    /// Returns the VM's [`Trap`], if any.
    pub fn run_segment(&mut self, input: &[u8]) -> Result<RunOutcome, Trap> {
        // VM profile counters are per-run: restart the delta baseline.
        for s in &mut self.seqs {
            s.last_cum.fill(0);
        }
        let mut ctl = EpochController {
            seqs: &mut self.seqs,
            pristine: &self.pristine,
            opts: &self.opts,
            epochs: &mut self.epochs,
            swapped: false,
        };
        let outcome = br_vm::run_hooked(&mut self.module, input, &self.opts.vm, &mut ctl);
        if ctl.swapped {
            self.image = Image::decode(&self.module);
        }
        let outcome = outcome?;
        // Fold the tail of the run (since the last epoch) into the
        // decayed counters, undecayed — the next epoch will halve it.
        for s in &mut self.seqs {
            for (i, d) in s.decayed.iter_mut().enumerate() {
                *d += (outcome.profiles[s.sid.index()][i] - s.last_cum[i]) as f64;
            }
        }
        Ok(outcome)
    }

    /// Execute one input segment with adaptation *disabled*: the module
    /// runs as currently deployed (probes and all), and nothing is
    /// swapped. This is the train-once baseline's execution mode, kept
    /// on the identical apply machinery so comparisons against
    /// [`Self::run_segment`] isolate ordering quality.
    ///
    /// # Errors
    ///
    /// Returns the VM's [`Trap`], if any.
    pub fn run_frozen(&self, input: &[u8]) -> Result<RunOutcome, Trap> {
        let opts = VmOptions {
            epoch_blocks: 0,
            ..self.opts.vm.clone()
        };
        br_vm::run_image(&self.image, input, &opts)
    }

    /// The currently deployed module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Reorderable sequences under management.
    pub fn sequence_count(&self) -> usize {
        self.seqs.len()
    }

    /// Sequences currently running a non-original ordering.
    pub fn deployed_count(&self) -> usize {
        self.seqs.iter().filter(|s| s.deployed.is_some()).count()
    }

    /// Successful hot swaps (including the initial training deployment).
    pub fn swaps(&self) -> u64 {
        self.seqs.iter().map(|s| s.swaps).sum()
    }

    /// Swaps aborted by a failed validation (the run continued on the
    /// previously deployed code).
    pub fn aborted_swaps(&self) -> u64 {
        self.seqs.iter().map(|s| s.aborted).sum()
    }

    /// Swaps admitted by re-checking a cached proof certificate instead
    /// of re-proving the ordering from scratch.
    pub fn cert_admissions(&self) -> u64 {
        self.seqs.iter().map(|s| s.cert_admissions).sum()
    }

    /// Epochs in which some sequence's live distribution had drifted.
    pub fn drift_epochs(&self) -> u64 {
        self.seqs.iter().map(|s| s.drift_epochs).sum()
    }

    /// Total adaptation epochs observed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}

/// The borrow-split epoch hook: holds everything [`AdaptiveRuntime`]
/// owns *except* the module, which the VM lends back mutably.
struct EpochController<'a> {
    seqs: &'a mut [SeqState],
    pristine: &'a Module,
    opts: &'a AdaptOptions,
    epochs: &'a mut u64,
    /// Some epoch of this run mutated the module.
    swapped: bool,
}

impl EpochHook for EpochController<'_> {
    fn on_epoch(&mut self, module: &mut Module, profiles: &mut [Vec<u64>]) -> bool {
        *self.epochs += 1;
        let mut mutated = false;
        for s in self.seqs.iter_mut() {
            let cum = &profiles[s.sid.index()];
            for (i, d) in s.decayed.iter_mut().enumerate() {
                let delta = cum[i] - s.last_cum[i];
                *d = *d / 2.0 + delta as f64;
                s.last_cum[i] = cum[i];
            }
            let mass: f64 = s.decayed.iter().sum();
            let live = normalize(&s.decayed);
            match s.detector.observe(&live, mass, &self.opts.thresholds) {
                DriftDecision::NotReady | DriftDecision::Stable => continue,
                DriftDecision::Drifted => s.drift_epochs += 1,
                DriftDecision::Adopt => {}
            }
            let counts: Vec<u64> = s.decayed.iter().map(|&c| c.round() as u64).collect();
            let profile = SequenceProfile { counts };
            let Some(decision) = decide(
                s.func,
                &s.seq,
                &profile,
                self.opts.exhaustive,
                self.opts.opt_tree,
            ) else {
                continue;
            };
            let deployed_cost = decision.plan.cost_of_deployed(s.deployed.as_ref());
            if decision.plan.ordering.cost < deployed_cost * (1.0 - self.opts.min_gain)
                && try_swap(module, self.pristine, s, &decision).is_ok()
            {
                s.deployed = Some(decision.plan.ordering);
                mutated = true;
            }
            // Whether we swapped, aborted, or judged the deployed
            // ordering still competitive, the live distribution becomes
            // the new selection basis — without this, an unprofitable
            // drift would re-flag every epoch.
            s.detector.rebase(live, &self.opts.thresholds);
        }
        self.swapped |= mutated;
        mutated
    }
}

/// Content fingerprint of a decision as it will be emitted: the items'
/// ranges, targets and sources, the selected emission order, each
/// Form 4 item's branch orientation (the one thing emission reads from
/// the probabilities), and the shape of a deployed tree or table. Two
/// swaps that agree here emit the same replica, so they share a proof
/// certificate.
fn ordering_key(decision: &Decision) -> u64 {
    let SequencePlan {
        items, ordering, ..
    } = &decision.plan;
    let Ordering {
        explicit,
        eliminated,
        default_target,
        ..
    } = ordering;
    let ranges: Vec<_> = items
        .iter()
        .map(|it| (it.range, it.target, it.source))
        .collect();
    let form4: Vec<bool> = (0..explicit.len())
        .filter(|&pos| items[explicit[pos]].range.is_bounded_multi())
        .map(|pos| form4_below_first(items, ordering, pos))
        .collect();
    let structure = match &decision.dispatch {
        None => String::from("chain"),
        Some(DispatchPlan::Tree(t)) => format!("tree {:?}", t.root),
        Some(DispatchPlan::Table(t)) => format!(
            "table {}..{} {:?} below {} above {}",
            t.base, t.limit, t.slots, t.below, t.above
        ),
    };
    let key =
        format!("{ranges:?}|{explicit:?}|{eliminated:?}|{default_target}|{form4:?}|{structure}");
    br_analysis::cert::fingerprint(&key)
}

/// Deploy `decision` on the live function through [`commit`], which
/// lays the replica out before the proof so the proof covers the
/// laid-out code. The first deployment of an ordering is certified
/// against the *pristine* chain (earlier replicas stay outside the
/// proof's walk domain, so repeated swaps cannot compound error) and
/// its certificate cached; a re-deployment — drift oscillating between
/// two profiles — admits on a re-check of the cached certificate. On
/// any failure the function is left exactly as it was.
fn try_swap(
    module: &mut Module,
    pristine: &Module,
    s: &mut SeqState,
    decision: &Decision,
) -> Result<(), StageFailure> {
    let key = ordering_key(decision);
    let cached = s.certs.get(&key);
    let readmit = cached.is_some();
    let proof = cached.map_or(Proof::Certify, Proof::Recheck);
    let (f, reference) = (module.function_mut(s.func), pristine.function(s.func));
    let tail = br_layout::reposition_tail;
    let committed = commit(f, Some(reference), &s.seq, decision, proof, tail)
        .inspect_err(|_| s.aborted += 1)?;
    s.certs
        .extend(committed.certificate.map(|cert| (key, cert)));
    s.cert_admissions += u64::from(readmit);
    s.swaps += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::Terminator;
    use br_minic::{compile, Options};
    use br_reorder::{plan_for_profile, Stage};

    const CLASSIFIER: &str = "
        int main() {
            int c; int k; k = 0;
            c = getchar();
            while (c != -1) {
                if (c == ' ') k += 1;
                else if (c == 10) k += 2;
                else if (c == 9) k += 3;
                else k += 7;
                c = getchar();
            }
            putint(k);
            return 0;
        }";

    fn classifier() -> Module {
        let mut m = compile(CLASSIFIER, &Options::default()).expect("compiles");
        br_opt::optimize(&mut m);
        m
    }

    fn some_plan(s: &SeqState) -> SequencePlan {
        let n = plan_ranges(&s.seq).len();
        let counts: Vec<u64> = (1..=n as u64).rev().collect();
        plan_for_profile(&s.seq, &SequenceProfile { counts }, false).expect("nonzero profile")
    }

    /// The chain decision for `plan`, as `decide` would make it.
    fn chain(s: &SeqState, plan: SequencePlan) -> Decision {
        Decision::new(s.func, &s.seq, plan, false)
    }

    /// A Form 4 range between two singletons: its branch orientation
    /// follows where the default ranges' mass lies.
    const LOWERCASE: &str = "
        int main() {
            int c; int k; k = 0;
            c = getchar();
            while (c != -1) {
                if (c == 32) k += 1;
                else if (c >= 97 && c <= 122) k += 2;
                else if (c == 10) k += 3;
                else k += 7;
                c = getchar();
            }
            putint(k);
            return 0;
        }";

    #[test]
    fn replicas_that_differ_never_share_a_certificate_key() {
        let mut m = compile(LOWERCASE, &Options::default()).expect("compiles");
        br_opt::optimize(&mut m);
        for opt_tree in [false, true] {
            let opts = AdaptOptions {
                opt_tree,
                ..AdaptOptions::default()
            };
            let rt = AdaptiveRuntime::new(&m, None, &opts).unwrap();
            let s = &rt.seqs[0];
            let ranges = plan_ranges(&s.seq);
            let reference = rt.pristine.function(s.func);
            // Certificate text (it embeds the whole replica) per key.
            let mut by_key: HashMap<u64, String> = HashMap::new();
            let mut replicas = std::collections::HashSet::new();
            for step in 0..20u64 {
                // Grow the default range above [97, 122] past everything
                // below it: the chain order stays put while the Form 4
                // test's branch orientation flips.
                let counts = ranges
                    .iter()
                    .map(|(r, ..)| match (r.lo, r.hi) {
                        (97, 122) => 500,
                        (32, 32) => 20,
                        (10, 10) => 10,
                        (-1, -1) => 1,
                        (_, hi) if hi < 97 => 30,
                        _ => 100 + 10 * step,
                    })
                    .collect();
                let profile = SequenceProfile { counts };
                let decision = decide(s.func, &s.seq, &profile, false, opt_tree).unwrap();
                let mut f = reference.clone();
                let cert = commit(
                    &mut f,
                    Some(reference),
                    &s.seq,
                    &decision,
                    Proof::Certify,
                    br_layout::reposition_tail,
                )
                .expect("certifies")
                .certificate
                .expect("certify mode returns a certificate")
                .text;
                replicas.insert(cert.clone());
                let earlier = by_key
                    .entry(ordering_key(&decision))
                    .or_insert(cert.clone());
                assert!(
                    *earlier == cert,
                    "opt_tree {opt_tree}, step {step}: two different replicas share a key"
                );
            }
            assert!(replicas.len() >= 2, "the profiles must change the replica");
            assert!(by_key.len() < 20, "equal replicas must share a key");
        }
    }

    #[test]
    fn swapped_replica_tail_is_laid_out() {
        // After a certified swap, the appended replica must already be
        // in chained fall-through order: re-running the tail layout is a
        // no-op, and the prefix block ids are untouched.
        let m = classifier();
        let mut rt = AdaptiveRuntime::new(&m, None, &AdaptOptions::default()).unwrap();
        let AdaptiveRuntime {
            module,
            pristine,
            seqs,
            ..
        } = &mut rt;
        let s = &mut seqs[0];
        let replica_start = module.function(s.func).blocks.len();
        let decision = chain(s, some_plan(s));
        try_swap(module, pristine, s, &decision).expect("swap validates");
        let f = module.function(s.func);
        assert!(f.blocks.len() > replica_start, "replica appended");
        let mut again = f.clone();
        br_layout::reposition_tail(&mut again, replica_start);
        assert_eq!(&again, f, "tail layout must be idempotent after a swap");
        // And the laid-out module still behaves like the original.
        let input = b"some words\there\nand more  \n";
        let base = br_vm::run(&m, input, &VmOptions::default()).unwrap();
        let got = br_vm::run(&rt.module, input, &VmOptions::default()).unwrap();
        assert_eq!(base.output, got.output);
        assert_eq!(base.exit, got.exit);
    }

    #[test]
    fn broken_ordering_aborts_before_splicing() {
        let m = classifier();
        let mut rt = AdaptiveRuntime::new(&m, None, &AdaptOptions::default()).unwrap();
        assert_eq!(rt.sequence_count(), 1);
        let before = rt.module.clone();
        let AdaptiveRuntime {
            module,
            pristine,
            seqs,
            ..
        } = &mut rt;
        let s = &mut seqs[0];
        let mut plan = some_plan(s);
        plan.ordering.explicit = vec![0, 0];
        let failure = try_swap(module, pristine, s, &chain(s, plan)).unwrap_err();
        assert_eq!(failure.stage, Stage::Order);
        assert_eq!(module.function(s.func), before.function(s.func));
        assert_eq!(s.aborted, 1);
        assert_eq!(s.swaps, 0);
    }

    #[test]
    fn failed_validation_reverts_the_swap_and_keeps_running() {
        let m = classifier();
        let mut rt = AdaptiveRuntime::new(&m, None, &AdaptOptions::default()).unwrap();
        let before = rt.module.clone();
        let AdaptiveRuntime {
            module,
            pristine,
            seqs,
            ..
        } = &mut rt;
        let s = &mut seqs[0];
        let mut plan = some_plan(s);
        // Cross two exits: the replica then routes values to the wrong
        // targets — structurally fine, semantically wrong.
        let (i, j) = {
            let ts: Vec<_> = plan.items.iter().map(|it| it.target).collect();
            let j = (1..ts.len())
                .find(|&j| ts[j] != ts[0])
                .expect("two targets");
            (0, j)
        };
        let t = plan.items[i].target;
        plan.items[i].target = plan.items[j].target;
        plan.items[j].target = t;
        let failure = try_swap(module, pristine, s, &chain(s, plan)).unwrap_err();
        assert_eq!(failure.stage, Stage::Emit, "{failure}");
        assert_eq!(
            module.function(s.func),
            before.function(s.func),
            "failed swap must leave the function untouched"
        );
        assert_eq!(s.aborted, 1);
        // The untouched module still runs.
        let out = br_vm::run(&rt.module, b"a b\nc", &VmOptions::default()).unwrap();
        assert_eq!(out.exit, 0);
    }

    #[test]
    fn good_swap_validates_and_can_be_reswapped() {
        let m = classifier();
        let mut rt = AdaptiveRuntime::new(&m, None, &AdaptOptions::default()).unwrap();
        let AdaptiveRuntime {
            module,
            pristine,
            seqs,
            ..
        } = &mut rt;
        let s = &mut seqs[0];
        let decision = chain(s, some_plan(s));
        try_swap(module, pristine, s, &decision).expect("first swap validates");
        assert!(matches!(
            module.function(s.func).block(s.seq.head).term,
            Terminator::Jump(_)
        ));
        assert_eq!(s.certs.len(), 1, "first swap caches its certificate");
        assert_eq!(s.cert_admissions, 0, "first swap must prove, not re-check");
        // Re-swap with a different profile: the head now has no compare,
        // so this exercises the retarget-only path — and a new ordering,
        // so a second proof.
        let n = plan_ranges(&s.seq).len();
        let counts: Vec<u64> = (1..=n as u64).collect();
        let profile = SequenceProfile { counts };
        let decision2 = decide(s.func, &s.seq, &profile, false, false).expect("nonzero");
        try_swap(module, pristine, s, &decision2).expect("re-swap validates");
        assert_eq!(s.swaps, 2);
        assert_eq!(s.aborted, 0);
        assert_eq!(s.certs.len(), 2);
        // Oscillate back to the first ordering: it was already proven,
        // so admission is a certificate re-check, not a fresh proof.
        try_swap(module, pristine, s, &decision).expect("re-deployment re-checks");
        assert_eq!(s.swaps, 3);
        assert_eq!(s.cert_admissions, 1, "third swap admits on the cached cert");
        assert_eq!(s.certs.len(), 2, "no new certificate for a proven ordering");
        // The thrice-swapped module still behaves like the original.
        let input = b"words and\ttabs\nmore words  here\n";
        let base = br_vm::run(&m, input, &VmOptions::default()).unwrap();
        let got = br_vm::run(&rt.module, input, &VmOptions::default()).unwrap();
        assert_eq!(base.output, got.output);
        assert_eq!(base.exit, got.exit);
    }

    /// Ten contiguous singleton cases: dense and, under a flat profile,
    /// exactly the shape where Set IV deploys a jump table.
    const DENSE: &str = "
        int main() {
            int c; int k; k = 0;
            c = getchar();
            while (c != -1) {
                if (c == 'a') k += 1;
                else if (c == 'b') k += 2;
                else if (c == 'c') k += 3;
                else if (c == 'd') k += 4;
                else if (c == 'e') k += 5;
                else if (c == 'f') k += 6;
                else if (c == 'g') k += 7;
                else if (c == 'h') k += 8;
                else if (c == 'i') k += 9;
                else if (c == 'j') k += 10;
                else k += 11;
                c = getchar();
            }
            putint(k);
            return 0;
        }";

    #[test]
    fn opt_tree_swap_deploys_a_proof_carrying_dispatch() {
        let mut m = compile(DENSE, &Options::default()).expect("compiles");
        br_opt::optimize(&mut m);
        let mut rt = AdaptiveRuntime::new(&m, None, &AdaptOptions::default()).unwrap();
        assert_eq!(rt.sequence_count(), 1);
        let AdaptiveRuntime {
            module,
            pristine,
            seqs,
            ..
        } = &mut rt;
        let s = &mut seqs[0];
        let n = plan_ranges(&s.seq).len();
        let profile = SequenceProfile {
            counts: vec![10; n],
        };
        let decision = decide(s.func, &s.seq, &profile, false, true).expect("nonzero profile");
        try_swap(module, pristine, s, &decision).expect("dispatch swap proves");
        assert!(
            module
                .function(s.func)
                .blocks
                .iter()
                .any(|b| matches!(b.term, Terminator::IndirectJump { .. })),
            "a flat dense profile must deploy a jump table"
        );
        assert_eq!(s.certs.len(), 1, "the dispatch proof is cached");
        // Re-deploying the same plan admits by re-checking the cached
        // certificate — a brcert v2 through the independent checker.
        try_swap(module, pristine, s, &decision).expect("re-deployment re-checks");
        assert_eq!(s.cert_admissions, 1);
        // The swapped module still behaves like the original, including
        // on bytes outside the table window.
        let input = b"abcjihgfed XYZ\n0129~";
        let base = br_vm::run(&m, input, &VmOptions::default()).unwrap();
        let got = br_vm::run(&rt.module, input, &VmOptions::default()).unwrap();
        assert_eq!(base.output, got.output);
        assert_eq!(base.exit, got.exit);
    }

    #[test]
    fn tampered_certificate_blocks_readmission() {
        let m = classifier();
        let mut rt = AdaptiveRuntime::new(&m, None, &AdaptOptions::default()).unwrap();
        let AdaptiveRuntime {
            module,
            pristine,
            seqs,
            ..
        } = &mut rt;
        let s = &mut seqs[0];
        let decision = chain(s, some_plan(s));
        try_swap(module, pristine, s, &decision).expect("first swap proves");
        // Corrupt the cached certificate (any semantic edit; here the
        // version line, which also breaks the signature).
        for cert in s.certs.values_mut() {
            cert.text = cert.text.replacen("brcert v1", "brcert v9", 1);
        }
        let before = module.function(s.func).clone();
        let failure = try_swap(module, pristine, s, &decision).unwrap_err();
        assert!(
            failure.details.iter().any(|d| d.contains("BR0301")),
            "{failure}"
        );
        assert_eq!(
            module.function(s.func),
            &before,
            "rejected admission must not touch the function"
        );
        assert_eq!(s.aborted, 1);
        assert_eq!(s.swaps, 1);
        assert_eq!(s.cert_admissions, 0);
    }
}
