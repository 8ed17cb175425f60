//! Exhaustive crash-consistency sweep (the tentpole test).
//!
//! For **every** step index `k` of a live patch and of a rollback, a
//! deterministic fault is injected at the `k`-th SMM write (either a
//! failed write or a full power loss with snapshot/resume), recovery is
//! run, and the invariant is asserted:
//!
//! > every patched function's text is either fully pre-patch or fully
//! > post-patch, the Type 3 global agrees with the text, and the SMRAM
//! > record table agrees with kernel memory.
//!
//! The sweep terminates when a run completes with zero injected faults
//! (`k` walked past the last SMM write of the operation), so it adapts
//! automatically as the patch pipeline grows or shrinks.
//!
//! CVE-2016-5195 is used throughout because its patch carries the full
//! mix: two replaced functions (Type 1 trampolines) plus one global
//! value fix (Type 3 data write), so both journal paths and both
//! rollback restore paths are under the fault.

use std::collections::HashSet;

use kshot::bench_setup::{boot_benchmark_kernel, install_kshot};
use kshot::core::{KShot, Recovery};
use kshot::machine::{AccessCtx, InjectionPlan};
use kshot_cve::{find, patch_for, CveSpec};

const CVE: &str = "CVE-2016-5195";
/// The shared-limit global the patch fixes in place (Type 3).
const LIMIT_GLOBAL: &str = "g2016_5195_limit";
const LIMIT_PRE: u64 = 8;
const LIMIT_POST: u64 = 2;
/// Hard cap on sweep length; a correct pipeline finishes far below it.
const MAX_STEPS: u64 = 4096;

struct Target {
    name: &'static str,
    taddr: u64,
    size: u64,
    pre: Vec<u8>,
}

fn setup() -> (KShot, kshot::patchserver::PatchServer, &'static CveSpec) {
    let spec = find(CVE).unwrap();
    let (kernel, server) = boot_benchmark_kernel(spec.version);
    let system = install_kshot(kernel, 61);
    (system, server, spec)
}

/// Capture each target function's boot-time text from live memory.
fn capture_targets(system: &mut KShot, spec: &'static CveSpec) -> Vec<Target> {
    spec.functions
        .iter()
        .map(|name| {
            let sym = system
                .kernel()
                .image()
                .symbols
                .lookup(name)
                .unwrap_or_else(|| panic!("missing symbol {name}"))
                .clone();
            let mut pre = vec![0u8; sym.size as usize];
            system
                .kernel_mut()
                .machine_mut()
                .read_bytes(AccessCtx::Kernel, sym.addr, &mut pre)
                .unwrap();
            Target {
                name,
                taddr: sym.addr,
                size: sym.size,
                pre,
            }
        })
        .collect()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum PatchState {
    Pre,
    Post,
}

/// Assert the all-or-nothing invariant and classify the current state.
///
/// Panics if any function's text is torn (neither its pre-patch image
/// nor covered by an active trampoline record), if the functions
/// disagree with each other, if the Type 3 global disagrees with the
/// text, or if the record table disagrees with kernel memory.
fn classify(system: &mut KShot, targets: &[Target], step: u64) -> PatchState {
    let active: HashSet<u64> = system
        .active_sites()
        .unwrap()
        .iter()
        .map(|s| s.taddr)
        .collect();
    let mut pre_n = 0usize;
    let mut post_n = 0usize;
    for t in targets {
        let mut cur = vec![0u8; t.size as usize];
        system
            .kernel_mut()
            .machine_mut()
            .read_bytes(AccessCtx::Kernel, t.taddr, &mut cur)
            .unwrap();
        if cur == t.pre {
            assert!(
                !active.contains(&t.taddr),
                "step {step}: record table claims {} is patched but its text is pre-patch",
                t.name
            );
            pre_n += 1;
        } else {
            assert!(
                active.contains(&t.taddr),
                "step {step}: {} text modified but no active record covers it",
                t.name
            );
            post_n += 1;
        }
    }
    assert!(
        pre_n == targets.len() || post_n == targets.len(),
        "step {step}: torn patch — {pre_n} function(s) pre-patch, {post_n} post-patch"
    );
    let limit = system.kernel_mut().read_global(LIMIT_GLOBAL).unwrap();
    if post_n == targets.len() {
        assert_eq!(
            limit, LIMIT_POST,
            "step {step}: post-patch text but the Type 3 global was not applied"
        );
        // The SMM introspector checks every active trampoline and body
        // hash against SMRAM ground truth: zero violations means the
        // record table and kernel memory fully agree.
        assert!(
            system.introspect().unwrap().is_empty(),
            "step {step}: introspection found record/memory disagreement"
        );
        PatchState::Post
    } else {
        assert_eq!(
            limit, LIMIT_PRE,
            "step {step}: pre-patch text but the Type 3 global was applied"
        );
        PatchState::Pre
    }
}

/// Roll the system back to the pre-patch state and prove it got there.
fn rollback_to_pre(system: &mut KShot, targets: &[Target], step: u64) {
    let outcome = system.rollback_last().expect("rollback of applied patch");
    assert!(
        outcome.skipped.is_empty(),
        "step {step}: revertible writes skipped"
    );
    assert_eq!(classify(system, targets, step), PatchState::Pre);
}

/// Sweep a failed SMM write across every step of the patch path.
#[test]
fn patch_sweep_every_step_fail_write() {
    let (mut system, server, spec) = setup();
    let targets = capture_targets(&mut system, spec);
    assert_eq!(classify(&mut system, &targets, 0), PatchState::Pre);
    let mut faulted_runs = 0u64;
    let mut k = 0u64;
    loop {
        assert!(k < MAX_STEPS, "sweep did not terminate");
        system
            .kernel_mut()
            .machine_mut()
            .arm_injection(InjectionPlan::fail_nth_smm_write(k));
        let result = system.live_patch(&server, &patch_for(spec));
        let stats = system
            .kernel_mut()
            .machine_mut()
            .disarm_injection()
            .unwrap();
        if stats.faults_injected == 0 {
            // k walked past the last SMM write: a clean, complete run.
            result.expect("fault-free patch must succeed");
            assert_eq!(classify(&mut system, &targets, k), PatchState::Post);
            rollback_to_pre(&mut system, &targets, k);
            break;
        }
        faulted_runs += 1;
        assert!(
            result.is_err(),
            "step {k}: the injected fault must surface as an error"
        );
        let recovery = system.recover().expect("recover after injected fault");
        match classify(&mut system, &targets, k) {
            // Fault hit before the commit point: the journal unwound
            // every kernel write (or none had landed yet).
            PatchState::Pre => {}
            // Fault hit after the last protected write: the patch is
            // fully applied. Either the journal already read Idle
            // (fault past the STATE clear) or the window was still
            // open with its only segment committed — recovery then
            // preserves it without unwinding a single write.
            PatchState::Post => {
                match &recovery {
                    Recovery::Clean
                    | Recovery::UnwoundApply {
                        writes_undone: 0,
                        segments_preserved: 1,
                        ..
                    } => {}
                    other => panic!("step {k}: fully applied but recovery was {other:?}"),
                }
                rollback_to_pre(&mut system, &targets, k);
            }
        }
        k += 1;
    }
    // The sweep must actually have exercised the SMM window — a patch
    // of two trampolines plus a global write takes dozens of SMM writes.
    assert!(
        faulted_runs >= 20,
        "only {faulted_runs} faulted runs; injection is not reaching the SMM window"
    );
}

/// Sweep a full power loss (snapshot at the fault, warm-reset resume)
/// across every step of the patch path.
#[test]
fn patch_sweep_every_step_power_loss() {
    let (mut system, server, spec) = setup();
    let targets = capture_targets(&mut system, spec);
    let mut k = 0u64;
    loop {
        assert!(k < MAX_STEPS, "sweep did not terminate");
        system
            .kernel_mut()
            .machine_mut()
            .arm_injection(InjectionPlan::power_loss_at_smm_write(k));
        let result = system.live_patch(&server, &patch_for(spec));
        let m = system.kernel_mut().machine_mut();
        let stats = m.injection_stats().unwrap();
        if stats.faults_injected == 0 {
            m.disarm_injection();
            result.expect("fault-free patch must succeed");
            assert_eq!(classify(&mut system, &targets, k), PatchState::Post);
            rollback_to_pre(&mut system, &targets, k);
            break;
        }
        assert!(result.is_err(), "step {k}: power loss must surface");
        // "Lose power": throw away everything after the snapshot the
        // injector took at the faulting write, then warm-reset.
        let snap = m
            .take_power_loss_snapshot()
            .expect("power-loss snapshot present");
        m.restore_from_snapshot(snap);
        let recovery = system.recover().expect("recover after power loss");
        match classify(&mut system, &targets, k) {
            PatchState::Pre => {}
            PatchState::Post => {
                match &recovery {
                    Recovery::Clean
                    | Recovery::UnwoundApply {
                        writes_undone: 0,
                        segments_preserved: 1,
                        ..
                    } => {}
                    other => panic!("step {k}: fully applied but recovery was {other:?}"),
                }
                rollback_to_pre(&mut system, &targets, k);
            }
        }
        k += 1;
    }
}

/// Sweep a failed SMM write across every step of the rollback path.
///
/// Each iteration applies the patch cleanly, faults the `k`-th SMM
/// write of the rollback, recovers (which rolls an interrupted rollback
/// *forward*), and asserts the invariant.
#[test]
fn rollback_sweep_every_step_fail_write() {
    let (mut system, server, spec) = setup();
    let targets = capture_targets(&mut system, spec);
    let mut faulted_runs = 0u64;
    let mut k = 0u64;
    loop {
        assert!(k < MAX_STEPS, "sweep did not terminate");
        system
            .live_patch(&server, &patch_for(spec))
            .expect("clean patch before faulted rollback");
        assert_eq!(classify(&mut system, &targets, k), PatchState::Post);
        system
            .kernel_mut()
            .machine_mut()
            .arm_injection(InjectionPlan::fail_nth_smm_write(k));
        let result = system.rollback_last();
        let stats = system
            .kernel_mut()
            .machine_mut()
            .disarm_injection()
            .unwrap();
        if stats.faults_injected == 0 {
            result.expect("fault-free rollback must succeed");
            assert_eq!(classify(&mut system, &targets, k), PatchState::Pre);
            break;
        }
        faulted_runs += 1;
        assert!(result.is_err(), "step {k}: injected fault must surface");
        system.recover().expect("recover after faulted rollback");
        match classify(&mut system, &targets, k) {
            // Recovery rolled the interrupted rollback forward.
            PatchState::Pre => {}
            // The fault landed before the rollback journal opened (e.g.
            // inside journal_begin itself): nothing was restored, the
            // patch is still fully applied — roll it back for real.
            PatchState::Post => rollback_to_pre(&mut system, &targets, k),
        }
        k += 1;
    }
    assert!(
        faulted_runs >= 5,
        "only {faulted_runs} faulted runs; injection is not reaching the rollback window"
    );
}

/// Sweep a power loss across every step of the rollback path.
#[test]
fn rollback_sweep_every_step_power_loss() {
    let (mut system, server, spec) = setup();
    let targets = capture_targets(&mut system, spec);
    let mut k = 0u64;
    loop {
        assert!(k < MAX_STEPS, "sweep did not terminate");
        system
            .live_patch(&server, &patch_for(spec))
            .expect("clean patch before faulted rollback");
        system
            .kernel_mut()
            .machine_mut()
            .arm_injection(InjectionPlan::power_loss_at_smm_write(k));
        let result = system.rollback_last();
        let m = system.kernel_mut().machine_mut();
        let stats = m.injection_stats().unwrap();
        if stats.faults_injected == 0 {
            m.disarm_injection();
            result.expect("fault-free rollback must succeed");
            assert_eq!(classify(&mut system, &targets, k), PatchState::Pre);
            break;
        }
        assert!(result.is_err(), "step {k}: power loss must surface");
        let snap = m
            .take_power_loss_snapshot()
            .expect("power-loss snapshot present");
        m.restore_from_snapshot(snap);
        system.recover().expect("recover after power loss");
        match classify(&mut system, &targets, k) {
            PatchState::Pre => {}
            PatchState::Post => rollback_to_pre(&mut system, &targets, k),
        }
        k += 1;
    }
}

// ---------------------------------------------------------------------
// Batched-apply sweeps: a 3-CVE batch is journaled per CVE, so a fault
// at any SMM write index must be *per-CVE* all-or-nothing — committed
// segments survive recovery, the interrupted segment unwinds fully,
// and the machine's bytes match a reference patched with exactly the
// preserved prefix.

const BATCH_CVES: [&str; 3] = ["CVE-2016-2543", "CVE-2017-17806", "CVE-2016-5195"];

fn batch_fixture() -> (
    kshot::fleet::CampaignTarget,
    Vec<kshot::patchserver::PatchBundle>,
) {
    let specs: Vec<_> = BATCH_CVES.iter().map(|id| find(id).unwrap()).collect();
    let version = specs[0].version;
    assert!(specs.iter().all(|s| s.version == version));
    let (target, server) = kshot::fleet::CampaignTarget::benchmark(version);
    let info = target.boot_one().info();
    let bundles = specs
        .iter()
        .map(|spec| {
            server
                .build_patch(&info, &patch_for(spec))
                .expect("server builds the CVE patch")
                .bundle
        })
        .collect();
    (target, bundles)
}

/// A fresh machine each sweep iteration: the digest references are
/// cursor-position-sensitive (relocated bodies embed absolute `mem_X`
/// addresses), so reusing one machine across iterations would shift
/// every placement.
fn fresh_system(target: &kshot::fleet::CampaignTarget) -> KShot {
    install_kshot(target.boot_one(), 62)
}

/// Digest of the kernel text segment alone.
fn text_digest(system: &KShot, target: &kshot::fleet::CampaignTarget) -> [u8; 32] {
    let phys = system.kernel().machine().phys();
    let text = phys
        .bytes(target.layout.kernel_text_base, target.image.text.len())
        .expect("text segment in bounds");
    kshot::crypto::sha256::sha256(&text)
}

/// Digest of the machine's applied state: kernel text plus the occupied
/// `mem_X` prefix up to the published placement cursor — the same
/// regions the fleet's byte-identical check covers. Never-written gaps
/// in the prefix hash as zeros.
fn applied_digest(system: &KShot, target: &kshot::fleet::CampaignTarget) -> [u8; 32] {
    use kshot::core::reserved::rw_offsets;
    let phys = system.kernel().machine().phys();
    let reserved = system.reserved();
    let mut cursor = [0u8; 8];
    phys.read_raw(reserved.rw_base + rw_offsets::NEXT_PADDR, &mut cursor)
        .expect("published cursor in bounds");
    let used = u64::from_le_bytes(cursor)
        .saturating_sub(reserved.x_base)
        .min(reserved.x_size);
    let placed = phys
        .bytes(reserved.x_base, used as usize)
        .expect("occupied mem_X prefix in bounds");
    let mut acc = [0u8; 64];
    acc[..32].copy_from_slice(&text_digest(system, target));
    acc[32..].copy_from_slice(&kshot::crypto::sha256::sha256(&placed));
    kshot::crypto::sha256::sha256(&acc)
}

/// Reference digests: machines patched with exactly the first `p`
/// bundles, sequentially, for `p` in `0..=3`. A batched apply (or its
/// recovered remains) must always match one of these — that is the
/// per-CVE all-or-nothing invariant in byte form.
fn prefix_references(
    target: &kshot::fleet::CampaignTarget,
    bundles: &[kshot::patchserver::PatchBundle],
) -> Vec<[u8; 32]> {
    (0..=bundles.len())
        .map(|p| {
            let mut system = fresh_system(target);
            for bundle in &bundles[..p] {
                system
                    .live_patch_bundle(bundle.clone())
                    .expect("clean prefix apply");
            }
            applied_digest(&system, target)
        })
        .collect()
}

/// Fault a batched 3-CVE apply at step `k` (already armed), recover,
/// and assert the per-CVE all-or-nothing invariant against the prefix
/// references. Returns the number of preserved segments.
fn assert_batch_prefix(
    system: &mut KShot,
    target: &kshot::fleet::CampaignTarget,
    refs: &[[u8; 32]],
    k: u64,
) -> usize {
    let recovery = system.recover().expect("recover after injected fault");
    let digest = applied_digest(system, target);
    let preserved = match &recovery {
        // Idle journal: the fault hit before the window opened (nothing
        // applied) or after it closed (everything applied).
        Recovery::Clean => {
            if digest == refs[0] {
                0
            } else {
                refs.len() - 1
            }
        }
        Recovery::UnwoundApply {
            segments_preserved, ..
        } => *segments_preserved,
        other => panic!("step {k}: unexpected recovery {other:?}"),
    };
    assert_eq!(
        digest, refs[preserved],
        "step {k}: recovered machine must match the {preserved}-CVE prefix reference"
    );
    // Per-CVE rollback unwinds the preserved prefix, newest first,
    // back to boot text (the `mem_X` cursor is never rewound, so only
    // the text component compares against the 0-prefix reference).
    for pop in 0..preserved {
        system
            .rollback_last()
            .unwrap_or_else(|e| panic!("step {k}: pop {pop}: {e}"));
    }
    assert_eq!(
        text_digest(system, target),
        text_digest(&fresh_system(target), target),
        "step {k}: {preserved} pops must restore boot text"
    );
    assert!(system.active_sites().unwrap().is_empty());
    preserved
}

/// Sweep a failed SMM write across every step of a batched 3-CVE apply.
#[test]
fn batched_patch_sweep_every_step_fail_write() {
    let (target, bundles) = batch_fixture();
    let refs = prefix_references(&target, &bundles);
    let mut faulted_runs = 0u64;
    let mut preserved_seen = HashSet::new();
    let mut k = 0u64;
    loop {
        assert!(k < MAX_STEPS, "sweep did not terminate");
        let mut system = fresh_system(&target);
        system
            .kernel_mut()
            .machine_mut()
            .arm_injection(InjectionPlan::fail_nth_smm_write(k));
        let result = system.live_patch_batch_bundles(bundles.clone());
        let stats = system
            .kernel_mut()
            .machine_mut()
            .disarm_injection()
            .unwrap();
        if stats.faults_injected == 0 {
            let report = result.expect("fault-free batch must succeed");
            assert_eq!(report.segments.len(), bundles.len());
            assert_eq!(applied_digest(&system, &target), refs[bundles.len()]);
            break;
        }
        faulted_runs += 1;
        assert!(
            result.is_err(),
            "step {k}: the injected fault must surface as an error"
        );
        preserved_seen.insert(assert_batch_prefix(&mut system, &target, &refs, k));
        k += 1;
    }
    assert!(
        faulted_runs >= 30,
        "only {faulted_runs} faulted runs; injection is not reaching the SMM window"
    );
    // The sweep must actually traverse the per-CVE commit points: every
    // prefix length shows up as a recovery outcome.
    for p in 0..=bundles.len() {
        assert!(
            preserved_seen.contains(&p),
            "no fault index left exactly {p} segment(s) preserved (saw {preserved_seen:?})"
        );
    }
}

/// Sweep a full power loss (snapshot at the fault, warm-reset resume)
/// across every step of a batched 3-CVE apply.
#[test]
fn batched_patch_sweep_every_step_power_loss() {
    let (target, bundles) = batch_fixture();
    let refs = prefix_references(&target, &bundles);
    let mut k = 0u64;
    loop {
        assert!(k < MAX_STEPS, "sweep did not terminate");
        let mut system = fresh_system(&target);
        system
            .kernel_mut()
            .machine_mut()
            .arm_injection(InjectionPlan::power_loss_at_smm_write(k));
        let result = system.live_patch_batch_bundles(bundles.clone());
        let m = system.kernel_mut().machine_mut();
        let stats = m.injection_stats().unwrap();
        if stats.faults_injected == 0 {
            m.disarm_injection();
            result.expect("fault-free batch must succeed");
            assert_eq!(applied_digest(&system, &target), refs[bundles.len()]);
            break;
        }
        assert!(result.is_err(), "step {k}: power loss must surface");
        let snap = m
            .take_power_loss_snapshot()
            .expect("power-loss snapshot present");
        m.restore_from_snapshot(snap);
        assert_batch_prefix(&mut system, &target, &refs, k);
        k += 1;
    }
}

/// After any faulted-and-recovered patch attempt, the *next* clean
/// attempt must succeed end-to-end and the patch must actually take
/// effect — recovery restores a fully working pipeline (including the
/// published key material), not just consistent memory.
#[test]
fn recovery_leaves_pipeline_usable() {
    let (mut system, server, spec) = setup();
    let targets = capture_targets(&mut system, spec);
    // Fault a mid-apply write, recover, then patch for real.
    for k in [5u64, 25, 45] {
        system
            .kernel_mut()
            .machine_mut()
            .arm_injection(InjectionPlan::fail_nth_smm_write(k));
        let _ = system.live_patch(&server, &patch_for(spec));
        system.kernel_mut().machine_mut().disarm_injection();
        system.recover().expect("recover");
        if classify(&mut system, &targets, k) == PatchState::Post {
            rollback_to_pre(&mut system, &targets, k);
        }
        system
            .live_patch(&server, &patch_for(spec))
            .expect("clean patch after recovery");
        assert_eq!(classify(&mut system, &targets, k), PatchState::Post);
        assert!(!kshot_cve::exploit_for(spec)
            .is_vulnerable(system.kernel_mut())
            .unwrap());
        rollback_to_pre(&mut system, &targets, k);
    }
}
