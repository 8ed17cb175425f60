//! Security walk-through (paper §V-C/§V-D): rollback, malicious patch
//! reversion with SMM-introspection repair, DOS detection, and a
//! fleet-wide handler-image tamper caught by the detached integrity
//! monitor — wave halted, auto-rollback to the never-patched state.
//!
//! ```text
//! cargo run --example rollback_and_attack
//! ```

use kshot::bench_setup::{boot_benchmark_kernel, install_kshot};
use kshot_core::reserved::rw_offsets;
use kshot_cve::{exploit_for, find, patch_for};
use kshot_fleet::{
    run_campaign, CampaignTarget, FleetConfig, HealthPolicy, IntegrityPolicy, PlannedAttack,
    PlannedFault, RolloutPlan,
};
use kshot_machine::{AccessCtx, AttackKind};

fn main() {
    let spec = find("CVE-2016-5195").expect("dirty-cow-class benchmark CVE");
    let (kernel, server) = boot_benchmark_kernel(spec.version);
    let mut system = install_kshot(kernel, 77);
    let exploit = exploit_for(spec);

    println!("== scenario 1: patch, then roll back ==");
    assert!(exploit.is_vulnerable(system.kernel_mut()).unwrap());
    let report = system.live_patch(&server, &patch_for(spec)).unwrap();
    println!(
        "patched {} ({} trampolines, {} global writes)",
        report.id, report.trampolines, report.global_writes
    );
    assert!(!exploit.is_vulnerable(system.kernel_mut()).unwrap());
    let restored = system.rollback_last().unwrap();
    println!(
        "rolled back; {} sites restored from SMRAM",
        restored.restored.len()
    );
    assert!(exploit.is_vulnerable(system.kernel_mut()).unwrap());
    println!("vulnerable again (original bytes restored exactly)\n");

    println!("== scenario 2: rootkit reverts the patch; SMM repairs ==");
    system.live_patch(&server, &patch_for(spec)).unwrap();
    let taddr = system.kernel().function_addr("follow_page_pte").unwrap();
    let site = taddr + 5; // after the ftrace pad
    {
        // The rootkit: remap text writable (kernel controls page tables)
        // and stamp NOPs over the trampoline.
        let m = system.kernel_mut().machine_mut();
        m.set_page_attrs(site & !0xFFF, 0x2000, kshot_machine::PageAttrs::RWX)
            .unwrap();
        m.write_bytes(AccessCtx::Kernel, site, &[0x90; 5]).unwrap();
    }
    println!("rootkit reverted the trampoline at {site:#x}");
    let violations = system.introspect().unwrap();
    println!("SMM introspection found {} violation(s):", violations.len());
    for v in &violations {
        println!("  {v:?}");
    }
    let repaired = system.repair().unwrap();
    println!("repaired {repaired} trampoline(s) from SMRAM ground truth");
    assert!(!exploit.is_vulnerable(system.kernel_mut()).unwrap());
    println!("patch active again\n");

    println!("== scenario 3: DOS detection ==");
    let probe = system.dos_probe().unwrap();
    println!(
        "probe after a real patch: staged={}, epoch={}",
        probe.staged, probe.epoch
    );
    // Attacker suppresses the SMI after a staging: marker set, no epoch
    // bump on the *next* probe delta.
    let reserved = *system.reserved();
    system
        .kernel_mut()
        .machine_mut()
        .write_u64(
            AccessCtx::Kernel,
            reserved.rw_base + rw_offsets::PROGRESS,
            1,
        )
        .unwrap();
    let probe2 = system.dos_probe().unwrap();
    println!(
        "probe after suppressed SMI: staged={}, epoch={} (unchanged ⇒ DOS detected)",
        probe2.staged, probe2.epoch
    );
    assert_eq!(probe.epoch, probe2.epoch);
    println!();

    println!("== scenario 4: handler tamper caught fleet-wide; wave auto-rolls-back ==");
    // Eight machines under a staged rollout (canary 2 → waves [0,2),
    // [2,6), [6,8)). Machine 3 carries a tampered SMM handler image:
    // one sealed byte flipped after install, so its patch SMI's flight
    // record reports the wrong measurement. The detached integrity
    // monitor flags it mid-campaign, the wave halts, and auto-rollback
    // leaves every patched machine of the wave byte-identical to one
    // that never patched.
    let cve = find("CVE-2017-17806").expect("benchmark CVE");
    let (target, fleet_server) = CampaignTarget::benchmark(cve.version);
    let info = target.boot_one().info();
    let bundle = fleet_server
        .build_patch(&info, &patch_for(cve))
        .unwrap()
        .bundle
        .encode();
    let dir = std::env::temp_dir().join(format!("kshot-attack-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = target.layout;
    let policy = IntegrityPolicy::new()
        .with_expected_measurement(kshot_core::expected_handler_measurement())
        .with_allowed_extent(layout.smram_base, layout.smram_size)
        .with_allowed_extent(layout.kernel_text_base, layout.kernel_text_size)
        .with_allowed_extent(layout.kernel_data_base, layout.kernel_data_size)
        .with_allowed_extent(layout.reserved_base, layout.reserved_size);
    let config = FleetConfig::new(8, 2)
        .with_seed(0x7A3B)
        .with_stream_dir(&dir)
        .with_health(HealthPolicy::new(), 2)
        .with_integrity(policy)
        .with_rollout(RolloutPlan::canary_machines(2))
        .with_attack(PlannedAttack {
            machine: 3,
            kind: AttackKind::TamperHandlerImage,
        });
    let report = run_campaign(&target, &bundle, &config);
    let integrity = report.integrity.as_ref().expect("integrity armed");
    println!(
        "integrity: {} records replayed, {} violation(s) on machines {:?}",
        integrity.records_checked, integrity.violations, integrity.violating_machines
    );
    for r in &integrity.reasons {
        println!("  {r}");
    }
    assert_eq!(integrity.violating_machines, vec![3]);
    let rollout = report.rollout.as_ref().expect("rollout armed");
    assert_eq!(rollout.halt_wave, Some(1), "{rollout:?}");
    println!(
        "wave 1 halted ({}); {} machine(s) auto-rolled-back, {} never admitted",
        rollout.halt_verdict.as_deref().unwrap_or("?"),
        rollout.rolled_back,
        rollout.not_admitted
    );
    // The never-patched reference digest comes from a terminally
    // faulted twin: its failed apply is recovered, leaving exactly the
    // pre-patch bytes.
    let never_patched = {
        let mut twin = FleetConfig::new(1, 1)
            .with_seed(0x7A3B)
            .with_fault(PlannedFault {
                machine: 0,
                smm_write_index: 2,
            });
        twin.max_attempts = 1;
        let twin = run_campaign(&target, &bundle, &twin);
        twin.exemplar(0).expect("the failed twin").state_digest
    };
    for machine in 2..6 {
        let o = report.exemplar(machine).expect("rolled-back exemplar");
        assert!(o.rolled_back, "{o:?}");
        assert_eq!(
            o.state_digest, never_patched,
            "machine {machine}: rollback must equal never-patched"
        );
    }
    // The canary is clean: its digest is the fold's reference digest.
    assert_ne!(report.fold.reference_digest(), Some(never_patched));
    println!("halted wave reverted to the never-patched digest; canary keeps its patch");
    let _ = std::fs::remove_dir_all(&dir);

    println!("\nall scenarios OK");
}
