//! The traced child: drive the same fleet through the public calls of
//! each layer, timing every call from here, and fold the outcomes into
//! an [`OutcomeFold`] whose Merkle root must equal the campaign's.
//!
//! The traced drive mirrors a fold campaign's session: boot from a recycled
//! image, install with the machine's expanded seed, decode each bundle
//! through a shared [`BundleCache`] and apply it, digest the applied
//! state, then release the machine and absorb its outcome in machine
//! order. With pipeline depth `d` it keeps `d` machines live and steps
//! them round-robin, so it holds as much machine memory as the
//! campaign's worker does. Link waits are not modelled: a row's `wall`
//! is CPU work only.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use kshot_core::reserved::rw_offsets;
use kshot_core::KShot;
use kshot_crypto::{sha256, DhKeyPair, DhParams};
use kshot_fleet::{CampaignTarget, MachineOutcome, OutcomeFold};
use kshot_kcc::KernelImage;
use kshot_kernel::Kernel;
use kshot_machine::SimTime;
use kshot_patchserver::BundleCache;
use kshot_telemetry::merkle::digest_hex;
use kshot_telemetry::{with_recorder, Recorder};

use crate::fixture::{splitmix64, Fixture};
use crate::sample::{col, Row, TraceSample};
use crate::spec::Workload;
use crate::stats::patch_split;

/// Bytes hashed per `sha256` throughput repetition.
const SHA_BYTES: usize = 1 << 20;

/// `sha256` throughput repetitions per process.
const SHA_REPS: usize = 8;

/// One live machine of the traced drive's pipeline.
struct Live {
    machine: usize,
    system: KShot,
    row: Row,
    latency: SimTime,
    ok: bool,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The digest `kshot-fleet` records per machine: SHA-256 over the
/// SHA-256 of the kernel text and of the occupied `mem_X` prefix.
fn state_digest(system: &KShot, target: &CampaignTarget) -> [u8; 32] {
    let phys = system.kernel().machine().phys();
    let text = phys
        .slice(target.layout.kernel_text_base, target.image.text.len())
        .expect("text segment in bounds");
    let reserved = system.reserved();
    let cursor = phys
        .slice(reserved.rw_base + rw_offsets::NEXT_PADDR, 8)
        .expect("published cursor in bounds");
    let cursor = u64::from_le_bytes(cursor.try_into().expect("eight bytes"));
    let used_x = cursor.saturating_sub(reserved.x_base).min(reserved.x_size);
    let placed = phys
        .slice(reserved.x_base, used_x as usize)
        .expect("occupied mem_X prefix in bounds");
    let mut acc = [0u8; 64];
    acc[..32].copy_from_slice(&sha256(text));
    acc[32..].copy_from_slice(&sha256(placed));
    sha256(&acc)
}

/// The traced drive of `w` under `seed`.
pub fn run(w: &Workload, seed: u64) -> TraceSample {
    let fixture = Fixture::setup(w);
    let target = &fixture.target;
    let cache = BundleCache::new();
    let params = DhParams::default_group();
    let peer = DhKeyPair::from_entropy(&params, &[0x5A; 32]).expect("peer key");
    let mut fold = OutcomeFold::new();
    let mut images: Vec<KernelImage> = Vec::with_capacity(w.pipeline_depth);
    let mut rows = Vec::with_capacity(w.machines);
    let mut dh_keygen_us = Vec::with_capacity(w.machines);
    let mut dh_agree_us = Vec::with_capacity(w.machines);
    let mut failed = 0;

    for first in (0..w.machines).step_by(w.pipeline_depth) {
        let last = (first + w.pipeline_depth).min(w.machines);
        // Admit: boot and install every machine of the group.
        let mut live: Vec<Live> = (first..last)
            .map(|machine| {
                let step = Instant::now();
                let mut row: Row = [0; col::COUNT];
                let image = images.pop().unwrap_or_else(|| (*target.image).clone());
                let t = Instant::now();
                let kernel = Kernel::boot(image, &target.version, target.layout)
                    .expect("fleet image boots on the fleet layout");
                row[col::BOOT] = ns_since(t);
                let t = Instant::now();
                let seed = splitmix64(seed.wrapping_add(machine as u64));
                let system = KShot::install(kernel, seed).expect("KShot installs");
                row[col::INSTALL] = ns_since(t);
                row[col::WALL] = ns_since(step);
                Live {
                    machine,
                    system,
                    row,
                    latency: SimTime::ZERO,
                    ok: true,
                }
            })
            .collect();
        // Patch: every CVE, round-robin over the live machines.
        for blob in &fixture.blobs {
            for m in live.iter_mut().filter(|m| m.ok) {
                let step = Instant::now();
                let t = Instant::now();
                let bundle = cache.get_or_decode(blob).expect("bundle decodes");
                m.row[col::DECODE] += ns_since(t);
                let bundle = (*bundle).clone();
                let recorder = Recorder::new();
                let t = Instant::now();
                let result =
                    with_recorder(Arc::clone(&recorder), || m.system.live_patch_bundle(bundle));
                m.row[col::LIVE_PATCH] += ns_since(t);
                m.row[col::WALL] += ns_since(step);
                match result {
                    Ok(report) => m.latency += report.total(),
                    Err(e) => {
                        eprintln!("machine {}: {e}", m.machine);
                        m.ok = false;
                    }
                }
                let split = patch_split(&recorder.records());
                for (c, ns) in [
                    (col::SGX_SESSION, split.sgx_session),
                    (col::SGX_FETCH, split.sgx_fetch),
                    (col::SGX_STAGE, split.sgx_stage),
                    (col::SMM_WINDOW, split.smm_window),
                    (col::SMM_KEY_EXCHANGE, split.smm_key_exchange),
                    (col::LIVE_PATCH_SELF, split.live_patch_self),
                ] {
                    m.row[c] += ns;
                }
            }
        }
        // Retire in machine order: digest, read out, release, fold.
        for mut m in live {
            let step = Instant::now();
            let t = Instant::now();
            let state_digest = state_digest(&m.system, target);
            m.row[col::DIGEST] = ns_since(t);
            let t = Instant::now();
            let machine = m.system.kernel().machine();
            let outcome = MachineOutcome {
                machine: m.machine,
                worker: 0,
                attempts: fixture.blobs.len() as u32,
                retries: 0,
                ok: m.ok,
                error: None,
                latency: m.ok.then_some(m.latency),
                sim_clock: machine.now(),
                state_digest,
                faults_injected: 0,
                injection_writes_seen: 0,
                smm_overbudget: machine.smm_overbudget_count(),
                max_smm_dwell: machine.max_smm_dwell(),
                recovery_failed: false,
                rolled_back: false,
                rollback_skipped: 0,
                rollback_failed: false,
                admitted: true,
                flight: machine.flight_snapshot(),
                dwell_worst: machine.max_smm_dwell_smi(),
            };
            let image = m.system.into_kernel().into_image();
            if images.len() < w.pipeline_depth {
                images.push(image);
            }
            m.row[col::FINALIZE] = ns_since(t);
            let t = Instant::now();
            fold.absorb(&outcome);
            m.row[col::FOLD] = ns_since(t);
            m.row[col::WALL] += ns_since(step);
            failed += u64::from(!m.ok);
            rows.push(m.row);

            // The DH group's two operations, timed alone, keyed from
            // the machine's seed.
            let machine_seed = splitmix64(seed.wrapping_add(m.machine as u64));
            let entropy: Vec<u8> = (0..4)
                .flat_map(|i| splitmix64(machine_seed ^ i).to_le_bytes())
                .collect();
            let t = Instant::now();
            let pair = DhKeyPair::from_entropy(&params, &entropy).expect("DH keygen");
            dh_keygen_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(pair.agree(&params, peer.public()).expect("DH agree"));
            dh_agree_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let buf: Vec<u8> = (0..SHA_BYTES / 8)
        .flat_map(|i| splitmix64(seed ^ i as u64).to_le_bytes())
        .collect();
    let sha256_mb_s = (0..SHA_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(sha256(black_box(&buf)));
            SHA_BYTES as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();

    TraceSample {
        seed,
        machines: w.machines as u64,
        failed,
        root: digest_hex(&fold.merkle_root()),
        sim_p50_ns: fold.latency.quantile_per_mille(500),
        sim_max_ns: fold.latency.max(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        rows,
        dh_keygen_us,
        dh_agree_us,
        sha256_mb_s,
    }
}
