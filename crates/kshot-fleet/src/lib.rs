#![warn(missing_docs)]

//! # kshot-fleet — parallel multi-machine patch campaigns
//!
//! The paper evaluates KShot on a single prototype machine; a realistic
//! deployment pushes one security fix to a *fleet*. This crate is the
//! campaign orchestrator for that scenario: it drives N independent
//! simulated machines through the full KShot session (attest → deliver →
//! SMI → verify → apply) concurrently across a worker thread pool.
//!
//! Design points:
//!
//! * **One bundle, many machines.** The patch server builds and encodes
//!   the bundle once; workers share it through
//!   [`kshot_patchserver::BundleCache`], which verifies/decodes the bytes
//!   exactly once and hands out `Arc<PatchBundle>` clones.
//! * **Deterministic machines, concurrent fleet.** Each machine stays
//!   deterministic and single-threaded (its own clock, its own
//!   splitmix64-derived seed); only the *sharding* across workers is
//!   concurrent. Machine `i` runs on worker `i % workers`
//!   (round-robin), so early machines — a rollout's canary, the health
//!   plane's first windows — are spread across every worker.
//! * **Pipelined sessions hide the link.** Campaign wall time is
//!   dominated by the orchestrator↔machine RTT, not compute. Each
//!   worker is an event-driven scheduler over resumable
//!   `MachineSession` state machines (Boot → Install → InFlight →
//!   Patch → Backoff → Done): with
//!   [`FleetConfig::with_pipeline_depth`] > 1 it steps other machines'
//!   CPU phases while one machine's delivery is in flight, parking
//!   waits on a deadline min-heap instead of blocking in
//!   `thread::sleep`. A step computes only from its own machine's
//!   state (and, when streaming, runs under that machine's own
//!   recorder scope), so simulated-domain results are byte-identical at
//!   every depth; [`CampaignReport::worker_occupancy`] shows the
//!   busy/in-flight split the pipelining buys.
//! * **Failure is expected.** A campaign can plan per-machine faults
//!   (via `kshot-machine`'s injection engine); a failed session is
//!   recovered with [`kshot_core::KShot::recover`] and retried under
//!   simulated exponential backoff, up to a configurable attempt cap.
//! * **One ordered fold.** Every campaign folds its outcomes the same
//!   way: the worker that retires a machine hands its
//!   [`MachineOutcome`] to the campaign's single [`OutcomeFold`],
//!   whose reorder buffer absorbs outcomes in machine order whatever
//!   order pipelined workers retire them in. The fold keeps counters, a
//!   mergeable latency sketch, capped dwell attribution, a capped ring
//!   of *exemplars* (full outcomes of every machine that failed,
//!   retried, faulted, overstayed its dwell budget, rolled back, or was
//!   never admitted), and a [`kshot_telemetry::DigestTree`] Merkle
//!   roll-up whose root stands in for the digest vector. Clean outcomes
//!   are dropped once absorbed, so resident state is O(log machines),
//!   and the [`CampaignReport`] is assembled from the fold alone.
//! * **Cheap machines.** Every machine boots from the campaign's one
//!   `Arc<KernelImage>` (no per-machine image copy) into sparse
//!   physical memory that backs only the pages the machine writes: the
//!   loaded kernel, trampolines, placed bodies, key material and the
//!   SMRAM journal. A booted 26 MB [`kshot_machine::MemLayout::fleet`]
//!   machine holds well under a megabyte, so boot costs microseconds
//!   and a worker's live pipeline fits in cache.
//! * **Streaming observability.** With [`FleetConfig::with_stream_dir`]
//!   each worker streams its machines' telemetry to a per-worker
//!   `worker-<N>.jsonl` shard as it happens, and the campaign closes
//!   with one Merkle roll-up line in `rollup.jsonl`. The shards
//!   re-aggregate (via [`kshot_telemetry::ShardData`]) to exactly the
//!   campaign recorder's metric totals; the record stream itself lives
//!   only on disk. Unstreamed campaigns record no telemetry at all. An
//!   SMM dwell-time watchdog ([`FleetConfig::with_smm_dwell_budget`])
//!   flags machines whose SMIs overstay their budget in the fold's
//!   dwell-anomaly list.
//! * **Live health plane.** [`FleetConfig::with_health`] arms a
//!   [`kshot_telemetry::HealthMonitor`] thread that tails the worker
//!   shards *while the campaign runs*, folds machines into fixed
//!   windows, judges each against a declarative
//!   [`kshot_telemetry::HealthPolicy`], and streams schema-versioned
//!   snapshots to `<stream_dir>/health.jsonl`. The snapshot sequence is
//!   byte-identical across worker counts and pipeline depths; the final
//!   [`CampaignHealth`] (with how much was detected mid-campaign) lands
//!   in [`CampaignReport::health`].
//! * **SMI flight recorder + integrity plane.** Every SMI a machine
//!   takes appends a bounded, schema-versioned
//!   [`kshot_machine::SmiFlightRecord`] (cause, handler measurement at
//!   entry, ordered write-set, journal ops, dwell, exit status) to the
//!   machine's flight ring; streaming campaigns render each record as
//!   one `smi` line inside the machine's shard parcel, byte-identical
//!   across worker counts, pipeline depths, and batched/sequential
//!   modes. [`FleetConfig::with_integrity`] replays that stream through
//!   a detached [`kshot_telemetry::IntegrityMonitor`] judging each record
//!   against declarative invariants (sealed handler measurement,
//!   write-set containment, journal grammar, dwell budget); violations
//!   escalate the machine's health window to Halt — driving the staged
//!   rollout's auto-rollback — and the final
//!   [`kshot_telemetry::IntegrityReport`] lands in
//!   [`CampaignReport::integrity`]. [`FleetConfig::with_attack`] arms
//!   the four adversarial scenarios (handler tamper, rogue SMM write,
//!   journal abuse, dwell exhaustion) the plane must catch.
//! * **Multi-CVE catalogues, batched SMIs.**
//!   [`FleetConfig::with_catalogue`] drives every machine through a
//!   catalogue of k encoded bundles instead of one, and
//!   [`FleetConfig::with_batched_smi`] merges the whole catalogue into
//!   a single SMI via [`kshot_core::KShot::live_patch_batch_bundles`],
//!   paying the fixed SMM entry+exit cost once per machine instead of
//!   k times (the dwell watchdog budget scales by k). The journal is
//!   segmented per CVE, so a mid-batch fault preserves the committed
//!   prefix and the session retries from the first unapplied CVE;
//!   batched and sequential campaigns produce byte-identical applied
//!   state at every worker count and pipeline depth.
//! * **Staged rollouts.** [`FleetConfig::with_rollout`] layers a wave
//!   scheduler on top: a [`RolloutPlan`] partitions the fleet into a
//!   canary cohort plus an exponential ramp, admission into each wave
//!   is gated on the previous wave's health windows all judging
//!   Healthy, and a Halt verdict stops admission *and* auto-rolls-back
//!   the halted wave's patched machines through
//!   [`kshot_core::KShot::rollback_last`] (journal-recovered when
//!   partial). The plan can also calibrate the ramp's SMM dwell budget
//!   from the canary cohort's own dwell p99. The wave sequence, halt
//!   point, and rollback set are byte-identical across worker counts
//!   and pipeline depths; the [`RolloutReport`] lands in
//!   [`CampaignReport::rollout`].

pub mod campaign;
pub mod config;
pub mod fold;
pub mod report;
pub mod rollout;
mod session;

pub use campaign::{run_campaign, CampaignTarget, MachineOutcome};
pub use config::{FleetConfig, PlannedAttack, PlannedFault, PlannedSlowdown};
pub use fold::OutcomeFold;
pub use kshot_telemetry::{
    HealthPolicy, HealthReport, HealthVerdict, IntegrityPolicy, IntegrityReport, IntegrityVerdict,
};
pub use report::{CampaignHealth, CampaignReport, WorkerOccupancy, DWELL_ANOMALY_CAP};
pub use rollout::{RolloutPlan, RolloutReport, Wave, WaveOutcome};
