//! Differential conformance: the threaded runtime and the DES drive the
//! same `zipper-policy` kernel, so a run with identical workload
//! parameters must yield identical canonical decision traces on both
//! substrates — same routes in the same order, same steals, same EOS
//! fan-out, same store decisions. Timing may differ arbitrarily; the
//! decisions may not.
//!
//! Config A: source-affine, message-only (no writer thread).
//! Config B: round-robin + concurrent transfer + Preserve — a
//!           combination the DES could not express before the kernel
//!           refactor (its routing was hard-wired source-affine).
//! Config C: scripted partial stealing — a shared `BackpressureScript`
//!           pins the same interleaved steal/send schedule on both
//!           substrates (byte-identical canonical traces), and the
//!           recorded trace is checked against a pure-kernel replay of
//!           the observed take order.
//! Config D: degradation under a scripted `ChaosPlan` — transport faults
//!           (fail/drop/corrupt/delay), a Preserve-store write fault, and
//!           a swallowed EOS tripping the watchdog on both substrates.
//! Config E: recovery under a scripted `ChaosPlan` — a PFS write fault
//!           retiring and reviving the writer, and an application crash
//!           healed by a policy-arbitrated restart with Preserve replay.
//! Plus: a seeded chaos config (`ZIPPER_CHAOS_SEED`), a seeded gate
//!           config (`ZIPPER_GATE_SEED`), a `DropEos` plan in concurrent
//!           mode (per-channel EOS wires conform), and framed-TCP runs —
//!           plain and chaos-scripted — checked against the in-process
//!           mesh.

use std::sync::Arc;
use std::time::Duration;
use zipper_core::{Consumer, Producer};
use zipper_policy::{CanonicalTrace, Channel, PolicyEvent, ProducerPolicy, RetireReason};
use zipper_trace::{TraceMode, TraceSink};
use zipper_transports::spec::{sim_config, ClusterLayout, WorkflowSpec};
use zipper_transports::zipper::build_recorded;
use zipper_types::{
    BackpressureScript, ByteSize, ChaosEntity, ChaosFault, ChaosPlan, GateRule, GlobalPos,
    PreserveMode, Rank, RecoveryPolicy, RoutingPolicy, SimTime, StepId, WorkflowConfig,
};
use zipper_workflow::{
    run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions, WorkflowPolicies,
};

/// One conformance scenario, expressed substrate-independently.
#[derive(Clone)]
struct Scenario {
    producers: usize,
    consumers: usize,
    steps: u64,
    blocks_per_step: u64,
    producer_slots: usize,
    high_water_mark: usize,
    concurrent_transfer: bool,
    preserve: bool,
    routing: RoutingPolicy,
    /// Scripted faults, interpreted identically by both substrates.
    chaos: ChaosPlan,
    /// Self-healing budgets (writer revival, consumer restarts).
    recovery: RecoveryPolicy,
    /// EOS watchdog. The wall-clock value drives the threaded receiver;
    /// the DES uses a fixed 1 s *virtual* deadline — the clocks are not
    /// comparable across substrates, only the timeout *decision* is, and
    /// that is what the canonical traces compare.
    eos_timeout: Option<Duration>,
    /// Scripted backpressure gates, interpreted identically by both
    /// substrates (the threaded `SenderGate` and the DES NIC model, two
    /// drivers of one `GateWalk`).
    backpressure: Option<BackpressureScript>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            producers: 2,
            consumers: 2,
            steps: 2,
            blocks_per_step: 4,
            producer_slots: 16,
            high_water_mark: 8,
            concurrent_transfer: false,
            preserve: false,
            routing: RoutingPolicy::SourceAffine,
            chaos: ChaosPlan::new(),
            recovery: RecoveryPolicy::default(),
            eos_timeout: None,
            backpressure: None,
        }
    }
}

const BLOCK: u64 = 16 << 10;

impl Scenario {
    fn threaded_config(&self) -> WorkflowConfig {
        let mut c = WorkflowConfig {
            producers: self.producers,
            consumers: self.consumers,
            steps: self.steps,
            bytes_per_rank_step: ByteSize::bytes(self.blocks_per_step * BLOCK),
            ..Default::default()
        };
        c.tuning.block_size = ByteSize::bytes(BLOCK);
        c.tuning.producer_slots = self.producer_slots;
        c.tuning.high_water_mark = self.high_water_mark;
        c.tuning.concurrent_transfer = self.concurrent_transfer;
        c.tuning.preserve = if self.preserve {
            PreserveMode::Preserve
        } else {
            PreserveMode::NoPreserve
        };
        c.tuning.routing = self.routing;
        c.tuning.recovery = self.recovery;
        c.tuning.eos_timeout = self.eos_timeout;
        c
    }

    fn des_spec(&self) -> WorkflowSpec {
        let mut s = WorkflowSpec::synthetic(
            zipper_apps::Complexity::Linear,
            self.producers,
            self.consumers,
            self.blocks_per_step * BLOCK,
            BLOCK,
        );
        s.steps = self.steps;
        s.ranks_per_node = 2;
        s.producer_slots = self.producer_slots;
        s.high_water_mark = self.high_water_mark;
        s.concurrent_transfer = self.concurrent_transfer;
        s.preserve = self.preserve;
        s.routing = self.routing;
        s.chaos = (!self.chaos.is_empty()).then(|| self.chaos.clone());
        s.recovery = self.recovery;
        // See `Scenario::eos_timeout`: a fixed virtual deadline stands in
        // for the wall-clock one.
        s.virtual_eos_timeout = self.eos_timeout.map(|_| SimTime::from_nanos(1_000_000_000));
        s.backpressure = self.backpressure.clone();
        s
    }

    fn net_options(&self) -> NetworkOptions {
        NetworkOptions {
            chaos: self.chaos.clone(),
            backpressure: self.backpressure.clone(),
            ..Default::default()
        }
    }

    /// Run on the threaded substrate; return canonical traces by rank.
    fn run_threaded(&self) -> (Vec<CanonicalTrace>, Vec<CanonicalTrace>) {
        let cfg = self.threaded_config();
        let steps = cfg.steps;
        let slab = cfg.bytes_per_rank_step.as_u64() as usize;
        let produce = move |rank: Rank, writer: &zipper_core::ZipperWriter| {
            for s in 0..steps {
                let payload = vec![rank.0 as u8; slab];
                writer.write_slab(StepId(s), GlobalPos::default(), payload.into());
            }
        };
        let consume = |_: Rank, reader: &zipper_core::ZipperReader| {
            while reader.read().is_some() {}
        };
        let (report, _): (_, Vec<()>) = run_workflow_traced(
            &cfg,
            self.net_options(),
            StorageOptions::Memory,
            TraceOptions::default().with_policy(),
            produce,
            consume,
        );
        if self.chaos.is_empty() {
            report.assert_complete();
        } else {
            // Injected faults surface as per-rank runtime errors by
            // design; the run itself must not lose an app rank.
            assert!(report.failures.is_empty(), "{:?}", report.failures);
        }
        canonize(&report.policies)
    }

    /// Run on the DES; return canonical traces by rank.
    fn run_des(&self) -> (Vec<CanonicalTrace>, Vec<CanonicalTrace>) {
        let spec = self.des_spec();
        let layout = ClusterLayout::new(&spec, 0);
        let mut sim = hpcsim::Simulator::new(sim_config(&spec, &layout));
        let policies = build_recorded(&mut sim, &spec, &layout);
        let r = sim.run();
        assert!(r.is_clean(), "DES run not clean: {r:?}");
        (
            policies
                .producers
                .iter()
                .map(|p| p.borrow().trace().canonical())
                .collect(),
            policies
                .consumers
                .iter()
                .map(|c| c.borrow().trace().canonical())
                .collect(),
        )
    }
}

fn canonize(policies: &WorkflowPolicies) -> (Vec<CanonicalTrace>, Vec<CanonicalTrace>) {
    (
        policies
            .producers
            .iter()
            .map(|p| p.lock().trace().canonical())
            .collect(),
        policies
            .consumers
            .iter()
            .map(|c| c.lock().trace().canonical())
            .collect(),
    )
}

fn assert_same(
    name: &str,
    threaded: &(Vec<CanonicalTrace>, Vec<CanonicalTrace>),
    des: &(Vec<CanonicalTrace>, Vec<CanonicalTrace>),
) {
    for (p, (t, d)) in threaded.0.iter().zip(&des.0).enumerate() {
        assert_eq!(t, d, "{name}: producer {p} decision traces diverge");
    }
    for (q, (t, d)) in threaded.1.iter().zip(&des.1).enumerate() {
        assert_eq!(t, d, "{name}: consumer {q} decision traces diverge");
    }
}

/// Config A: source-affine, message-only. Both substrates route every
/// block of producer `p` to consumer `p % Q` in production order and
/// announce a single-channel EOS; canonical traces must match exactly.
#[test]
fn source_affine_message_only_traces_match() {
    let sc = Scenario {
        producers: 4,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 8,
        high_water_mark: 4,
        concurrent_transfer: false,
        preserve: false,
        routing: RoutingPolicy::SourceAffine,
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    let des = sc.run_des();
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes all its blocks");
        assert!(t.steals.is_empty(), "message-only mode never steals");
    }
    assert_same("config A", &threaded, &des);
}

/// Config B: round-robin + concurrent transfer + Preserve — the
/// combination the DES could not express before the policy kernel. The
/// high-water mark sits at the rank's whole-run block count, so the
/// writer provably never wakes and the shared round-robin rotation is
/// the only routing influence: take order equals production order on
/// both substrates, and the traces must match exactly.
#[test]
fn round_robin_concurrent_preserve_traces_match() {
    let sc = Scenario {
        producers: 2,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8, // == total blocks per rank: occupancy can never exceed it
        concurrent_transfer: true,
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    let des = sc.run_des();
    for (p, t) in threaded.0.iter().enumerate() {
        assert!(
            t.steals.is_empty(),
            "producer {p}: hwm at run size, no steals"
        );
        assert_eq!(t.retires, vec![RetireReason::Drained]);
        for (k, (_, dest, channel)) in t.routes.iter().enumerate() {
            assert_eq!(dest.idx(), k % 2, "producer {p} deals round-robin");
            assert_eq!(*channel, Channel::Net);
        }
        // Dual-channel EOS fan-out to every consumer.
        assert_eq!(t.eos_announced.len(), 4);
    }
    for (q, t) in threaded.1.iter().enumerate() {
        assert_eq!(
            t.eos_seen.len(),
            4,
            "consumer {q}: 2 producers × 2 channels"
        );
        assert!(
            t.stores.iter().all(|&(_, s)| s),
            "Preserve stores everything"
        );
    }
    assert_same("config B", &threaded, &des);
}

/// Replay a recorded decision sequence into a fresh kernel and return
/// the replay's canonical trace. Proves the trace is substrate-free: the
/// kernel reproduces it exactly from the observed take order alone.
fn replay(live: &ProducerPolicy) -> CanonicalTrace {
    let mut fresh = ProducerPolicy::new(
        live.rank(),
        live.consumers(),
        RoutingPolicy::RoundRobin,
        0,
        true,
    )
    .recorded();
    let mut announced: Vec<Channel> = Vec::new();
    for ev in live.trace().events() {
        match *ev {
            PolicyEvent::Route {
                block,
                channel: Channel::Net,
                ..
            } => {
                fresh.route_net(block);
            }
            PolicyEvent::Route {
                block,
                channel: Channel::Disk,
                ..
            } => {
                fresh.route_disk(block);
            }
            // Recorded as a side effect of route_disk in the replay.
            PolicyEvent::Steal { .. } => {}
            PolicyEvent::WriterRetired { reason } => fresh.writer_retired(reason),
            PolicyEvent::EosAnnounced { channel, .. } => {
                if !announced.contains(&channel) {
                    announced.push(channel);
                    fresh.announce_eos(channel);
                }
            }
            ref other => panic!("unexpected producer event {other:?}"),
        }
    }
    fresh.trace().canonical()
}

/// The Config C backpressure script: wire 2 held until 3 cumulative
/// steals, wire 4 until a 4th — applied to every producer rank.
fn config_c_script(producers: usize) -> BackpressureScript {
    let mut script = BackpressureScript::new();
    for p in 0..producers {
        script = script
            .with(Rank(p as u32), 2, GateRule::OpenAfterSteals(3))
            .with(Rank(p as u32), 4, GateRule::OpenAfterSteals(4));
    }
    script
}

/// Config C: scripted partial stealing. The high-water mark sits at the
/// rank's whole-run block count so Algorithm 1 never steals on its own;
/// the backpressure script then pins the exact interleaved schedule
/// b0 b1 | b2 b3 b4 stolen | b5 b6 | b7 stolen on both substrates —
/// some blocks stolen, some sent, byte-identical canonical traces. The
/// recorded trace must also be exactly reproducible by a fresh kernel
/// replaying the observed take order (substrate-free by construction).
#[test]
fn scripted_steal_traces_match_and_replay_exactly() {
    let sc = Scenario {
        producers: 2,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8, // == total blocks per rank: no unscripted steals
        concurrent_transfer: true,
        preserve: false,
        routing: RoutingPolicy::RoundRobin,
        backpressure: Some(config_c_script(2)),
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes every block");
        let stolen: Vec<usize> = t
            .routes
            .iter()
            .enumerate()
            .filter(|(_, (_, _, ch))| *ch == Channel::Disk)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(stolen, vec![2, 3, 4, 7], "producer {p} steal schedule");
        assert_eq!(t.steals.len(), 4);
        assert_eq!(t.retires, vec![RetireReason::Drained]);
        // Shared rotation: the deal order covers both consumers
        // alternately regardless of channel.
        for (k, (_, dest, _)) in t.routes.iter().enumerate() {
            assert_eq!(dest.idx(), k % 2, "producer {p} round-robin rotation");
        }
    }
    let des = sc.run_des();
    assert_same("config C", &threaded, &des);

    // Replay check, against the live DES kernels (the threaded harness
    // only surfaces canonical traces; the kernels are the same type).
    let spec = sc.des_spec();
    let layout = ClusterLayout::new(&spec, 0);
    let mut sim = hpcsim::Simulator::new(sim_config(&spec, &layout));
    let policies = build_recorded(&mut sim, &spec, &layout);
    assert!(sim.run().is_clean());
    for p in &policies.producers {
        let live = p.borrow();
        assert_eq!(
            replay(&live),
            live.trace().canonical(),
            "kernel replay reproduces the scripted trace"
        );
    }
}

/// Config D: degradation. One `ChaosPlan` mixing transport faults
/// (fail/drop/corrupt/delay), a Preserve-store write fault, and a
/// swallowed EOS runs on both substrates; the pipelines degrade through
/// the same decision sequence — identical routes, identical surviving
/// store set, and the same consumer tripping its watchdog.
///
/// Message-only mode: production order equals wire order, so sender
/// ordinals are deterministic.
#[test]
fn chaos_degradation_traces_match() {
    let sc = Scenario {
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        eos_timeout: Some(Duration::from_millis(300)),
        // Each producer sends 8 data wires (ordinals 1..=8) then EOS to
        // consumer 0 (#9) and consumer 1 (#10) — except sender 1, whose
        // wire #1 FailSend kills destination 0: its later data wires to
        // consumer 0 are skipped uncounted, compacting its ordinals.
        chaos: ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
            .with(ChaosEntity::Sender(Rank(0)), 4, ChaosFault::CorruptWire)
            .with(ChaosEntity::Sender(Rank(0)), 9, ChaosFault::DropEos)
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::FailSend)
            .with(
                ChaosEntity::Sender(Rank(1)),
                3,
                ChaosFault::DelayWire(Duration::from_millis(2)),
            )
            .with(ChaosEntity::Output(Rank(0)), 2, ChaosFault::PfsWriteFail),
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    let des = sc.run_des();
    for t in &threaded.0 {
        assert_eq!(t.routes.len(), 8, "routing is decided before the wire");
    }
    let c0 = &threaded.1[0];
    assert_eq!(c0.eos_seen.len(), 1, "producer 0's EOS was swallowed");
    assert_eq!(c0.timeouts, 1, "the watchdog fired");
    assert_eq!(c0.completions, 0);
    // Consumer 0 keeps producer 0's surviving even-ordinal blocks (wires
    // 1,3,5,7) and nothing from the dead-destination producer 1.
    assert_eq!(c0.stores.len(), 4, "{:?}", c0.stores);
    let c1 = &threaded.1[1];
    assert_eq!(c1.eos_seen.len(), 2);
    assert_eq!(c1.completions, 1, "consumer 1 still completes");
    assert_eq!(c1.timeouts, 0);
    // Producer 0's wires 2 (dropped) and 4 (corrupt) never arrive;
    // producer 1's four surviving wires all land here.
    assert_eq!(c1.stores.len(), 6, "{:?}", c1.stores);
    assert_same("config D", &threaded, &des);
}

/// Config E: recovery. A PFS write fault retires producer 0's writer,
/// which the policy kernel revives after a cooldown
/// (`WriterRetired(Fault)` → `WriterRevived` → `WriterRetired(Drained)`);
/// a scripted crash kills consumer 1 on read #3 and the restart
/// supervisor replays its 2-block backlog from the Preserve store. Both
/// substrates must degrade *and heal* through identical decision traces.
///
/// Senders are detached (blocks drain through the work-stealing writer
/// in production order), which makes writer put-ordinals deterministic
/// on the threaded substrate.
#[test]
fn chaos_recovery_traces_match() {
    let sc = Scenario {
        high_water_mark: 0,
        concurrent_transfer: true,
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        recovery: RecoveryPolicy {
            writer_cooldown: Duration::from_millis(1),
            max_writer_revivals: 1,
            max_consumer_restarts: 1,
        },
        chaos: ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 1, ChaosFault::DetachSender)
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::DetachSender)
            // Benign: the EOS wire to consumer 1 arrives late. It must
            // not shift any decision.
            .with(
                ChaosEntity::Sender(Rank(1)),
                2,
                ChaosFault::DelayWire(Duration::from_millis(1)),
            )
            .with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail)
            .with(ChaosEntity::Analysis(Rank(1)), 3, ChaosFault::CrashApp),
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    let des = sc.run_des();
    let p0 = &threaded.0[0];
    assert_eq!(
        p0.retires,
        vec![RetireReason::Fault, RetireReason::Drained],
        "fault retire, then the revived writer drains to the end"
    );
    assert_eq!(p0.revivals, 1);
    assert_eq!(
        p0.routes.len(),
        9,
        "the faulted block is requeued and routed again"
    );
    let p1 = &threaded.0[1];
    assert_eq!(p1.retires, vec![RetireReason::Drained]);
    assert_eq!(p1.revivals, 0);
    assert_eq!(p1.routes.len(), 8);
    let c1 = &threaded.1[1];
    assert!(c1.abandoned, "the crash was accounted");
    assert_eq!(c1.restarts, vec![2], "read #3 crashed with 2 delivered");
    assert_eq!(c1.completions, 1, "EOS reconciles across the restart");
    let c0 = &threaded.1[0];
    assert!(!c0.abandoned);
    assert_eq!(c0.restarts, Vec::<usize>::new());
    assert_eq!(c0.completions, 1);
    assert_same("config E", &threaded, &des);
}

/// Seed for the seeded chaos config — the CI chaos job sweeps this over
/// a small matrix (`ZIPPER_CHAOS_SEED=1..3`).
fn chaos_seed() -> u64 {
    std::env::var("ZIPPER_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// splitmix64: tiny, deterministic, and good enough to decorrelate the
/// per-producer ordinals derived from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Seeded chaos: fault ordinals and kinds are derived from
/// `ZIPPER_CHAOS_SEED` (mixed into the safe data-wire range 1..=8), so
/// the CI seed matrix explores different scripted schedules while every
/// individual run stays fully deterministic — any seed must conform.
#[test]
fn seeded_transport_chaos_traces_match() {
    let mut state = chaos_seed();
    let kinds = [
        ChaosFault::DropWire,
        ChaosFault::CorruptWire,
        ChaosFault::DelayWire(Duration::from_micros(200)),
        ChaosFault::FailSend,
    ];
    let producers = 4usize;
    let mut plan = ChaosPlan::new();
    for p in 0..producers {
        let ordinal = 1 + splitmix(&mut state) % 8; // data wires only
        let kind = kinds[(splitmix(&mut state) % kinds.len() as u64) as usize];
        plan = plan.with(ChaosEntity::Sender(Rank(p as u32)), ordinal, kind);
    }
    let sc = Scenario {
        producers,
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        chaos: plan,
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    let des = sc.run_des();
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes all its blocks");
    }
    assert_same(&format!("seeded (seed {})", chaos_seed()), &threaded, &des);
}

/// A `DropEos` plan in concurrent-transfer mode: both substrates send
/// per-channel EOS wires and count only data wires and net-channel marks
/// against sender ordinals, so swallowing producer 0's stream-EOS to
/// consumer 0 (ordinal 9) trips the same watchdog on both substrates
/// while the disk channel's marks still arrive.
#[test]
fn chaos_dropped_eos_concurrent_traces_match() {
    let sc = Scenario {
        concurrent_transfer: true,
        routing: RoutingPolicy::SourceAffine,
        eos_timeout: Some(Duration::from_millis(300)),
        // 8 data wires (ordinals 1..=8), then net-EOS to consumer 0 (#9,
        // swallowed) and consumer 1 (#10). Disk-channel marks after the
        // writer drains are uncounted on both substrates.
        chaos: ChaosPlan::new().with(ChaosEntity::Sender(Rank(0)), 9, ChaosFault::DropEos),
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    let des = sc.run_des();
    let c0 = &threaded.1[0];
    assert_eq!(c0.eos_seen.len(), 3, "producer 0's net mark was swallowed");
    assert_eq!(c0.timeouts, 1, "the watchdog reconciled the tracker");
    assert_eq!(c0.completions, 0);
    let c1 = &threaded.1[1];
    assert_eq!(c1.eos_seen.len(), 4);
    assert_eq!(c1.completions, 1);
    assert_eq!(c1.timeouts, 0);
    assert_same("dropped EOS, concurrent", &threaded, &des);
}

/// Seed for the seeded gate config — the CI job sweeps this over a small
/// matrix (`ZIPPER_GATE_SEED=1..3`).
fn gate_seed() -> u64 {
    std::env::var("ZIPPER_GATE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Seeded backpressure: each producer gets one credit window whose wire
/// ordinal and steal target derive from `ZIPPER_GATE_SEED`, kept inside
/// the 8-block run so the window always arms and always leaves the
/// sender blocks to finish with. Any seed must produce byte-identical
/// canonical traces across substrates.
#[test]
fn seeded_backpressure_gate_traces_match() {
    let mut state = gate_seed().wrapping_mul(0x5851_f42d_4c95_7f2d);
    let producers = 2usize;
    let mut script = BackpressureScript::new();
    for p in 0..producers {
        let wire = 1 + splitmix(&mut state) % 3; // 1..=3
        let target = 1 + splitmix(&mut state) % (8 - wire - 1);
        script = script.with(Rank(p as u32), wire, GateRule::OpenAfterSteals(target));
    }
    let sc = Scenario {
        producers,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8, // no unscripted steals
        concurrent_transfer: true,
        routing: RoutingPolicy::RoundRobin,
        backpressure: Some(script),
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    let des = sc.run_des();
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes all its blocks");
        assert!(!t.steals.is_empty(), "producer {p}'s window armed");
    }
    assert_same(
        &format!("seeded gate (seed {})", gate_seed()),
        &threaded,
        &des,
    );
}

/// A credit window already met when its wire is reached: wire 2 holds
/// until 2 cumulative steals (blocks 2 and 3), wire 3's window asks for
/// the same 2 and so opens at once, and wire 5 holds until a 3rd (block
/// 7). The met window still arms on both substrates — the threaded gate
/// returns without holding, the DES writer skips it — so the schedule
/// b0 b1 | b2 b3 stolen | b4 b5 b6 | b7 stolen must match exactly.
#[test]
fn met_early_gate_window_traces_match() {
    let producers = 2usize;
    let mut script = BackpressureScript::new();
    for p in 0..producers {
        script = script
            .with(Rank(p as u32), 2, GateRule::OpenAfterSteals(2))
            .with(Rank(p as u32), 3, GateRule::OpenAfterSteals(2))
            .with(Rank(p as u32), 5, GateRule::OpenAfterSteals(3));
    }
    let sc = Scenario {
        producers,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8, // no unscripted steals
        concurrent_transfer: true,
        routing: RoutingPolicy::RoundRobin,
        backpressure: Some(script),
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes every block");
        let stolen: Vec<usize> = t
            .routes
            .iter()
            .enumerate()
            .filter(|(_, (_, _, ch))| *ch == Channel::Disk)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(stolen, vec![2, 3, 7], "producer {p} steal schedule");
    }
    let des = sc.run_des();
    assert_same("met-early gate window", &threaded, &des);
}

/// Composition on a single wire: each producer's data wire #2 is both
/// held by a backpressure gate window (until 3 cumulative steals) and
/// scripted by a chaos ordinal (producer 0: dropped; producer 1:
/// delayed). Both substrates order the mechanisms gate-before-chaos —
/// the threaded sender passes its gate before the `ChaosSender` sees the
/// wire, and the DES ticks gate ordinals before the chaos scope consults its
/// own — so the held wire still burns its fault ordinal on release and
/// the fault lands on the same block everywhere: canonical decision
/// traces must stay byte-identical.
#[test]
fn gate_and_chaos_compose_on_the_same_wire() {
    let producers = 2usize;
    let mut script = BackpressureScript::new();
    for p in 0..producers {
        script = script.with(Rank(p as u32), 2, GateRule::OpenAfterSteals(3));
    }
    let sc = Scenario {
        producers,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8, // no unscripted steals
        concurrent_transfer: true,
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        backpressure: Some(script),
        chaos: ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
            .with(
                ChaosEntity::Sender(Rank(1)),
                2,
                ChaosFault::DelayWire(Duration::from_micros(200)),
            ),
        ..Scenario::default()
    };
    let threaded = sc.run_threaded();
    let des = sc.run_des();
    for (p, t) in threaded.0.iter().enumerate() {
        assert_eq!(t.routes.len(), 8, "producer {p} routes all its blocks");
        assert!(
            t.steals.len() >= 3,
            "producer {p}'s window armed and its credit target was met: {:?}",
            t.steals
        );
    }
    assert_same("gate+chaos same wire", &threaded, &des);
}

/// Run `sc` over real loopback sockets (framed TCP) and return canonical
/// traces by rank. Sender-entity chaos is honoured by wrapping each
/// producer's [`zipper_core::TcpSender`] in a [`zipper_core::ChaosSender`]
/// — the same wrapper the mesh driver uses, counting the same ordinals.
/// Injected faults surface as per-rank runtime errors by design, so
/// runtime error lists are only asserted empty for fault-free runs.
fn run_tcp(sc: &Scenario) -> (Vec<CanonicalTrace>, Vec<CanonicalTrace>) {
    use parking_lot::Mutex;
    use zipper_core::{listen_consumers, ChaosSender, TcpSender, WireSender};
    use zipper_policy::ConsumerPolicy;

    let cfg = sc.threaded_config();
    let tuning = cfg.tuning;
    let sink = TraceSink::wall(TraceMode::Off);
    let storage: Arc<dyn zipper_pfs::Storage> = Arc::new(zipper_pfs::MemFs::new());
    let (addrs, receivers) = listen_consumers(sc.consumers, sc.producers).unwrap();

    let mut consumer_policies = Vec::new();
    let mut consumers = Vec::new();
    let mut drains = Vec::new();
    for (q, rx) in receivers.into_iter().enumerate() {
        let rank = Rank(q as u32);
        let policy = Arc::new(Mutex::new(
            ConsumerPolicy::from_tuning(rank, sc.producers, &tuning).recorded(),
        ));
        consumer_policies.push(policy.clone());
        let mut c = Consumer::spawn_with_policy(
            rank,
            tuning,
            sc.producers,
            rx,
            storage.clone(),
            sink.clone(),
            policy,
        );
        let reader = c.reader();
        consumers.push(c);
        drains.push(std::thread::spawn(move || while reader.read().is_some() {}));
    }

    let slab = cfg.bytes_per_rank_step.as_u64() as usize;
    let mut producer_policies = Vec::new();
    let mut producer_apps = Vec::new();
    let mut producer_runtimes = Vec::new();
    for p in 0..sc.producers {
        let rank = Rank(p as u32);
        let policy = Arc::new(Mutex::new(
            ProducerPolicy::from_tuning(rank, sc.consumers, &tuning).recorded(),
        ));
        producer_policies.push(policy.clone());
        let tcp = TcpSender::connect(&addrs).unwrap();
        let sender: Box<dyn WireSender> = if sc.chaos.is_empty() {
            Box::new(tcp)
        } else {
            Box::new(ChaosSender::new(
                tcp,
                Arc::new(sc.chaos.scope(ChaosEntity::Sender(rank))),
            ))
        };
        let mut prod = Producer::spawn_with_policy(
            rank,
            tuning,
            sender,
            storage.clone(),
            sink.clone(),
            policy,
        );
        let writer = prod.writer(BLOCK as usize);
        producer_runtimes.push(prod);
        let steps = sc.steps;
        producer_apps.push(std::thread::spawn(move || {
            for s in 0..steps {
                let payload = vec![rank.0 as u8; slab];
                writer.write_slab(StepId(s), GlobalPos::default(), payload.into());
            }
            writer.finish();
        }));
    }

    for h in producer_apps {
        h.join().unwrap();
    }
    for prod in producer_runtimes {
        let pm = prod.join();
        if sc.chaos.is_empty() {
            assert!(pm.errors.is_empty(), "{:?}", pm.errors);
        }
    }
    for d in drains {
        d.join().unwrap();
    }
    for c in consumers {
        let cm = c.join();
        if sc.chaos.is_empty() {
            assert!(cm.errors.is_empty(), "{:?}", cm.errors);
        }
    }

    (
        producer_policies
            .iter()
            .map(|p| p.lock().trace().canonical())
            .collect(),
        consumer_policies
            .iter()
            .map(|c| c.lock().trace().canonical())
            .collect(),
    )
}

/// The framed-TCP transport must be decision-invisible: the same
/// workload over real loopback sockets yields the same canonical traces
/// as the in-process mesh (Config B's scenario). Closes the ROADMAP item
/// on extending conformance to the TCP path.
#[test]
fn tcp_transport_matches_mesh_canonical_traces() {
    let sc = Scenario {
        producers: 2,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8, // == run size: the writer never wakes
        concurrent_transfer: true,
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        ..Scenario::default()
    };
    let mesh_traces = sc.run_threaded();
    let tcp_traces = run_tcp(&sc);
    assert_same("tcp vs mesh", &tcp_traces, &mesh_traces);
}

/// Scripted sender chaos over framed TCP: the same ordinal plan the mesh
/// interprets in-process — dropped and corrupted wires, a delayed wire, a
/// failed send — must degrade the TCP run through identical decision
/// traces. Corrupt wires travel as real garbage frames (an in-band
/// transport fault the stream survives), exercising
/// `TcpSender::send_fault`.
///
/// `DropEos` + the virtual watchdog is deliberately *not* in this plan:
/// over TCP the producer's exit closes the socket, so the consumer
/// observes a disconnect before the EOS timeout can fire, while the
/// in-process mesh stays open and trips the watchdog — a real (and
/// documented) transport-visible difference in shutdown, not a policy
/// divergence.
#[test]
fn tcp_scripted_chaos_matches_mesh_canonical_traces() {
    let sc = Scenario {
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        chaos: ChaosPlan::new()
            .with(ChaosEntity::Sender(Rank(0)), 2, ChaosFault::DropWire)
            .with(ChaosEntity::Sender(Rank(0)), 4, ChaosFault::CorruptWire)
            .with(ChaosEntity::Sender(Rank(1)), 1, ChaosFault::FailSend)
            .with(
                ChaosEntity::Sender(Rank(1)),
                3,
                ChaosFault::DelayWire(Duration::from_millis(2)),
            ),
        ..Scenario::default()
    };
    let mesh_traces = sc.run_threaded();
    let tcp_traces = run_tcp(&sc);
    assert_same("tcp chaos vs mesh", &tcp_traces, &mesh_traces);
}
