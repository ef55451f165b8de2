//! Causal conformance: the threaded runtime and the DES record the same
//! cross-entity edge taxonomy, so a run with identical workload
//! parameters must yield *structurally identical* causal graphs on both
//! substrates — the same multiset of `kind:src-role=>dst-role` cross
//! edges ([`CausalGraph::edge_profile`]), because the edges are
//! decision-determined and the decisions conform (`policy_conformance`).
//! Timing differs arbitrarily (wall clock vs. virtual clock); the causal
//! structure may not.
//!
//! The *critical path* through those identical graphs is additionally
//! identical whenever the structure forces a single no-slack chain
//! (Config B: every block rides the wire). Where a config admits two
//! competing chains — the net wire vs. the steal/PFS route into the same
//! consumer (Configs C, E) — each substrate's clock legitimately ranks
//! them differently (an in-process wire transfer is slower than a MemFs
//! put on the wall clock; the modeled PFS dominates the modeled NIC in
//! virtual time), so the tests pin the forced parts instead: both paths
//! drain through the stolen block's PFS fetch into the final analysis.
//!
//! The configs mirror the decision-conformance suite
//! (`policy_conformance.rs`):
//!
//! * Config B — round-robin + concurrent transfer + Preserve, no steals.
//! * Config C — scripted partial stealing through a shared
//!   `BackpressureScript` (gate holds and steal edges on the path's
//!   producers).
//! * Config E — recovery under a scripted `ChaosPlan` (writer fault +
//!   revival, consumer crash + restart).
//!
//! Each config also checks the attribution invariant on both substrates:
//! the per-bucket breakdown of the extracted path sums to the graph
//! makespan within 1 %.

use std::time::Duration;
use zipper_trace::{CausalGraph, CausalLog, CriticalPath, TraceLog};
use zipper_transports::spec::{sim_config, ClusterLayout, WorkflowSpec};
use zipper_transports::zipper::{build_recorded, reclassify_causal};
use zipper_types::{
    BackpressureScript, ByteSize, ChaosEntity, ChaosFault, ChaosPlan, GateRule, GlobalPos,
    PreserveMode, Rank, RecoveryPolicy, RoutingPolicy, StepId, WorkflowConfig,
};
use zipper_workflow::{
    run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions, WorkflowReport,
};

const BLOCK: u64 = 16 << 10;

/// One conformance scenario, expressed substrate-independently (the
/// causal subset of `policy_conformance::Scenario`).
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
    chaos: ChaosPlan,
    recovery: RecoveryPolicy,
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
            backpressure: None,
        }
    }
}

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

    /// Run on the threaded substrate with full tracing + causal edges.
    fn run_threaded(&self) -> WorkflowReport {
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
        let trace = TraceOptions::full().with_causal();
        let (report, _): (_, Vec<()>) = run_workflow_traced(
            &cfg,
            self.net_options(),
            StorageOptions::Memory,
            trace,
            produce,
            consume,
        );
        if self.chaos.is_empty() {
            report.assert_complete();
        } else {
            assert!(report.failures.is_empty(), "{:?}", report.failures);
        }
        report
    }

    /// Run on the DES with causal edges; return the span trace and the
    /// model-reclassified edge log.
    fn run_des(&self) -> (TraceLog, CausalLog) {
        let spec = self.des_spec();
        let layout = ClusterLayout::new(&spec, 0);
        let mut sim = hpcsim::Simulator::new(sim_config(&spec, &layout));
        sim.set_trace_detail(true);
        sim.enable_causal();
        let _policies = build_recorded(&mut sim, &spec, &layout);
        let r = sim.run();
        assert!(r.is_clean(), "DES run not clean: {r:?}");
        let mut causal = sim.take_causal().expect("causal enabled");
        reclassify_causal(&mut causal);
        (sim.into_trace(), causal)
    }
}

/// Extract the critical path, check the attribution invariant (buckets
/// sum to the graph makespan within 1 %), and return the structural
/// signature.
fn path_signature(name: &str, graph: &CausalGraph) -> Vec<String> {
    let path = CriticalPath::extract(graph)
        .unwrap_or_else(|| panic!("{name}: no critical path extracted"));
    let total = path.attribution.total().as_secs_f64();
    let makespan = path.attribution.makespan.as_secs_f64();
    assert!(makespan > 0.0, "{name}: empty makespan");
    let err = (total - makespan).abs() / makespan;
    assert!(
        err <= 0.01,
        "{name}: attribution {total}s vs makespan {makespan}s ({:.2}% off)\n{}",
        err * 100.0,
        path.attribution.table(),
    );
    path.signature(graph)
}

/// Run both substrates, assert the graph-level structural conformance
/// (identical cross-edge profiles) and the per-substrate path
/// invariants, and return both path signatures (threaded, DES).
fn assert_conformant(name: &str, sc: &Scenario) -> (Vec<String>, Vec<String>) {
    let report = sc.run_threaded();
    let tg = report.causal_graph();
    let t_sig = path_signature(&format!("{name} threaded"), &tg);

    let (trace, causal) = sc.run_des();
    let dg = CausalGraph::build(&trace, &causal);
    let d_sig = path_signature(&format!("{name} DES"), &dg);

    assert_eq!(
        tg.edge_profile(),
        dg.edge_profile(),
        "{name}: causal graph structure diverges across substrates",
    );
    for (which, sig) in [("threaded", &t_sig), ("DES", &d_sig)] {
        assert_eq!(
            sig.last().map(String::as_str),
            Some("·"),
            "{name} {which}: path must reach the virtual sink: {sig:?}"
        );
        assert_eq!(
            sig.get(sig.len().saturating_sub(2)).map(String::as_str),
            Some("ana/app"),
            "{name} {which}: path must drain through analysis: {sig:?}"
        );
    }
    (t_sig, d_sig)
}

/// Config B: round-robin + concurrent transfer + Preserve, high-water
/// mark at run size so no steals. The path must thread compute → send →
/// wire → receive → analysis on both substrates.
#[test]
fn config_b_critical_paths_conform() {
    let sc = Scenario {
        producers: 2,
        consumers: 2,
        steps: 2,
        blocks_per_step: 4,
        producer_slots: 16,
        high_water_mark: 8,
        concurrent_transfer: true,
        preserve: true,
        routing: RoutingPolicy::RoundRobin,
        ..Scenario::default()
    };
    let (t_sig, d_sig) = assert_conformant("config B", &sc);
    assert_eq!(
        t_sig, d_sig,
        "config B: single no-slack chain — critical paths must be identical"
    );
    let joined = t_sig.join(" ");
    assert!(
        joined.contains("wire:"),
        "the path must cross the data wire: {joined}"
    );
    assert!(
        !joined.contains("steal:"),
        "hwm at run size: no steal edges on the path: {joined}"
    );
}

/// The Config C backpressure script (same as `policy_conformance`): wire
/// 2 held until 3 cumulative steals, wire 4 until a 4th.
fn config_c_script(producers: usize) -> BackpressureScript {
    let mut script = BackpressureScript::new();
    for p in 0..producers {
        script = script
            .with(Rank(p as u32), 2, GateRule::OpenAfterSteals(3))
            .with(Rank(p as u32), 4, GateRule::OpenAfterSteals(4));
    }
    script
}

/// Config C: scripted partial stealing. Both graphs carry the same gate
/// holds and steal edges; the last routed block (ordinal 8) is stolen on
/// both substrates, so both paths drain through the stolen block's PFS
/// fetch even though the route *into* the consumer differs by clock (the
/// threaded wire is the slow leg; the DES PFS model is).
#[test]
fn config_c_critical_paths_conform() {
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
    let (t_sig, d_sig) = assert_conformant("config C", &sc);
    for (which, sig) in [("threaded", &t_sig), ("DES", &d_sig)] {
        let joined = sig.join(" ");
        assert!(
            joined.contains("pfs:ana/read=>ana/read"),
            "config C {which}: the stolen final block binds via PFS: {joined}"
        );
        assert!(
            joined.contains("queue:ana/read=>ana/app"),
            "config C {which}: the fetch feeds the analysis queue: {joined}"
        );
    }
}

/// Config E: recovery. A PFS write fault retires and revives producer
/// 0's writer; a scripted crash kills consumer 1 and the restart
/// supervisor replays its backlog. Both substrates must degrade *and
/// heal* through the same causal structure.
#[test]
fn config_e_critical_paths_conform() {
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
            .with(
                ChaosEntity::Sender(Rank(1)),
                2,
                ChaosFault::DelayWire(Duration::from_millis(1)),
            )
            .with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail)
            .with(ChaosEntity::Analysis(Rank(1)), 3, ChaosFault::CrashApp),
        ..Scenario::default()
    };
    let (t_sig, d_sig) = assert_conformant("config E", &sc);
    // The DES clock is deterministic: its path always rides the steal
    // route and binds the stolen block through its PFS fetch.
    let d = d_sig.join(" ");
    assert!(
        d.contains("steal:sim/writer=>ana/recv") && d.contains("pfs:ana/read=>ana/read"),
        "config E DES: detached senders drain via steal + PFS: {d}"
    );
    // The threaded wall clock picks among several no-slack chains run to
    // run (the steal route or the EOS-triggered drain); every one of
    // them crosses from the simulation side into analysis.
    let t = t_sig.join(" ");
    assert!(
        t.contains("=>ana"),
        "config E threaded: the path must cross into the analysis side: {t}"
    );
}
