//! Workflow specifications and cluster layout shared by every transport
//! model.

use hpcsim::{NetworkConfig, SimConfig};
use zipper_apps::{AppCostModel, Complexity};
use zipper_model::ModelInput;
use zipper_pfs::OstModelConfig;
use zipper_types::{
    BackpressureScript, ByteSize, ChaosPlan, NodeId, RecoveryPolicy, RoutingPolicy, SimTime,
};

/// Everything that defines one simulated workflow run.
#[derive(Clone, Debug)]
pub struct WorkflowSpec {
    /// Simulation (producer) ranks.
    pub sim_ranks: usize,
    /// Analysis (consumer) ranks.
    pub ana_ranks: usize,
    /// Simulation time steps.
    pub steps: u64,
    /// The coupled application pair (drives compute/analysis costs).
    pub cost: AppCostModel,
    /// Output bytes per simulation rank per step.
    pub bytes_per_rank_step: u64,
    /// Zipper's fine-grain block size (baseline transports move the whole
    /// per-step slab at once — that is their defining difference).
    pub block_size: u64,
    /// Application ranks per compute node (28 on Bridges, 68 on
    /// Stampede2).
    pub ranks_per_node: usize,
    /// Zipper producer-buffer capacity in blocks.
    pub producer_slots: usize,
    /// Zipper high-water mark (Algorithm 1 threshold), in blocks.
    pub high_water_mark: usize,
    /// Zipper consumer-buffer capacity in blocks.
    pub consumer_slots: usize,
    /// Dual-channel (message + file) optimization on/off.
    pub concurrent_transfer: bool,
    /// Preserve mode: every block must end on the PFS.
    pub preserve: bool,
    /// Zipper's producer→consumer routing policy (the baseline transports
    /// are inherently source-affine and ignore this).
    pub routing: RoutingPolicy,
    /// DataSpaces/DIMES staging-server process count.
    pub staging_servers: usize,
    /// Staging queue depth in steps (DIMES circular lock slots, Flexpath
    /// publisher queue, Decaf link buffering).
    pub staging_slots: usize,
    /// Decaf link process count.
    pub decaf_links: usize,
    /// Extra per-operation overhead of the ADIOS interface layer.
    pub adios_overhead: SimTime,
    /// Flexpath segfaults when total cores reach this (paper: 6,528).
    pub flexpath_crash_cores: Option<usize>,
    /// Decaf integer-overflows when total cores reach this (paper: 6,528
    /// for CFD; LAMMPS survives).
    pub decaf_crash_cores: Option<usize>,
    /// Parallel uplinks per leaf switch (8 ≈ Bridges' oversubscribed
    /// edge; 16 for Stampede2's fatter spine).
    pub leaf_uplinks: usize,
    /// Client-side CPU slowdown of the platform (1.0 = Bridges Haswell;
    /// ≈2 for Stampede2's KNL cores, whose single-thread performance is a
    /// fraction of a Xeon's). Multiplies every transport-library CPU cost
    /// (serialization, marshalling, indexing).
    pub cpu_slowdown: f64,
    /// RNG seed (PFS background-load jitter etc.).
    pub seed: u64,
    /// Scripted fault schedule interpreted by the Zipper DES processes
    /// (`None` = fault-free). Ordinals follow the conventions in
    /// `zipper_types::fault` so the same plan drives the threaded runtime.
    pub chaos: Option<ChaosPlan>,
    /// Scripted flow-control gates interpreted by the Zipper sender/writer
    /// processes (`None` = ungated). Wire ordinals follow the same
    /// data-wire counting as [`ChaosPlan`], so one script drives both the
    /// threaded runtime's `SenderGate` and the DES NIC model — two drivers
    /// of the same `GateWalk`.
    pub backpressure: Option<BackpressureScript>,
    /// Recovery budgets handed to every policy kernel (writer revival,
    /// consumer restart). Default: recovery disabled.
    pub recovery: RecoveryPolicy,
    /// When set, consumer receivers arm an EOS watchdog: this much virtual
    /// time with no traffic reconciles the `EosTracker` and shuts the rank
    /// down — the DES mirror of the threaded receiver's `recv_timeout`.
    pub virtual_eos_timeout: Option<SimTime>,
}

impl WorkflowSpec {
    /// The Fig. 2 / Fig. 16 CFD workflow: 2/3 sim + 1/3 analysis ranks,
    /// 16 MB per rank per step, 1 MiB Zipper blocks.
    pub fn cfd(sim_ranks: usize, ana_ranks: usize, steps: u64) -> Self {
        let cost = AppCostModel::cfd();
        WorkflowSpec {
            sim_ranks,
            ana_ranks,
            steps,
            cost,
            bytes_per_rank_step: cost.step_output_bytes().unwrap().as_u64(),
            block_size: ByteSize::mib(1).as_u64(),
            ranks_per_node: 28,
            producer_slots: 64,
            high_water_mark: 48,
            consumer_slots: 256,
            concurrent_transfer: true,
            preserve: false,
            routing: RoutingPolicy::SourceAffine,
            staging_servers: 32,
            staging_slots: 2,
            decaf_links: 64,
            adios_overhead: SimTime::from_millis(1),
            flexpath_crash_cores: Some(6528),
            decaf_crash_cores: Some(6528),
            leaf_uplinks: 8,
            cpu_slowdown: 1.0,
            seed: 42,
            chaos: None,
            backpressure: None,
            recovery: RecoveryPolicy::default(),
            virtual_eos_timeout: None,
        }
    }

    /// The Fig. 18 LAMMPS workflow: ≈20 MB per rank per step, 1.2 MB
    /// Zipper blocks (§6.3.2).
    pub fn lammps(sim_ranks: usize, ana_ranks: usize, steps: u64) -> Self {
        let cost = AppCostModel::lammps();
        let mut s = Self::cfd(sim_ranks, ana_ranks, steps);
        s.cost = cost;
        s.bytes_per_rank_step = cost.step_output_bytes().unwrap().as_u64();
        s.block_size = (12 * ByteSize::mib(1).as_u64()) / 10; // 1.2 MB
        s.ranks_per_node = 68; // Stampede2 KNL
        s.cpu_slowdown = 2.0; // KNL single-thread penalty
        s.leaf_uplinks = 16; // Stampede2's fatter spine
        s.decaf_crash_cores = None; // paper: LAMMPS stays under the limit
        s
    }

    /// The Fig. 12–15 synthetic workflow: block-driven producers of the
    /// given complexity, `bytes_per_rank` of data per producer over the
    /// whole run, coupled with the variance analysis.
    pub fn synthetic(
        complexity: Complexity,
        sim_ranks: usize,
        ana_ranks: usize,
        bytes_per_rank: u64,
        block_size: u64,
    ) -> Self {
        let mut s = Self::cfd(sim_ranks, ana_ranks, 1);
        s.cost = AppCostModel::synthetic(complexity);
        s.bytes_per_rank_step = bytes_per_rank;
        s.block_size = block_size;
        s.producer_slots = 64;
        s.high_water_mark = 48;
        s
    }

    /// Total processor cores of the workflow job.
    pub fn total_cores(&self) -> usize {
        self.sim_ranks + self.ana_ranks
    }

    /// Blocks per rank per step (ceiling split of the slab).
    pub fn blocks_per_rank_step(&self) -> u64 {
        self.bytes_per_rank_step.div_ceil(self.block_size)
    }

    /// Byte length of block `idx` within a step slab.
    pub fn block_len(&self, idx: u64) -> u64 {
        let n = self.blocks_per_rank_step();
        debug_assert!(idx < n);
        if idx + 1 == n {
            self.bytes_per_rank_step - (n - 1) * self.block_size
        } else {
            self.block_size
        }
    }

    /// Total fine-grain blocks produced over the whole run.
    pub fn total_blocks(&self) -> u64 {
        self.sim_ranks as u64 * self.steps * self.blocks_per_rank_step()
    }

    /// Capacity for a consumer-side disk-id queue. Disk-id notifications
    /// are 16 bytes and must never back-pressure the receiver (the real
    /// runtime uses an unbounded channel), so the capacity is sized from
    /// the spec at the worst case — every block of the run stolen to the
    /// PFS and routed to one consumer — plus one slot of slack. That makes
    /// it effectively unbounded without hard-coding an arbitrary huge
    /// constant.
    pub fn ids_queue_capacity(&self) -> usize {
        self.total_blocks() as usize + 1
    }

    /// Consumer rank that analyses producer `p`'s data under the
    /// source-affine baseline mapping. The baseline transports hard-wire
    /// this; Zipper's DES consults the `zipper-policy` kernel instead,
    /// which reproduces this mapping for [`RoutingPolicy::SourceAffine`].
    pub fn consumer_of(&self, p: usize) -> usize {
        p % self.ana_ranks
    }

    /// Producer ranks routed to consumer `q`.
    pub fn sources_of(&self, q: usize) -> Vec<usize> {
        (0..self.sim_ranks)
            .filter(|&p| self.consumer_of(p) == q)
            .collect()
    }

    /// Bytes consumer `q` analyses per step.
    pub fn ana_bytes_per_step(&self, q: usize) -> u64 {
        self.sources_of(q).len() as u64 * self.bytes_per_rank_step
    }

    /// The §4.4 model inputs implied by this spec on the calibrated
    /// fabric — derived purely from configuration (costs, sizes, NIC
    /// rates), never from a measured run, so a model-fit report compares
    /// two independent quantities. `tc` folds the per-step phases (if
    /// stepped) plus per-block generation into a per-block compute time;
    /// `tm` is one block's wire time on the calibrated NIC; `ta` is the
    /// analysis kernel's per-block cost. `transfer_lanes` is the NIC
    /// count of the narrower node pool: ranks share their node's NIC, so
    /// the stage runs as many concurrent wire transfers as the smaller of
    /// the simulation and analysis node groups, not one per rank.
    pub fn model_input(&self) -> ModelInput {
        let nb_per_step = self.blocks_per_rank_step();
        let step_compute = self.cost.step_time().unwrap_or(SimTime::ZERO);
        let gen: SimTime = (0..nb_per_step)
            .map(|i| self.cost.sim_block_time(self.block_len(i)))
            .sum();
        let tc = SimTime::from_nanos((step_compute + gen).as_nanos() / nb_per_step);
        let layout = ClusterLayout::new(self, 0);
        let net = sim_config(self, &layout).network;
        let tm = SimTime::for_bytes(self.block_size, net.nic_bw)
            + net.per_msg_overhead
            + net.link_latency;
        ModelInput {
            p: self.sim_ranks as u64,
            q: self.ana_ranks as u64,
            total_bytes: ByteSize::bytes(
                self.sim_ranks as u64 * self.bytes_per_rank_step * self.steps,
            ),
            block_size: ByteSize::bytes(self.block_size),
            tc,
            tm,
            ta: self.cost.analysis_block_time(self.block_size),
            transfer_lanes: layout.sim_nodes.min(layout.ana_nodes).max(1) as u64,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.sim_ranks == 0 || self.ana_ranks == 0 {
            return Err("need at least one sim and one analysis rank".into());
        }
        if self.steps == 0 {
            return Err("need at least one step".into());
        }
        if self.block_size == 0 || self.bytes_per_rank_step == 0 {
            return Err("block and slab sizes must be positive".into());
        }
        if self.ranks_per_node == 0 {
            return Err("ranks_per_node must be positive".into());
        }
        if self.high_water_mark >= self.producer_slots {
            return Err("high-water mark must be below producer_slots".into());
        }
        if self.consumer_slots == 0 {
            return Err("consumer_slots must be positive".into());
        }
        if self.staging_servers == 0 || self.decaf_links == 0 || self.staging_slots == 0 {
            return Err("staging parameters must be positive".into());
        }
        // The message-tag scheme carries the step in a 32-bit field and
        // the block index in a 24-bit field; reject specs that overflow
        // either before they can corrupt tags mid-run.
        if self.steps > tag::STEP_MASK {
            return Err(format!(
                "steps ({}) exceed the tag scheme's 32-bit step field",
                self.steps
            ));
        }
        if self.blocks_per_rank_step() > tag::INFO_MASK {
            return Err(format!(
                "blocks per rank-step ({}) exceed the tag scheme's 24-bit info field",
                self.blocks_per_rank_step()
            ));
        }
        if let Some(plan) = &self.chaos {
            let detaches = plan
                .events
                .iter()
                .any(|ev| ev.fault == zipper_types::ChaosFault::DetachSender);
            if detaches && !self.concurrent_transfer {
                return Err("DetachSender requires concurrent_transfer".into());
            }
        }
        if let Some(script) = &self.backpressure {
            // Steal-credit satisfiability is checked against the per-rank
            // block budget, so an unsatisfiable script is rejected here
            // instead of (fail-open) degrading at run time.
            script
                .validate(Some(self.steps * self.blocks_per_rank_step()))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// The static preflight verifier's view of this spec — the DES-side
    /// twin of `PreflightInput::from_config`, carrying the same plan the
    /// virtual processes would interpret.
    pub fn preflight_input(&self) -> zipper_policy::PreflightInput {
        zipper_policy::PreflightInput {
            producers: self.sim_ranks,
            consumers: self.ana_ranks,
            steps: self.steps,
            blocks_per_rank_step: self.blocks_per_rank_step(),
            producer_slots: self.producer_slots,
            consumer_slots: self.consumer_slots,
            high_water_mark: self.high_water_mark,
            concurrent_transfer: self.concurrent_transfer,
            preserve: self.preserve,
            routing: self.routing,
            recovery: self.recovery,
            eos_watchdog: self.virtual_eos_timeout.is_some(),
            chaos: self.chaos.clone(),
            backpressure: self.backpressure.clone(),
        }
    }

    /// Statically verify this spec's plan without running the simulator:
    /// symbolic execution of the policy kernel over the abstract block
    /// schedule (`zipper_policy::Preflight`).
    pub fn preflight(&self) -> zipper_policy::PreflightReport {
        zipper_policy::Preflight::check(&self.preflight_input())
    }
}

/// Node placement of all processes: simulation nodes first, then analysis
/// nodes, then staging/link nodes (DataSpaces/DIMES servers, Decaf links),
/// with the PFS storage nodes appended by the network config — matching
/// the paper's experimental setup (Table 1: separate node groups for
/// simulation, analysis, and staging).
#[derive(Clone, Debug)]
pub struct ClusterLayout {
    pub sim_nodes: usize,
    pub ana_nodes: usize,
    pub extra_nodes: usize,
    pub ranks_per_node: usize,
}

/// Staging/link processes per node: Table 1 places 32 DataSpaces servers
/// and 64 Decaf links on 8 nodes — single-digit processes per node, so the
/// staging nodes' NICs are not starved the way a full 28–68-rank packing
/// would starve them.
pub const STAGING_PER_NODE: usize = 8;

impl ClusterLayout {
    /// Build the layout for `spec`, with `extra_procs` staging processes
    /// (packed [`STAGING_PER_NODE`] per node).
    pub fn new(spec: &WorkflowSpec, extra_procs: usize) -> Self {
        let rpn = spec.ranks_per_node;
        ClusterLayout {
            sim_nodes: spec.sim_ranks.div_ceil(rpn),
            ana_nodes: spec.ana_ranks.div_ceil(rpn),
            extra_nodes: extra_procs.div_ceil(STAGING_PER_NODE),
            ranks_per_node: rpn,
        }
    }

    pub fn compute_nodes(&self) -> usize {
        self.sim_nodes + self.ana_nodes + self.extra_nodes
    }

    /// Node hosting simulation rank `r`.
    pub fn sim_node(&self, r: usize) -> NodeId {
        NodeId((r / self.ranks_per_node) as u32)
    }

    /// Node hosting analysis rank `q`.
    pub fn ana_node(&self, q: usize) -> NodeId {
        NodeId((self.sim_nodes + q / self.ranks_per_node) as u32)
    }

    /// Node hosting staging/link process `i`.
    pub fn extra_node(&self, i: usize) -> NodeId {
        NodeId((self.sim_nodes + self.ana_nodes + i / STAGING_PER_NODE) as u32)
    }

    /// Node-index range of the simulation nodes (for XmitWait sums).
    pub fn sim_node_range(&self) -> std::ops::Range<usize> {
        0..self.sim_nodes
    }
}

/// Build the simulator configuration (fabric + PFS) for a spec/layout.
///
/// Calibration notes: NIC 10.2 GB/s and switch ports 12.5 GB/s are the
/// paper's stated Omni-Path numbers (§6.2/§6.2.1). The PFS aggregate is
/// set to ≈22 GB/s — the rate implied by Fig. 13, where storing 3,136 GB
/// dominates at ≈139 s.
pub fn sim_config(spec: &WorkflowSpec, layout: &ClusterLayout) -> SimConfig {
    let storage_nodes = 16;
    SimConfig {
        network: NetworkConfig {
            compute_nodes: layout.compute_nodes(),
            storage_nodes,
            nodes_per_leaf: 32,
            nic_bw: 10.2e9,
            uplink_bw: 12.5e9,
            leaf_uplinks: spec.leaf_uplinks,
            link_latency: SimTime::from_micros(1),
            mem_bw: 40e9,
            per_msg_overhead: SimTime::from_micros(2),
        },
        pfs: OstModelConfig {
            n_osts: 64,
            ost_bandwidth: 0.5e9,
            op_latency: SimTime::from_micros(500),
            stripe_size: ByteSize::mib(1),
            background_load: 0.3,
            background_jitter: 0.5,
            read_bandwidth_factor: 4.0,
        },
        seed: spec.seed,
    }
}

/// Message-tag scheme: 8-bit kind | 32-bit step | 24-bit payload info.
pub mod tag {
    pub const KIND_SHIFT: u64 = 56;
    pub const STEP_SHIFT: u64 = 24;
    pub const INFO_MASK: u64 = (1 << STEP_SHIFT) - 1;
    pub const STEP_MASK: u64 = (1 << 32) - 1;

    pub const HALO: u64 = 1;
    pub const DATA: u64 = 2;
    pub const DISKID: u64 = 3;
    pub const SEOS: u64 = 4;
    pub const WEOS: u64 = 5;
    pub const FETCH: u64 = 6;
    pub const RESP: u64 = 7;
    pub const ACK: u64 = 8;
    pub const PUT: u64 = 9;
    /// A chaos-corrupted wire: crosses the fabric (the bytes were sent)
    /// but the receiver discards it on arrival.
    pub const CORRUPT: u64 = 10;

    /// Compose a tag.
    pub fn make(kind: u64, step: u64, info: u64) -> u64 {
        debug_assert!(kind < 256);
        debug_assert!(step <= STEP_MASK);
        debug_assert!(info <= INFO_MASK);
        (kind << KIND_SHIFT) | (step << STEP_SHIFT) | info
    }

    /// Kind of a tag.
    pub fn kind(t: u64) -> u64 {
        t >> KIND_SHIFT
    }

    /// Step field of a tag.
    pub fn step(t: u64) -> u64 {
        (t >> STEP_SHIFT) & STEP_MASK
    }

    /// Info field of a tag.
    pub fn info(t: u64) -> u64 {
        t & INFO_MASK
    }

    /// Tag range matching every message of one kind.
    pub fn range(k: u64) -> (u64, u64) {
        (k << KIND_SHIFT, ((k + 1) << KIND_SHIFT) - 1)
    }

    /// Tag range matching any kind (wildcard receive).
    pub fn any() -> (u64, u64) {
        (0, u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfd_spec_is_valid_and_sized() {
        let s = WorkflowSpec::cfd(256, 128, 100);
        s.validate().unwrap();
        assert_eq!(s.total_cores(), 384);
        assert_eq!(s.blocks_per_rank_step(), 16);
        assert_eq!(s.block_len(0), 1 << 20);
        assert_eq!(s.block_len(15), 1 << 20);
    }

    #[test]
    fn uneven_block_split_has_short_tail() {
        let mut s = WorkflowSpec::cfd(4, 2, 1);
        s.bytes_per_rank_step = 2_500_000;
        s.block_size = 1 << 20;
        assert_eq!(s.blocks_per_rank_step(), 3);
        assert_eq!(s.block_len(2), 2_500_000 - 2 * (1 << 20));
    }

    #[test]
    fn source_affine_routing_partitions_producers() {
        let s = WorkflowSpec::cfd(8, 3, 1);
        let mut seen = [0; 8];
        for q in 0..3 {
            for p in s.sources_of(q) {
                assert_eq!(s.consumer_of(p), q);
                seen[p] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each producer exactly once");
    }

    #[test]
    fn layout_places_groups_disjointly() {
        let spec = WorkflowSpec::cfd(56, 28, 1);
        let layout = ClusterLayout::new(&spec, 32);
        assert_eq!(layout.sim_nodes, 2);
        assert_eq!(layout.ana_nodes, 1);
        // Staging processes pack STAGING_PER_NODE (8) per node: 32 → 4.
        assert_eq!(layout.extra_nodes, 4);
        assert_eq!(layout.sim_node(0), NodeId(0));
        assert_eq!(layout.sim_node(55), NodeId(1));
        assert_eq!(layout.ana_node(0), NodeId(2));
        assert_eq!(layout.extra_node(0), NodeId(3));
        assert_eq!(layout.extra_node(31), NodeId(6));
        assert_eq!(layout.compute_nodes(), 7);
    }

    #[test]
    fn sim_config_covers_layout() {
        let spec = WorkflowSpec::cfd(56, 28, 1);
        let layout = ClusterLayout::new(&spec, 0);
        let cfg = sim_config(&spec, &layout);
        assert_eq!(cfg.network.compute_nodes, layout.compute_nodes());
        cfg.network.validate().unwrap();
        cfg.pfs.validate().unwrap();
    }

    #[test]
    fn tags_round_trip() {
        let t = tag::make(tag::DATA, 12345, 999);
        assert_eq!(tag::kind(t), tag::DATA);
        assert_eq!(tag::step(t), 12345);
        assert_eq!(tag::info(t), 999);
        let (lo, hi) = tag::range(tag::DATA);
        assert!(t >= lo && t <= hi);
        let other = tag::make(tag::HALO, 12345, 999);
        assert!(other < lo || other > hi);
    }

    #[test]
    fn tag_field_overflow_is_rejected() {
        let mut s = WorkflowSpec::cfd(4, 2, 1);
        s.steps = tag::STEP_MASK + 1;
        assert!(s.validate().is_err(), "steps beyond the 32-bit tag field");

        let mut s = WorkflowSpec::cfd(4, 2, 1);
        s.block_size = 1;
        s.bytes_per_rank_step = tag::INFO_MASK + 1;
        assert!(s.validate().is_err(), "block idx beyond the 24-bit field");
    }

    #[test]
    fn ids_queue_capacity_covers_every_block_of_the_run() {
        let s = WorkflowSpec::cfd(4, 2, 3);
        assert_eq!(s.total_blocks(), 4 * 3 * 16);
        assert_eq!(s.ids_queue_capacity(), s.total_blocks() as usize + 1);
    }

    #[test]
    fn lammps_spec_uses_1_2mb_blocks() {
        let s = WorkflowSpec::lammps(136, 68, 10);
        s.validate().unwrap();
        assert_eq!(s.block_size, 1_258_291);
        assert_eq!(s.bytes_per_rank_step, 20 << 20);
        assert!(s.decaf_crash_cores.is_none());
    }

    #[test]
    fn zero_consumer_slots_is_rejected() {
        let mut s = WorkflowSpec::cfd(4, 2, 1);
        s.consumer_slots = 0;
        assert!(s.validate().is_err());
    }

    /// The preflight verifier's tag-bound constants must track the wire
    /// tag scheme: a drift here would let `Preflight::check` accept a
    /// spec whose tags corrupt mid-run.
    #[test]
    fn preflight_tag_limits_match_the_tag_scheme() {
        assert_eq!(zipper_policy::preflight::TAG_STEP_LIMIT, tag::STEP_MASK);
        assert_eq!(zipper_policy::preflight::TAG_BLOCK_LIMIT, tag::INFO_MASK);
    }

    /// A clean spec passes preflight; the same overflow `validate`
    /// rejects maps to the typed ZV003 diagnostic.
    #[test]
    fn spec_preflight_mirrors_validate() {
        let s = WorkflowSpec::cfd(4, 2, 2);
        let report = s.preflight();
        assert!(!report.is_rejected(), "{}", report.render());

        let mut s = WorkflowSpec::cfd(4, 2, 1);
        s.steps = tag::STEP_MASK + 1;
        let report = s.preflight();
        assert!(report.is_rejected());
        assert!(report.has(zipper_policy::ZvCode::TagStepOverflow));
    }
}
