//! # zipper-types
//!
//! Shared vocabulary types for the Zipper in-situ workflow suite: ranks,
//! simulation steps, data-block identifiers and headers, virtual time,
//! byte-size helpers, and the configuration structs shared by the real
//! (threaded) runtime, the discrete-event simulator, and the experiment
//! harnesses.
//!
//! The paper's central data unit is the *fine-grain data block*: a slab of
//! simulation output (1–8 MB in the paper's experiments) carrying enough
//! header information — the time-step index, the producing rank, and its
//! position in the global domain — for a consumer to analyze it without any
//! additional coordination (§4.2). [`Block`] and [`BlockHeader`] encode that
//! unit; everything else in the workspace moves these around.

pub mod backpressure;
pub mod block;
pub mod config;
pub mod error;
pub mod fault;
pub mod ids;
pub mod retry;
pub mod size;
pub mod time;

pub use backpressure::{
    BackpressureScript, GateRule, GateStep, GateWalk, GateWindow, ScriptError, SenderGate,
};
pub use block::{Block, BlockHeader, GlobalPos, MixedMessage};
pub use config::{PreserveMode, RecoveryPolicy, RoutingPolicy, WorkflowConfig, ZipperTuning};
pub use error::{panic_detail, Error, Result, RuntimeError};
pub use fault::{ChaosEntity, ChaosEvent, ChaosFault, ChaosPlan, ChaosScope};
pub use ids::{BlockId, NodeId, ProcId, Rank, StepId};
pub use retry::RetryPolicy;
pub use size::ByteSize;
pub use time::SimTime;
