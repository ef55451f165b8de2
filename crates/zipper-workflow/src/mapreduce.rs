//! The paper's stated future work, implemented: "Our future work will add
//! a simplified programming interface (e.g., an application interface
//! similar to MapReduce) to Zipper to simplify parallel programming of
//! big data analysis" (§6.3 Remark).
//!
//! [`run_map_reduce`] couples a simulation with an analysis expressed as
//! two pure functions:
//!
//! * **map**: one fine-grain block → a partial value (runs on every
//!   consumer rank, in arrival order, over either channel);
//! * **reduce**: associative + commutative merge of partials (runs
//!   per-rank incrementally, then across ranks at the end).
//!
//! Block-local map + commutative reduce is exactly the shape Zipper's
//! asynchronous delivery needs: no ordering assumptions, no cross-block
//! state, trivially parallel over consumers — "the data analysis
//! application receives data blocks and analyzes them accordingly,
//! followed by asynchronous reduction operations" (§6.3).

use crate::driver::{run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions};
use crate::report::WorkflowReport;
use std::sync::Arc;
use zipper_core::ZipperWriter;
use zipper_types::{Block, Rank, WorkflowConfig};

/// Run a coupled workflow whose analysis is a map-reduce over blocks.
/// Returns the report and the fully reduced value (`None` when the
/// workflow produced no blocks).
pub fn run_map_reduce<V, P, M, R>(
    cfg: &WorkflowConfig,
    net: NetworkOptions,
    storage: StorageOptions,
    produce: P,
    map: M,
    reduce: R,
) -> (WorkflowReport, Option<V>)
where
    V: Send + 'static,
    P: Fn(Rank, &ZipperWriter) + Send + Sync + 'static,
    M: Fn(&Block) -> V + Send + Sync + 'static,
    R: Fn(V, V) -> V + Send + Sync + 'static,
{
    let map = Arc::new(map);
    let reduce = Arc::new(reduce);
    let rank_reduce = reduce.clone();

    let (report, partials) = run_workflow_traced(
        cfg,
        net,
        storage,
        TraceOptions::default(),
        produce,
        move |_rank, reader| {
            // Per-rank incremental reduction: fold each block's mapped value
            // as it arrives, keeping memory constant.
            let mut acc: Option<V> = None;
            while let Some(block) = reader.read() {
                let v = map(&block);
                acc = Some(match acc.take() {
                    Some(a) => rank_reduce(a, v),
                    None => v,
                });
            }
            acc
        },
    );

    // Cross-rank reduction of the per-consumer partials.
    let total = partials.into_iter().flatten().reduce(|a, b| reduce(a, b));
    (report, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use zipper_types::{ByteSize, GlobalPos, StepId};

    fn cfg() -> WorkflowConfig {
        let mut cfg = WorkflowConfig {
            producers: 3,
            consumers: 2,
            steps: 5,
            bytes_per_rank_step: ByteSize::kib(32),
            ..Default::default()
        };
        cfg.tuning.block_size = ByteSize::kib(8);
        cfg
    }

    #[test]
    fn sums_every_byte_exactly_once() {
        let cfg = cfg();
        let expected: u64 = cfg.total_bytes().as_u64(); // all bytes are 1
        let (report, total) = run_map_reduce(
            &cfg,
            NetworkOptions::default(),
            StorageOptions::Memory,
            |_rank, writer| {
                for s in 0..5u64 {
                    writer.write_slab(
                        StepId(s),
                        GlobalPos::default(),
                        Bytes::from(vec![1u8; 32 << 10]),
                    );
                }
            },
            |block| block.payload.iter().map(|&b| b as u64).sum::<u64>(),
            |a, b| a + b,
        );
        report.assert_complete();
        assert_eq!(total, Some(expected));
    }

    #[test]
    fn reduce_finds_global_extremes_across_consumers() {
        let cfg = cfg();
        let (report, minmax) = run_map_reduce(
            &cfg,
            NetworkOptions::default(),
            StorageOptions::Memory,
            |rank, writer| {
                for s in 0..5u64 {
                    // Payload value encodes (rank, step) so the global max
                    // is produced by exactly one block.
                    let v = (rank.0 as u8) * 10 + s as u8;
                    writer.write_slab(
                        StepId(s),
                        GlobalPos::default(),
                        Bytes::from(vec![v; 32 << 10]),
                    );
                }
            },
            |block| {
                let v = block.payload[0];
                (v, v)
            },
            |a, b| (a.0.min(b.0), a.1.max(b.1)),
        );
        report.assert_complete();
        assert_eq!(minmax, Some((0, 24))); // rank 0/step 0 .. rank 2/step 4
    }

    #[test]
    fn empty_workflow_reduces_to_none() {
        let mut cfg = cfg();
        cfg.steps = 1;
        // Producer writes nothing: consumers see an instant end-of-stream.
        let (report, total) = run_map_reduce(
            &cfg,
            NetworkOptions::default(),
            StorageOptions::Memory,
            |_rank, _writer| {},
            |_block| 1u64,
            |a, b| a + b,
        );
        assert!(report.errors().is_empty());
        assert_eq!(total, None);
    }
}
