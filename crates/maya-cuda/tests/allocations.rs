//! Heap allocations a warm recorder makes, counted exactly.
//!
//! A rank recorded into the buffers a previous rank handed back writes
//! over memory it already holds, so what it allocates is fixed set-up —
//! the context's registries and the like — and does not grow with the
//! calls it records. Each test counts, on its own thread, the
//! allocations of one such rank of a Megatron job (`emulate_dedup_512`'s
//! benchmark job: GPT-3 18.4B, tp 4, pp 2, 512 H100s) at 1, 2 and 3
//! training iterations, and pins the count. A count that moves with the
//! iterations is a per-call allocation; one that moves at all is a
//! change to pin on purpose. CI also runs this binary in release, where
//! an allocation the optimizer removes would show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use maya_cuda::CudaContext;
use maya_hw::{ClusterSpec, GpuSpec};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{Dtype, Templates, TraceBuffers};

/// The system allocator, counting what the current thread asks of it
/// while that thread counts.
struct Counting;

thread_local! {
    /// Allocations and bytes asked for since counting began on this
    /// thread; `None` while it does not count.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    let _ = COUNT.try_with(|c| {
        if let Some((n, b)) = c.get() {
            c.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; counting only
// touches a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result, and the allocations and bytes it asked for on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    let count = COUNT.with(|c| c.take()).unwrap_or_default();
    (out, count)
}

/// `emulate_dedup_512`'s job, run for `iterations`.
fn job(iterations: u32) -> TrainingJob {
    let cluster = ClusterSpec::h100(64, 8);
    TrainingJob {
        model: ModelSpec::gpt3_18_4b(),
        parallel: ParallelConfig {
            tp: 4,
            pp: 2,
            microbatch_multiplier: 2,
            virtual_stages: 1,
            activation_recompute: true,
            sequence_parallel: true,
            distributed_optimizer: true,
        },
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 1024,
        world: cluster.num_gpus(),
        gpus_per_node: cluster.gpus_per_node,
        precision: Dtype::Bf16,
        iterations,
    }
}

/// Records `rank` of `job` into `buffers` against `against` (`None`:
/// eagerly, charging as it goes), and hands its buffers back for the
/// next rank, with the template it matched whole, if any.
fn record(
    job: &TrainingJob,
    rank: u32,
    buffers: TraceBuffers,
    against: Option<Templates>,
) -> (TraceBuffers, Option<usize>) {
    let mut ctx = CudaContext::recording_into(rank, GpuSpec::h100(), buffers, against);
    job.run_worker(rank, &mut ctx).expect("rank emulates");
    let (mut trace, meta, charges) = ctx.into_unsettled();
    let host_notes = match meta.matched {
        Some(_) => charges.forgo(),
        None => charges.settle(&mut trace),
    };
    let buffers = TraceBuffers {
        events: trace.events,
        collectives: meta.collectives,
        residue: meta.residue,
        host_notes,
    };
    (buffers, meta.matched)
}

/// What recording rank 1 into buffers a previous recording of it left
/// allocates, at 1, 2 and 3 iterations: against the template of rank
/// 0, whose class it is in, or eagerly.
fn warm_counts(against_class: bool) -> Vec<(u64, u64)> {
    let rank = 1;
    (1..=3)
        .map(|iterations| {
            let job = job(iterations);
            let against = against_class.then(|| {
                let (class, _) = record(&job, 0, TraceBuffers::default(), None);
                let trace = maya_trace::WorkerTrace {
                    events: class.events,
                    ..maya_trace::WorkerTrace::new(0)
                };
                Templates::default().kept(trace)
            });
            let (warm, _) = record(&job, rank, TraceBuffers::default(), against.clone());
            let ((_, matched), count) = counted(|| record(&job, rank, warm, against));
            assert_eq!(
                matched,
                against_class.then_some(0),
                "{iterations} iterations"
            );
            count
        })
        .collect()
}

#[test]
fn a_folded_rank_recorded_into_recycled_buffers_allocates_the_same_at_any_length() {
    assert_eq!(warm_counts(true), [(18, 1448); 3]);
}

#[test]
fn an_eager_rank_recorded_into_recycled_buffers_allocates_the_same_at_any_length() {
    assert_eq!(warm_counts(false), [(17, 1392); 3]);
}
