//! Pipeline-parallel schedules: 1F1B and interleaved 1F1B.
//!
//! The interleaved variant follows Megatron-LM's
//! `forward_backward_pipelining_with_interleaving`: model layers are
//! split into `pp * chunks` blocks assigned round-robin, microbatches
//! advance in groups of `pp`, and the warmup depth is
//! `(pp - stage - 1) * 2 + (chunks - 1) * pp`.

/// Whether a step runs a forward or backward pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepKind {
    /// Forward pass of one microbatch through one model chunk.
    Forward,
    /// Backward pass.
    Backward,
}

/// One step of a per-rank pipeline schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PipelineStep {
    /// Microbatch index.
    pub mb: u32,
    /// Model-chunk index on this rank (0 unless interleaved).
    pub chunk: u32,
    /// Forward or backward.
    pub kind: StepKind,
}

/// Global block index of `(stage, chunk)` in the round-robin layout.
pub fn block_of(stage: u32, chunk: u32, pp: u32) -> u32 {
    chunk * pp + stage
}

/// Owner stage of a block.
pub fn owner_of(block: u32, pp: u32) -> u32 {
    block % pp
}

/// Classic non-interleaved 1F1B for one stage.
pub fn schedule_1f1b(pp: u32, stage: u32, num_mb: u32) -> Vec<PipelineStep> {
    let warmup = num_mb.min(pp - stage - 1);
    let remaining = num_mb - warmup;
    let mut steps = Vec::with_capacity(2 * num_mb as usize);
    for i in 0..warmup {
        steps.push(PipelineStep {
            mb: i,
            chunk: 0,
            kind: StepKind::Forward,
        });
    }
    for j in 0..remaining {
        steps.push(PipelineStep {
            mb: warmup + j,
            chunk: 0,
            kind: StepKind::Forward,
        });
        steps.push(PipelineStep {
            mb: j,
            chunk: 0,
            kind: StepKind::Backward,
        });
    }
    for i in remaining..num_mb {
        steps.push(PipelineStep {
            mb: i,
            chunk: 0,
            kind: StepKind::Backward,
        });
    }
    steps
}

/// Chunk id of the `k`-th virtual microbatch (Megatron's
/// `get_model_chunk_id`).
fn vmb_chunk(k: u32, pp: u32, chunks: u32, forward: bool) -> u32 {
    let in_group = k % (pp * chunks);
    let c = in_group / pp;
    if forward {
        c
    } else {
        chunks - 1 - c
    }
}

/// Actual microbatch number of the `k`-th virtual microbatch.
fn vmb_microbatch(k: u32, pp: u32, chunks: u32) -> u32 {
    (k / (pp * chunks)) * pp + k % pp
}

/// Interleaved 1F1B for one stage with `chunks` model chunks per rank.
///
/// Requires `num_mb % pp == 0` (Megatron's constraint).
pub fn schedule_interleaved(pp: u32, stage: u32, num_mb: u32, chunks: u32) -> Vec<PipelineStep> {
    debug_assert!(num_mb % pp == 0, "interleaving requires num_mb % pp == 0");
    let total = num_mb * chunks;
    let warmup = if num_mb == pp {
        total
    } else {
        ((pp - stage - 1) * 2 + (chunks - 1) * pp).min(total)
    };
    let mut steps = Vec::with_capacity(2 * total as usize);
    for k in 0..warmup {
        steps.push(PipelineStep {
            mb: vmb_microbatch(k, pp, chunks),
            chunk: vmb_chunk(k, pp, chunks, true),
            kind: StepKind::Forward,
        });
    }
    for k in 0..(total - warmup) {
        steps.push(PipelineStep {
            mb: vmb_microbatch(warmup + k, pp, chunks),
            chunk: vmb_chunk(warmup + k, pp, chunks, true),
            kind: StepKind::Forward,
        });
        steps.push(PipelineStep {
            mb: vmb_microbatch(k, pp, chunks),
            chunk: vmb_chunk(k, pp, chunks, false),
            kind: StepKind::Backward,
        });
    }
    for k in (total - warmup)..total {
        steps.push(PipelineStep {
            mb: vmb_microbatch(k, pp, chunks),
            chunk: vmb_chunk(k, pp, chunks, false),
            kind: StepKind::Backward,
        });
    }
    steps
}

/// Builds the per-stage schedule, choosing the interleaved variant when
/// `chunks > 1`.
pub fn build_schedule(pp: u32, stage: u32, num_mb: u32, chunks: u32) -> Vec<PipelineStep> {
    if pp == 1 {
        // No pipeline: plain gradient-accumulation loop.
        let mut steps = Vec::with_capacity(2 * num_mb as usize);
        for mb in 0..num_mb {
            steps.push(PipelineStep {
                mb,
                chunk: 0,
                kind: StepKind::Forward,
            });
            steps.push(PipelineStep {
                mb,
                chunk: 0,
                kind: StepKind::Backward,
            });
        }
        steps
    } else if chunks > 1 {
        schedule_interleaved(pp, stage, num_mb, chunks)
    } else {
        schedule_1f1b(pp, stage, num_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every (mb, chunk) appears exactly once forward and once backward,
    /// with the forward first.
    fn check_schedule_invariants(steps: &[PipelineStep], num_mb: u32, chunks: u32) {
        let mut fwd_seen: HashSet<(u32, u32)> = HashSet::new();
        let mut bwd_seen: HashSet<(u32, u32)> = HashSet::new();
        for s in steps {
            match s.kind {
                StepKind::Forward => {
                    assert!(fwd_seen.insert((s.mb, s.chunk)), "dup fwd {s:?}");
                }
                StepKind::Backward => {
                    assert!(fwd_seen.contains(&(s.mb, s.chunk)), "bwd before fwd {s:?}");
                    assert!(bwd_seen.insert((s.mb, s.chunk)), "dup bwd {s:?}");
                }
            }
        }
        assert_eq!(fwd_seen.len() as u32, num_mb * chunks);
        assert_eq!(bwd_seen.len() as u32, num_mb * chunks);
    }

    #[test]
    fn one_f_one_b_invariants() {
        for pp in [2u32, 4, 8] {
            for stage in 0..pp {
                for num_mb in [pp, 2 * pp, 4 * pp] {
                    let s = schedule_1f1b(pp, stage, num_mb);
                    check_schedule_invariants(&s, num_mb, 1);
                }
            }
        }
    }

    #[test]
    fn one_f_one_b_last_stage_alternates() {
        let s = schedule_1f1b(4, 3, 8);
        // Stage pp-1 has no warmup: strict F,B,F,B...
        for (i, step) in s.iter().enumerate() {
            let expect = if i % 2 == 0 {
                StepKind::Forward
            } else {
                StepKind::Backward
            };
            assert_eq!(step.kind, expect, "step {i}");
        }
    }

    #[test]
    fn one_f_one_b_first_stage_warmup_depth() {
        let pp = 4;
        let s = schedule_1f1b(pp, 0, 8);
        let leading_fwd = s.iter().take_while(|x| x.kind == StepKind::Forward).count();
        // warmup forwards plus the first steady-state forward.
        assert_eq!(leading_fwd as u32, (pp - 1) + 1);
    }

    #[test]
    fn interleaved_invariants() {
        for pp in [2u32, 4] {
            for chunks in [2u32, 4] {
                for stage in 0..pp {
                    for mult in [1u32, 2, 4] {
                        let num_mb = mult * pp;
                        let s = schedule_interleaved(pp, stage, num_mb, chunks);
                        check_schedule_invariants(&s, num_mb, chunks);
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_in_flight_bounded() {
        let pp = 4;
        let chunks = 2;
        let num_mb = 8;
        for stage in 0..pp {
            let s = schedule_interleaved(pp, stage, num_mb, chunks);
            let mut inflight: i64 = 0;
            let mut peak: i64 = 0;
            for step in &s {
                match step.kind {
                    StepKind::Forward => inflight += 1,
                    StepKind::Backward => inflight -= 1,
                }
                peak = peak.max(inflight);
            }
            assert_eq!(inflight, 0);
            let warmup = ((pp - stage - 1) * 2 + (chunks - 1) * pp) as i64;
            assert!(
                peak <= warmup + 1,
                "stage {stage}: peak {peak} warmup {warmup}"
            );
        }
    }

    #[test]
    fn block_arithmetic() {
        let pp = 4;
        assert_eq!(block_of(2, 0, pp), 2);
        assert_eq!(block_of(2, 1, pp), 6);
        assert_eq!(owner_of(6, pp), 2);
        for b in 0..12 {
            assert_eq!(block_of(owner_of(b, pp), b / pp, pp), b);
        }
    }

    #[test]
    fn no_pipeline_schedule_is_fb_loop() {
        let s = build_schedule(1, 0, 4, 1);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].kind, StepKind::Forward);
        assert_eq!(s[1].kind, StepKind::Backward);
        assert_eq!(s[0].mb, s[1].mb);
    }

    /// The per-link message sequences produced by adjacent stages must
    /// match: sender's n-th send on a link pairs with receiver's n-th
    /// recv. This is the NCCL-ordering property the executor's rendezvous
    /// relies on.
    #[test]
    fn adjacent_stage_message_sequences_match() {
        for (pp, chunks, mult) in [
            (2u32, 1u32, 2u32),
            (4, 1, 2),
            (4, 1, 1),
            (2, 2, 1),
            (2, 2, 2),
            (4, 2, 2),
            (4, 4, 1),
        ] {
            let num_mb = mult * pp;
            let total_blocks = pp * chunks;
            let sched: Vec<Vec<PipelineStep>> = (0..pp)
                .map(|s| build_schedule(pp, s, num_mb, chunks))
                .collect();

            // For each directed link, collect (mb, boundary-block) message
            // lists from the sender's and receiver's perspectives.
            use std::collections::HashMap;
            let mut sends: HashMap<(u32, u32, bool), Vec<(u32, u32)>> = HashMap::new();
            let mut recvs: HashMap<(u32, u32, bool), Vec<(u32, u32)>> = HashMap::new();
            for stage in 0..pp {
                for step in &sched[stage as usize] {
                    let block = block_of(stage, step.chunk, pp);
                    match step.kind {
                        StepKind::Forward => {
                            if block > 0 {
                                let from = owner_of(block - 1, pp);
                                recvs
                                    .entry((from, stage, true))
                                    .or_default()
                                    .push((step.mb, block - 1));
                            }
                            if block + 1 < total_blocks {
                                let to = owner_of(block + 1, pp);
                                sends
                                    .entry((stage, to, true))
                                    .or_default()
                                    .push((step.mb, block));
                            }
                        }
                        StepKind::Backward => {
                            if block + 1 < total_blocks {
                                let from = owner_of(block + 1, pp);
                                recvs
                                    .entry((from, stage, false))
                                    .or_default()
                                    .push((step.mb, block + 1));
                            }
                            if block > 0 {
                                let to = owner_of(block - 1, pp);
                                sends
                                    .entry((stage, to, false))
                                    .or_default()
                                    .push((step.mb, block));
                            }
                        }
                    }
                }
            }
            for (link, s) in &sends {
                let r = recvs
                    .get(link)
                    .unwrap_or_else(|| panic!("missing recvs for {link:?}"));
                // Sender tags messages with the produced block, receiver
                // with the consumed block: fwd consumed = produced; bwd
                // consumed block B means producer ran bwd of B.
                assert_eq!(
                    s, r,
                    "pp={pp} chunks={chunks} mult={mult} link {link:?} order mismatch"
                );
            }
        }
    }
}
