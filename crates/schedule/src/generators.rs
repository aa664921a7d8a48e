//! Schedule generators, expressed as phase/lane programs over the IR in
//! [`crate::program`] and lowered to op programs. Generators only decide
//! *which compute runs when*; all communication placement lives in the
//! lowering, so every family shares one correctness story.

use crate::program::{lower, Lane, Phase, Slot};
use crate::{slice, Schedule, ScheduleKind};

/// Error building a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The interleaved schedule requires the micro-batch count to be a
    /// multiple of the pipeline depth (Megatron-LM restriction).
    MicrobatchesNotMultipleOfDepth { m: usize, p: usize },
    /// Interleaving needs at least 2 devices (a 1-device "pipeline" has no
    /// peer to interleave against).
    TooFewDevices,
    /// Zero micro-batches or zero devices.
    Empty,
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::MicrobatchesNotMultipleOfDepth { m, p } => write!(
                f,
                "interleaved schedule requires micro-batches ({m}) to be a multiple of depth ({p})"
            ),
            GenerateError::TooFewDevices => write!(f, "interleaved schedule needs >= 2 devices"),
            GenerateError::Empty => write!(f, "schedule needs >= 1 device and >= 1 micro-batch"),
        }
    }
}

impl std::error::Error for GenerateError {}

/// Lower one lane per device into an unsliced [`Schedule`].
fn assemble(kind: ScheduleKind, p: usize, v: usize, m: usize, lanes: Vec<Lane>) -> Schedule {
    let devices = lanes.iter().map(|lane| lower(lane, p, v)).collect();
    Schedule {
        kind,
        n_devices: p,
        n_chunks: v,
        n_microbatches: m,
        n_sliced: 0,
        recompute: vec![false; p * v],
        devices,
    }
}

/// Micro-batch `i`'s forward on a single-chunk lane.
fn fwd(i: usize) -> Slot {
    Slot::Fwd { mb: i, chunk: 0 }
}

/// The synchronous 1F1B schedule (Fig. 5): each stage runs
/// `min(m, p−1−stage)` Warmup forwards, alternates forward/backward in the
/// 1F1B phase, and drains remaining backwards in Cooldown.
pub fn one_f_one_b(p: usize, m: usize) -> Schedule {
    let lanes = (0..p)
        .map(|x| {
            let w = m.min(p - 1 - x);
            let mut lane = Lane::new(x);
            for i in 0..w {
                lane.push(Phase::Warmup, fwd(i));
            }
            // 1F1B phase: forward of (w + j), backward of j.
            let steady = m - w;
            for j in 0..steady {
                lane.push(Phase::Steady, fwd(w + j));
                lane.push(Phase::Steady, Slot::Bwd { mb: j, chunk: 0 });
            }
            for j in steady..m {
                lane.push(Phase::Cooldown, Slot::Bwd { mb: j, chunk: 0 });
            }
            lane
        })
        .collect();
    assemble(ScheduleKind::OneFOneB, p, 1, m, lanes)
}

/// GPipe: run every forward, then every backward in reverse micro-batch
/// order (fill then drain — maximal startup and cooldown bubbles).
pub fn gpipe(p: usize, m: usize) -> Schedule {
    let lanes = (0..p)
        .map(|x| {
            let mut lane = Lane::new(x);
            for i in 0..m {
                lane.push(Phase::Warmup, fwd(i));
            }
            for j in (0..m).rev() {
                lane.push(Phase::Cooldown, Slot::Bwd { mb: j, chunk: 0 });
            }
            lane
        })
        .collect();
    assemble(ScheduleKind::GPipe, p, 1, m, lanes)
}

/// AutoPipe sliced 1F1B (Fig. 8): [`one_f_one_b`] with the forwards of the
/// first `sliced` micro-batches split in half by [`slice()`]. A shorthand
/// for tests, the benchmark's schedule probes and the `train_pipeline`
/// example; a plan is sliced by `autopipe_core::Plan::slice` (Algorithm 2's
/// count) or built sliced by `autopipe_core::Plan::new`.
pub fn sliced_1f1b(p: usize, m: usize, sliced: usize) -> Schedule {
    let mut s = one_f_one_b(p, m);
    slice(&mut s, sliced);
    s
}

/// Zero-bubble 1F1B (the ZB-H1 arrangement of 2BP's split backward): the
/// warmup and forward pattern match 1F1B exactly, but every backward is
/// split. In the steady phase the grad-input runs first so `SendGrad`
/// departs a grad-weight's worth of time earlier — shortening the
/// inter-stage backward dependency chain — and the grad-weight runs
/// immediately after, keeping in-flight activations at 1F1B's level. Only
/// Cooldown's grad-weights are deferred, to a Drain tail after the last
/// grad-input, where they soak up the cooldown bubble.
pub fn zero_bubble(p: usize, m: usize) -> Schedule {
    let lanes = (0..p)
        .map(|x| {
            let w = m.min(p - 1 - x);
            let mut lane = Lane::new(x);
            for i in 0..w {
                lane.push(Phase::Warmup, fwd(i));
            }
            let steady = m - w;
            for j in 0..steady {
                lane.push(Phase::Steady, fwd(w + j));
                lane.push(Phase::Steady, Slot::BwdInput { mb: j, chunk: 0 });
                lane.push(Phase::Steady, Slot::BwdWeight { mb: j, chunk: 0 });
            }
            for j in steady..m {
                lane.push(Phase::Cooldown, Slot::BwdInput { mb: j, chunk: 0 });
            }
            for j in steady..m {
                lane.push(Phase::Drain, Slot::BwdWeight { mb: j, chunk: 0 });
            }
            lane
        })
        .collect();
    assemble(ScheduleKind::ZeroBubble, p, 1, m, lanes)
}

/// Megatron-LM's interleaved 1F1B schedule with `v` model chunks per device.
///
/// Device `d` hosts chunks `c = 0..v`, implementing pipeline stages
/// `c·p + d`. The forward sequence on every device walks micro-batches in
/// groups of `p`, cycling through all chunks for one group before advancing
/// (the canonical Megatron ordering); the backward sequence mirrors it with
/// chunks reversed. Warmup depth is `2·(p−d−1) + (v−1)·p` chunk-forwards.
pub fn interleaved(p: usize, v: usize, m: usize) -> Result<Schedule, GenerateError> {
    if p == 0 || m == 0 || v == 0 {
        return Err(GenerateError::Empty);
    }
    if v == 1 {
        let mut s = one_f_one_b(p, m);
        s.kind = ScheduleKind::Interleaved;
        return Ok(s);
    }
    if p < 2 {
        return Err(GenerateError::TooFewDevices);
    }
    if !m.is_multiple_of(p) {
        return Err(GenerateError::MicrobatchesNotMultipleOfDepth { m, p });
    }

    let total = m * v; // chunk-level forwards (= backwards) per device
    let fwd_slot = |k: usize| Slot::Fwd {
        mb: (k / (p * v)) * p + k % p,
        chunk: (k / p) % v,
    };
    let bwd_slot = |j: usize| Slot::Bwd {
        mb: (j / (p * v)) * p + j % p,
        chunk: v - 1 - (j / p) % v,
    };

    let lanes = (0..p)
        .map(|d| {
            let warmup = total.min(2 * (p - d - 1) + (v - 1) * p);
            let mut lane = Lane::new(d);
            for k in 0..warmup {
                lane.push(Phase::Warmup, fwd_slot(k));
            }
            let steady = total - warmup;
            for t in 0..steady {
                lane.push(Phase::Steady, fwd_slot(warmup + t));
                lane.push(Phase::Steady, bwd_slot(t));
            }
            for j in steady..total {
                lane.push(Phase::Cooldown, bwd_slot(j));
            }
            lane
        })
        .collect();
    Ok(assemble(ScheduleKind::Interleaved, p, v, m, lanes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpKind, Part};

    fn count_kind(s: &Schedule, pred: impl Fn(&OpKind) -> bool) -> usize {
        s.devices.iter().flatten().filter(|o| pred(&o.kind)).count()
    }

    #[test]
    fn one_f_one_b_op_counts() {
        let p = 4;
        let m = 8;
        let s = one_f_one_b(p, m);
        // Every stage forwards and backwards every micro-batch once.
        assert_eq!(count_kind(&s, |k| matches!(k, OpKind::Fwd { .. })), p * m);
        assert_eq!(count_kind(&s, |k| matches!(k, OpKind::Bwd { .. })), p * m);
        // p-1 boundaries, m activations and m gradients each.
        assert_eq!(
            count_kind(&s, |k| matches!(k, OpKind::SendAct { .. })),
            (p - 1) * m
        );
        assert_eq!(
            count_kind(&s, |k| matches!(k, OpKind::SendGrad { .. })),
            (p - 1) * m
        );
    }

    #[test]
    fn one_f_one_b_warmup_depth_decreases() {
        let s = one_f_one_b(4, 8);
        // Warmup forwards before the first backward on each device.
        for (x, dev) in s.devices.iter().enumerate() {
            let first_bwd = dev
                .iter()
                .position(|o| matches!(o.kind, OpKind::Bwd { .. }))
                .unwrap();
            let warmup_fwds = dev[..first_bwd]
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Fwd { .. }))
                .count();
            assert_eq!(warmup_fwds, 4 - x, "device {x}");
        }
    }

    #[test]
    fn one_f_one_b_handles_fewer_microbatches_than_stages() {
        let s = one_f_one_b(4, 2);
        assert_eq!(count_kind(&s, |k| matches!(k, OpKind::Fwd { .. })), 8);
        assert_eq!(count_kind(&s, |k| matches!(k, OpKind::Bwd { .. })), 8);
    }

    #[test]
    fn gpipe_backwards_run_in_reverse() {
        let s = gpipe(3, 4);
        let bwd_mbs: Vec<usize> = s.devices[2]
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Bwd { mb, .. } => Some(mb),
                _ => None,
            })
            .collect();
        assert_eq!(bwd_mbs, vec![3, 2, 1, 0]);
    }

    #[test]
    fn sliced_schedule_splits_leading_microbatches() {
        let s = sliced_1f1b(4, 8, 2);
        assert_eq!(s.n_sliced, 2);
        // Micro-batch 0 (non-aggregated): separate half sends on stage 0.
        let d0 = &s.devices[0];
        let half_sends = d0
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OpKind::SendAct {
                        mb: 0,
                        part: Part::Half1 | Part::Half2,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(half_sends, 2);
        // Micro-batch 1 is the last sliced one: aggregated single send.
        let both_sends = d0
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OpKind::SendAct {
                        mb: 1,
                        part: Part::Both,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(both_sends, 1);
    }

    #[test]
    fn sliced_zero_equals_plain_1f1b() {
        let a = sliced_1f1b(4, 8, 0);
        let b = one_f_one_b(4, 8);
        assert_eq!(a.devices, b.devices);
    }

    #[test]
    fn sliced_single_microbatch_has_no_aggregation() {
        let s = sliced_1f1b(4, 8, 1);
        let any_both = s.devices.iter().flatten().any(|o| {
            matches!(
                o.kind,
                OpKind::SendAct {
                    part: Part::Both,
                    ..
                }
            )
        });
        assert!(!any_both);
    }

    #[test]
    fn fwd_fractions_sum_to_one_per_stage_microbatch() {
        for sliced in 0..4 {
            let s = sliced_1f1b(4, 8, sliced);
            for (x, dev) in s.devices.iter().enumerate() {
                for mb in 0..8 {
                    let frac: f64 = dev
                        .iter()
                        .filter_map(|o| match o.kind {
                            OpKind::Fwd { mb: om, part, .. } if om == mb => Some(part.frac()),
                            _ => None,
                        })
                        .sum();
                    assert!(
                        (frac - 1.0).abs() < 1e-12,
                        "stage {x} mb {mb} sliced {sliced}: frac {frac}"
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_requires_multiple_of_depth() {
        assert!(matches!(
            interleaved(4, 2, 6),
            Err(GenerateError::MicrobatchesNotMultipleOfDepth { .. })
        ));
        assert!(interleaved(4, 2, 8).is_ok());
    }

    #[test]
    fn interleaved_chunk_op_counts() {
        let p = 4;
        let v = 2;
        let m = 8;
        let s = interleaved(p, v, m).unwrap();
        // Every device runs m*v chunk forwards and backwards.
        for dev in &s.devices {
            let f = dev
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Fwd { .. }))
                .count();
            let b = dev
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Bwd { .. }))
                .count();
            assert_eq!(f, m * v);
            assert_eq!(b, m * v);
        }
    }

    #[test]
    fn interleaved_v1_is_plain_1f1b() {
        let a = interleaved(4, 1, 8).unwrap();
        let b = one_f_one_b(4, 8);
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.kind, ScheduleKind::Interleaved);
    }

    #[test]
    fn interleaved_forward_order_cycles_chunks_per_group() {
        let s = interleaved(2, 2, 4).unwrap();
        // Device 0 forward (chunk, mb) order: group {0,1} through chunk 0,
        // then chunk 1, then group {2,3}.
        let fwds: Vec<(usize, usize)> = s.devices[0]
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Fwd { mb, chunk, .. } => Some((chunk, mb)),
                _ => None,
            })
            .collect();
        assert_eq!(
            fwds,
            vec![
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3)
            ]
        );
    }

    #[test]
    fn zero_bubble_matches_1f1b_op_skeleton() {
        // Same forward placement and backward micro-batch order as 1F1B;
        // only the backward compute is split.
        let p = 4;
        let m = 8;
        let zb = zero_bubble(p, m);
        let ob = one_f_one_b(p, m);
        for (z, o) in zb.devices.iter().zip(&ob.devices) {
            let zf: Vec<usize> = z
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::Fwd { mb, .. } => Some(mb),
                    _ => None,
                })
                .collect();
            let of: Vec<usize> = o
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::Fwd { mb, .. } => Some(mb),
                    _ => None,
                })
                .collect();
            assert_eq!(zf, of);
            let z_in: Vec<usize> = z
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::BwdInput { mb, .. } => Some(mb),
                    _ => None,
                })
                .collect();
            let o_b: Vec<usize> = o
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::Bwd { mb, .. } => Some(mb),
                    _ => None,
                })
                .collect();
            assert_eq!(z_in, o_b);
            // One grad-weight per micro-batch, in the same micro-batch order
            // as the fused backwards (bit-identical accumulation order).
            let z_w: Vec<usize> = z
                .iter()
                .filter_map(|op| match op.kind {
                    OpKind::BwdWeight { mb, .. } => Some(mb),
                    _ => None,
                })
                .collect();
            assert_eq!(z_w, o_b);
        }
    }

    #[test]
    fn zero_bubble_defers_cooldown_grad_weights() {
        let s = zero_bubble(4, 8);
        // Device 0 has warmup 3, so micro-batches 5..8 cool down: their
        // grad-weights must come after the last grad-input.
        let dev = &s.devices[0];
        let last_input = dev
            .iter()
            .rposition(|o| matches!(o.kind, OpKind::BwdInput { .. }))
            .unwrap();
        let tail: Vec<usize> = dev[last_input + 1..]
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::BwdWeight { mb, .. } => Some(mb),
                _ => None,
            })
            .collect();
        assert_eq!(tail, vec![5, 6, 7]);
    }

    #[test]
    fn zero_bubble_sends_grad_before_grad_weight() {
        // The point of the split: on interior stages, SendGrad must directly
        // follow BwdInput, with BwdWeight strictly after.
        let s = zero_bubble(4, 8);
        let dev = &s.devices[1];
        for (i, o) in dev.iter().enumerate() {
            if let OpKind::BwdInput { mb, .. } = o.kind {
                assert!(
                    matches!(dev[i + 1].kind, OpKind::SendGrad { mb: smb, .. } if smb == mb),
                    "op after BwdInput({mb}) is {:?}",
                    dev[i + 1].kind
                );
            }
        }
    }
}
