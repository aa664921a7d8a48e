//! Schedule validation: structural checks plus an executability check.
//!
//! The executability check is a timeless replay: devices advance through
//! their programs in order; a receive may complete only after its matching
//! send has executed. If no device can advance and the schedule is not
//! finished, the schedule would deadlock on a real cluster (with adequately
//! buffered, non-blocking sends) and validation fails.

use crate::op::{OpKind, Part};
use crate::Schedule;

/// Why a schedule failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// Replay stalled: no device could advance. Contains per-device program
    /// counters at the stall point.
    Deadlock { counters: Vec<usize> },
    /// A send had no matching receive (message would be leaked), or names
    /// a destination that cannot exist: a device, stage or micro-batch
    /// outside the schedule. `device` is the addressee.
    UnmatchedSend { device: usize, description: String },
    /// A (stage, micro-batch) pair's forward fractions do not sum to 1, or
    /// a forward names a pair outside the schedule (`frac` is then that
    /// op's own fraction).
    BadForwardCoverage { stage: usize, mb: usize, frac: f64 },
    /// A (stage, micro-batch) pair does not have exactly one backward, or a
    /// backward names a pair outside the schedule.
    BadBackwardCoverage {
        stage: usize,
        mb: usize,
        count: usize,
    },
    /// A (stage, micro-batch) pair mixes fused and split backwards, or its
    /// split backward is not exactly one grad-input plus one grad-weight.
    UnpairedSplitBackward {
        stage: usize,
        mb: usize,
        fused: usize,
        inputs: usize,
        weights: usize,
    },
    /// A grad-weight op runs before the grad-input that stashes its
    /// gradients.
    WeightBeforeInput { stage: usize, mb: usize },
    /// A compute op carries `Part::Both`. The aggregated part describes one
    /// *message* holding two halves; compute always runs per half.
    BothOnCompute { stage: usize, mb: usize },
    /// A send op is not directly preceded by a compute op on its device.
    /// The overlapped comm engine pipelines a send's chunks against the
    /// producing compute span — lowering must keep every send adjacent to
    /// the op that produced its payload.
    SendWithoutProducingSpan { device: usize, pos: usize },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Deadlock { counters } => {
                write!(f, "schedule deadlocks; program counters {counters:?}")
            }
            ValidationError::UnmatchedSend {
                device,
                description,
            } => write!(f, "unmatched send on device {device}: {description}"),
            ValidationError::BadForwardCoverage { stage, mb, frac } => write!(
                f,
                "stage {stage} micro-batch {mb}: forward fractions sum to {frac}, want 1.0"
            ),
            ValidationError::BadBackwardCoverage { stage, mb, count } => write!(
                f,
                "stage {stage} micro-batch {mb}: {count} backwards, want exactly 1"
            ),
            ValidationError::UnpairedSplitBackward {
                stage,
                mb,
                fused,
                inputs,
                weights,
            } => write!(
                f,
                "stage {stage} micro-batch {mb}: backward must be 1 fused op or a \
                 grad-input/grad-weight pair, got {fused} fused + {inputs} inputs + \
                 {weights} weights"
            ),
            ValidationError::WeightBeforeInput { stage, mb } => write!(
                f,
                "stage {stage} micro-batch {mb}: grad-weight scheduled before its grad-input"
            ),
            ValidationError::BothOnCompute { stage, mb } => write!(
                f,
                "stage {stage} micro-batch {mb}: Part::Both on a compute op \
                 (aggregation applies to messages, not compute)"
            ),
            ValidationError::SendWithoutProducingSpan { device, pos } => write!(
                f,
                "device {device} op {pos}: send not directly preceded by a compute op \
                 (the overlapped comm lane needs the producing span adjacent)"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate a schedule: forward/backward coverage per (stage, micro-batch),
/// then deadlock-freedom of the replay, then absence of orphan sends.
pub fn validate(s: &Schedule) -> Result<(), ValidationError> {
    check_coverage(s)?;
    check_send_adjacency(s)?;
    replay(s)
}

/// Every send must sit directly after a compute op in its device program —
/// the invariant the overlapped comm engine relies on to know which span a
/// send's chunks pipeline against (`schedule::program` lowers sends this
/// way; hand-built schedules must too).
fn check_send_adjacency(s: &Schedule) -> Result<(), ValidationError> {
    for (d, dev) in s.devices.iter().enumerate() {
        for (pos, o) in dev.iter().enumerate() {
            if matches!(o.kind, OpKind::SendAct { .. } | OpKind::SendGrad { .. })
                && (pos == 0 || !dev[pos - 1].is_compute())
            {
                return Err(ValidationError::SendWithoutProducingSpan { device: d, pos });
            }
        }
    }
    Ok(())
}

fn check_coverage(s: &Schedule) -> Result<(), ValidationError> {
    let n_stages = s.n_stages();
    let m = s.n_microbatches;
    // Per (stage, micro-batch), at `stage * m + mb`: the forward fraction
    // seen so far and the [fused, grad-input, grad-weight] backward counts.
    let mut fwd = vec![0.0_f64; n_stages * m];
    let mut bwd = vec![[0u32; 3]; n_stages * m];
    const FUSED: usize = 0;
    const INPUT: usize = 1;
    const WEIGHT: usize = 2;
    let in_grid = |stage: usize, mb: usize| stage < n_stages && mb < m;
    for (d, dev) in s.devices.iter().enumerate() {
        for o in dev {
            match o.kind {
                OpKind::Fwd { mb, chunk, part } => {
                    let stage = s.stage_of(d, chunk);
                    if part == Part::Both {
                        return Err(ValidationError::BothOnCompute { stage, mb });
                    }
                    let frac = part.frac();
                    if !in_grid(stage, mb) {
                        return Err(ValidationError::BadForwardCoverage { stage, mb, frac });
                    }
                    fwd[stage * m + mb] += frac;
                }
                OpKind::Bwd { mb, chunk }
                | OpKind::BwdInput { mb, chunk }
                | OpKind::BwdWeight { mb, chunk } => {
                    let stage = s.stage_of(d, chunk);
                    if !in_grid(stage, mb) {
                        return Err(ValidationError::BadBackwardCoverage {
                            stage,
                            mb,
                            count: 1,
                        });
                    }
                    let counts = &mut bwd[stage * m + mb];
                    match o.kind {
                        OpKind::Bwd { .. } => counts[FUSED] += 1,
                        OpKind::BwdInput { .. } => counts[INPUT] += 1,
                        _ => {
                            // A grad-weight consumes gradients stashed by
                            // its grad-input; program order on the owning
                            // device must put the input first.
                            if counts[INPUT] == 0 {
                                return Err(ValidationError::WeightBeforeInput { stage, mb });
                            }
                            counts[WEIGHT] += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    for stage in 0..n_stages {
        for mb in 0..m {
            let frac = fwd[stage * m + mb];
            if (frac - 1.0).abs() > 1e-9 {
                return Err(ValidationError::BadForwardCoverage { stage, mb, frac });
            }
            let [f, i, w] = bwd[stage * m + mb].map(|c| c as usize);
            if i == 0 && w == 0 {
                if f != 1 {
                    return Err(ValidationError::BadBackwardCoverage {
                        stage,
                        mb,
                        count: f,
                    });
                }
            } else if f != 0 || i != 1 || w != 1 {
                return Err(ValidationError::UnpairedSplitBackward {
                    stage,
                    mb,
                    fused: f,
                    inputs: i,
                    weights: w,
                });
            }
        }
    }
    Ok(())
}

/// In-flight message counts of the replay: one small dense table instead of
/// a hash map per device.
///
/// A message is identified by the stage that consumes it (for activations
/// the receiver's stage, for gradients the stage below the sender — which
/// disambiguates multiple chunks flowing between the same device pair in
/// the interleaved schedule), its micro-batch, and for activations its
/// [`Part`]. Device `to` can only ever consume messages for its own
/// `n_chunks` stages, so the table holds `n_chunks · m` cells of
/// [`Mailbox::KINDS`] counters per device — sized by what a device can
/// receive, not by all stages.
struct Mailbox<'a> {
    s: &'a Schedule,
    counts: Vec<u32>,
    /// The first send nothing in the schedule could ever receive, with its
    /// addressee.
    undeliverable: Option<(usize, OpKind)>,
}

impl Mailbox<'_> {
    /// Counters per (device, chunk, micro-batch): the four activation parts,
    /// then the gradient.
    const KINDS: usize = 5;
    const GRAD: usize = 4;
    const KIND_NAMES: [&'static str; 5] = [
        "activation",
        "first-half activation",
        "second-half activation",
        "aggregated activation",
        "gradient",
    ];

    fn new(s: &Schedule) -> Mailbox<'_> {
        Mailbox {
            s,
            counts: vec![0; s.n_devices * s.n_chunks * s.n_microbatches * Self::KINDS],
            undeliverable: None,
        }
    }

    /// The counter of the message `kind` of micro-batch `mb` consumed by
    /// `dst_stage` on device `to`; `None` when the schedule has no such
    /// device, stage or micro-batch, or `dst_stage` does not live on `to`.
    fn cell(&mut self, to: usize, dst_stage: usize, mb: usize, kind: usize) -> Option<&mut u32> {
        let s = self.s;
        if to >= s.n_devices || dst_stage % s.n_devices != to || mb >= s.n_microbatches {
            return None;
        }
        let chunk = dst_stage / s.n_devices;
        if chunk >= s.n_chunks {
            return None;
        }
        let at = ((to * s.n_chunks + chunk) * s.n_microbatches + mb) * Self::KINDS + kind;
        Some(&mut self.counts[at])
    }

    /// Deposit the message `op` (a send) puts on the wire for `dst_stage`
    /// (`None`: there is no such stage), or remember it as undeliverable.
    fn send(&mut self, op: OpKind, to: usize, dst_stage: Option<usize>, mb: usize, kind: usize) {
        match dst_stage.and_then(|stage| self.cell(to, stage, mb, kind)) {
            Some(n) => *n += 1,
            None => {
                self.undeliverable.get_or_insert((to, op));
            }
        }
    }

    /// Take one message out of its counter, if one is waiting.
    fn consume(&mut self, device: usize, chunk: usize, mb: usize, kind: usize) -> bool {
        let stage = self.s.stage_of(device, chunk);
        match self.cell(device, stage, mb, kind) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }
}

fn act_kind(part: Part) -> usize {
    match part {
        Part::Full => 0,
        Part::Half1 => 1,
        Part::Half2 => 2,
        Part::Both => 3,
    }
}

fn replay(s: &Schedule) -> Result<(), ValidationError> {
    let p = s.n_devices;
    let mut pc = vec![0usize; p];
    // Messages sent but not yet consumed.
    let mut mailbox = Mailbox::new(s);

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for d in 0..p {
            // Let a device run as far as it can in one sweep.
            while pc[d] < s.devices[d].len() {
                let o = &s.devices[d][pc[d]];
                match o.kind {
                    OpKind::Fwd { .. }
                    | OpKind::Bwd { .. }
                    | OpKind::BwdInput { .. }
                    | OpKind::BwdWeight { .. }
                    | OpKind::Recompute { .. } => {}
                    OpKind::SendAct {
                        mb,
                        chunk,
                        part,
                        to,
                        ..
                    } => {
                        let dst_stage = s.stage_of(d, chunk) + 1;
                        mailbox.send(o.kind, to, Some(dst_stage), mb, act_kind(part));
                    }
                    OpKind::SendGrad { mb, chunk, to } => {
                        // Stage 0 has no stage below it to send to.
                        let dst_stage = s.stage_of(d, chunk).checked_sub(1);
                        mailbox.send(o.kind, to, dst_stage, mb, Mailbox::GRAD);
                    }
                    OpKind::RecvAct {
                        mb, chunk, part, ..
                    } => {
                        if !mailbox.consume(d, chunk, mb, act_kind(part)) {
                            break;
                        }
                    }
                    OpKind::RecvGrad { mb, chunk, .. } => {
                        if !mailbox.consume(d, chunk, mb, Mailbox::GRAD) {
                            break;
                        }
                    }
                }
                pc[d] += 1;
                progressed = true;
            }
            if pc[d] < s.devices[d].len() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        if !progressed {
            return Err(ValidationError::Deadlock { counters: pc });
        }
    }

    if let Some((device, op)) = mailbox.undeliverable {
        return Err(ValidationError::UnmatchedSend {
            device,
            description: format!("{op:?} names a destination the schedule does not have"),
        });
    }
    if let Some(at) = mailbox.counts.iter().position(|&n| n > 0) {
        let (cell, kind) = (at / Mailbox::KINDS, at % Mailbox::KINDS);
        let mb = cell % s.n_microbatches;
        let chunk = cell / s.n_microbatches % s.n_chunks;
        let device = cell / s.n_microbatches / s.n_chunks;
        return Err(ValidationError::UnmatchedSend {
            device,
            description: format!(
                "{} undelivered {} message(s) of micro-batch {mb} for stage {} \
                 addressed to device {device}",
                mailbox.counts[at],
                Mailbox::KIND_NAMES[kind],
                s.stage_of(device, chunk)
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble};
    use crate::op::Op;

    #[test]
    fn all_generators_validate() {
        for p in [1, 2, 3, 4, 8] {
            for m in [1, 2, 4, 8, 16] {
                validate(&one_f_one_b(p, m)).unwrap_or_else(|e| panic!("1f1b p={p} m={m}: {e}"));
                validate(&gpipe(p, m)).unwrap_or_else(|e| panic!("gpipe p={p} m={m}: {e}"));
                validate(&zero_bubble(p, m))
                    .unwrap_or_else(|e| panic!("zero-bubble p={p} m={m}: {e}"));
                for sliced in 0..p.min(m) {
                    validate(&sliced_1f1b(p, m, sliced))
                        .unwrap_or_else(|e| panic!("sliced p={p} m={m} s={sliced}: {e}"));
                }
            }
        }
        for p in [2, 4] {
            for v in [2, 3] {
                for m in [p, 2 * p, 4 * p] {
                    validate(&interleaved(p, v, m).unwrap())
                        .unwrap_or_else(|e| panic!("interleaved p={p} v={v} m={m}: {e}"));
                }
            }
        }
    }

    #[test]
    fn generators_validate_at_the_benchmark_ceiling() {
        // The deepest, widest point of the planning benchmark's grid.
        let (p, m) = (16, 64);
        validate(&one_f_one_b(p, m)).unwrap();
        validate(&gpipe(p, m)).unwrap();
        validate(&zero_bubble(p, m)).unwrap();
        validate(&sliced_1f1b(p, m, 3)).unwrap();
        validate(&interleaved(p, 2, m).unwrap()).unwrap();
    }

    #[test]
    fn grad_send_from_stage_zero_is_an_unmatched_send() {
        // There is no stage below stage 0; the send must be reported, not
        // wrap around into some other stage's mailbox.
        let mut s = one_f_one_b(2, 1);
        assert!(s.devices[0].last().unwrap().is_compute());
        s.devices[0].push(Op::new(OpKind::SendGrad {
            mb: 0,
            chunk: 0,
            to: 1,
        }));
        assert!(matches!(
            validate(&s),
            Err(ValidationError::UnmatchedSend { device: 1, .. })
        ));
    }

    #[test]
    fn send_to_a_missing_device_is_an_unmatched_send() {
        let mut s = one_f_one_b(2, 1);
        assert!(s.devices[0].last().unwrap().is_compute());
        s.devices[0].push(Op::new(OpKind::SendAct {
            mb: 0,
            chunk: 0,
            part: Part::Full,
            to: 7,
        }));
        assert!(matches!(
            validate(&s),
            Err(ValidationError::UnmatchedSend { device: 7, .. })
        ));
        // The same for a micro-batch nobody runs.
        let mut s = one_f_one_b(2, 1);
        s.devices[0].push(Op::new(OpKind::SendAct {
            mb: 9,
            chunk: 0,
            part: Part::Full,
            to: 1,
        }));
        assert!(matches!(
            validate(&s),
            Err(ValidationError::UnmatchedSend { device: 1, .. })
        ));
    }

    #[test]
    fn compute_on_a_missing_microbatch_is_a_coverage_error() {
        let mut s = one_f_one_b(2, 2);
        s.devices[0].push(Op::new(OpKind::Fwd {
            mb: 2,
            chunk: 0,
            part: Part::Full,
        }));
        assert_eq!(
            validate(&s),
            Err(ValidationError::BadForwardCoverage {
                stage: 0,
                mb: 2,
                frac: 1.0
            })
        );
        let mut s = one_f_one_b(2, 2);
        s.devices[1].push(Op::new(OpKind::Bwd { mb: 5, chunk: 0 }));
        assert_eq!(
            validate(&s),
            Err(ValidationError::BadBackwardCoverage {
                stage: 1,
                mb: 5,
                count: 1
            })
        );
        // A chunk the device does not hold is a stage outside the grid.
        let mut s = zero_bubble(2, 2);
        s.devices[0].push(Op::new(OpKind::BwdInput { mb: 0, chunk: 1 }));
        assert_eq!(
            validate(&s),
            Err(ValidationError::BadBackwardCoverage {
                stage: 2,
                mb: 0,
                count: 1
            })
        );
    }

    #[test]
    fn detects_send_without_producing_span() {
        // Swap a (compute, send) pair on device 0 of a valid 1F1B schedule:
        // the send now directly follows a recv (or starts the program),
        // breaking the overlap engine's producing-span adjacency.
        let mut s = one_f_one_b(2, 2);
        let pos = s.devices[0]
            .iter()
            .position(|o| matches!(o.kind, OpKind::SendAct { .. }))
            .expect("1f1b device 0 sends activations");
        assert!(pos > 0 && s.devices[0][pos - 1].is_compute());
        s.devices[0].swap(pos - 1, pos);
        assert!(matches!(
            validate(&s),
            Err(ValidationError::SendWithoutProducingSpan { device: 0, .. })
        ));
    }

    #[test]
    fn detects_deadlock() {
        // Two devices each waiting for the other to send first.
        let mut s = one_f_one_b(2, 1);
        // Rewrite device 0's program to recv before device 1 could ever send.
        s.devices[0] = vec![
            Op::new(OpKind::RecvGrad {
                mb: 0,
                chunk: 0,
                from: 1,
            }),
            Op::new(OpKind::Fwd {
                mb: 0,
                chunk: 0,
                part: Part::Full,
            }),
            Op::new(OpKind::SendAct {
                mb: 0,
                chunk: 0,
                part: Part::Full,
                to: 1,
            }),
            Op::new(OpKind::Bwd { mb: 0, chunk: 0 }),
        ];
        assert!(matches!(
            validate(&s),
            Err(ValidationError::Deadlock { .. })
        ));
    }

    #[test]
    fn detects_bad_forward_coverage() {
        let mut s = one_f_one_b(2, 2);
        // Drop a forward on device 1.
        let idx = s.devices[1]
            .iter()
            .position(|o| matches!(o.kind, OpKind::Fwd { .. }))
            .unwrap();
        s.devices[1].remove(idx);
        assert!(matches!(
            validate(&s),
            Err(ValidationError::BadForwardCoverage { .. })
        ));
    }

    #[test]
    fn single_device_pipelines_have_no_comm_ops() {
        // p = 1 degenerates to plain gradient accumulation: every schedule
        // kind must still validate and must not emit a single send/recv.
        let scheds = [
            one_f_one_b(1, 1),
            one_f_one_b(1, 8),
            sliced_1f1b(1, 4, 1),
            sliced_1f1b(1, 4, 2),
        ];
        for s in &scheds {
            validate(s).unwrap();
            assert_eq!(s.n_devices, 1);
            assert!(
                s.devices[0].iter().all(|o| o.is_compute()),
                "single-device schedule contains comm ops"
            );
        }
    }

    #[test]
    fn sliced_zero_is_plain_1f1b() {
        // sliced = 0 must both validate and be the identical program, not
        // merely an equivalent one.
        for (p, m) in [(2, 4), (4, 8)] {
            let sliced = sliced_1f1b(p, m, 0);
            validate(&sliced).unwrap();
            assert_eq!(sliced.devices, one_f_one_b(p, m).devices, "p={p} m={m}");
        }
    }

    #[test]
    fn last_sliced_microbatch_sends_one_aggregated_message() {
        // §III-C: of the `sliced` Warmup micro-batches, only the LAST one
        // aggregates its two halves into a single `Part::Both` transfer;
        // the earlier ones ship Half1/Half2 separately.
        let (p, m, n_sliced) = (4, 8, 3);
        let s = sliced_1f1b(p, m, n_sliced);
        validate(&s).unwrap();
        let last = n_sliced - 1;
        for d in 0..p - 1 {
            // Exactly one aggregated send of the last sliced micro-batch...
            let both: Vec<_> = s.devices[d]
                .iter()
                .filter(|o| {
                    matches!(o.kind, OpKind::SendAct { mb, part: Part::Both, .. } if mb == last)
                })
                .collect();
            assert_eq!(both.len(), 1, "device {d}: aggregated sends");
            // ...and no half-sends of it.
            assert!(
                !s.devices[d].iter().any(|o| matches!(
                    o.kind,
                    OpKind::SendAct { mb, part: Part::Half1 | Part::Half2, .. } if mb == last
                )),
                "device {d}: last sliced micro-batch must not ship halves"
            );
            // Earlier sliced micro-batches ship both halves separately.
            for mb in 0..last {
                for part in [Part::Half1, Part::Half2] {
                    assert_eq!(
                        s.devices[d]
                            .iter()
                            .filter(|o| matches!(o.kind,
                                OpKind::SendAct { mb: smb, part: sp, .. } if smb == mb && sp == part))
                            .count(),
                        1,
                        "device {d} mb {mb} {part:?}"
                    );
                }
            }
            // The downstream device receives the aggregate as one message.
            assert_eq!(
                s.devices[d + 1]
                    .iter()
                    .filter(|o| matches!(o.kind,
                        OpKind::RecvAct { mb, part: Part::Both, .. } if mb == last))
                    .count(),
                1,
                "device {} aggregated recvs",
                d + 1
            );
        }
    }

    #[test]
    fn mismatched_aggregation_part_deadlocks() {
        // Downgrading an aggregated send to Half2 leaves the downstream
        // `Part::Both` receive unsatisfiable — the replay must stall.
        let s0 = sliced_1f1b(4, 8, 3);
        let mut s = s0.clone();
        let idx = s.devices[0]
            .iter()
            .position(|o| {
                matches!(
                    o.kind,
                    OpKind::SendAct {
                        part: Part::Both,
                        ..
                    }
                )
            })
            .unwrap();
        if let OpKind::SendAct { mb, chunk, to, .. } = s.devices[0][idx].kind {
            s.devices[0][idx] = Op::new(OpKind::SendAct {
                mb,
                chunk,
                part: Part::Half2,
                to,
            });
        }
        assert!(matches!(
            validate(&s),
            Err(ValidationError::Deadlock { .. })
        ));
    }

    #[test]
    fn rejects_part_both_on_compute_ops() {
        // Regression: the documented invariant that `Part::Both` only ever
        // appears on Send/Recv ops is now enforced, not just documented.
        let mut s = one_f_one_b(2, 2);
        let idx = s.devices[0]
            .iter()
            .position(|o| matches!(o.kind, OpKind::Fwd { .. }))
            .unwrap();
        if let OpKind::Fwd { mb, chunk, .. } = s.devices[0][idx].kind {
            s.devices[0][idx] = Op::new(OpKind::Fwd {
                mb,
                chunk,
                part: Part::Both,
            });
        }
        assert_eq!(
            validate(&s),
            Err(ValidationError::BothOnCompute { stage: 0, mb: 0 })
        );
    }

    #[test]
    fn detects_missing_grad_weight() {
        let mut s = zero_bubble(2, 2);
        let idx = s.devices[1]
            .iter()
            .position(|o| matches!(o.kind, OpKind::BwdWeight { .. }))
            .unwrap();
        s.devices[1].remove(idx);
        assert!(matches!(
            validate(&s),
            Err(ValidationError::UnpairedSplitBackward {
                fused: 0,
                inputs: 1,
                weights: 0,
                ..
            })
        ));
    }

    #[test]
    fn detects_mixed_fused_and_split_backward() {
        let mut s = zero_bubble(2, 2);
        // Duplicate a backward as a fused op on top of the split pair.
        s.devices[0].push(Op::new(OpKind::Bwd { mb: 0, chunk: 0 }));
        assert!(matches!(
            validate(&s),
            Err(ValidationError::UnpairedSplitBackward { fused: 1, .. })
        ));
    }

    #[test]
    fn detects_grad_weight_before_grad_input() {
        let mut s = zero_bubble(2, 2);
        // Hoist device 1's first grad-weight in front of its grad-input.
        let w = s.devices[1]
            .iter()
            .position(|o| matches!(o.kind, OpKind::BwdWeight { .. }))
            .unwrap();
        let op = s.devices[1].remove(w);
        s.devices[1].insert(0, op);
        assert!(matches!(
            validate(&s),
            Err(ValidationError::WeightBeforeInput { .. })
        ));
    }

    #[test]
    fn detects_unmatched_send() {
        let mut s = one_f_one_b(2, 1);
        // Device 0 sends an extra bogus activation nobody receives.
        s.devices[0].push(Op::new(OpKind::SendAct {
            mb: 0,
            chunk: 0,
            part: Part::Half1,
            to: 1,
        }));
        assert!(matches!(
            validate(&s),
            Err(ValidationError::UnmatchedSend { .. })
        ));
    }
}
