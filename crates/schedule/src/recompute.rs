//! Stage-level activation recomputation as a schedule transform.
//!
//! [`apply_recompute`] rewrites any lowered schedule so that every stage
//! whose mask bit is set replays its forward ([`OpKind::Recompute`])
//! immediately before each micro-batch's backward. The insertion point is
//! *before* the backward's `RecvGrad` when one exists, so the replay
//! overlaps the gradient's wire time instead of waiting behind it — the
//! device is idle there anyway, and the stashed stage input is all the
//! replay needs.
//!
//! Keeping recomputation a post-lowering transform (rather than a per-
//! generator concern) means every family — 1F1B, GPipe, zero-bubble,
//! interleaved, each sliced or not — inherits it from one code path, and the
//! comm-adjacency invariant the overlapped engine relies on is preserved by
//! construction: no `Recompute` is ever placed between a compute op and the
//! send it feeds.
//!
//! [`kept_forwards`] names the forwards whose caches a checkpointed stage
//! keeps anyway: those whose record the device's very next compute op
//! consumes, so dropping and rebuilding the caches would buy no memory.

use crate::op::{Op, OpKind};
use crate::Schedule;

/// Insert a [`OpKind::Recompute`] before each fused or grad-input backward
/// on every stage whose `mask` bit is set. `mask` is indexed by pipeline
/// stage (`chunk · p + device`) and must have exactly
/// [`Schedule::n_stages`] entries. Grad-weight ops are untouched: they
/// consume the caches the grad-input's recompute rebuilt.
///
/// The transform is idempotent on schedules without recompute ops; applying
/// it twice would double-insert, so callers apply it to freshly generated
/// schedules only.
pub fn apply_recompute(sched: &mut Schedule, mask: &[bool]) {
    assert_eq!(
        mask.len(),
        sched.n_stages(),
        "recompute mask has {} entries for {} stages",
        mask.len(),
        sched.n_stages()
    );
    if !mask.iter().any(|&m| m) {
        return;
    }
    let p = sched.n_devices;
    for (d, ops) in sched.devices.iter_mut().enumerate() {
        let mut out: Vec<Op> = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let op = ops[i];
            // A backward's recompute goes before its RecvGrad (when the
            // stage has one) so the replay overlaps the gradient transfer.
            let backward = match op.kind {
                OpKind::RecvGrad { mb, chunk, .. }
                    if matches!(
                        ops.get(i + 1).map(|o| o.kind),
                        Some(OpKind::Bwd { mb: bmb, chunk: bc })
                        | Some(OpKind::BwdInput { mb: bmb, chunk: bc })
                            if bmb == mb && bc == chunk
                    ) =>
                {
                    Some((mb, chunk))
                }
                OpKind::Bwd { mb, chunk } | OpKind::BwdInput { mb, chunk } => {
                    // No preceding RecvGrad for this backward (last stage).
                    let after_recv = i > 0
                        && matches!(
                            ops[i - 1].kind,
                            OpKind::RecvGrad { mb: rmb, chunk: rc, .. }
                                if rmb == mb && rc == chunk
                        );
                    if after_recv {
                        None // already handled at the RecvGrad
                    } else {
                        Some((mb, chunk))
                    }
                }
                _ => None,
            };
            if let Some((mb, chunk)) = backward {
                if mask[chunk * p + d] {
                    out.push(Op::new(OpKind::Recompute { mb, chunk }));
                }
            }
            out.push(op);
            i += 1;
        }
        *ops = out;
    }
}

/// Recover the per-stage recompute mask from a schedule's ops: stage `s` is
/// masked iff any device program contains a `Recompute` op for it. The
/// memory model and the runtime both key off this, so the mask never needs
/// to travel beside the schedule.
pub fn recompute_mask(sched: &Schedule) -> Vec<bool> {
    let mut mask = vec![false; sched.n_stages()];
    for (d, ops) in sched.devices.iter().enumerate() {
        for op in ops {
            if let OpKind::Recompute { chunk, .. } = op.kind {
                mask[sched.stage_of(d, chunk)] = true;
            }
        }
    }
    mask
}

/// Per device program, per op: `true` at each `Fwd { mb, chunk, .. }`
/// whose next compute op on the device is the `Recompute`, `Bwd` or
/// `BwdInput` of the same `(mb, chunk)` — the op that consumes the record
/// the forward opens. A checkpointed stage keeps those forwards' activation
/// caches instead of dropping them: the consumer would rebuild the same
/// cache set before any other compute op runs, so keeping it changes no
/// result and no peak, and saves one stage forward.
///
/// A sliced micro-batch's `Half1` is never kept (its `Half2` forward comes
/// next); a `Half2` is kept when its backward follows, which consumes it
/// first.
pub fn kept_forwards(sched: &Schedule) -> Vec<Vec<bool>> {
    sched
        .devices
        .iter()
        .map(|ops| {
            let mut keep = vec![false; ops.len()];
            // The (mb, chunk) the next compute op consumes, if it consumes
            // a forward's record.
            let mut next: Option<(usize, usize)> = None;
            for (i, op) in ops.iter().enumerate().rev() {
                match op.kind {
                    OpKind::Fwd { mb, chunk, .. } => {
                        keep[i] = next == Some((mb, chunk));
                        next = None;
                    }
                    OpKind::Recompute { mb, chunk }
                    | OpKind::Bwd { mb, chunk }
                    | OpKind::BwdInput { mb, chunk } => next = Some((mb, chunk)),
                    OpKind::BwdWeight { .. } => next = None,
                    _ => {}
                }
            }
            keep
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble};
    use crate::op::Part;
    use crate::validate::validate;

    fn families() -> Vec<Schedule> {
        vec![
            one_f_one_b(4, 8),
            sliced_1f1b(4, 8, 2),
            gpipe(4, 8),
            zero_bubble(4, 8),
            interleaved(4, 2, 8).unwrap(),
        ]
    }

    #[test]
    fn masked_schedules_validate_for_every_family() {
        for base in families() {
            let n = base.n_stages();
            for mask_fn in [
                |_: usize, _: usize| true,                // all stages
                |s: usize, _: usize| s.is_multiple_of(2), // alternating
                |s: usize, n: usize| s + 1 < n,           // all but last
            ] {
                let mask: Vec<bool> = (0..n).map(|s| mask_fn(s, n)).collect();
                let mut sched = base.clone();
                apply_recompute(&mut sched, &mask);
                validate(&sched)
                    .unwrap_or_else(|e| panic!("{:?} with mask {mask:?}: {e}", sched.kind));
                assert_eq!(recompute_mask(&sched), mask, "{:?}", sched.kind);
            }
        }
    }

    #[test]
    fn one_recompute_per_backward_on_masked_stages() {
        for base in families() {
            let n = base.n_stages();
            let mask = vec![true; n];
            let mut sched = base.clone();
            apply_recompute(&mut sched, &mask);
            for (d, ops) in sched.devices.iter().enumerate() {
                let backwards = ops
                    .iter()
                    .filter(|o| matches!(o.kind, OpKind::Bwd { .. } | OpKind::BwdInput { .. }))
                    .count();
                let recomputes = ops
                    .iter()
                    .filter(|o| matches!(o.kind, OpKind::Recompute { .. }))
                    .count();
                assert_eq!(recomputes, backwards, "{:?} device {d}", sched.kind);
            }
        }
    }

    #[test]
    fn recompute_precedes_its_backward_and_overlaps_the_recv() {
        let mut sched = one_f_one_b(4, 8);
        apply_recompute(&mut sched, &[true; 4]);
        for (d, ops) in sched.devices.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                let OpKind::Recompute { mb, chunk } = op.kind else {
                    continue;
                };
                // The matching backward follows within two ops (directly, or
                // with the RecvGrad in between).
                let next_two = &ops[i + 1..(i + 3).min(ops.len())];
                assert!(
                    next_two.iter().any(|o| matches!(
                        o.kind,
                        OpKind::Bwd { mb: bmb, chunk: bc } if bmb == mb && bc == chunk
                    )),
                    "device {d}: Recompute({mb}) not followed by its backward"
                );
                // Interior stages overlap the recv: RecvGrad directly after.
                if d + 1 < sched.n_devices {
                    assert!(
                        matches!(ops[i + 1].kind, OpKind::RecvGrad { mb: rmb, .. } if rmb == mb),
                        "device {d}: Recompute({mb}) should precede the RecvGrad"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_mask_is_identity() {
        let base = zero_bubble(4, 8);
        let mut sched = base.clone();
        apply_recompute(&mut sched, &[false; 4]);
        assert_eq!(sched, base);
        assert_eq!(recompute_mask(&base), vec![false; 4]);
    }

    /// Every forward the keep table marks, as `(device, mb, part, chunk)`,
    /// after applying `mask` to a copy of `base`.
    fn kept(base: &Schedule, mask: &[bool]) -> Vec<(usize, usize, Part, usize)> {
        let mut sched = base.clone();
        apply_recompute(&mut sched, mask);
        let table = kept_forwards(&sched);
        let mut out = Vec::new();
        for (d, ops) in sched.devices.iter().enumerate() {
            assert_eq!(table[d].len(), ops.len());
            for (i, op) in ops.iter().enumerate() {
                let OpKind::Fwd { mb, part, chunk } = op.kind else {
                    assert!(!table[d][i], "device {d} op {i}: only forwards are kept");
                    continue;
                };
                if table[d][i] {
                    // The next compute op consumes this very record.
                    let next = ops[i + 1..].iter().find(|o| o.is_compute()).unwrap();
                    assert!(
                        matches!(
                            next.kind,
                            OpKind::Recompute { mb: n, chunk: c }
                            | OpKind::Bwd { mb: n, chunk: c }
                            | OpKind::BwdInput { mb: n, chunk: c }
                                if (n, c) == (mb, chunk)
                        ),
                        "{:?} device {d}: kept Fwd({mb}, {part:?}, {chunk}) before {next:?}",
                        sched.kind
                    );
                    out.push((d, mb, part, chunk));
                }
            }
        }
        out
    }

    /// The three masks of the memory grid: none, every stage, every other.
    fn masks(n: usize) -> [Vec<bool>; 3] {
        [
            vec![false; n],
            vec![true; n],
            (0..n).map(|s| s.is_multiple_of(2)).collect(),
        ]
    }

    /// Every forward of `device`, in program order.
    fn forwards_of(sched: &Schedule, device: usize) -> Vec<(usize, usize, Part, usize)> {
        sched.devices[device]
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Fwd { mb, part, chunk } => Some((device, mb, part, chunk)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn keep_table_per_family_and_mask() {
        for p in [2, 4] {
            for m in [2, 4, 8] {
                let last = p - 1;
                for base in [one_f_one_b(p, m), zero_bubble(p, m)] {
                    // One micro-batch in flight on the last stage: every
                    // forward there is backwarded next; none elsewhere is.
                    for mask in masks(p) {
                        assert_eq!(
                            kept(&base, &mask),
                            forwards_of(&base, last),
                            "{:?}",
                            base.kind
                        );
                    }
                }
                let base = gpipe(p, m);
                let want: Vec<_> = (0..p).map(|d| (d, m - 1, Part::Full, 0)).collect();
                for mask in masks(p) {
                    assert_eq!(kept(&base, &mask), want, "GPipe p={p} m={m}");
                }
                for k in 1..=m.min(p) {
                    let base = sliced_1f1b(p, m, k);
                    // Half2 and Full forwards on the last stage; never a Half1.
                    let want: Vec<_> = forwards_of(&base, last)
                        .into_iter()
                        .filter(|f| f.2 != Part::Half1)
                        .collect();
                    assert!(want.iter().any(|f| f.2 == Part::Half2), "k={k}");
                    for mask in masks(p) {
                        assert_eq!(kept(&base, &mask), want, "sliced p={p} m={m} k={k}");
                    }
                }
                if m % p == 0 {
                    let base = interleaved(p, 2, m).unwrap();
                    // Only the last pipeline stage (chunk 1 of the last
                    // device) runs a chunk-forward right before its backward.
                    let want: Vec<_> = forwards_of(&base, last)
                        .into_iter()
                        .filter(|f| f.3 == 1)
                        .collect();
                    assert_eq!(want.len(), m);
                    for mask in masks(2 * p) {
                        assert_eq!(kept(&base, &mask), want, "interleaved p={p} m={m}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_lone_microbatch_is_kept_on_every_stage() {
        // m = 1: each stage's one forward is followed by its backward.
        for base in [one_f_one_b(4, 1), gpipe(4, 1), zero_bubble(4, 1)] {
            let want: Vec<_> = (0..4).map(|d| (d, 0, Part::Full, 0)).collect();
            for mask in masks(4) {
                assert_eq!(kept(&base, &mask), want, "{:?}", base.kind);
            }
        }
    }

    #[test]
    fn grad_weights_get_no_recompute() {
        let mut sched = zero_bubble(4, 8);
        apply_recompute(&mut sched, &[true; 4]);
        for ops in &sched.devices {
            for (i, op) in ops.iter().enumerate() {
                if matches!(op.kind, OpKind::BwdWeight { .. }) && i > 0 {
                    assert!(
                        !matches!(ops[i - 1].kind, OpKind::Recompute { .. }),
                        "grad-weight must not trigger a recompute"
                    );
                }
            }
        }
    }
}
