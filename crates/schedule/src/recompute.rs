//! Activation recomputation as a schedule transform.
//!
//! A stage whose forward drops its activation caches replays that forward
//! ([`OpKind::Recompute`]) before the micro-batch's backward; the op is the
//! only re-forward there is, and every simulator prices it at one stage
//! forward. Two settings lower to it: the memory-driven per-stage mask
//! ([`apply_recompute`], recorded in [`Schedule::recompute`] so the memory
//! model charges those stages an input-only stash) and global activation
//! checkpointing ([`apply_checkpointing`], every stage, per-block stash).
//! The op goes *before* the backward's `RecvGrad` when one exists, so the
//! replay overlaps the gradient's wire time instead of waiting behind it —
//! the device is idle there anyway, and the stashed stage input is all the
//! replay needs. It is omitted where the device's previous compute op is
//! the micro-batch's own forward: that forward keeps its caches
//! ([`kept_forwards`]), because dropping them would buy no memory.
//!
//! Keeping recomputation a post-lowering transform (rather than a per-
//! generator concern) means every family — 1F1B, GPipe, zero-bubble,
//! interleaved, each sliced or not — inherits it from one code path, and the
//! comm-adjacency invariant the overlapped engine relies on is preserved by
//! construction: no `Recompute` is ever placed between a compute op and the
//! send it feeds.

use crate::op::{Op, OpKind};
use crate::Schedule;

/// Recompute on every stage whose `mask` bit is set, and record the mask in
/// [`Schedule::recompute`]. `mask` is indexed by pipeline stage
/// (`chunk · p + device`) and must have exactly [`Schedule::n_stages`]
/// entries. Grad-weight ops get no replay: they consume the caches the
/// grad-input's replay rebuilt.
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
    for (r, &m) in sched.recompute.iter_mut().zip(mask) {
        *r |= m;
    }
    insert_recomputes(sched, |stage| mask[stage]);
}

/// Global activation checkpointing (§II-C): recompute on every stage. The
/// recorded mask is left as it is, so the memory model keeps charging the
/// per-block stash of checkpointing.
pub fn apply_checkpointing(sched: &mut Schedule) {
    insert_recomputes(sched, |_| true);
}

/// Insert a `Recompute` before each fused or grad-input backward on the
/// stages `on` selects, unless the device's previous compute op already
/// built that micro-batch's caches: its own forward, or a `Recompute` of
/// it. So the lowering is idempotent, and the two settings commute.
fn insert_recomputes(sched: &mut Schedule, on: impl Fn(usize) -> bool) {
    let p = sched.n_devices;
    for (d, ops) in sched.devices.iter_mut().enumerate() {
        let mut out: Vec<Op> = Vec::with_capacity(ops.len() + sched.n_microbatches);
        // The (mb, chunk) whose caches the last compute op built.
        let mut built: Option<(usize, usize)> = None;
        for (i, &op) in ops.iter().enumerate() {
            // A backward's replay goes before its RecvGrad, when the stage
            // has one.
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
                OpKind::Bwd { mb, chunk } | OpKind::BwdInput { mb, chunk }
                    if !(i > 0
                        && matches!(
                            ops[i - 1].kind,
                            OpKind::RecvGrad { mb: rmb, chunk: rc, .. }
                                if rmb == mb && rc == chunk
                        )) =>
                {
                    Some((mb, chunk))
                }
                _ => None,
            };
            if let Some((mb, chunk)) = backward {
                if on(chunk * p + d) && built != Some((mb, chunk)) {
                    out.push(Op::new(OpKind::Recompute { mb, chunk }));
                    built = Some((mb, chunk));
                }
            }
            match op.kind {
                OpKind::Fwd { mb, chunk, .. } | OpKind::Recompute { mb, chunk } => {
                    built = Some((mb, chunk));
                }
                OpKind::Bwd { .. } | OpKind::BwdInput { .. } | OpKind::BwdWeight { .. } => {
                    built = None;
                }
                _ => {}
            }
            out.push(op);
        }
        *ops = out;
    }
}

/// The per-stage recompute mask the schedule carries
/// ([`Schedule::recompute`]): what the memory model charges an input-only
/// stash for. Global checkpointing's ops do not set it.
pub fn recompute_mask(sched: &Schedule) -> Vec<bool> {
    sched.recompute.clone()
}

/// Per device program, per op: `true` at each `Fwd` that keeps its
/// activation caches until its backward, because no later `Recompute` on the
/// device replays its `(mb, chunk)`; a forward the program replays drops
/// them. This is the runtime's cache rule. Every forward of a stage without
/// recomputation is kept, and so is a forward whose next compute op is its
/// own backward, which the lowering never replays; a sliced micro-batch
/// keeps or drops both halves.
pub fn kept_forwards(sched: &Schedule) -> Vec<Vec<bool>> {
    let v = sched.n_chunks;
    sched
        .devices
        .iter()
        .map(|ops| {
            let mut keep = vec![false; ops.len()];
            let mut replayed = vec![false; sched.n_microbatches * v];
            for (i, op) in ops.iter().enumerate().rev() {
                match op.kind {
                    OpKind::Recompute { mb, chunk } => replayed[mb * v + chunk] = true,
                    OpKind::Fwd { mb, chunk, .. } => keep[i] = !replayed[mb * v + chunk],
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

    /// The compute op before program position `i` on `ops`, if any.
    fn prev_compute(ops: &[Op], i: usize) -> Option<OpKind> {
        ops[..i]
            .iter()
            .rev()
            .find(|o| o.is_compute())
            .map(|o| o.kind)
    }

    #[test]
    fn every_masked_backward_follows_its_recompute_or_its_own_forward() {
        for base in families() {
            let n = base.n_stages();
            let mut sched = base.clone();
            apply_recompute(&mut sched, &vec![true; n]);
            for (d, ops) in sched.devices.iter().enumerate() {
                for (i, op) in ops.iter().enumerate() {
                    let (OpKind::Bwd { mb, chunk } | OpKind::BwdInput { mb, chunk }) = op.kind
                    else {
                        continue;
                    };
                    let built = matches!(
                        prev_compute(ops, i),
                        Some(OpKind::Recompute { mb: r, chunk: c } | OpKind::Fwd { mb: r, chunk: c, .. })
                            if (r, c) == (mb, chunk)
                    );
                    assert!(
                        built,
                        "{:?} device {d}: backward {mb} without its caches",
                        sched.kind
                    );
                }
            }
        }
    }

    #[test]
    fn no_recompute_directly_follows_its_own_forward() {
        let mut bases = families();
        for k in [1, 2] {
            for base in [
                gpipe(4, 8),
                zero_bubble(4, 8),
                interleaved(4, 2, 8).unwrap(),
            ] {
                let mut sliced = base.clone();
                crate::slice(&mut sliced, k);
                bases.push(sliced);
            }
        }
        bases.extend([one_f_one_b(4, 1), gpipe(4, 1), zero_bubble(4, 1)]);
        for base in bases {
            for mask in masks(base.n_stages()) {
                let mut sched = base.clone();
                apply_recompute(&mut sched, &mask);
                apply_checkpointing(&mut sched);
                for (d, ops) in sched.devices.iter().enumerate() {
                    for (i, op) in ops.iter().enumerate() {
                        let OpKind::Recompute { mb, chunk } = op.kind else {
                            continue;
                        };
                        assert!(
                            !matches!(
                                prev_compute(ops, i),
                                Some(OpKind::Fwd { mb: f, chunk: c, .. }) if (f, c) == (mb, chunk)
                            ),
                            "{:?} k={} device {d}: Recompute({mb}, {chunk}) right after its forward",
                            sched.kind,
                            sched.n_sliced
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn checkpointing_and_the_mask_lower_to_the_same_ops() {
        for base in families() {
            let n = base.n_stages();
            let mut all = base.clone();
            apply_recompute(&mut all, &vec![true; n]);
            let mut ckpt = base.clone();
            apply_checkpointing(&mut ckpt);
            assert_eq!(ckpt.devices, all.devices, "{:?}", base.kind);
            // Only the mask is recorded for the memory model.
            assert_eq!(recompute_mask(&ckpt), vec![false; n]);
            for mask in masks(n) {
                let mut a = base.clone();
                apply_recompute(&mut a, &mask);
                apply_checkpointing(&mut a);
                let mut b = base.clone();
                apply_checkpointing(&mut b);
                apply_recompute(&mut b, &mask);
                assert_eq!(a, b, "{:?} mask {mask:?}: the settings commute", base.kind);
                assert_eq!(a.devices, ckpt.devices);
                assert_eq!(recompute_mask(&a), mask);
                // Lowering again changes nothing.
                apply_checkpointing(&mut b);
                apply_recompute(&mut b, &mask);
                assert_eq!(a, b);
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
    /// after applying `mask` and global checkpointing to a copy of `base`.
    fn kept(base: &Schedule, mask: &[bool]) -> Vec<(usize, usize, Part, usize)> {
        let mut sched = base.clone();
        apply_recompute(&mut sched, mask);
        apply_checkpointing(&mut sched);
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
                    // The next compute op past this micro-batch's forwards
                    // consumes this very record.
                    let next = ops[i + 1..]
                        .iter()
                        .find(|o| {
                            o.is_compute()
                                && !matches!(o.kind, OpKind::Fwd { mb: n, chunk: c, .. }
                                    if (n, c) == (mb, chunk))
                        })
                        .unwrap();
                    assert!(
                        matches!(
                            next.kind,
                            OpKind::Bwd { mb: n, chunk: c }
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
                    // Every forward on the last stage, both halves included.
                    let want = forwards_of(&base, last);
                    assert!(want.iter().any(|f| f.2 == Part::Half1), "k={k}");
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
