//! Micro-batch slicing (§III-C, Algorithm 2) as a schedule transform: the
//! forwards of the first `k` micro-batches run as two halves, each half
//! receiving, computing and shipping its own activation, except that the
//! last sliced micro-batch ships both halves in one `Part::Both` message
//! ("we cancel the communication of first half and aggregate it with the
//! communication of second half"). Like [`crate::apply_recompute`], it
//! rewrites a lowered schedule of any family, and the two commute.

use crate::op::{Op, OpKind, Part};
use crate::Schedule;

/// Slice the forwards of micro-batches `0..k` in half on every device and
/// chunk, aggregating the last sliced micro-batch's messages when `k ≥ 2`:
/// each `[RecvAct] Fwd [SendAct]` group the lowering keeps adjacent becomes
/// two half groups, or `RecvAct{Both} Fwd{Half1} Fwd{Half2} SendAct{Both}`.
/// `k` is clamped to the micro-batch count and recorded as
/// [`Schedule::n_sliced`]. A no-op when `k` is 0 or the schedule is already
/// sliced, so slicing twice changes nothing.
pub fn slice(sched: &mut Schedule, k: usize) {
    let k = k.min(sched.n_microbatches);
    if k == 0 || sched.n_sliced > 0 {
        return;
    }
    for ops in &mut sched.devices {
        let mut out: Vec<Op> = Vec::with_capacity(ops.len() + 3 * k * sched.n_chunks);
        let mut i = 0;
        while i < ops.len() {
            let op = ops[i];
            i += 1;
            let (mb, chunk) = match op.kind {
                OpKind::Fwd {
                    mb,
                    chunk,
                    part: Part::Full,
                } if mb < k => (mb, chunk),
                _ => {
                    out.push(op);
                    continue;
                }
            };
            // This forward's activation transfers: its receive was just
            // pushed, and its send comes next.
            let ours = |o: &Op| {
                matches!(o.kind, OpKind::RecvAct { mb: r, .. } | OpKind::SendAct { mb: r, .. }
                    if r == mb && o.chunk() == chunk)
            };
            let recv = out.pop_if(|o| ours(o));
            let send = ops.get(i).copied().filter(ours);
            i += usize::from(send.is_some());
            if k >= 2 && mb == k - 1 {
                out.extend(recv.map(|r| with_part(r, Part::Both)));
                out.push(with_part(op, Part::Half1));
                out.push(with_part(op, Part::Half2));
                out.extend(send.map(|s| with_part(s, Part::Both)));
            } else {
                for part in [Part::Half1, Part::Half2] {
                    let group = [recv, Some(op), send].into_iter().flatten();
                    out.extend(group.map(|o| with_part(o, part)));
                }
            }
        }
        *ops = out;
    }
    sched.n_sliced = k;
}

/// `op` (a forward or its activation transfer) carrying `part`.
fn with_part(mut op: Op, part: Part) -> Op {
    if let OpKind::Fwd { part: p, .. }
    | OpKind::RecvAct { part: p, .. }
    | OpKind::SendAct { part: p, .. } = &mut op.kind
    {
        *p = part;
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble};
    use crate::recompute::apply_recompute;
    use crate::validate::validate;

    /// The sliced 1F1B generator as it stood when slicing was a slot kind:
    /// each sliced micro-batch's forward slot lowered to two half groups,
    /// the last one (k ≥ 2) to one aggregated group. Kept as the oracle the
    /// transform must reproduce op for op.
    fn oracle_sliced_1f1b(p: usize, m: usize, sliced: usize) -> Vec<Vec<Op>> {
        let sliced = sliced.min(m);
        let push_fwd = |ops: &mut Vec<Op>, x: usize, mb: usize| {
            let aggregated = sliced >= 2 && mb == sliced - 1;
            let group = |ops: &mut Vec<Op>, msg: Part, parts: &[Part]| {
                if x > 0 {
                    ops.push(Op::new(OpKind::RecvAct {
                        mb,
                        chunk: 0,
                        part: msg,
                        from: x - 1,
                    }));
                }
                for &part in parts {
                    ops.push(Op::new(OpKind::Fwd { mb, chunk: 0, part }));
                }
                if x < p - 1 {
                    ops.push(Op::new(OpKind::SendAct {
                        mb,
                        chunk: 0,
                        part: msg,
                        to: x + 1,
                    }));
                }
            };
            if aggregated {
                group(ops, Part::Both, &[Part::Half1, Part::Half2]);
            } else if mb < sliced {
                group(ops, Part::Half1, &[Part::Half1]);
                group(ops, Part::Half2, &[Part::Half2]);
            } else {
                group(ops, Part::Full, &[Part::Full]);
            }
        };
        let push_bwd = |ops: &mut Vec<Op>, x: usize, mb: usize| {
            if x < p - 1 {
                ops.push(Op::new(OpKind::RecvGrad {
                    mb,
                    chunk: 0,
                    from: x + 1,
                }));
            }
            ops.push(Op::new(OpKind::Bwd { mb, chunk: 0 }));
            if x > 0 {
                ops.push(Op::new(OpKind::SendGrad {
                    mb,
                    chunk: 0,
                    to: x - 1,
                }));
            }
        };
        (0..p)
            .map(|x| {
                let mut ops = Vec::new();
                let w = m.min(p - 1 - x);
                for i in 0..w {
                    push_fwd(&mut ops, x, i);
                }
                let steady = m - w;
                for j in 0..steady {
                    push_fwd(&mut ops, x, w + j);
                    push_bwd(&mut ops, x, j);
                }
                for j in steady..m {
                    push_bwd(&mut ops, x, j);
                }
                ops
            })
            .collect()
    }

    #[test]
    fn slicing_1f1b_equals_the_old_sliced_generator() {
        for p in 1..=8 {
            for m in 1..=16 {
                for k in 0..=m + 1 {
                    let s = sliced_1f1b(p, m, k);
                    assert_eq!(s.devices, oracle_sliced_1f1b(p, m, k), "p={p} m={m} k={k}");
                    assert_eq!(s.n_sliced, k.min(m), "p={p} m={m} k={k}");
                }
            }
        }
    }

    fn families(p: usize, m: usize) -> Vec<Schedule> {
        let mut out = vec![one_f_one_b(p, m), gpipe(p, m), zero_bubble(p, m)];
        if p >= 2 && m.is_multiple_of(p) {
            out.push(interleaved(p, 2, m).unwrap());
        }
        out
    }

    #[test]
    fn slicing_commutes_with_recompute() {
        for p in [2, 3, 4] {
            for m in [4, 6, 8] {
                for base in families(p, m) {
                    let n = base.n_stages();
                    for mask in [
                        vec![false; n],
                        vec![true; n],
                        (0..n).map(|s| s.is_multiple_of(2)).collect(),
                    ] {
                        for k in 1..=3 {
                            let mut a = base.clone();
                            apply_recompute(&mut a, &mask);
                            slice(&mut a, k);
                            let mut b = base.clone();
                            slice(&mut b, k);
                            apply_recompute(&mut b, &mask);
                            assert_eq!(a, b, "{:?} p={p} m={m} k={k} mask={mask:?}", base.kind);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_sliced_family_validates_and_covers_each_forward_once() {
        for p in [1, 2, 4] {
            for m in [1, 2, 4, 8] {
                for base in families(p, m) {
                    for k in 0..=m {
                        let mut s = base.clone();
                        slice(&mut s, k);
                        validate(&s)
                            .unwrap_or_else(|e| panic!("{:?} p={p} m={m} k={k}: {e}", s.kind));
                        assert_eq!(s.kind, base.kind);
                        // Each sliced micro-batch's forwards are two halves on
                        // every chunk; the rest stay whole.
                        for ops in &s.devices {
                            for o in ops {
                                if let OpKind::Fwd { mb, part, .. } = o.kind {
                                    assert_eq!(part.is_half(), mb < k, "{:?} k={k}", s.kind);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slicing_twice_or_by_zero_changes_nothing() {
        let base = zero_bubble(4, 8);
        let mut s = base.clone();
        slice(&mut s, 0);
        assert_eq!(s, base);
        slice(&mut s, 2);
        let once = s.clone();
        slice(&mut s, 2);
        slice(&mut s, 3);
        assert_eq!(s, once);
        assert_eq!(s.n_sliced, 2);
    }
}
