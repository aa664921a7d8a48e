//! Deterministic, seeded fault scripts replayable on both executors.
//!
//! A [`FaultPlan`] is a *script*, not a random process: every per-message
//! decision (jitter draw, congestion spike, drop) is a pure function of the
//! plan's seed and the message's identity (`from`, `to`, [`MsgKey`]). That
//! makes the script order-independent — the discrete-event simulator visits
//! messages in sweep order while the threaded runtime visits them in
//! wall-clock thread order, yet both observe *exactly* the same faults — so
//! one script can be replayed on `sim::event` (virtual time) and on
//! `runtime::engine` (wall time, scaled by a `time_scale`) and compared op
//! for op. Both apply it through the one interpreter: the
//! [`Cursor`](crate::Cursor) asks the script what it does to each op, once.
//!
//! Four fault families, mirroring what degrades real training clusters:
//!
//! * [`LinkDegrade`] — a directed edge gains flat extra delay, per-message
//!   uniform jitter, and probabilistic congestion spikes.
//! * [`MessageDrop`] — a message on an edge is lost with probability `prob`
//!   and redelivered after a retransmit timeout. Delivery is guaranteed
//!   (drop-with-redelivery), so faults never change *what* executes — only
//!   when. This is what keeps numerics bit-identical under any script.
//! * [`Straggler`] — one pipeline stage's compute runs `factor`× slower.
//! * [`StageStall`] — one device freezes for `pause` seconds before a
//!   specific op in its program (a GC pause, a preemption, a hiccup). Stalls
//!   are finite: the watchdog's job is to *report* them, the schedule still
//!   completes.
//! * [`StageCrash`] / [`DeviceLost`] — fail-stop events. Unlike the four
//!   families above, these *do* change what executes: the device stops dead
//!   before a specific op and never comes back for the rest of the
//!   iteration. The threaded runtime realizes them as controlled
//!   stage-thread death; the event simulator replays them as a device whose
//!   program counter freezes. Recovery (restart-in-place or
//!   shrink-and-replan) is the runtime's run `Controller`'s job — the
//!   script only says *where* the failure happens. The two kinds differ in
//!   what recovery may assume: a [`StageCrash`] device can be respawned in
//!   place, a [`DeviceLost`] device is gone and forces a shrink.
//!
//! All delays are in the executor's native time unit (virtual seconds in the
//! simulator; the runtime multiplies by its `time_scale`).

use serde::Serialize;

use autopipe_schedule::Part;

use crate::msg::MsgKey;

/// A degraded directed link: every message `from → to` pays extra delay.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkDegrade {
    /// Sending device.
    pub from: usize,
    /// Receiving device.
    pub to: usize,
    /// Flat extra delay on every message.
    pub extra: f64,
    /// Per-message uniform jitter amplitude: each message gains `U[0, jitter)`.
    pub jitter: f64,
    /// Probability a message hits a congestion spike.
    pub spike_prob: f64,
    /// Spike magnitude (added on top of `extra` + jitter).
    pub spike: f64,
}

/// Lossy directed link: messages drop with `prob` and are redelivered after
/// a retransmit timeout.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MessageDrop {
    /// Sending device.
    pub from: usize,
    /// Receiving device.
    pub to: usize,
    /// Per-message drop probability.
    pub prob: f64,
    /// Retransmit timeout: a dropped message arrives this much later.
    pub redelivery: f64,
}

/// A persistently slow pipeline stage: compute runs `factor`× slower.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Straggler {
    /// Slow pipeline stage (chunk-stage index for interleaved schedules).
    pub stage: usize,
    /// Compute multiplier, ≥ 1.
    pub factor: f64,
}

/// A one-off device freeze before a specific op in its program.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageStall {
    /// Frozen device.
    pub device: usize,
    /// Index into the device's program at which the freeze happens.
    pub op_index: usize,
    /// Freeze duration.
    pub pause: f64,
}

/// A fail-stop stage crash: the device's thread dies immediately before
/// executing op `at_op` of its program and stays dead for the rest of the
/// iteration. The process (and its checkpointed state) survives, so recovery
/// may respawn the stage in place.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageCrash {
    /// Crashing device (= pipeline stage for non-interleaved schedules).
    pub device: usize,
    /// Index into the device's program at which the thread dies.
    pub at_op: usize,
}

/// A fail-stop device loss: like [`StageCrash`], but the device itself is
/// gone (host down, accelerator off the bus) — recovery must re-plan the
/// pipeline onto the surviving devices instead of respawning.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceLost {
    /// Lost device.
    pub device: usize,
    /// Index into the device's program at which the device vanishes.
    pub at_op: usize,
}

/// How one membership event changes a device's standing in the cluster.
/// Unlike the data-plane families above, membership events fire at *training
/// step* boundaries (not per-op): they are control-plane input for an
/// elastic coordinator, which turns them into grow/shrink/quarantine
/// decisions between iterations. Replayed identically by both executors
/// because the script — like every other family — is a pure function of its
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum MembershipChange {
    /// A device arrives (or returns) and asks to join the pipeline.
    Join,
    /// A device departs gracefully (drain + leave, not a crash).
    Leave,
    /// A device flaps: it misses `beats` consecutive heartbeats, then
    /// resumes beating. A hysteretic membership machine must quarantine a
    /// repeat offender instead of oscillating the pipeline.
    Flap {
        /// Consecutive heartbeats missed before the device recovers.
        beats: u32,
    },
    /// A device's compute persistently degrades to `factor`× its modelled
    /// time (≥ 1). Drives heterogeneity-aware re-planning rather than a
    /// membership transition.
    Slowdown {
        /// Throughput multiplier, ≥ 1.
        factor: f64,
    },
}

/// One scripted membership event: `device` undergoes `change` at the
/// boundary *before* training step `at_step` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MembershipFault {
    /// Affected device.
    pub device: usize,
    /// Training step boundary at which the event fires.
    pub at_step: u64,
    /// What happens to the device.
    pub change: MembershipChange,
}

/// What kind of fail-stop event hit a device. Drives the recovery policy
/// choice: a `Crash` may be restarted in place, a `Lost` device forces
/// shrink-and-replan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FailStopKind {
    /// The stage thread died but the device survives ([`StageCrash`]).
    Crash,
    /// The device itself is gone ([`DeviceLost`]).
    Lost,
}

/// A complete seeded fault script. See the module docs for replay semantics.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed all per-message decisions derive from.
    pub seed: u64,
    /// Degraded links.
    pub links: Vec<LinkDegrade>,
    /// Lossy links.
    pub drops: Vec<MessageDrop>,
    /// Slow stages.
    pub stragglers: Vec<Straggler>,
    /// Device freezes.
    pub stalls: Vec<StageStall>,
    /// Fail-stop stage crashes (restartable).
    pub crashes: Vec<StageCrash>,
    /// Fail-stop device losses (force a shrink).
    pub lost: Vec<DeviceLost>,
    /// Control-plane membership events (join/leave/flap/slowdown), fired at
    /// training-step boundaries by an elastic coordinator.
    pub membership: Vec<MembershipFault>,
}

/// Knobs for [`FaultPlan::random`]: which fault families to draw and how
/// hard to hit, scaled by a characteristic `time_unit` (e.g. one stage's
/// forward time) so the same spec works across models.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Devices in the target schedule.
    pub n_devices: usize,
    /// Upper bound on program length (for placing stalls).
    pub program_len: usize,
    /// Characteristic time unit every delay scales with.
    pub time_unit: f64,
    /// Probability each adjacent directed edge is degraded.
    pub link_prob: f64,
    /// Probability each adjacent directed edge is lossy.
    pub drop_prob: f64,
    /// Probability each stage is a straggler.
    pub straggler_prob: f64,
    /// Probability each device suffers one stall.
    pub stall_prob: f64,
}

impl FaultSpec {
    /// A moderate default campaign spec.
    pub fn new(n_devices: usize, program_len: usize, time_unit: f64) -> FaultSpec {
        FaultSpec {
            n_devices,
            program_len,
            time_unit,
            link_prob: 0.5,
            drop_prob: 0.3,
            straggler_prob: 0.3,
            stall_prob: 0.4,
        }
    }
}

/// SplitMix64: the tiny counter-based mixer behind every decision. Public
/// because deterministic consumers elsewhere (the runtime's membership
/// machine, the watchdog's jittered backoff) draw from the same stream
/// family so one seed governs every stochastic choice in a campaign.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform draw in `[0, 1)`.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Stable ordering tag for membership changes (sort key, not identity).
fn membership_tag(c: &MembershipChange) -> u64 {
    match c {
        MembershipChange::Leave => 0,
        MembershipChange::Join => 1,
        MembershipChange::Flap { .. } => 2,
        MembershipChange::Slowdown { .. } => 3,
    }
}

fn part_tag(part: Part) -> u64 {
    match part {
        Part::Full => 0,
        Part::Half1 => 1,
        Part::Half2 => 2,
        Part::Both => 3,
    }
}

impl FaultPlan {
    /// An empty (fault-free) script.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty script carrying a seed, ready for faults to be pushed.
    pub fn with_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// True when the script injects nothing.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
            && self.drops.is_empty()
            && self.stragglers.is_empty()
            && self.stalls.is_empty()
            && self.crashes.is_empty()
            && self.lost.is_empty()
            && self.membership.is_empty()
    }

    /// The fail-stop event (if any) scripted for `device` at `op_index`.
    /// `Lost` wins over `Crash` if both are scripted at the same op, because
    /// a lost device constrains recovery more.
    pub(crate) fn crash_at(&self, device: usize, op_index: usize) -> Option<FailStopKind> {
        if self
            .lost
            .iter()
            .any(|l| l.device == device && l.at_op == op_index)
        {
            return Some(FailStopKind::Lost);
        }
        if self
            .crashes
            .iter()
            .any(|c| c.device == device && c.at_op == op_index)
        {
            return Some(FailStopKind::Crash);
        }
        None
    }

    /// Draw a random script from `spec`. Deterministic in `seed`: faults
    /// land on adjacent-device edges (the edges pipeline schedules use) and
    /// every magnitude scales with `spec.time_unit`.
    pub fn random(seed: u64, spec: &FaultSpec) -> FaultPlan {
        let mut plan = FaultPlan::with_seed(seed);
        let mut ctr = splitmix64(seed ^ 0xFA17);
        let mut draw = || {
            ctr = splitmix64(ctr);
            unit(ctr)
        };
        let u = spec.time_unit;
        for d in 0..spec.n_devices.saturating_sub(1) {
            for (from, to) in [(d, d + 1), (d + 1, d)] {
                if draw() < spec.link_prob {
                    plan.links.push(LinkDegrade {
                        from,
                        to,
                        extra: u * 0.2 * draw(),
                        jitter: u * 0.3 * draw(),
                        spike_prob: 0.1 * draw(),
                        spike: u * (1.0 + 2.0 * draw()),
                    });
                }
                if draw() < spec.drop_prob {
                    plan.drops.push(MessageDrop {
                        from,
                        to,
                        prob: 0.05 + 0.1 * draw(),
                        redelivery: u * (1.0 + 3.0 * draw()),
                    });
                }
            }
        }
        for stage in 0..spec.n_devices {
            if draw() < spec.straggler_prob {
                plan.stragglers.push(Straggler {
                    stage,
                    factor: 1.2 + 1.3 * draw(),
                });
            }
        }
        for device in 0..spec.n_devices {
            if draw() < spec.stall_prob {
                plan.stalls.push(StageStall {
                    device,
                    op_index: (draw() * spec.program_len as f64) as usize,
                    pause: u * (5.0 + 15.0 * draw()),
                });
            }
        }
        plan
    }

    /// Draw a script containing exactly one fail-stop event: a random device
    /// dies before a random op of its program. `lost_prob` is the chance the
    /// event is a [`DeviceLost`] rather than a restartable [`StageCrash`].
    /// Deterministic in `seed`; never places the event at op 0 of device 0
    /// when avoidable, so the iteration always makes *some* progress before
    /// dying (crash-at-first-op is covered by explicit unit tests).
    pub fn random_failstop(seed: u64, spec: &FaultSpec, lost_prob: f64) -> FaultPlan {
        let mut plan = FaultPlan::with_seed(seed);
        let mut ctr = splitmix64(seed ^ 0xDEAD);
        let mut draw = || {
            ctr = splitmix64(ctr);
            unit(ctr)
        };
        let device = (draw() * spec.n_devices as f64) as usize % spec.n_devices.max(1);
        let span = spec.program_len.max(2);
        // Land in [1, span): at least one op runs before the death.
        let at_op = 1 + (draw() * (span - 1) as f64) as usize % (span - 1).max(1);
        if draw() < lost_prob {
            plan.lost.push(DeviceLost { device, at_op });
        } else {
            plan.crashes.push(StageCrash { device, at_op });
        }
        plan
    }

    /// Membership events scripted for the boundary before step `step`, in
    /// deterministic (device, change-tag) order — the order an elastic
    /// coordinator must apply them in so both executors agree.
    pub fn membership_at(&self, step: u64) -> Vec<MembershipFault> {
        let mut out: Vec<MembershipFault> = self
            .membership
            .iter()
            .filter(|m| m.at_step == step)
            .copied()
            .collect();
        out.sort_by_key(|m| (m.device, membership_tag(&m.change)));
        out
    }

    /// Draw a seeded elastic-chaos script: over `n_steps` training steps on
    /// `n_devices` devices, each step boundary may carry one membership event
    /// with probability `event_prob` — a leave (weight 0.3), a later rejoin
    /// of a previously departed device (0.3 when one is out), a flap (0.25)
    /// or a slowdown (rest). The script never empties the pipeline: a leave
    /// is only drawn while more than `min_devices` devices remain.
    /// Deterministic in `seed`.
    pub fn random_membership(
        seed: u64,
        n_devices: usize,
        n_steps: u64,
        event_prob: f64,
        min_devices: usize,
    ) -> FaultPlan {
        let mut plan = FaultPlan::with_seed(seed);
        let mut ctr = splitmix64(seed ^ 0xE1A5);
        let mut draw = || {
            ctr = splitmix64(ctr);
            unit(ctr)
        };
        let mut present: Vec<usize> = (0..n_devices).collect();
        let mut out: Vec<usize> = Vec::new();
        // Step 0 is the initial plan; events start at the first boundary.
        for step in 1..n_steps {
            if draw() >= event_prob {
                continue;
            }
            let r = draw();
            if r < 0.3 && present.len() > min_devices.max(1) {
                let i = (draw() * present.len() as f64) as usize % present.len();
                let device = present.remove(i);
                out.push(device);
                plan.membership.push(MembershipFault {
                    device,
                    at_step: step,
                    change: MembershipChange::Leave,
                });
            } else if r < 0.6 && !out.is_empty() {
                let i = (draw() * out.len() as f64) as usize % out.len();
                let device = out.remove(i);
                present.push(device);
                present.sort_unstable();
                plan.membership.push(MembershipFault {
                    device,
                    at_step: step,
                    change: MembershipChange::Join,
                });
            } else if r < 0.85 && !present.is_empty() {
                let i = (draw() * present.len() as f64) as usize % present.len();
                plan.membership.push(MembershipFault {
                    device: present[i],
                    at_step: step,
                    change: MembershipChange::Flap {
                        beats: 1 + (draw() * 3.0) as u32,
                    },
                });
            } else if !present.is_empty() {
                let i = (draw() * present.len() as f64) as usize % present.len();
                plan.membership.push(MembershipFault {
                    device: present[i],
                    at_step: step,
                    change: MembershipChange::Slowdown {
                        factor: 1.5 + 1.5 * draw(),
                    },
                });
            }
        }
        plan
    }

    /// Hash of one message's identity under this plan's seed. `salt`
    /// separates decision streams (jitter vs spike vs drop).
    fn msg_hash(&self, salt: u64, from: usize, to: usize, key: &MsgKey) -> u64 {
        let mut h = splitmix64(self.seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        for v in [
            from as u64,
            to as u64,
            key.is_grad as u64,
            key.mb as u64,
            part_tag(key.part),
            key.dst_stage as u64,
        ] {
            h = splitmix64(h ^ v);
        }
        h
    }

    /// Total extra delay injected on one message — flat degradation, jitter,
    /// spikes and drop-redelivery combined. Pure in (seed, from, to, key).
    pub(crate) fn link_delay(&self, from: usize, to: usize, key: &MsgKey) -> f64 {
        let mut d = 0.0;
        for l in &self.links {
            if (l.from, l.to) != (from, to) {
                continue;
            }
            d += l.extra;
            if l.jitter > 0.0 {
                d += l.jitter * unit(self.msg_hash(1, from, to, key));
            }
            if l.spike_prob > 0.0 && unit(self.msg_hash(2, from, to, key)) < l.spike_prob {
                d += l.spike;
            }
        }
        for dr in &self.drops {
            if (dr.from, dr.to) == (from, to) && unit(self.msg_hash(3, from, to, key)) < dr.prob {
                d += dr.redelivery;
            }
        }
        d
    }

    /// Compute multiplier for a stage (≥ 1; stacked if scripted twice).
    pub(crate) fn compute_factor(&self, stage: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.factor.max(1.0))
            .product()
    }

    /// Freeze duration before op `op_index` on `device` (0 if none).
    pub(crate) fn stall_pause(&self, device: usize, op_index: usize) -> f64 {
        self.stalls
            .iter()
            .filter(|s| s.device == device && s.op_index == op_index)
            .map(|s| s.pause)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(mb: usize) -> MsgKey {
        MsgKey::act(mb, Part::Full, 1)
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::random(42, &FaultSpec::new(4, 40, 1.0));
        // Query the same messages in two different orders: identical delays.
        let a: Vec<f64> = (0..8).map(|mb| plan.link_delay(0, 1, &key(mb))).collect();
        let b: Vec<f64> = (0..8)
            .rev()
            .map(|mb| plan.link_delay(0, 1, &key(mb)))
            .collect();
        let b_fwd: Vec<f64> = b.into_iter().rev().collect();
        assert_eq!(a, b_fwd);
        // And across independent clones of the same script.
        let again = FaultPlan::random(42, &FaultSpec::new(4, 40, 1.0));
        assert_eq!(plan, again);
    }

    #[test]
    fn different_seeds_give_different_scripts() {
        let spec = FaultSpec::new(4, 40, 1.0);
        let a = FaultPlan::random(1, &spec);
        let b = FaultPlan::random(2, &spec);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.link_delay(0, 1, &key(0)), 0.0);
        assert_eq!(plan.compute_factor(0), 1.0);
        assert_eq!(plan.stall_pause(0, 0), 0.0);
    }

    #[test]
    fn stragglers_stack_and_clamp() {
        let mut plan = FaultPlan::with_seed(7);
        plan.stragglers.push(Straggler {
            stage: 2,
            factor: 2.0,
        });
        plan.stragglers.push(Straggler {
            stage: 2,
            factor: 0.5, // clamped to 1: stragglers never speed things up
        });
        assert_eq!(plan.compute_factor(2), 2.0);
        assert_eq!(plan.compute_factor(0), 1.0);
    }

    #[test]
    fn delays_are_nonnegative_and_bounded_by_worst_case() {
        for seed in 0..20 {
            let plan = FaultPlan::random(seed, &FaultSpec::new(4, 40, 0.5));
            // The worst a single message can suffer: the worst link fault
            // plus the worst redelivery plus the worst stall.
            let worst = |it: &mut dyn Iterator<Item = f64>| it.fold(0.0, f64::max);
            let bound = worst(&mut plan.links.iter().map(|l| l.extra + l.jitter + l.spike))
                + worst(&mut plan.drops.iter().map(|d| d.redelivery))
                + worst(&mut plan.stalls.iter().map(|s| s.pause));
            for mb in 0..16 {
                for (from, to) in [(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)] {
                    let d = plan.link_delay(from, to, &key(mb));
                    assert!(d >= 0.0 && d <= bound + 1e-12, "delay {d} bound {bound}");
                }
            }
        }
    }

    #[test]
    fn failstop_scripts_are_deterministic_and_in_range() {
        let spec = FaultSpec::new(4, 40, 1.0);
        for seed in 0..50 {
            let plan = FaultPlan::random_failstop(seed, &spec, 0.5);
            assert_eq!(plan, FaultPlan::random_failstop(seed, &spec, 0.5));
            assert!(!plan.is_empty());
            assert_eq!(plan.crashes.len() + plan.lost.len(), 1);
            let (device, at_op) = plan
                .crashes
                .first()
                .map(|c| (c.device, c.at_op))
                .or_else(|| plan.lost.first().map(|l| (l.device, l.at_op)))
                .unwrap();
            assert!(device < 4, "device {device} out of range");
            assert!((1..40).contains(&at_op), "op {at_op} out of range");
        }
        // lost_prob steers the kind fully at the extremes.
        assert!(!FaultPlan::random_failstop(3, &spec, 0.0).crashes.is_empty());
        assert!(!FaultPlan::random_failstop(3, &spec, 1.0).lost.is_empty());
    }

    #[test]
    fn crash_at_reports_kind_and_lost_wins() {
        let mut plan = FaultPlan::with_seed(1);
        plan.crashes.push(StageCrash {
            device: 2,
            at_op: 5,
        });
        assert_eq!(plan.crash_at(2, 5), Some(FailStopKind::Crash));
        assert_eq!(plan.crash_at(2, 4), None);
        assert_eq!(plan.crash_at(1, 5), None);
        assert!(!plan.is_empty(), "crashes must make the plan non-empty");
        plan.lost.push(DeviceLost {
            device: 2,
            at_op: 5,
        });
        assert_eq!(plan.crash_at(2, 5), Some(FailStopKind::Lost));
    }

    #[test]
    fn membership_scripts_are_deterministic_and_in_range() {
        for seed in 0..50 {
            let plan = FaultPlan::random_membership(seed, 4, 16, 0.8, 2);
            assert_eq!(plan, FaultPlan::random_membership(seed, 4, 16, 0.8, 2));
            for ev in &plan.membership {
                assert!(ev.device < 4, "device {} out of range", ev.device);
                assert!((1..16).contains(&ev.at_step), "step {}", ev.at_step);
                if let MembershipChange::Slowdown { factor } = ev.change {
                    assert!(factor >= 1.0, "slowdown {factor} < 1");
                }
            }
            // A leave-heavy draw never empties the pipeline below the floor.
            let mut present = 4i64;
            for step in 0..16 {
                for ev in plan.membership_at(step) {
                    match ev.change {
                        MembershipChange::Leave => present -= 1,
                        MembershipChange::Join => present += 1,
                        _ => {}
                    }
                }
                assert!(present >= 2, "seed {seed}: pipeline drained to {present}");
            }
        }
    }

    #[test]
    fn membership_events_query_in_deterministic_order() {
        let mut plan = FaultPlan::with_seed(5);
        for (device, change) in [
            (2, MembershipChange::Join),
            (1, MembershipChange::Leave),
            (2, MembershipChange::Leave),
        ] {
            plan.membership.push(MembershipFault {
                device,
                at_step: 3,
                change,
            });
        }
        assert!(!plan.is_empty());
        let at = plan.membership_at(3);
        assert_eq!(at.len(), 3);
        // Sorted by (device, change tag): device 1 leave, device 2 leave,
        // device 2 join.
        assert_eq!(at[0].device, 1);
        assert_eq!(
            at[1],
            MembershipFault {
                device: 2,
                at_step: 3,
                change: MembershipChange::Leave
            }
        );
        assert_eq!(at[2].change, MembershipChange::Join);
        assert_eq!(plan.membership_at(2), Vec::new());
    }
}
