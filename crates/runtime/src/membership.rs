//! Cluster membership: the one record of which devices serve pipeline
//! stages and how fast each of them runs.
//!
//! Each device walks `Ready → Suspect → Quarantined → Evicted` as it misses
//! consecutive heartbeats, and `Quarantined → Readmitted` as it delivers
//! them again. The thresholds come from
//! [`autopipe_core::MembershipConfig`] and are deliberately two-sided
//! (hysteresis): walking *down* takes `suspect_after ≤ quarantine_after ≤
//! evict_after` consecutive misses, walking *up* takes
//! `quarantine_cooldown` consecutive deliveries — so a flapping device pays
//! the full cooldown every time instead of oscillating the pipeline. On top
//! of that, a device that *recovers* from `Suspect` too often
//! (`flap_threshold` recoveries inside `flap_window` ticks) is parked in
//! `Quarantined` outright, even though no single outage was long enough.
//!
//! The serving set is *derived* from the states: a device serves exactly
//! while it is `Ready` or `Suspect`, and only
//! `ClusterMembership::mark_grown` brings a device back into service, so
//! the set the elastic coordinator re-plans for and the pipeline's width
//! cannot drift apart. Each device record also carries the compute-time
//! multiplier last observed for it, which is what a heterogeneity-aware
//! re-plan charges the device.
//!
//! Everything is counter-based (heartbeat periods, not wall-clock), so the
//! same machine is exact on the event simulator's virtual time and the
//! threaded runtime's scaled wall time, and every run of the same event
//! sequence is bit-identical. [`ClusterMembership::apply_all`] additionally
//! sorts events into canonical `(tick, device, kind)` order before folding,
//! so *any permutation* of a timed event set yields the same terminal
//! membership — the property the chaos campaigns (and the proptest suite)
//! lean on.

use autopipe_core::MembershipConfig;

/// Health state of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Healthy and serving a pipeline stage.
    Ready,
    /// Missed `suspect_after` consecutive heartbeats; still in the
    /// pipeline until quarantine confirms the outage.
    Suspect,
    /// Missed `quarantine_after` heartbeats or flapped past the threshold;
    /// out of the pipeline (degraded mode), proving itself via heartbeats.
    Quarantined,
    /// Missed `evict_after` heartbeats or left gracefully; out of the
    /// pipeline until an explicit join.
    Evicted,
    /// Survived the quarantine cooldown; ready for the coordinator to grow
    /// the pipeline back onto it (`ClusterMembership::mark_grown` →
    /// [`DeviceState::Ready`]). Not serving until then: a readmitted device
    /// that misses `suspect_after` heartbeats goes back to `Quarantined`.
    Readmitted,
}

impl DeviceState {
    /// Whether a device in this state serves a pipeline stage (`Ready`, or
    /// `Suspect` — a suspect stays in the pipeline until quarantine
    /// confirms the outage).
    pub(crate) fn serves(self) -> bool {
        matches!(self, DeviceState::Ready | DeviceState::Suspect)
    }
}

/// One membership observation about one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberEvent {
    /// Graceful departure — straight to `Evicted`.
    Leave,
    /// (Re)join request — an evicted device re-enters as `Quarantined` and
    /// must prove itself through the cooldown.
    Join,
    /// A heartbeat period elapsed without a beat from the device.
    Missed,
    /// The device's heartbeat arrived.
    Heartbeat,
}

/// Canonical fold order inside one tick: departures before arrivals before
/// health ticks, so a sorted fold is permutation-invariant.
fn event_rank(e: MemberEvent) -> u8 {
    match e {
        MemberEvent::Leave => 0,
        MemberEvent::Join => 1,
        MemberEvent::Missed => 2,
        MemberEvent::Heartbeat => 3,
    }
}

/// Sort `events` into the canonical `(tick, device, kind)` fold order that
/// [`ClusterMembership::apply_all`] uses.
pub(crate) fn sort_canonical(events: &mut [TimedEvent]) {
    events.sort_by_key(|e| (e.at, e.device, event_rank(e.event)));
}

/// A [`MemberEvent`] with its heartbeat tick and device, for batch folding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Heartbeat tick the observation belongs to.
    pub at: u64,
    /// Device observed.
    pub device: usize,
    /// What was observed.
    pub event: MemberEvent,
}

/// One state transition, for the coordinator and the campaign assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Tick the transition happened on.
    pub at: u64,
    /// Device that moved.
    pub device: usize,
    /// State before.
    pub from: DeviceState,
    /// State after.
    pub to: DeviceState,
}

#[derive(Debug, Clone)]
struct DeviceRecord {
    state: DeviceState,
    /// Consecutive missed heartbeats.
    missed: u32,
    /// Consecutive delivered heartbeats.
    streak: u32,
    /// Ticks of recent `Suspect → Ready` recoveries (flap detection).
    recoveries: Vec<u64>,
    /// Compute-time multiplier last observed for the device (1.0 = as
    /// profiled).
    multiplier: f64,
}

impl DeviceRecord {
    fn new(state: DeviceState) -> DeviceRecord {
        DeviceRecord {
            state,
            missed: 0,
            streak: 0,
            recoveries: Vec::new(),
            multiplier: 1.0,
        }
    }
}

/// The cluster-wide membership state machine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ClusterMembership {
    cfg: MembershipConfig,
    devices: Vec<DeviceRecord>,
    log: Vec<Transition>,
}

impl ClusterMembership {
    /// A cluster of `n` devices, all `Ready`.
    pub fn new(n: usize, cfg: MembershipConfig) -> ClusterMembership {
        ClusterMembership {
            cfg,
            devices: (0..n)
                .map(|_| DeviceRecord::new(DeviceState::Ready))
                .collect(),
            log: Vec::new(),
        }
    }

    /// Number of devices tracked (grows when a new device joins).
    pub(crate) fn len(&self) -> usize {
        self.devices.len()
    }

    /// Current state of `device`.
    pub fn state(&self, device: usize) -> DeviceState {
        self.devices[device].state
    }

    /// Current state of every device.
    pub fn states(&self) -> Vec<DeviceState> {
        self.devices.iter().map(|d| d.state).collect()
    }

    /// How many devices serve a stage.
    pub fn serving(&self) -> usize {
        self.devices.iter().filter(|d| d.state.serves()).count()
    }

    /// The serving devices in stage order (ascending device id).
    pub(crate) fn serving_devices(&self) -> Vec<usize> {
        (self.devices.iter().enumerate())
            .filter(|(_, r)| r.state.serves())
            .map(|(d, _)| d)
            .collect()
    }

    /// The multiplier of each serving device, in stage order — what a
    /// heterogeneity-aware re-plan folds into the cost database.
    pub(crate) fn serving_multipliers(&self) -> Vec<f64> {
        (self.devices.iter())
            .filter(|d| d.state.serves())
            .map(|d| d.multiplier)
            .collect()
    }

    /// The full transition history, in observation order.
    pub fn log(&self) -> &[Transition] {
        &self.log
    }

    /// Record that `device` now runs `multiplier` times slower than
    /// profiled. A slowdown moves no state; it changes what the device is
    /// charged once it serves.
    pub(crate) fn set_multiplier(&mut self, device: usize, multiplier: f64) {
        self.record(device).multiplier = multiplier;
    }

    /// Fold a batch of timed events in canonical order. Sorting by
    /// `(tick, device, kind)` first makes the terminal membership a pure
    /// function of the event *set* — any permutation of `events` lands in
    /// the same states.
    pub fn apply_all(&mut self, events: &[TimedEvent]) {
        let mut sorted = events.to_vec();
        sort_canonical(&mut sorted);
        for e in sorted {
            self.observe(e.at, e.device, e.event);
        }
    }

    /// The coordinator grew the pipeline back onto a `Readmitted` device.
    pub(crate) fn mark_grown(&mut self, at: u64, device: usize) {
        if self.devices[device].state == DeviceState::Readmitted {
            self.transition(at, device, DeviceState::Ready);
        }
    }

    /// The record of `device`. A join may introduce a device the roster
    /// has never seen; unknown devices materialise only through Join, so
    /// the placeholder is parked as evicted and an out-of-range
    /// Missed/Heartbeat on a never-joined device cannot fabricate a serving
    /// member.
    fn record(&mut self, device: usize) -> &mut DeviceRecord {
        while device >= self.devices.len() {
            self.devices.push(DeviceRecord::new(DeviceState::Evicted));
        }
        &mut self.devices[device]
    }

    /// Feed one observation through the state machine.
    pub(crate) fn observe(&mut self, at: u64, device: usize, event: MemberEvent) {
        let state = self.record(device).state;
        match event {
            MemberEvent::Leave => {
                let rec = &mut self.devices[device];
                rec.missed = 0;
                rec.streak = 0;
                if state != DeviceState::Evicted {
                    self.transition(at, device, DeviceState::Evicted);
                }
            }
            MemberEvent::Join => {
                if state == DeviceState::Evicted {
                    let rec = &mut self.devices[device];
                    rec.missed = 0;
                    rec.streak = 0;
                    self.transition(at, device, DeviceState::Quarantined);
                }
            }
            MemberEvent::Missed => {
                let rec = &mut self.devices[device];
                rec.streak = 0;
                rec.missed = rec.missed.saturating_add(1);
                let missed = rec.missed;
                match state {
                    DeviceState::Ready => {
                        if missed >= self.cfg.suspect_after {
                            self.transition(at, device, DeviceState::Suspect);
                        }
                    }
                    DeviceState::Readmitted => {
                        // Not serving yet: the readmission lapses.
                        if missed >= self.cfg.suspect_after {
                            self.transition(at, device, DeviceState::Quarantined);
                        }
                    }
                    DeviceState::Suspect => {
                        if missed >= self.cfg.quarantine_after {
                            self.transition(at, device, DeviceState::Quarantined);
                        }
                    }
                    DeviceState::Quarantined => {
                        if missed >= self.cfg.evict_after {
                            self.transition(at, device, DeviceState::Evicted);
                        }
                    }
                    DeviceState::Evicted => {}
                }
            }
            MemberEvent::Heartbeat => {
                let rec = &mut self.devices[device];
                rec.missed = 0;
                rec.streak = rec.streak.saturating_add(1);
                let streak = rec.streak;
                match state {
                    DeviceState::Ready | DeviceState::Readmitted => {}
                    DeviceState::Suspect => {
                        // Recovery — but count it: too many recoveries in
                        // the window is flapping, which quarantines.
                        let lo = at.saturating_sub(self.cfg.flap_window);
                        let rec = &mut self.devices[device];
                        rec.recoveries.retain(|&t| t >= lo);
                        rec.recoveries.push(at);
                        if rec.recoveries.len() as u32 >= self.cfg.flap_threshold {
                            rec.streak = 0;
                            self.transition(at, device, DeviceState::Quarantined);
                        } else {
                            self.transition(at, device, DeviceState::Ready);
                        }
                    }
                    DeviceState::Quarantined => {
                        if streak >= self.cfg.quarantine_cooldown {
                            self.transition(at, device, DeviceState::Readmitted);
                        }
                    }
                    DeviceState::Evicted => {}
                }
            }
        }
    }

    fn transition(&mut self, at: u64, device: usize, to: DeviceState) {
        let from = self.devices[device].state;
        if from == to {
            return;
        }
        self.devices[device].state = to;
        self.log.push(Transition {
            at,
            device,
            from,
            to,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MembershipConfig {
        MembershipConfig::default()
    }

    fn miss(m: &mut ClusterMembership, at: u64, d: usize, n: u32) {
        for i in 0..n {
            m.observe(at + i as u64, d, MemberEvent::Missed);
        }
    }

    #[test]
    fn walks_down_through_every_state_in_order() {
        let c = cfg();
        let mut m = ClusterMembership::new(2, c);
        miss(&mut m, 0, 0, c.suspect_after);
        assert_eq!(m.state(0), DeviceState::Suspect);
        miss(&mut m, 10, 0, c.quarantine_after - c.suspect_after);
        assert_eq!(m.state(0), DeviceState::Quarantined);
        miss(&mut m, 20, 0, c.evict_after - c.quarantine_after);
        assert_eq!(m.state(0), DeviceState::Evicted);
        // The healthy peer never moved.
        assert_eq!(m.state(1), DeviceState::Ready);
        // The log shows the exact path.
        let path: Vec<_> = m.log().iter().map(|t| t.to).collect();
        assert_eq!(
            path,
            vec![
                DeviceState::Suspect,
                DeviceState::Quarantined,
                DeviceState::Evicted
            ]
        );
    }

    #[test]
    fn quarantine_cooldown_gates_readmission() {
        let c = cfg();
        let mut m = ClusterMembership::new(1, c);
        miss(&mut m, 0, 0, c.quarantine_after);
        assert_eq!(m.state(0), DeviceState::Quarantined);
        for i in 0..c.quarantine_cooldown - 1 {
            m.observe(100 + i as u64, 0, MemberEvent::Heartbeat);
            assert_eq!(
                m.state(0),
                DeviceState::Quarantined,
                "beat {i} readmitted early"
            );
        }
        m.observe(200, 0, MemberEvent::Heartbeat);
        assert_eq!(m.state(0), DeviceState::Readmitted);
        m.mark_grown(201, 0);
        assert_eq!(m.state(0), DeviceState::Ready);
    }

    #[test]
    fn only_a_grow_brings_a_device_back_into_service() {
        let c = cfg();
        let mut m = ClusterMembership::new(2, c);
        m.set_multiplier(1, 2.0);
        m.observe(0, 1, MemberEvent::Leave);
        assert_eq!(
            (m.serving_devices(), m.serving_multipliers()),
            (vec![0], vec![1.0])
        );
        m.observe(1, 1, MemberEvent::Join);
        for i in 0..c.quarantine_cooldown {
            m.observe(2 + i as u64, 1, MemberEvent::Heartbeat);
        }
        assert_eq!(m.state(1), DeviceState::Readmitted);
        // A readmission nobody acted on lapses instead of serving.
        miss(&mut m, 10, 1, c.suspect_after);
        assert_eq!(m.state(1), DeviceState::Quarantined);
        assert_eq!(m.serving(), 1);
        for i in 0..c.quarantine_cooldown {
            m.observe(20 + i as u64, 1, MemberEvent::Heartbeat);
        }
        m.mark_grown(30, 1);
        assert_eq!(m.serving_devices(), vec![0, 1]);
        assert_eq!(m.serving_multipliers(), vec![1.0, 2.0]);
    }

    #[test]
    fn a_missed_beat_resets_the_cooldown_streak() {
        let c = cfg();
        let mut m = ClusterMembership::new(1, c);
        miss(&mut m, 0, 0, c.quarantine_after);
        // cooldown-1 beats, one miss, cooldown-1 beats: still quarantined.
        for i in 0..c.quarantine_cooldown - 1 {
            m.observe(10 + i as u64, 0, MemberEvent::Heartbeat);
        }
        m.observe(20, 0, MemberEvent::Missed);
        for i in 0..c.quarantine_cooldown - 1 {
            m.observe(30 + i as u64, 0, MemberEvent::Heartbeat);
        }
        assert_eq!(m.state(0), DeviceState::Quarantined);
    }

    #[test]
    fn flapping_is_quarantined_despite_short_outages() {
        let c = cfg();
        let mut m = ClusterMembership::new(1, c);
        // Each cycle: just enough misses to go Suspect, then recover — no
        // single outage reaches quarantine_after, but the recoveries do.
        let mut at = 0u64;
        for flap in 0..c.flap_threshold {
            miss(&mut m, at, 0, c.suspect_after);
            at += c.suspect_after as u64;
            m.observe(at, 0, MemberEvent::Heartbeat);
            at += 1;
            if flap + 1 < c.flap_threshold {
                assert_eq!(m.state(0), DeviceState::Ready);
            }
        }
        assert_eq!(m.state(0), DeviceState::Quarantined);
    }

    #[test]
    fn old_recoveries_age_out_of_the_flap_window() {
        let c = cfg();
        let mut m = ClusterMembership::new(1, c);
        // Same number of flaps, but spaced wider than the window: no
        // quarantine.
        let gap = c.flap_window + 1;
        let mut at = 0u64;
        for _ in 0..c.flap_threshold {
            miss(&mut m, at, 0, c.suspect_after);
            at += c.suspect_after as u64;
            m.observe(at, 0, MemberEvent::Heartbeat);
            at += gap;
        }
        assert_eq!(m.state(0), DeviceState::Ready);
    }

    #[test]
    fn leave_evicts_and_join_requires_proving() {
        let c = cfg();
        let mut m = ClusterMembership::new(2, c);
        m.observe(5, 1, MemberEvent::Leave);
        assert_eq!(m.state(1), DeviceState::Evicted);
        // Heartbeats from an evicted device are ignored; only Join re-enters.
        m.observe(6, 1, MemberEvent::Heartbeat);
        assert_eq!(m.state(1), DeviceState::Evicted);
        m.observe(7, 1, MemberEvent::Join);
        assert_eq!(m.state(1), DeviceState::Quarantined);
        for i in 0..c.quarantine_cooldown {
            m.observe(8 + i as u64, 1, MemberEvent::Heartbeat);
        }
        assert_eq!(m.state(1), DeviceState::Readmitted);
    }

    #[test]
    fn apply_all_is_permutation_invariant() {
        let c = cfg();
        let events = vec![
            TimedEvent {
                at: 0,
                device: 0,
                event: MemberEvent::Missed,
            },
            TimedEvent {
                at: 1,
                device: 0,
                event: MemberEvent::Missed,
            },
            TimedEvent {
                at: 1,
                device: 1,
                event: MemberEvent::Leave,
            },
            TimedEvent {
                at: 2,
                device: 0,
                event: MemberEvent::Heartbeat,
            },
            TimedEvent {
                at: 2,
                device: 1,
                event: MemberEvent::Join,
            },
            TimedEvent {
                at: 3,
                device: 1,
                event: MemberEvent::Heartbeat,
            },
            TimedEvent {
                at: 4,
                device: 1,
                event: MemberEvent::Heartbeat,
            },
            TimedEvent {
                at: 5,
                device: 1,
                event: MemberEvent::Heartbeat,
            },
        ];
        let mut fwd = ClusterMembership::new(2, c);
        fwd.apply_all(&events);
        let mut rev_events = events.clone();
        rev_events.reverse();
        let mut rev = ClusterMembership::new(2, c);
        rev.apply_all(&rev_events);
        assert_eq!(fwd.states(), rev.states());
        assert_eq!(fwd.log(), rev.log());
    }

    #[test]
    fn unknown_device_only_enters_via_join() {
        let c = cfg();
        let mut m = ClusterMembership::new(2, c);
        m.observe(0, 5, MemberEvent::Heartbeat);
        assert_eq!(m.state(5), DeviceState::Evicted);
        m.observe(1, 5, MemberEvent::Join);
        assert_eq!(m.state(5), DeviceState::Quarantined);
        assert_eq!(m.len(), 6);
    }
}
