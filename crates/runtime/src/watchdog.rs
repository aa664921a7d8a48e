//! Stall watchdog: bounded channel waits instead of indefinite blocking.
//!
//! A blocking [`ChannelEndpoint::recv`] on a message that never comes (peer
//! crash, schedule bug, injected stall) would silently deadlock the whole
//! `thread::scope`. The engine's channel waits go through the watchdog
//! instead, and always end, one of two ways:
//!
//! * **Hang-up** — for a peer that is *gone*. A stage thread that dies or
//!   finishes drops its endpoint, which closes its links; once the link
//!   from the awaited op's own `from` device is closed and drained
//!   ([`ChannelEndpoint::hung_up`]) and the message is not in the stash, it
//!   will never arrive. The wait is abandoned on that poll: one unresolved
//!   [`WatchdogEvent`], the poison flag, done. No deadline is involved.
//! * **Deadlines** — for a peer that is alive and *late*:
//!
//!   1. Poll for the message; on arrival, deliver (recording a
//!      [`WatchdogEvent`] if any deadline had already expired — a
//!      *resolved* firing, the signature of an injected stall or straggler
//!      upstream).
//!   2. On an expired deadline, extend the budget by `backoff`× and retry,
//!      up to `max_retries` times.
//!   3. When retries are exhausted, set a shared poison flag so every
//!      device thread bails cooperatively, and report the wait as an
//!      *unresolved* stall.
//!
//! Either way the iteration returns [`RuntimeError::Stalled`] (or
//! [`RuntimeError::StageDown`] when a stage died) carrying a structured
//! [`FaultReport`] — a silent deadlock becomes data.
//!
//! Per-op deadlines derive from the simulator's expected end-times: the
//! expected *gap* between an op and its predecessor (scaled into wall time)
//! plus a slack multiplier, floored by `base_timeout`. With no expected
//! timeline the flat `base_timeout` applies.
//!
//! [`ChannelEndpoint::recv`]: autopipe_exec::ChannelEndpoint::recv
//! [`ChannelEndpoint::hung_up`]: autopipe_exec::ChannelEndpoint::hung_up

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use autopipe_core::WatchdogConfig;
use autopipe_exec::{ChannelEndpoint, Entry, FailStopKind, MsgKey, Timeline};
use autopipe_schedule::Op;

/// One watchdog firing: a channel wait that outlived its deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogEvent {
    /// Device that waited.
    pub device: usize,
    /// Index of the waiting op in the device's program.
    pub op_index: usize,
    /// The waiting op.
    pub op: Op,
    /// Total seconds waited when the event was recorded.
    pub waited: f64,
    /// How many deadlines expired.
    pub timeouts: u32,
    /// Whether the message eventually arrived (`true`: delayed, the run
    /// continued; `false`: the wait was abandoned and the run aborted).
    pub resolved: bool,
}

/// One stage death observed during an iteration — either a scripted
/// fail-stop fault firing, or an internal stage failure (an ex-panic path)
/// converted into a structured outcome by the coordinator's join reaping.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashEvent {
    /// Device whose stage thread died.
    pub device: usize,
    /// Index of the op the stage was executing when it died.
    pub at_op: usize,
    /// Restartable crash or permanent device loss.
    pub kind: FailStopKind,
    /// Human-readable cause for unscripted deaths (missing activation,
    /// stage-thread panic); `None` for clean scripted fail-stops.
    pub detail: Option<String>,
}

/// Structured outcome of a watched iteration: every firing plus, on abort,
/// how far each device got.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// All watchdog firings, resolved and not.
    pub events: Vec<WatchdogEvent>,
    /// Stage deaths observed this iteration (scripted fail-stops and
    /// reaped panics).
    pub crashed: Vec<CrashEvent>,
    /// Whether the iteration was abandoned.
    pub aborted: bool,
    /// Per-device program counter reached (ops completed).
    pub counters: Vec<usize>,
}

impl FaultReport {
    /// Firings that never resolved — the actual stalls.
    pub(crate) fn stalls(&self) -> usize {
        self.events.iter().filter(|e| !e.resolved).count()
    }

    /// The first dead stage, if any (the recovery coordinator's trigger).
    pub fn first_crash(&self) -> Option<&CrashEvent> {
        self.crashed.first()
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} watchdog firing(s) ({} unresolved), aborted: {}, counters {:?}",
            self.events.len(),
            self.stalls(),
            self.aborted,
            self.counters
        )
    }
}

/// Runtime failure: invalid configuration, a watchdog-detected stall, or a
/// dead stage.
#[derive(Debug)]
pub enum RuntimeError {
    /// A configuration the engine cannot execute.
    InvalidConfig(String),
    /// The watchdog abandoned a channel wait; the report says where.
    Stalled(FaultReport),
    /// A stage thread died mid-iteration (scripted fail-stop or internal
    /// failure). The report carries the [`CrashEvent`]s and how far every
    /// surviving device got — the recovery coordinator's input.
    StageDown {
        /// The first device observed dead.
        stage: usize,
        /// The full structured outcome of the aborted iteration.
        report: FaultReport,
    },
    /// Elastic membership drove the serving set below the configured floor
    /// (`ElasticConfig::min_devices`) — the run cannot degrade further.
    Elastic(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::InvalidConfig(s) => write!(f, "invalid runtime configuration: {s}"),
            RuntimeError::Stalled(r) => write!(f, "pipeline stalled: {r}"),
            RuntimeError::StageDown { stage, report } => {
                write!(f, "stage {stage} down: {report}")
            }
            RuntimeError::Elastic(s) => write!(f, "elastic membership failure: {s}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

// The facade's unified error wraps runtime failures behind a boxed source
// (this crate sits above `autopipe-core` in the dependency graph, so the
// conversion has to live here).
impl From<RuntimeError> for autopipe_core::Error {
    fn from(e: RuntimeError) -> autopipe_core::Error {
        autopipe_core::Error::Runtime(Box::new(e))
    }
}

/// Shared watchdog state for one iteration: the config, the per-op deadline
/// table, and the poison flag every device thread checks.
pub(crate) struct Watchdog {
    cfg: WatchdogConfig,
    /// Per-device, per-op wait budget (already in wall time), derived from
    /// an expected timeline; `None` falls back to `cfg.base_timeout`.
    deadlines: Option<Vec<Vec<Duration>>>,
    poison: AtomicBool,
}

impl Watchdog {
    pub(crate) fn new(cfg: WatchdogConfig, deadlines: Option<Vec<Vec<Duration>>>) -> Watchdog {
        Watchdog {
            cfg,
            deadlines,
            poison: AtomicBool::new(false),
        }
    }

    pub(crate) fn poisoned(&self) -> bool {
        self.poison.load(Ordering::Relaxed)
    }

    pub(crate) fn poison(&self) {
        self.poison.store(true, Ordering::Relaxed);
    }

    /// First-deadline budget for op `op_index` on `device`.
    fn budget(&self, device: usize, op_index: usize) -> Duration {
        let derived = self
            .deadlines
            .as_ref()
            .and_then(|d| d.get(device))
            .and_then(|lane| lane.get(op_index))
            .copied()
            .unwrap_or(Duration::ZERO);
        derived.max(self.cfg.base_timeout)
    }

    /// Deadline-looped receive of `key` from device `from`, for the op
    /// `entry` on `device`. `Ok` delivers the payload; `Err(true)` means
    /// this wait was abandoned (and the pipeline poisoned); `Err(false)`
    /// means another thread poisoned the pipeline while we waited.
    ///
    /// A wait on a peer that has hung up (`from` dropped its endpoint and
    /// the link is drained) is abandoned at once: the message cannot
    /// arrive, so there is nothing for the ladder to wait out. The
    /// unresolved event it records says where this device was blocked.
    pub(crate) fn recv<T>(
        &self,
        ep: &mut ChannelEndpoint<T>,
        device: usize,
        entry: &Entry,
        from: usize,
        key: MsgKey,
        events: &mut Vec<WatchdogEvent>,
    ) -> Result<T, bool> {
        let op_index = entry.index;
        let started = Instant::now();
        let mut budget = self.budget(device, op_index);
        let mut deadline = started + budget;
        let mut timeouts = 0u32;
        let event = |timeouts, resolved| WatchdogEvent {
            device,
            op_index,
            op: entry.op,
            waited: started.elapsed().as_secs_f64(),
            timeouts,
            resolved,
        };
        loop {
            if let Some(payload) = ep.try_recv(key) {
                if timeouts > 0 {
                    events.push(event(timeouts, true));
                }
                return Ok(payload);
            }
            // Read before the poison flag: a peer that bailed out *because*
            // of the flag hangs up too, and the channel's own synchronisation
            // makes the flag it saw visible here — so its departure is
            // never reported as a second stall.
            let hung_up = ep.hung_up(from);
            if self.poisoned() {
                return Err(false);
            }
            if hung_up {
                events.push(event(timeouts, false));
                self.poison();
                return Err(true);
            }
            let now = Instant::now();
            if now >= deadline {
                timeouts += 1;
                if timeouts > self.cfg.max_retries {
                    events.push(event(timeouts, false));
                    self.poison();
                    return Err(true);
                }
                budget = retry_budget(&self.cfg, budget, device, op_index, timeouts);
                deadline = now + budget;
            }
            // Stay responsive for fast messages, polite once a deadline has
            // already slipped.
            if timeouts == 0 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    /// Poison-aware sleep (fault injection): sleeps in small chunks so an
    /// aborting pipeline never waits out a long injected pause. Returns
    /// false if the pipeline was poisoned mid-sleep.
    pub(crate) fn sleep(&self, dur: Duration) -> bool {
        const CHUNK: Duration = Duration::from_millis(5);
        let deadline = Instant::now() + dur;
        loop {
            if self.poisoned() {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            std::thread::sleep((deadline - now).min(CHUNK));
        }
    }
}

/// Seeded-jittered exponential backoff: the budget for the next retry of a
/// wait that has already expired `timeouts` times. Stages whose waits
/// expired together would otherwise extend by the identical factor and
/// re-fire their deadlines in lockstep forever; the ±25 % jitter is a pure
/// function of (seed, device, op, attempt), so replays with the same seed
/// walk the exact same deadline sequence, and the effective multiplier is
/// floored at 1 so budgets stay monotone.
pub(crate) fn retry_budget(
    cfg: &WatchdogConfig,
    budget: Duration,
    device: usize,
    op_index: usize,
    timeouts: u32,
) -> Duration {
    let h = autopipe_exec::splitmix64(
        cfg.jitter_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((device as u64) << 40)
            .wrapping_add((op_index as u64) << 8)
            .wrapping_add(timeouts as u64),
    );
    let jitter = 0.75 + 0.5 * autopipe_exec::unit(h);
    budget.mul_f64((cfg.backoff.max(1.0) * jitter).max(1.0))
}

/// Derive per-op wait budgets from an expected timeline (typically the event
/// simulator's run of the same schedule): each op's budget is `slack ×
/// time_scale × (end_j − end_{j−1})` — the expected wall-clock gap to its
/// predecessor, which for a recv covers both the upstream compute it waits
/// on and the link transfer. The engine floors these with `base_timeout`.
pub(crate) fn deadlines_from_timeline(
    expected: &Timeline,
    time_scale: f64,
    slack: f64,
) -> Vec<Vec<Duration>> {
    (0..expected.n_devices())
        .map(|d| {
            let mut prev_end = 0.0;
            expected
                .device(d)
                .map(|ev| {
                    let gap = (ev.end - prev_end).max(0.0);
                    prev_end = ev.end;
                    Duration::from_secs_f64(gap * time_scale * slack)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_exec::channel_mesh;
    use autopipe_schedule::{OpKind, Part};

    fn key(mb: usize) -> MsgKey {
        MsgKey::act(mb, Part::Full, 1)
    }

    fn recv_op(mb: usize) -> Op {
        Op::new(OpKind::RecvAct {
            mb,
            chunk: 0,
            part: Part::Full,
            from: 0,
        })
    }

    /// Device 1 entering its `index`-th op, a receive of `mb` from device 0.
    fn entry(index: usize, mb: usize) -> Entry {
        Entry {
            index,
            op: recv_op(mb),
            stage: 1,
            at: 0.0,
            stall: 0.0,
        }
    }

    fn fast_cfg() -> WatchdogConfig {
        WatchdogConfig {
            base_timeout: Duration::from_millis(5),
            slack: 2.0,
            backoff: 1.5,
            max_retries: 2,
            jitter_seed: 0,
        }
    }

    #[test]
    fn retry_budgets_are_jittered_monotone_and_seed_deterministic() {
        let cfg = fast_cfg();
        let base = Duration::from_millis(10);
        // Monotone growth on every attempt, for every lane.
        for d in 0..4 {
            let mut b = base;
            for t in 1..=6 {
                let next = retry_budget(&cfg, b, d, 3, t);
                assert!(next > b, "device {d} attempt {t}: {b:?} → {next:?}");
                b = next;
            }
        }
        // Identical seeds replay identical deadline sequences…
        assert_eq!(
            retry_budget(&cfg, base, 1, 3, 2),
            retry_budget(&cfg, base, 1, 3, 2)
        );
        // …while devices retrying the same op attempt de-synchronize.
        let lanes: Vec<Duration> = (0..4).map(|d| retry_budget(&cfg, base, d, 3, 1)).collect();
        assert!(
            lanes.windows(2).any(|w| w[0] != w[1]),
            "all lanes backed off identically: {lanes:?}"
        );
        // A different seed shifts the jitter.
        let reseeded = WatchdogConfig {
            jitter_seed: 42,
            ..cfg
        };
        assert_ne!(
            retry_budget(&cfg, base, 1, 3, 1),
            retry_budget(&reseeded, base, 1, 3, 1)
        );
    }

    #[test]
    fn prompt_message_passes_without_events() {
        let mut eps = channel_mesh::<u32>(2, [(0, 1)]);
        let mut rx = eps.pop().unwrap();
        let tx = eps.pop().unwrap();
        tx.send_to(1, key(0), 7);
        let wd = Watchdog::new(fast_cfg(), None);
        let mut events = Vec::new();
        let got = wd.recv(&mut rx, 1, &entry(0, 0), 0, key(0), &mut events);
        assert_eq!(got.unwrap(), 7);
        assert!(events.is_empty());
    }

    #[test]
    fn late_message_resolves_with_a_recorded_event() {
        let mut eps = channel_mesh::<u32>(2, [(0, 1)]);
        let mut rx = eps.pop().unwrap();
        let tx = eps.pop().unwrap();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(12));
            tx.send_to(1, key(0), 9);
        });
        let wd = Watchdog::new(fast_cfg(), None);
        let mut events = Vec::new();
        let got = wd.recv(&mut rx, 1, &entry(3, 0), 0, key(0), &mut events);
        sender.join().unwrap();
        assert_eq!(got.unwrap(), 9);
        assert_eq!(events.len(), 1);
        assert!(events[0].resolved && events[0].timeouts >= 1);
        assert_eq!(events[0].op_index, 3);
        assert!(!wd.poisoned(), "a resolved delay must not poison the run");
    }

    #[test]
    fn missing_message_aborts_and_poisons() {
        let mut eps = channel_mesh::<u32>(2, [(0, 1)]);
        let mut rx = eps.pop().unwrap();
        let _tx = eps.pop().unwrap(); // never sends
        let wd = Watchdog::new(fast_cfg(), None);
        let mut events = Vec::new();
        let started = Instant::now();
        let got = wd.recv(&mut rx, 1, &entry(0, 0), 0, key(0), &mut events);
        assert!(matches!(got, Err(true)));
        assert!(wd.poisoned());
        assert_eq!(events.len(), 1);
        assert!(!events[0].resolved);
        // 5 + 7.5 + 11.25 ms of budgets: well under a second.
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_peer_that_hung_up_is_given_up_at_once() {
        let mut eps = channel_mesh::<u32>(2, [(0, 1)]);
        let mut rx = eps.pop().unwrap();
        let tx = eps.pop().unwrap();
        tx.send_to(1, key(0), 7);
        drop(tx);
        let patient = WatchdogConfig {
            base_timeout: Duration::from_secs(60),
            ..fast_cfg()
        };
        let wd = Watchdog::new(patient, None);
        let mut events = Vec::new();
        // What the peer sent before it went is still delivered…
        let got = wd.recv(&mut rx, 1, &entry(0, 0), 0, key(0), &mut events);
        assert_eq!(got.unwrap(), 7);
        assert!(events.is_empty() && !wd.poisoned());
        // …what it never sent is not waited for.
        let started = Instant::now();
        let got = wd.recv(&mut rx, 1, &entry(4, 1), 0, key(1), &mut events);
        assert!(matches!(got, Err(true)));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(wd.poisoned());
        assert_eq!(events.len(), 1);
        assert!(!events[0].resolved);
        assert_eq!((events[0].op_index, events[0].timeouts), (4, 0));
    }

    #[test]
    fn poisoned_sleep_bails_early() {
        let wd = Watchdog::new(fast_cfg(), None);
        wd.poison();
        let started = Instant::now();
        assert!(!wd.sleep(Duration::from_secs(10)));
        assert!(started.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn deadlines_scale_the_expected_gaps() {
        use autopipe_exec::{OpTimes, Recorder, TraceSink};
        let programs = vec![vec![recv_op(0), recv_op(1)]];
        let mut r = Recorder::for_programs(&programs);
        r.record_run(
            0,
            &[
                OpTimes {
                    start: 0.0,
                    ready: 1.0,
                    end: 1.0,
                },
                OpTimes {
                    start: 1.0,
                    ready: 4.0,
                    end: 4.0,
                },
            ],
        );
        let tl = r.finish();
        let d = deadlines_from_timeline(&tl, 0.5, 2.0);
        assert_eq!(d.len(), 1);
        // Gaps 1.0 and 3.0, × 0.5 scale × 2.0 slack.
        assert_eq!(d[0][0], Duration::from_secs_f64(1.0));
        assert_eq!(d[0][1], Duration::from_secs_f64(3.0));
    }
}
