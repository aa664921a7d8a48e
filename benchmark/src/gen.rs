//! Seeded input generators. Everything here is a pure function of the seed:
//! the program under test only ever sees what these produce.

use autopipe_exec::{FaultPlan, MembershipChange, MembershipFault, StageCrash};

/// SplitMix64: small, fast, and owned by the benchmark so the inputs do not
/// change when a crate's own RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

impl rand::RngCore for SplitMix {
    fn next_u64(&mut self) -> u64 {
        SplitMix::next_u64(self)
    }
}

// ---------------------------------------------------------------------------
// plan_serve request stream
// ---------------------------------------------------------------------------

/// Number of distinct (shape, drift) re-plan variants the stream draws from.
pub const VARIANT_POOL: usize = 4096;

/// Target request mix, in percent.
pub const HOT_PCT: f64 = 90.0;
pub const REPLAN_PCT: f64 = 8.0;
pub const FRESH_PCT: f64 = 2.0;

/// One request of the `plan_serve` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A repeat of hot-set shape `shape`.
    Hot { shape: u16 },
    /// A straggler re-plan: drift variant `variant` of the pool (its shape
    /// is `variant % n_shapes`, its ratios come from [`variant_ratios`]).
    Replan { variant: u16 },
    /// A shape nobody has asked for before: the `nth` fresh request.
    Fresh { nth: u32 },
}

/// Generate `n` requests over a hot set of `n_shapes` shapes. Fresh
/// requests are numbered from `fresh_from` so consecutive blocks of one
/// stream never repeat a "never-seen" shape.
pub fn request_stream(seed: u64, n: usize, n_shapes: usize, fresh_from: u32) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ 0x5E87_E5E2_0000_0001);
    let mut fresh = fresh_from;
    (0..n)
        .map(|_| {
            let roll = rng.unit() * 100.0;
            if roll < HOT_PCT {
                Request::Hot {
                    shape: rng.below(n_shapes) as u16,
                }
            } else if roll < HOT_PCT + REPLAN_PCT {
                Request::Replan {
                    variant: rng.below(VARIANT_POOL) as u16,
                }
            } else {
                let nth = fresh;
                fresh += 1;
                Request::Fresh { nth }
            }
        })
        .collect()
}

/// The drift-ratio vector of pool variant `variant` for a `p`-stage plan:
/// most stages on model, one to three of them 1.1–2.0× slow — what a
/// straggler monitor reports.
pub fn variant_ratios(seed: u64, variant: u16, p: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed ^ (0xD21F_7000_0000_0000 | variant as u64));
    let mut ratios = vec![1.0; p];
    for _ in 0..1 + rng.below(3) {
        ratios[rng.below(p)] = 1.1 + 0.9 * rng.unit();
    }
    ratios
}

// ---------------------------------------------------------------------------
// train_churn fault script
// ---------------------------------------------------------------------------

/// Steps one churn repetition trains (exactly-once).
pub const CHURN_STEPS: usize = 16;

/// What a churn script must make the run log, exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnExpectation {
    pub recoveries: usize,
    pub shrinks: usize,
    pub grows: usize,
    pub replans: usize,
    /// Steps trained below full width (between the shrink and the grow).
    pub degraded_steps: usize,
}

/// Steps a churn repetition trains after the heterogeneity re-plan.
const POST_REPLAN_STEPS: u64 = 5;

/// Build the churn script for one [`CHURN_STEPS`]-step repetition: a
/// restartable stage crash in the first iteration, one `Leave → Join` cycle
/// on device 1 four steps apart, and a 2× slowdown on device 0 once the
/// pipeline is back at full width. The crash op and the cycle's position move
/// with the seed; what the script costs does not:
///
/// * the crash always takes the last stage within its first four ops, when
///   its peer is still sending and so dies at once on the closed channel
///   (0.65 s per recovery measured) — a crash at op 5, or of the first
///   stage, finds the peer already blocked in a receive, which then sits out
///   ≈1.5 s of watchdog retries (2.2 s measured; op 4 goes either way);
/// * the slowdown always lands [`POST_REPLAN_STEPS`] steps before the end —
///   the re-plan it triggers skews the partition for a slowdown the runtime
///   does not actually suffer, so every step after it is slower.
pub fn churn_script(seed: u64) -> (FaultPlan, ChurnExpectation) {
    let mut rng = SplitMix::new(seed ^ 0xC4_0002);
    let leave = 2 + rng.below(3) as u64;
    let join = leave + 4;
    let slow = CHURN_STEPS as u64 - POST_REPLAN_STEPS;
    let mut plan = FaultPlan::with_seed(seed);
    plan.crashes.push(StageCrash {
        device: 1,
        at_op: rng.below(4),
    });
    plan.membership = vec![
        MembershipFault {
            device: 1,
            at_step: leave,
            change: MembershipChange::Leave,
        },
        MembershipFault {
            device: 1,
            at_step: join,
            change: MembershipChange::Join,
        },
        MembershipFault {
            device: 0,
            at_step: slow,
            change: MembershipChange::Slowdown { factor: 2.0 },
        },
    ];
    let expect = ChurnExpectation {
        recoveries: 1,
        shrinks: 1,
        grows: 1,
        replans: 1,
        // Membership events fire at the boundary after step `at_step`; the
        // rejoining device serves one quarantine beat before the grow.
        degraded_steps: (join - leave) as usize + 1,
    };
    (plan, expect)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stable byte encoding of a stream.
    fn bytes(stream: &[Request]) -> Vec<u8> {
        stream
            .iter()
            .flat_map(|r| {
                let (tag, v) = match *r {
                    Request::Hot { shape } => (0u8, shape as u32),
                    Request::Replan { variant } => (1, variant as u32),
                    Request::Fresh { nth } => (2, nth),
                };
                std::iter::once(tag).chain(v.to_le_bytes())
            })
            .collect()
    }

    #[test]
    fn request_stream_is_a_pure_function_of_the_seed() {
        let a = request_stream(11, 20_000, 18, 0);
        let b = request_stream(11, 20_000, 18, 0);
        let c = request_stream(12, 20_000, 18, 0);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn realised_mix_is_within_a_point_of_the_target() {
        for seed in [1u64, 2, 3, 99] {
            let s = request_stream(seed, 100_000, 18, 0);
            let pct = |f: fn(&Request) -> bool| {
                100.0 * s.iter().filter(|r| f(r)).count() as f64 / s.len() as f64
            };
            let hot = pct(|r| matches!(r, Request::Hot { .. }));
            let replan = pct(|r| matches!(r, Request::Replan { .. }));
            let fresh = pct(|r| matches!(r, Request::Fresh { .. }));
            assert!((hot - HOT_PCT).abs() < 1.0, "hot {hot}");
            assert!((replan - REPLAN_PCT).abs() < 1.0, "replan {replan}");
            assert!((fresh - FRESH_PCT).abs() < 1.0, "fresh {fresh}");
        }
    }

    #[test]
    fn fresh_requests_are_numbered_without_repeats() {
        let s = request_stream(5, 50_000, 18, 40);
        let nths: Vec<u32> = s
            .iter()
            .filter_map(|r| match r {
                Request::Fresh { nth } => Some(*nth),
                _ => None,
            })
            .collect();
        assert!(nths.len() > 500);
        assert!(nths.iter().enumerate().all(|(i, &n)| n == 40 + i as u32));
    }

    #[test]
    fn variant_ratios_are_deterministic_and_well_formed() {
        for v in [0u16, 1, 4095] {
            for p in [4usize, 8, 16] {
                let r = variant_ratios(7, v, p);
                assert_eq!(r, variant_ratios(7, v, p));
                assert_eq!(r.len(), p);
                assert!(r.iter().all(|&x| (1.0..=2.0).contains(&x)));
                assert!(r.iter().any(|&x| x > 1.0));
            }
        }
        assert_ne!(variant_ratios(7, 3, 8), variant_ratios(8, 3, 8));
    }

    #[test]
    fn churn_script_is_a_pure_function_of_the_seed() {
        let (a, ea) = churn_script(21);
        let (b, eb) = churn_script(21);
        assert_eq!(a, b);
        assert_eq!(ea, eb);
        assert!((0..40u64).any(|s| churn_script(s).0 != a));
        for seed in 0..200u64 {
            let (plan, expect) = churn_script(seed);
            assert_eq!(plan.crashes.len(), 1);
            assert_eq!(plan.membership.len(), 3);
            let steps: Vec<u64> = plan.membership.iter().map(|m| m.at_step).collect();
            // Leave, join four steps later, and the slowdown at a fixed
            // step after the pipeline has grown back.
            assert_eq!(steps[1], steps[0] + 4, "seed {seed}");
            assert!(steps[1] + 2 <= steps[2], "seed {seed}: {steps:?}");
            assert_eq!(steps[2], CHURN_STEPS as u64 - POST_REPLAN_STEPS);
            assert_eq!(expect.degraded_steps, 5);
        }
    }

    #[test]
    fn splitmix_is_stable() {
        // Pinned: the committed baseline's inputs depend on these bits.
        let mut r = SplitMix::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }
}
