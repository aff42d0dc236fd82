//! Fault injection: a chaos adapter over any [`Wire`].
//!
//! The paper's client rides a vehicle and talks to the platform over a
//! cellular link — drops, duplicates, reordering, bit corruption and
//! outright outages are the normal case, not the exception. This module
//! makes those failures *first-class and reproducible*: [`ChaosWire`]
//! wraps any wire (a [`crate::client::LoopbackWire`] or a concurrent
//! [`crate::concurrent::Session`]) and perturbs traffic according to a
//! declarative [`FaultPlan`], driven by a seeded [`XorShiftRng`] and an
//! injected [`Clock`]. The same seed replays the same failure schedule
//! byte for byte, so every chaos test failure is a one-line repro.

use crate::client::Wire;
use crate::clock::Clock;
use crate::concurrent::TransportError;
use std::collections::VecDeque;

/// A small, fast, seedable PRNG (xorshift64*), implemented locally so the
/// chaos schedule never depends on an external crate's stream evolving.
///
/// Not cryptographic — it drives fault schedules and retry jitter, where
/// the only requirements are determinism and a decently mixed stream.
#[derive(Debug, Clone)]
pub struct XorShiftRng {
    state: u64,
}

impl XorShiftRng {
    /// Seeds the generator. A zero seed (which xorshift cannot escape) is
    /// remapped to a fixed odd constant.
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`, built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Returns `lo` when the
    /// range is empty or inverted.
    pub fn next_in_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A scripted total outage: every frame sent while the clock reads inside
/// `[from_ms, until_ms)` vanishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First millisecond of the outage (inclusive).
    pub from_ms: u64,
    /// First millisecond after the outage (exclusive).
    pub until_ms: u64,
}

impl Outage {
    /// `true` while the outage is in effect at time `now_ms`.
    pub fn contains(&self, now_ms: u64) -> bool {
        (self.from_ms..self.until_ms).contains(&now_ms)
    }
}

/// Declarative per-frame fault probabilities plus scripted outages.
///
/// Probabilities are independent per exchange; the fields default to 0, so
/// `FaultPlan { drop: 0.1, ..FaultPlan::default() }` reads like the fault
/// matrix it is. The timing constants are charged against the injected
/// [`Clock`], never against real wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability the request vanishes before reaching the server.
    pub drop: f64,
    /// Probability the reply is also delivered again on the *next*
    /// exchange (a retransmit duplicate).
    pub duplicate: f64,
    /// Probability the reply arrives too late for this exchange and is
    /// delivered on a later one instead (observable as a timeout now and a
    /// mismatched-sequence reply later).
    pub reorder: f64,
    /// Probability a frame gets one bit flipped in transit — applied
    /// independently to the request and the reply.
    pub corrupt: f64,
    /// Probability the reply is delayed by [`FaultPlan::DELAY_MS`] (still
    /// within the exchange).
    pub delay: f64,
    /// Probability the request reaches the server but the reply is lost
    /// (client-visible: identical to a drop; server-visible: work done).
    pub stall: f64,
    /// Scripted total outages, checked against the injected clock.
    pub outages: Vec<Outage>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            stall: 0.0,
            outages: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// Extra latency charged by a `delay` fault, in ms.
    pub const DELAY_MS: u64 = 20;
    /// Nominal round-trip latency charged on every completed exchange, ms.
    pub const BASE_RTT_MS: u64 = 5;
    /// How long the wire waits before declaring a lost frame timed out, ms
    /// — the clock advance charged by drop/stall/reorder/outage faults.
    pub const TIMEOUT_MS: u64 = 100;
}

/// Counters of every fault the wire actually injected. Deterministic for a
/// fixed seed, plan and traffic — the chaos tests assert two runs produce
/// identical stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Exchanges attempted through the chaos wire.
    pub exchanges: u64,
    /// Requests dropped before the server.
    pub dropped: u64,
    /// Requests served whose reply was then lost.
    pub stalled: u64,
    /// Replies queued for duplicate delivery.
    pub duplicated: u64,
    /// Replies displaced to a later exchange.
    pub reordered: u64,
    /// Requests bit-corrupted in transit.
    pub corrupted_requests: u64,
    /// Replies bit-corrupted in transit.
    pub corrupted_replies: u64,
    /// Replies delayed by the delay fault.
    pub delayed: u64,
    /// Frames swallowed by a scripted outage.
    pub outage_drops: u64,
    /// Out-of-date replies (duplicates/reordered leftovers) delivered in
    /// place of a fresh exchange.
    pub stale_deliveries: u64,
}

/// A fault-injecting adapter over any [`Wire`].
///
/// Composable: the inner wire can be a `LoopbackWire` (single-threaded
/// tests), a concurrent `Session` (full-stack chaos under contention), or
/// even another `ChaosWire`. All perturbations are driven by the seeded
/// RNG, and all time is charged to the injected clock.
#[derive(Debug)]
pub struct ChaosWire<W, C> {
    inner: W,
    plan: FaultPlan,
    rng: XorShiftRng,
    clock: C,
    stats: ChaosStats,
    /// Replies displaced by duplicate/reorder faults, delivered (stale)
    /// ahead of future exchanges.
    pending: VecDeque<Vec<u8>>,
    /// The reply buffer handed back to the caller; reused per exchange.
    scratch: Vec<u8>,
    /// Scratch for bit-corrupted requests.
    request_scratch: Vec<u8>,
    /// When set, every injected fault is logged to stderr — the replay aid
    /// behind the `CHAOS_VERBOSE` env var in the chaos suite.
    trace: bool,
}

impl<W: Wire, C: Clock> ChaosWire<W, C> {
    /// Wraps `inner` with the given plan, RNG seed and clock.
    pub fn new(inner: W, plan: FaultPlan, seed: u64, clock: C) -> Self {
        Self {
            inner,
            plan,
            rng: XorShiftRng::new(seed),
            clock,
            stats: ChaosStats::default(),
            pending: VecDeque::new(),
            scratch: Vec::new(),
            request_scratch: Vec::new(),
            trace: false,
        }
    }

    /// Enables per-fault stderr logging for failure replay.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Counters of the faults injected so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// The wrapped wire.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    fn trace_event(&self, event: &str) {
        if self.trace {
            eprintln!(
                "[chaos t={}ms x={}] {event}",
                self.clock.now_ms(),
                self.stats.exchanges
            );
        }
    }

    /// Flips one RNG-chosen bit of `buf` (no-op on an empty buffer).
    fn flip_one_bit(rng: &mut XorShiftRng, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let r = rng.next_u64();
        let byte = (r as usize) % buf.len();
        let bit = ((r >> 32) % 8) as u8;
        buf[byte] ^= 1 << bit;
    }
}

impl<W: Wire, C: Clock> Wire for ChaosWire<W, C> {
    fn exchange(&mut self, request: &[u8]) -> Result<&[u8], TransportError> {
        self.stats.exchanges += 1;
        let now = self.clock.now_ms();

        // Scripted outage: the frame vanishes, the client burns its
        // timeout waiting.
        if self.plan.outages.iter().any(|o| o.contains(now)) {
            self.stats.outage_drops += 1;
            self.trace_event("outage: frame swallowed");
            self.clock.sleep_ms(FaultPlan::TIMEOUT_MS);
            return Err(TransportError::TimedOut);
        }

        // A reply displaced by an earlier duplicate/reorder fault is
        // delivered before any new traffic — the wire re-delivering an old
        // frame. Sequence numbers are what let the client reject it.
        if let Some(stale) = self.pending.pop_front() {
            self.stats.stale_deliveries += 1;
            self.trace_event("delivering stale reply");
            self.scratch = stale;
            self.clock.sleep_ms(FaultPlan::BASE_RTT_MS);
            return Ok(&self.scratch);
        }

        // One roll per fault class, drawn in a fixed order every exchange,
        // so the schedule for a given seed is stable and replayable.
        let roll_drop = self.rng.next_f64();
        let roll_stall = self.rng.next_f64();
        let roll_corrupt_req = self.rng.next_f64();
        let roll_dup = self.rng.next_f64();
        let roll_reorder = self.rng.next_f64();
        let roll_corrupt_reply = self.rng.next_f64();
        let roll_delay = self.rng.next_f64();

        if roll_drop < self.plan.drop {
            self.stats.dropped += 1;
            self.trace_event("request dropped");
            self.clock.sleep_ms(FaultPlan::TIMEOUT_MS);
            return Err(TransportError::TimedOut);
        }

        let corrupt_request = roll_corrupt_req < self.plan.corrupt;
        let reply = if corrupt_request {
            self.stats.corrupted_requests += 1;
            self.request_scratch.clear();
            self.request_scratch.extend_from_slice(request);
            Self::flip_one_bit(&mut self.rng, &mut self.request_scratch);
            self.inner.exchange(&self.request_scratch)?
        } else {
            self.inner.exchange(request)?
        };

        if roll_stall < self.plan.stall {
            // The server did the work; the reply never made it back.
            self.stats.stalled += 1;
            self.trace_event("reply stalled past timeout");
            self.clock.sleep_ms(FaultPlan::TIMEOUT_MS);
            return Err(TransportError::TimedOut);
        }

        self.scratch.clear();
        self.scratch.extend_from_slice(reply);
        self.clock.sleep_ms(FaultPlan::BASE_RTT_MS);
        if corrupt_request {
            self.trace_event("request corrupted (one bit)");
        }

        if roll_dup < self.plan.duplicate {
            self.stats.duplicated += 1;
            self.trace_event("reply duplicated");
            self.pending.push_back(self.scratch.clone());
        }
        if roll_corrupt_reply < self.plan.corrupt {
            self.stats.corrupted_replies += 1;
            self.trace_event("reply corrupted (one bit)");
            Self::flip_one_bit(&mut self.rng, &mut self.scratch);
        }
        if roll_delay < self.plan.delay {
            self.stats.delayed += 1;
            self.trace_event("reply delayed");
            self.clock.sleep_ms(FaultPlan::DELAY_MS);
        }
        if roll_reorder < self.plan.reorder {
            // The reply exists but lands after the client gave up on this
            // exchange: park it for later, report a timeout now.
            self.stats.reordered += 1;
            self.trace_event("reply reordered past timeout");
            self.pending.push_back(std::mem::take(&mut self.scratch));
            self.clock.sleep_ms(FaultPlan::TIMEOUT_MS);
            return Err(TransportError::TimedOut);
        }

        Ok(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::clock::VirtualClock;

    /// A wire that echoes the request back as the reply.
    #[derive(Debug, Default)]
    struct EchoWire {
        reply: Vec<u8>,
        calls: u64,
    }

    impl Wire for EchoWire {
        fn exchange(&mut self, request: &[u8]) -> Result<&[u8], TransportError> {
            self.calls += 1;
            self.reply.clear();
            self.reply.extend_from_slice(request);
            Ok(&self.reply)
        }
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShiftRng::new(42);
        let mut b = XorShiftRng::new(42);
        for _ in 0..1_000 {
            let v = a.next_u64();
            assert_eq!(v, b.next_u64());
            assert_ne!(v, 0, "xorshift state collapsed");
        }
        let f = a.next_f64();
        assert!((0.0..1.0).contains(&f));
        // Zero seed must not produce the all-zero fixed point.
        assert_ne!(XorShiftRng::new(0).next_u64(), 0);
    }

    #[test]
    fn faultless_plan_is_transparent() {
        let clock = VirtualClock::new();
        let mut wire = ChaosWire::new(EchoWire::default(), FaultPlan::default(), 1, clock.clone());
        for i in 0..100u8 {
            let reply = wire.exchange(&[i, i + 1]).unwrap();
            assert_eq!(reply, [i, i + 1]);
        }
        let stats = wire.stats();
        assert_eq!(stats.exchanges, 100);
        assert_eq!(
            stats.dropped + stats.corrupted_replies + stats.duplicated,
            0
        );
        // Base RTT is still charged.
        assert_eq!(clock.now_ms(), 100 * FaultPlan::BASE_RTT_MS);
    }

    #[test]
    fn drop_fault_times_out_and_charges_timeout() {
        let clock = VirtualClock::new();
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::default()
        };
        let mut wire = ChaosWire::new(EchoWire::default(), plan, 7, clock.clone());
        assert_eq!(wire.exchange(&[1]), Err(TransportError::TimedOut));
        assert_eq!(clock.now_ms(), FaultPlan::TIMEOUT_MS);
        assert_eq!(wire.stats().dropped, 1);
        assert_eq!(
            wire.inner().calls,
            0,
            "dropped request must not reach the server"
        );
    }

    #[test]
    fn duplicate_fault_redelivers_the_old_reply() {
        let clock = VirtualClock::new();
        let plan = FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::default()
        };
        let mut wire = ChaosWire::new(EchoWire::default(), plan, 3, clock);
        let first = wire.exchange(&[0xAA]).unwrap().to_vec();
        assert_eq!(first, [0xAA]);
        // The next exchange gets the *old* reply, not an echo of the new
        // request.
        let second = wire.exchange(&[0xBB]).unwrap();
        assert_eq!(second, [0xAA]);
        assert_eq!(wire.stats().stale_deliveries, 1);
    }

    #[test]
    fn reorder_fault_times_out_then_delivers_late() {
        let clock = VirtualClock::new();
        let plan = FaultPlan {
            reorder: 1.0,
            ..FaultPlan::default()
        };
        let mut wire = ChaosWire::new(EchoWire::default(), plan, 5, clock);
        assert_eq!(wire.exchange(&[0x01]), Err(TransportError::TimedOut));
        // The displaced reply arrives in place of the next exchange's.
        let late = wire.exchange(&[0x02]).unwrap();
        assert_eq!(late, [0x01]);
    }

    #[test]
    fn corrupt_fault_flips_exactly_one_bit() {
        let clock = VirtualClock::new();
        let plan = FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::default()
        };
        let mut wire = ChaosWire::new(EchoWire::default(), plan, 11, clock);
        let original = [0u8; 16];
        let reply = wire.exchange(&original).unwrap();
        // Both directions got one flip; the echo wire reflects the request
        // corruption and the reply corruption stacks on top, so the total
        // differing bits must be 1 or 2 (2 flips can collide back to 0 on
        // the same bit — with a fixed seed this draw does not).
        let differing: u32 = reply
            .iter()
            .zip(original.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!((1..=2).contains(&differing), "{differing} bits differ");
        let stats = wire.stats();
        assert_eq!(stats.corrupted_requests, 1);
        assert_eq!(stats.corrupted_replies, 1);
    }

    #[test]
    fn outage_window_swallows_frames_until_it_ends() {
        let clock = VirtualClock::new();
        let plan = FaultPlan {
            outages: vec![Outage {
                from_ms: 0,
                until_ms: 250,
            }],
            ..FaultPlan::default()
        };
        let mut wire = ChaosWire::new(EchoWire::default(), plan, 1, clock.clone());
        // t=0 and t=100 are inside the outage; t=200 also; t=300 is past it.
        assert_eq!(wire.exchange(&[1]), Err(TransportError::TimedOut));
        assert_eq!(wire.exchange(&[1]), Err(TransportError::TimedOut));
        assert_eq!(wire.exchange(&[1]), Err(TransportError::TimedOut));
        assert_eq!(clock.now_ms(), 300);
        assert!(wire.exchange(&[1]).is_ok());
        assert_eq!(wire.stats().outage_drops, 3);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let clock = VirtualClock::new();
            let plan = FaultPlan {
                drop: 0.2,
                duplicate: 0.1,
                reorder: 0.1,
                corrupt: 0.1,
                delay: 0.1,
                stall: 0.05,
                ..FaultPlan::default()
            };
            let mut wire = ChaosWire::new(EchoWire::default(), plan, 1234, clock);
            let mut outcomes = Vec::new();
            for i in 0..500u16 {
                outcomes.push(wire.exchange(&i.to_le_bytes()).map(<[u8]>::to_vec));
            }
            (outcomes, wire.stats())
        };
        let (a_out, a_stats) = run();
        let (b_out, b_stats) = run();
        assert_eq!(a_out, b_out);
        assert_eq!(a_stats, b_stats);
        // Sanity: the plan actually fired faults.
        assert!(a_stats.dropped > 0 && a_stats.duplicated > 0);
    }
}
