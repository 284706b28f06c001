//! The discrete-event core of the simulator.
//!
//! The seed simulator applied each quorum access atomically at its arrival
//! instant and *derived* a latency afterwards; nothing could interleave.
//! This module provides the machinery for the real thing: every
//! client–server exchange is its own scheduled [`Event`], so many client
//! sessions are in flight at once, server state changes in message-delivery
//! order, and crash/recovery transitions from a
//! [`FailurePlan`](crate::failure::FailurePlan) take effect *between* the
//! probes of an ongoing operation.
//!
//! The events of one world pop from a deterministic
//! [`EventQueue`](crate::time::EventQueue); `FlightGauge` is the
//! sequential engine's time-weighted in-flight operation gauge.
//!
//! # Event vocabulary
//!
//! * [`Event::OpArrival`] — a client starts an operation: sample a probe
//!   set, send one message per probed server.
//! * [`Event::ProbeReply`] — the round trip to one server completes.  The
//!   server's behaviour is evaluated *now*, not at the operation's start:
//!   a server that crashed mid-flight simply fails to answer.
//! * [`Event::OpTimeout`] — the per-operation timer fires; the attempt is
//!   cut short (condense what arrived, or resample a fresh probe set).
//! * [`Event::RetryAttempt`] — an exponentially backed-off retry becomes
//!   due and starts its attempt on a fresh probe set.
//! * [`Event::FailureTransition`] — a scheduled crash or recovery flips a
//!   server's behaviour.
//! * [`Event::GossipRound`] — a periodic anti-entropy round fires: every
//!   correct server plans pushes of its freshest records to random peers
//!   (see [`DiffusionPolicy`](crate::runner::DiffusionPolicy)).
//! * [`Event::GossipPush`] — one server-to-server gossip message arrives
//!   at its receiver after its own latency draw, competing for simulated
//!   time with the foreground client probes.
//! * [`Event::GossipDigest`] / [`Event::GossipDelta`] — the two legs of a
//!   digest/delta anti-entropy exchange
//!   ([`GossipMode::DigestDelta`](crate::runner::GossipMode)): a per-key
//!   version summary travels out, and only the records its sender provably
//!   lacks travel back.

use crate::time::SimTime;
use pqs_core::universe::ServerId;

/// Identifier of one simulated client operation (its index in the generated
/// workload trace).
pub type OpId = u64;

/// Everything that can happen in the simulated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A client operation arrives and starts its first attempt.
    OpArrival {
        /// The operation.
        op: OpId,
    },
    /// The round trip of one probe completes at the client.
    ProbeReply {
        /// The operation the probe belongs to.
        op: OpId,
        /// Which attempt of the operation sent the probe; replies of
        /// abandoned attempts still touch the server but no longer feed the
        /// session.
        attempt: u32,
        /// The probed server.
        server: ServerId,
    },
    /// The per-attempt timeout fires.
    OpTimeout {
        /// The operation.
        op: OpId,
        /// The attempt the timer was armed for.
        attempt: u32,
    },
    /// A backed-off retry becomes due: the operation starts the given
    /// attempt on a fresh probe set.  Only scheduled when
    /// [`SimConfig::retry_backoff`](crate::runner::SimConfig::retry_backoff)
    /// is positive — with the default immediate-retry policy the next
    /// attempt starts inline and no such event exists.
    RetryAttempt {
        /// The operation.
        op: OpId,
        /// The attempt to start (the op's attempt counter at scheduling
        /// time; a stale event — e.g. after the op finished — is ignored).
        attempt: u32,
    },
    /// A scheduled crash (`crash == true`) or recovery of one server.
    FailureTransition {
        /// The server.
        server: ServerId,
        /// `true` for a crash, `false` for a recovery.
        crash: bool,
    },
    /// A scheduled membership transition: a joining server comes up
    /// correct with freshly reset record stores (it bootstraps through
    /// gossip); a leaving server goes dark like a crash.  When the
    /// schedule is non-empty the engines also recompute the probe margin
    /// online against the ε budget for the new cluster size.
    MembershipTransition {
        /// The server.
        server: ServerId,
        /// `true` for a join, `false` for a leave.
        join: bool,
    },
    /// A periodic write-diffusion round fires: the scheduler snapshots
    /// every correct server's stored records and turns them into
    /// individually scheduled [`Event::GossipPush`] messages.  Only
    /// scheduled when [`SimConfig::diffusion`](crate::runner::SimConfig::diffusion)
    /// carries a policy — with `None` no gossip event ever exists and the
    /// run is bit-identical to the diffusion-free engine.
    GossipRound {
        /// 1-based index of the round (round `r` fires at `r · period`).
        round: u64,
    },
    /// One server-to-server gossip push arrives at its receiver.  The
    /// payload (sender, receiver, variable, record) lives in the engine's
    /// pending-message slab ([`PendingSlab`]) under this slot; the
    /// receiver's behaviour is evaluated at delivery time, so a server that
    /// crashed while the message was in flight simply drops it.
    GossipPush {
        /// Slot of the pending push being delivered.
        push: u64,
    },
    /// A gossip *digest* — a per-key version summary of its sender's store —
    /// arrives at its receiver (digest/delta mode,
    /// [`GossipMode::DigestDelta`](crate::runner::GossipMode)).  The
    /// receiver, evaluated at delivery time, answers with a
    /// [`Event::GossipDelta`] carrying only the records the digest's sender
    /// provably lacks; crashed and Byzantine receivers never answer.
    GossipDigest {
        /// Slot of the pending digest being delivered (in the engine's
        /// [`PendingSlab`]; the digest's global id, used for cross-shard
        /// delta accounting, travels inside the slab entry).
        digest: u64,
    },
    /// A gossip *delta* — the records a digest's sender provably lacked —
    /// arrives back at that sender, which merges each record by freshest
    /// timestamp (behaviour evaluated at delivery time).
    GossipDelta {
        /// Slot of the pending delta being delivered.
        delta: u64,
    },
}

/// A reusable slot-indexed store for in-flight gossip payloads.
///
/// Gossip events carry a `u64` handle instead of their (heap-allocated)
/// payload so [`Event`] stays small and `Copy`.  The engines used to keep
/// these payloads in per-round `HashMap`s keyed by an ever-growing global
/// id — every message paid a hash, and the map's buckets churned every
/// round.  The slab replaces that with a plain `Vec<Option<T>>` plus a
/// free list: `insert` is a push or a free-slot reuse, `take` is an
/// indexed load, and the backing storage reaches the high-water mark of
/// in-flight messages once and is reused for the rest of the run.
///
/// Slot reuse is safe because every scheduled gossip event is delivered
/// exactly once: a slot is freed only by the `take` of its own delivery,
/// so no two in-flight messages ever share a slot.  Slots never influence
/// event ordering (the queue orders by time and insertion sequence), so
/// switching ids to slots is invisible to the simulated trajectory.
#[derive(Debug)]
pub struct PendingSlab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u64>,
}

impl<T> Default for PendingSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PendingSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        PendingSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value`, returning the slot to embed in its delivery event.
    pub fn insert(&mut self, value: T) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u64
            }
        }
    }

    /// Removes and returns the payload at `slot` (`None` if the slot is
    /// vacant or out of range), freeing the slot for reuse.
    pub fn take(&mut self, slot: u64) -> Option<T> {
        let value = self.slots.get_mut(slot as usize)?.take();
        if value.is_some() {
            self.free.push(slot);
        }
        value
    }

    /// Number of occupied slots (in-flight payloads).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Returns `true` if no payload is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The sequential engine's time-weighted in-flight operation gauge.
///
/// It integrates at **every popped event** ([`advance`](Self::advance)),
/// not only at transitions; the sharded engine instead rebuilds the gauge
/// from logged transitions at merge time, which rounds differently — each
/// family pins its own value to the bit.
#[derive(Debug, Default)]
pub(crate) struct FlightGauge {
    in_flight: u64,
    max_in_flight: u64,
    in_flight_area: f64,
    last_event_time: SimTime,
    /// Time of the most recent in-flight transition: the denominator of
    /// [`mean_in_flight`](Self::mean_in_flight).  Trailing no-op events
    /// (stale timeouts, far-future failure transitions popped after the
    /// workload drained) must not dilute the gauge.
    busy_until: SimTime,
}

impl FlightGauge {
    /// Advances the time-weighted integral to `now`, the time of the event
    /// just popped.
    pub(crate) fn advance(&mut self, now: SimTime) {
        if now > self.last_event_time {
            self.in_flight_area += self.in_flight as f64 * (now - self.last_event_time);
            self.last_event_time = now;
        }
    }

    /// Marks one client operation as having entered the system at `now`.
    pub(crate) fn op_started(&mut self, now: SimTime) {
        self.in_flight += 1;
        self.max_in_flight = self.max_in_flight.max(self.in_flight);
        self.busy_until = self.busy_until.max(now);
    }

    /// Marks one client operation as having left the system (completed or
    /// given up) at `now`.
    pub(crate) fn op_finished(&mut self, now: SimTime) {
        debug_assert!(self.in_flight > 0, "op_finished without matching start");
        self.in_flight = self.in_flight.saturating_sub(1);
        self.busy_until = self.busy_until.max(now);
    }

    /// Largest number of simultaneously in-flight operations observed.
    pub(crate) fn max_in_flight(&self) -> u64 {
        self.max_in_flight
    }

    /// Time-weighted mean number of in-flight operations over the span in
    /// which operations existed (0 before any time has passed).  Events
    /// popped after the last operation drained — stale timeouts, failure
    /// transitions scheduled beyond the workload — do not dilute the mean.
    pub(crate) fn mean_in_flight(&self) -> f64 {
        if self.busy_until <= 0.0 {
            0.0
        } else {
            self.in_flight_area / self.busy_until
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_gauge_is_time_weighted() {
        let mut g = FlightGauge::default();
        // t=1: one op enters. t=2: a second enters. t=4: both leave.
        g.advance(1.0);
        g.op_started(1.0);
        assert_eq!(g.in_flight, 1);
        g.advance(2.0);
        g.op_started(2.0);
        assert_eq!(g.max_in_flight(), 2);
        g.advance(4.0);
        g.op_finished(4.0);
        g.op_finished(4.0);
        assert_eq!(g.in_flight, 0);
        // Area: [0,1): 0, [1,2): 1, [2,4): 2 => 5 over 4 seconds.
        assert!((g.mean_in_flight() - 5.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn trailing_events_do_not_dilute_the_in_flight_mean() {
        let mut g = FlightGauge::default();
        g.advance(1.0);
        g.op_started(1.0);
        g.advance(3.0);
        g.op_finished(3.0);
        // A failure transition popped long after the workload drains (e.g.
        // a "never" crash wave) must not stretch the denominator.
        g.advance(1e6);
        // One op in flight over [1, 3), busy until t=3: mean = 2/3.
        assert!((g.mean_in_flight() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pending_slab_reuses_slots_without_aliasing() {
        let mut slab: PendingSlab<&str> = PendingSlab::new();
        assert!(slab.is_empty());
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.take(a), Some("a"));
        // A vacated or out-of-range slot yields nothing.
        assert_eq!(slab.take(a), None);
        assert_eq!(slab.take(999), None);
        // The freed slot is reused, but never while `b` is still in flight.
        let c = slab.insert("c");
        assert_eq!(c, a);
        assert_ne!(c, b);
        assert_eq!(slab.take(b), Some("b"));
        assert_eq!(slab.take(c), Some("c"));
        assert!(slab.is_empty());
    }

    #[test]
    fn empty_engine_reports_zeroes() {
        let g = FlightGauge::default();
        assert_eq!(g.mean_in_flight(), 0.0);
        assert_eq!(g.max_in_flight(), 0);
        assert_eq!(g.in_flight, 0);
    }
}
