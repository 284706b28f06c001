//! The engine core: one event world that runs the client operation
//! lifecycle for the variables it owns.
//!
//! Both engines are built from [`World`]s.  The sequential engine
//! (`num_shards = 1`) drains one world over the whole key space and plans
//! its own gossip rounds (see [`crate::runner`]); the sharded engine (see
//! [`crate::parallel`]) partitions the key space by
//! `variable % num_shards` and drains one world per shard between spine
//! barriers — no locks, no channels, no shared mutable state.  A world
//! owns a full event queue, a full replica-cluster copy and the per-key
//! client state of its variables, and handles every event but the gossip
//! round: arrivals, probe replies (with partition gating and the adaptive
//! sleeper flip), timeouts, retries, failure and membership transitions,
//! and gossip push, digest and delta deliveries.
//!
//! Two things differ between the engines, both chosen by `num_shards`:
//!
//! * **The RNG source** ([`Streams`]).  The sequential world continues the
//!   main stream after trace derivation; a shard gives every variable its
//!   **own** ChaCha8 stream seeded by [`key_stream_seed`], so a variable's
//!   trajectory is a function of the seed and its own event history alone
//!   — the property that makes the merged report bit-identical across all
//!   shard counts ≥ 2 and all thread counts.
//! * **The metrics sink** ([`Sink`]).  The sequential world records
//!   latencies and the in-flight gauge straight into its report; a shard
//!   logs completions and flight transitions for the canonical replay of
//!   [`merge_shard_reports`](crate::metrics::merge_shard_reports).

use crate::event::{Event, FlightGauge, OpId, PendingSlab};
use crate::failure::{ByzantineStrategy, FailurePlan};
use crate::metrics::{
    CompletionRecord, FlightTransition, ShardAccumulator, SimReport, VariableReport,
};
use crate::runner::{ProtocolKind, SimConfig, Simulation};
use crate::time::{EventQueue, SimTime};
use crate::workload::{OpKind, Operation};
use pqs_core::system::QuorumSystem;
use pqs_core::universe::ServerId;
use pqs_math::plan::{smallest_u64_where, timeout_probability, tolerance};
use pqs_protocols::cluster::Cluster;
use pqs_protocols::crypto::KeyRegistry;
use pqs_protocols::diffusion;
use pqs_protocols::register::session::{ReadSession, WriteSession};
use pqs_protocols::register::{RegisterFlavor, RegisterMap, WriteRecord};
use pqs_protocols::server::{Behavior, VariableId};
use pqs_protocols::value::Value;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Seed of variable `var`'s private RNG stream: a splitmix64-style mix of
/// the run seed and the variable id, so neighbouring variables get
/// statistically independent streams and the mapping is stable across
/// shard counts (it depends on the *variable*, never on the shard).
pub(crate) fn key_stream_seed(seed: u64, var: VariableId) -> u64 {
    let mut z = seed ^ var.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where a world's randomness comes from.
#[derive(Debug)]
pub(crate) enum Streams {
    /// The sequential engine: the main stream, continued after trace
    /// derivation, feeds every probe-set and probe-latency draw; the
    /// gossip stream plans rounds and draws each answering delta's latency
    /// *lazily*, at digest delivery and only for a non-empty delta.
    Main {
        main: ChaCha8Rng,
        gossip: ChaCha8Rng,
    },
    /// The sharded engine: one private stream per variable.  Gossip draws
    /// live on the spine.
    PerKey(Vec<ChaCha8Rng>),
}

impl Streams {
    /// One [`key_stream_seed`] stream per variable.
    pub(crate) fn per_key(seed: u64, keys: u64) -> Self {
        Streams::PerKey(
            (0..keys)
                .map(|v| ChaCha8Rng::seed_from_u64(key_stream_seed(seed, v)))
                .collect(),
        )
    }
}

/// Where a world's order-sensitive metrics go.
#[derive(Debug)]
enum Sink {
    /// The sequential engine: latencies go straight into the report, the
    /// in-flight gauge integrates at every popped event, and every popped
    /// event counts into `events_processed`.
    Direct(FlightGauge),
    /// The sharded engine: completions and flight transitions are logged
    /// for the merge's canonical replay, and only per-key events count
    /// (the spine counts its own).
    Log {
        completions: Vec<CompletionRecord>,
        transitions: Vec<FlightTransition>,
    },
}

/// How a digest's answering delta is timed and counted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeltaLeg {
    /// A digest planned by the sequential engine: its latency is drawn from
    /// the gossip stream at delivery, and the digest and its delta each
    /// count here as one message.
    Lazy,
    /// A sub-digest of spine digest `id`: the spine pre-drew the delta's
    /// latency (so the gossip stream never depends on shard outcomes) and
    /// counts the digest; the shard records `id` so a delta spread over
    /// several shards counts once.
    Spine { id: u64, rtt: SimTime },
}

/// A digest waiting for its delivery event.
#[derive(Debug)]
struct PendingDigest {
    digest: diffusion::GossipDigest,
    leg: DeltaLeg,
}

/// One gossip round's messages bound for a single world, bulk-scheduled by
/// [`World::schedule_round_batch`].  The buffers are drained each round and
/// keep their capacity, so steady-state routing allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RoundBatch {
    /// `(delivery time, push)` in plan order.
    pub(crate) pushes: Vec<(SimTime, diffusion::GossipPush)>,
    /// `(delivery time, digest, delta leg)` in plan order.
    pub(crate) digests: Vec<(SimTime, diffusion::GossipDigest, DeltaLeg)>,
}

/// Record of a write operation used for staleness accounting.  `end` stays
/// `+∞` while the write is in flight, so overlapping reads classify as
/// concurrent.
#[derive(Debug, Clone, Copy)]
struct WriteWindow {
    start: SimTime,
    end: SimTime,
    sequence: u64,
    failed: bool,
}

/// The write windows of one variable, pruned as simulated time advances so
/// the per-read staleness checks scan only windows that can still matter —
/// without pruning the event loop would be O(reads × writes), quadratic in
/// run duration.  Staleness is a per-variable property (a write of key 3
/// cannot make a read of key 5 stale), so there is one log per key.
#[derive(Debug, Default)]
struct WriteLog {
    windows: Vec<WriteWindow>,
    /// Windows before this index are archived: they ended at or before
    /// every start time a still-unfinished operation can have, so they can
    /// never again classify as concurrent; their freshest sequence is kept
    /// in `archived_max_seq`.
    frontier: usize,
    archived_max_seq: Option<u64>,
}

impl WriteLog {
    /// Opens an in-flight window (end `+∞`); returns its handle.
    fn open(&mut self, start: SimTime, sequence: u64) -> usize {
        self.windows.push(WriteWindow {
            start,
            end: f64::INFINITY,
            sequence,
            failed: false,
        });
        self.windows.len() - 1
    }

    /// Marks a write completed at `end`.
    fn close(&mut self, handle: usize, end: SimTime) {
        self.windows[handle].end = end;
    }

    /// Marks a write failed (stored nowhere): excluded from accounting.
    fn fail(&mut self, handle: usize, end: SimTime) {
        self.windows[handle].end = end;
        self.windows[handle].failed = true;
    }

    /// Archives every leading window that ended at or before `horizon`
    /// (the earliest start time any in-flight or future operation can
    /// have).  Amortised O(1) per write over the run.
    fn advance(&mut self, horizon: SimTime) {
        while let Some(w) = self.windows.get(self.frontier) {
            if w.end > horizon {
                break;
            }
            if !w.failed {
                self.archived_max_seq = Some(match self.archived_max_seq {
                    Some(m) => m.max(w.sequence),
                    None => w.sequence,
                });
            }
            self.frontier += 1;
        }
    }

    /// Whether any (non-failed) write window overlaps the read interval
    /// `(start, end)` — archived windows cannot, by construction.
    fn concurrent_with(&self, start: SimTime, end: SimTime) -> bool {
        self.windows[self.frontier..]
            .iter()
            .any(|w| !w.failed && w.start < end && w.end > start)
    }

    /// Sequence number of the freshest write completed before `start`.
    fn latest_completed_before(&self, start: SimTime) -> Option<u64> {
        let recent = self.windows[self.frontier..]
            .iter()
            .filter(|w| !w.failed && w.end <= start)
            .map(|w| w.sequence)
            .max();
        match (self.archived_max_seq, recent) {
            (Some(a), Some(r)) => Some(a.max(r)),
            (a, r) => a.or(r),
        }
    }
}

/// What one in-flight operation sends to servers and how it tracks replies.
/// The write record is plain or signed according to the protocol flavor
/// ([`WriteRecord`]), so one variant covers all three protocols.
#[derive(Debug)]
enum OpSession {
    Read(ReadSession),
    Write(WriteRecord, WriteSession),
}

/// Book-keeping for one client operation across its attempts.
#[derive(Debug)]
struct OpState {
    kind: OpKind,
    /// The key the operation targets.
    variable: VariableId,
    start: SimTime,
    attempt: u32,
    outstanding: usize,
    done: bool,
    session: Option<OpSession>,
    /// The value a write pushes: its variable's write sequence number,
    /// assigned at arrival (reads leave it 0).
    sequence: u64,
    /// Handle into the variable's write log (writes only).
    window: Option<usize>,
}

/// One world's complete simulation state.
#[derive(Debug)]
pub(crate) struct World<'a, S: QuorumSystem + ?Sized> {
    config: SimConfig,
    queue: EventQueue<Event>,
    /// The world's replica-cluster copy.  Per-key server records live only
    /// on the key's owning world; failure and membership transitions are
    /// replayed in every world so behaviour timelines agree everywhere.
    pub(crate) cluster: Cluster,
    registers: RegisterMap<'a, S>,
    /// Compact op table: one entry per *owned* op, in arrival order.  A
    /// shard never inspects other shards' op states, so a full-size table
    /// would cost `num_shards×` the memory and cold-page time for nothing.
    states: Vec<OpState>,
    /// Global op id → index into `states` (meaningful for owned ops only).
    local: Vec<OpId>,
    writes: Vec<WriteLog>,
    /// Per-variable write sequence counters (authoritative for owned
    /// variables; gossip planning reads them for the digest key policies).
    pub(crate) sequences: Vec<u64>,
    /// Per-variable latest write arrival time (authoritative for owned
    /// variables).
    pub(crate) last_write_at: Vec<SimTime>,
    pub(crate) streams: Streams,
    sink: Sink,
    /// Order-free counters and the owned per-variable rows.
    report: SimReport,
    /// Events counted into `events_processed` (see [`Sink`]).
    events: u64,
    pending_pushes: PendingSlab<diffusion::GossipPush>,
    pending_digests: PendingSlab<PendingDigest>,
    /// Answering deltas in flight, each with its spine digest id (`None`
    /// for sequential digests).
    pending_deltas: PendingSlab<(Option<u64>, diffusion::GossipDelta)>,
    /// Spine digest ids this world answered with a non-empty delta; the
    /// spine counts the union as delta *events* (a digest's delta is one
    /// message, however many shards contribute records to it).
    pub(crate) deltas_sent: BTreeSet<u64>,
    /// Spine digest ids whose delta delivery a partition window blocked;
    /// the spine counts the union once per id.
    pub(crate) deltas_blocked: BTreeSet<u64>,
    /// Scenario state consulted at delivery time: the partition windows
    /// and adversary strategy.  Crash, Byzantine and membership entries are
    /// applied or seeded at construction and left empty here.
    plan: FailurePlan,
    /// Present-server mask for the membership-churn margin recompute
    /// (empty when the membership schedule is — churn-free runs never
    /// touch the probe margin).
    present: Vec<bool>,
    /// Count of `true` entries in `present`.
    present_count: u64,
    /// Universe size, for the margin recompute.
    universe_n: u64,
    /// The system's minimum quorum size, for the margin recompute.
    min_quorum: u64,
    /// `(server index, variable)` pairs whose stored record may have
    /// changed since the last spine barrier — the write-probe, push and
    /// delta delivery sites append here.  `None` unless a spine reads
    /// them (a sharded run with diffusion).  Marking is conservative (a
    /// write probe to a crashed server changes nothing) but
    /// store-if-fresher is monotone, so re-syncing an unchanged record is a
    /// no-op and the incremental spine sync stays bit-identical to a full
    /// resync.
    dirty: Option<Vec<(u32, VariableId)>>,
    oldest_active: usize,
}

impl<'a, S: QuorumSystem + ?Sized> World<'a, S> {
    /// Builds world `shard` of `sim` (shard 0 of 1 for the sequential
    /// engine): seeds the owned arrivals (in op order) and the full crash
    /// and membership schedules.
    pub(crate) fn new(
        sim: &Simulation<'a, S>,
        ops: &[Operation],
        plan: &FailurePlan,
        shard: u64,
        streams: Streams,
    ) -> Self {
        let config = sim.config;
        let num_shards = config.num_shards as u64;
        let mut registry = KeyRegistry::new();
        let signing_key = registry.register(1, config.seed ^ 0xabcdef);
        let flavor = match sim.kind {
            ProtocolKind::Safe => RegisterFlavor::Safe,
            ProtocolKind::Dissemination => RegisterFlavor::Dissemination {
                key: signing_key,
                registry: registry.clone(),
            },
            ProtocolKind::Masking { threshold } => RegisterFlavor::Masking { threshold },
        };
        let registers =
            RegisterMap::new(sim.system, flavor, 1).with_probe_margin(config.probe_margin as usize);

        let mut queue = EventQueue::new();
        let owned = |op: &Operation| op.variable % num_shards == shard;
        let mut local = vec![0 as OpId; ops.len()];
        let mut states = Vec::with_capacity(ops.iter().filter(|op| owned(op)).count());
        for (i, op) in ops.iter().enumerate() {
            if owned(op) {
                local[i] = states.len() as OpId;
                queue.schedule(op.at, Event::OpArrival { op: i as OpId });
                states.push(OpState {
                    kind: op.kind,
                    variable: op.variable,
                    start: op.at,
                    attempt: 0,
                    outstanding: 0,
                    done: false,
                    session: None,
                    sequence: 0,
                    window: None,
                });
            }
        }
        for transition in &plan.crashes {
            queue.schedule(
                transition.at,
                Event::FailureTransition {
                    server: transition.server,
                    crash: transition.crash,
                },
            );
        }
        for membership in &plan.memberships {
            queue.schedule(
                membership.at,
                Event::MembershipTransition {
                    server: membership.server,
                    join: membership.join,
                },
            );
        }
        let universe_n = sim.system.universe().size() as u64;
        let mut present: Vec<bool> = Vec::new();
        let mut present_count = 0u64;
        if !plan.memberships.is_empty() {
            present = vec![true; universe_n as usize];
            for absent in plan.initially_absent() {
                present[absent.index() as usize] = false;
            }
            present_count = present.iter().filter(|&&p| p).count() as u64;
        }

        let nvars = config.keyspace.keys as usize;
        let report = SimReport {
            per_variable: (0..nvars)
                .map(|i| VariableReport {
                    variable: i as VariableId,
                    ..VariableReport::default()
                })
                .collect(),
            // Sized to the widest partition window upfront so the
            // per-component attribution in `finalize` can index directly.
            per_component_stale_reads: vec![
                0;
                plan.partitions
                    .iter()
                    .map(|w| w.components as usize)
                    .max()
                    .unwrap_or(0)
            ],
            ..SimReport::default()
        };
        let sharded = num_shards > 1;
        World {
            config,
            queue,
            cluster: sim.initial_cluster(plan),
            registers,
            states,
            local,
            writes: (0..nvars).map(|_| WriteLog::default()).collect(),
            sequences: vec![0; nvars],
            last_write_at: vec![f64::NEG_INFINITY; nvars],
            streams,
            sink: if sharded {
                Sink::Log {
                    completions: Vec::new(),
                    transitions: Vec::new(),
                }
            } else {
                Sink::Direct(FlightGauge::default())
            },
            report,
            events: 0,
            pending_pushes: PendingSlab::new(),
            pending_digests: PendingSlab::new(),
            pending_deltas: PendingSlab::new(),
            deltas_sent: BTreeSet::new(),
            deltas_blocked: BTreeSet::new(),
            plan: FailurePlan {
                partitions: plan.partitions.clone(),
                strategy: plan.strategy.clone(),
                ..FailurePlan::none()
            },
            present,
            present_count,
            universe_n,
            min_quorum: sim.system.min_quorum_size() as u64,
            dirty: (sharded && config.diffusion.is_some()).then(Vec::new),
            oldest_active: 0,
        }
    }

    /// Schedules gossip round `round` at `at` (sequential engine only: the
    /// spine plans the sharded engine's rounds at its barriers).
    pub(crate) fn schedule_gossip_round(&mut self, at: SimTime, round: u64) {
        self.queue.schedule(at, Event::GossipRound { round });
    }

    /// Drains the queue up to (strictly before) `barrier`, or completely
    /// with `None`, and stops early at a gossip round, returning its time
    /// and index for the caller to plan.  Events *at* the barrier belong
    /// to the next window: the spine's own work at a barrier time (crash
    /// application, round planning) happens before them, matching the
    /// sequential engine's FIFO order in which upfront-seeded transitions
    /// and round events precede same-time foreground events scheduled
    /// later.
    pub(crate) fn drain_until(&mut self, barrier: Option<SimTime>) -> Option<(SimTime, u64)> {
        loop {
            if let Some(b) = barrier {
                if self.queue.peek_time().is_none_or(|next| next >= b) {
                    return None;
                }
            }
            let (t, event) = self.queue.pop()?;
            match &mut self.sink {
                Sink::Direct(gauge) => {
                    gauge.advance(self.queue.now());
                    self.events += 1;
                }
                Sink::Log { .. } => {
                    if matches!(
                        event,
                        Event::OpArrival { .. }
                            | Event::ProbeReply { .. }
                            | Event::OpTimeout { .. }
                            | Event::RetryAttempt { .. }
                            | Event::GossipPush { .. }
                    ) {
                        self.events += 1;
                    }
                }
            }
            if let Event::GossipRound { round } = event {
                return Some((t, round));
            }
            self.handle(t, event);
        }
    }

    /// Bulk-schedules one planned round of gossip: payloads go into the
    /// pending slabs and delivery events are inserted in ascending-time
    /// order (an O(1) append each, whichever queue backend serves).
    ///
    /// Determinism: the queue pops by `(time, insertion sequence)` and the
    /// sort is **stable**, so equal-time messages keep their plan order —
    /// the pop order is bit-identical to unsorted per-message scheduling.
    /// The batch buffers are drained with capacity kept for the next round.
    pub(crate) fn schedule_round_batch(&mut self, batch: &mut RoundBatch) {
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN draw
        // must not scramble the sort before `schedule`'s validation
        // rejects it.
        batch.pushes.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (at, push) in batch.pushes.drain(..) {
            let slot = self.pending_pushes.insert(push);
            self.queue.schedule(at, Event::GossipPush { push: slot });
        }
        batch.digests.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (at, digest, leg) in batch.digests.drain(..) {
            let slot = self.pending_digests.insert(PendingDigest { digest, leg });
            self.queue
                .schedule(at, Event::GossipDigest { digest: slot });
        }
    }

    /// Applies this world's record changes since the last barrier to the
    /// spine's planning cluster and clears the dirty list.
    ///
    /// The list is sorted and deduplicated first (a hot key can be marked
    /// many times per window); each surviving `(server, variable)` pair
    /// re-stores the world's current record into the spine.  Because
    /// stores are strictly-fresher-wins and world records are monotone in
    /// time, replaying only the dirty pairs leaves the spine bit-identical
    /// to a from-scratch full resync — an invariant the debug builds check
    /// at every barrier and the property suite exercises under random
    /// interleavings.
    pub(crate) fn sync_dirty_into(&mut self, spine: &mut Cluster, signed: bool) {
        let dirty = self
            .dirty
            .as_mut()
            .expect("a world synced by a spine records its dirty pairs");
        dirty.sort_unstable();
        dirty.dedup();
        for &(server, var) in dirty.iter() {
            let id = ServerId::new(server);
            let src = self.cluster.server(id);
            if signed {
                spine
                    .server_mut(id)
                    .store_signed_if_fresher(var, src.stored_signed(var));
            } else {
                spine
                    .server_mut(id)
                    .store_plain_if_fresher(var, src.stored_plain(var));
            }
        }
        dirty.clear();
    }

    /// Finishes a sequential world: its report with the gauge, the event
    /// count and the cluster-side tallies stamped in.
    pub(crate) fn into_report(mut self) -> SimReport {
        let Sink::Direct(gauge) = &self.sink else {
            unreachable!("only the sequential world records straight into its report")
        };
        self.report.events_processed = self.events;
        self.report.max_in_flight = gauge.max_in_flight();
        self.report.mean_in_flight = gauge.mean_in_flight();
        self.report.per_server_accesses = self.cluster.access_counts().to_vec();
        self.report.total_operations = self.cluster.total_accesses();
        self.report
    }

    /// Finishes a shard: stamps the cluster-side tallies into the report
    /// and releases the accumulator for merging.
    pub(crate) fn into_accumulator(mut self) -> ShardAccumulator {
        let Sink::Log {
            completions,
            transitions,
        } = self.sink
        else {
            unreachable!("only shards log completions for the merge")
        };
        self.report.per_server_accesses = self.cluster.access_counts().to_vec();
        self.report.total_operations = self.cluster.total_accesses();
        ShardAccumulator {
            report: self.report,
            completions,
            transitions,
            logical_events: self.events,
        }
    }

    fn mark_dirty(&mut self, server: ServerId, var: VariableId) {
        if let Some(dirty) = self.dirty.as_mut() {
            dirty.push((server.index(), var));
        }
    }

    /// An operation entered (`start`) or left the system.
    fn note_flight(&mut self, op: OpId, now: SimTime, start: bool) {
        match &mut self.sink {
            Sink::Direct(gauge) if start => gauge.op_started(now),
            Sink::Direct(gauge) => gauge.op_finished(now),
            Sink::Log { transitions, .. } => transitions.push(FlightTransition {
                time: now,
                op,
                start,
            }),
        }
    }

    /// Processes one event other than a gossip round.
    fn handle(&mut self, t: SimTime, event: Event) {
        match event {
            Event::OpArrival { op } => {
                self.note_flight(op, t, true);
                let idx = self.local[op as usize] as usize;
                // The op table holds owned ops in arrival order, so the
                // first not-done entry bounds the earliest start of any
                // unfinished op this world's write logs care about
                // (staleness is per-variable and variables never cross
                // shards).
                while self.oldest_active < self.states.len() && self.states[self.oldest_active].done
                {
                    self.oldest_active += 1;
                }
                let horizon = self.states[self.oldest_active.min(idx)].start;
                let var = self.states[idx].variable as usize;
                self.writes[var].advance(horizon);
                if self.states[idx].kind == OpKind::Write {
                    self.sequences[var] += 1;
                    self.states[idx].sequence = self.sequences[var];
                    self.last_write_at[var] = t;
                    let handle = self.writes[var].open(t, self.sequences[var]);
                    self.states[idx].window = Some(handle);
                }
                self.start_attempt(op, t);
            }
            Event::ProbeReply {
                op,
                attempt,
                server,
            } => {
                let idx = self.local[op as usize] as usize;
                let variable = self.states[idx].variable;
                let fed = if self.plan.blocks_probe(t, variable, server) {
                    // The message never crossed the partition: no
                    // server-side effect, and the client sees one more
                    // silent server (exactly like a crashed replier).
                    self.report.dropped_probes += 1;
                    !self.states[idx].done && self.states[idx].attempt == attempt
                } else {
                    if self.states[idx].kind == OpKind::Write {
                        // The probe's server-side store may freshen this
                        // record; non-correct receivers store nothing, but
                        // the over-mark is harmless — see `dirty`.
                        self.mark_dirty(server, variable);
                    }
                    // An adaptive sleeper answers exactly this probe as a
                    // stale replier when its foreground predicate fires;
                    // the behavior swap is scoped to the one delivery, so
                    // the event flow (and every RNG stream) matches the
                    // same-seed static run.
                    let flip = !matches!(self.plan.strategy, ByzantineStrategy::Static)
                        && self.cluster.server(server).behavior() == Behavior::Correct
                        && strategy_fires(
                            &self.plan.strategy,
                            server,
                            variable,
                            t,
                            &self.sequences,
                            &self.last_write_at,
                        );
                    if flip {
                        self.cluster.set_behavior(server, Behavior::ByzantineStale);
                        self.report.adaptive_activations += 1;
                    }
                    // The probe's server-side effect happens regardless of
                    // whether the client still cares: the message was sent.
                    let fed = deliver_probe::<S>(
                        &mut self.states[idx],
                        server,
                        &mut self.cluster,
                        attempt,
                    );
                    if flip {
                        self.cluster.set_behavior(server, Behavior::Correct);
                    }
                    fed
                };
                if fed {
                    let state = &mut self.states[idx];
                    state.outstanding -= 1;
                    let complete = match state.session.as_ref() {
                        Some(OpSession::Read(s)) => s.is_complete(),
                        Some(OpSession::Write(_, s)) => s.is_complete(),
                        None => false,
                    };
                    if complete {
                        self.finalize(op, t);
                    } else if state.outstanding == 0 {
                        self.end_attempt(op, t);
                    }
                }
            }
            Event::OpTimeout { op, attempt } => {
                let idx = self.local[op as usize] as usize;
                if !self.states[idx].done && self.states[idx].attempt == attempt {
                    let var = self.states[idx].variable as usize;
                    self.report.timed_out_attempts += 1;
                    self.report.per_variable[var].timed_out_attempts += 1;
                    self.end_attempt(op, t);
                }
            }
            Event::RetryAttempt { op, attempt } => {
                let idx = self.local[op as usize] as usize;
                // Stale retry events (the op finished meanwhile, or a
                // newer attempt superseded this one) are ignored.
                if !self.states[idx].done && self.states[idx].attempt == attempt {
                    self.start_attempt(op, t);
                }
            }
            Event::FailureTransition { server, crash } => {
                let behavior = if crash {
                    Behavior::Crashed
                } else {
                    Behavior::Correct
                };
                self.cluster.set_behavior(server, behavior);
            }
            Event::MembershipTransition { server, join } => {
                // A joiner comes up correct with reset stores, a leaver
                // goes dark, and the probe margin is recomputed online
                // against the ε budget — pure arithmetic, so every shard
                // lands on the same margin at the same simulated time.
                let si = server.index() as usize;
                if join {
                    self.cluster.join_server(server, self.config.keyspace.keys);
                    if !self.present[si] {
                        self.present[si] = true;
                        self.present_count += 1;
                    }
                } else {
                    self.cluster.set_behavior(server, Behavior::Crashed);
                    if self.present[si] {
                        self.present[si] = false;
                        self.present_count -= 1;
                    }
                }
                self.registers.set_probe_margin(churn_probe_margin(
                    self.config.probe_margin as u64,
                    self.universe_n,
                    self.min_quorum,
                    self.present_count,
                ));
            }
            Event::GossipRound { .. } => {
                unreachable!("gossip rounds are returned to the driver by `drain_until`")
            }
            Event::GossipPush { push } => {
                let Some(p) = self.pending_pushes.take(push) else {
                    return;
                };
                // Partitions gate gossip at delivery time only, so planning
                // (and the gossip RNG stream) is untouched.  A push is one
                // message in one world, so the counter sums exactly.
                if self.plan.blocks_link(t, p.from, p.to) {
                    self.report.partition_blocked_gossip += 1;
                    return;
                }
                let var = p.variable as usize;
                self.report.gossip_pushes += 1;
                self.report.per_variable[var].gossip_pushes += 1;
                if diffusion::deliver(&mut self.cluster, &p) {
                    self.report.gossip_stores += 1;
                    self.report.per_variable[var].gossip_stores += 1;
                    self.mark_dirty(p.to, p.variable);
                }
            }
            Event::GossipDigest { digest } => {
                let Some(p) = self.pending_digests.take(digest) else {
                    return;
                };
                // The spine gates its digests at planning, against this
                // same delivery time, so only sequential digests can be
                // blocked here.
                if self.plan.blocks_link(t, p.digest.from, p.digest.to) {
                    self.report.partition_blocked_gossip += 1;
                    return;
                }
                if let DeltaLeg::Lazy = p.leg {
                    self.report.gossip_digests += 1;
                }
                // The receiver is evaluated now: crashed or Byzantine
                // receivers never answer.
                let Some(diff) = diffusion::diff_digest(&self.cluster, &p.digest) else {
                    return;
                };
                for &var in &diff.avoided {
                    self.report.gossip_redundant_pushes_avoided += 1;
                    self.report.per_variable[var as usize].gossip_redundant_pushes_avoided += 1;
                }
                if diff.delta.records.is_empty() {
                    return;
                }
                let (id, rtt) = match (p.leg, &mut self.streams) {
                    (DeltaLeg::Lazy, Streams::Main { gossip, .. }) => {
                        let policy = self
                            .config
                            .diffusion
                            .expect("gossip digests are only scheduled with a policy");
                        (None, policy.push_latency.sample(gossip))
                    }
                    (DeltaLeg::Spine { id, rtt }, _) => {
                        self.deltas_sent.insert(id);
                        (Some(id), rtt)
                    }
                    (DeltaLeg::Lazy, Streams::PerKey(_)) => {
                        unreachable!("lazy deltas draw from the sequential gossip stream")
                    }
                };
                let slot = self.pending_deltas.insert((id, diff.delta));
                self.queue
                    .schedule(t + rtt, Event::GossipDelta { delta: slot });
            }
            Event::GossipDelta { delta } => {
                let Some((id, d)) = self.pending_deltas.take(delta) else {
                    return;
                };
                // Re-checked at delivery: the delta may cross a window
                // boundary its digest did not.  A blocked spine delta is
                // one dropped message however many shards it spans.
                if self.plan.blocks_link(t, d.from, d.to) {
                    match id {
                        Some(id) => {
                            self.deltas_blocked.insert(id);
                        }
                        None => self.report.partition_blocked_gossip += 1,
                    }
                    return;
                }
                // Each delta record counts into the push volume, so
                // gossip_pushes compares across modes; the original digest
                // sender is evaluated at delivery time.
                for (var, record) in &d.records {
                    let vi = *var as usize;
                    self.report.gossip_pushes += 1;
                    self.report.per_variable[vi].gossip_pushes += 1;
                    self.report.per_variable[vi].gossip_delta_records += 1;
                    if diffusion::deliver_record(&mut self.cluster, d.to, *var, record) {
                        self.report.gossip_stores += 1;
                        self.report.per_variable[vi].gossip_stores += 1;
                        self.mark_dirty(d.to, *var);
                    }
                }
            }
        }
    }

    /// Samples a probe set, creates the attempt's session through the
    /// per-variable register table, and schedules one probe-reply event per
    /// probed server plus the attempt timeout.
    fn start_attempt(&mut self, op: OpId, now: SimTime) {
        self.cluster.note_operation();
        let state = &mut self.states[self.local[op as usize] as usize];
        let rng = match &mut self.streams {
            Streams::Main { main, .. } => main,
            Streams::PerKey(rngs) => &mut rngs[state.variable as usize],
        };
        let probe = self.registers.sample_probe_set(rng);
        match state.kind {
            OpKind::Write => {
                // A retried write re-sends its original record under its
                // original timestamp (it is the *same* logical write, aimed
                // at a fresh probe set); only the first attempt issues a
                // fresh record through the variable's timestamp chain.
                let (record, session) = match state.session.take() {
                    Some(OpSession::Write(record, old)) => {
                        let session =
                            WriteSession::new(old.timestamp(), probe.needed, probe.probed());
                        (record, session)
                    }
                    _ => self.registers.begin_write(
                        state.variable,
                        Value::from_u64(state.sequence),
                        probe.needed,
                        probe.probed(),
                    ),
                };
                state.session = Some(OpSession::Write(record, session));
            }
            OpKind::Read => {
                state.session = Some(OpSession::Read(self.registers.begin_read(probe.needed)));
            }
        }
        state.outstanding = probe.probed();
        for &server in &probe.servers {
            let rtt = self.config.latency.sample(rng);
            self.queue.schedule(
                now + rtt,
                Event::ProbeReply {
                    op,
                    attempt: state.attempt,
                    server,
                },
            );
        }
        self.queue.schedule(
            now + self.config.op_timeout.max(0.0),
            Event::OpTimeout {
                op,
                attempt: state.attempt,
            },
        );
    }

    /// An attempt ran out of probes or timed out: condense partial replies,
    /// retry on a fresh probe set (immediately or after the backoff delay),
    /// or give up.
    fn end_attempt(&mut self, op: OpId, now: SimTime) {
        let state = &mut self.states[self.local[op as usize] as usize];
        let responders = match state.session.as_ref() {
            Some(OpSession::Read(s)) => s.responders(),
            Some(OpSession::Write(_, s)) => s.acks(),
            None => 0,
        };
        let var = state.variable as usize;
        if responders > 0 {
            self.finalize(op, now);
        } else if state.attempt < self.config.max_retries {
            state.attempt += 1;
            let attempt = state.attempt;
            self.report.retries += 1;
            self.report.per_variable[var].retries += 1;
            let delay = retry_delay(&self.config, attempt);
            if delay > 0.0 {
                self.queue
                    .schedule(now + delay, Event::RetryAttempt { op, attempt });
            } else {
                self.start_attempt(op, now);
            }
        } else {
            state.done = true;
            if let Some(handle) = state.window {
                self.writes[var].fail(handle, now);
            }
            self.report.unavailable_ops += 1;
            self.report.per_variable[var].unavailable_ops += 1;
            self.note_flight(op, now, false);
        }
    }

    /// A session gathered its replies (all `q`, or a non-empty partial set):
    /// close the operation and account for it, in the aggregates and in the
    /// variable's own breakdown.  Per-variable latencies record directly —
    /// their order is the variable's own completion order in either
    /// engine — while the aggregate latencies go through the sink.
    fn finalize(&mut self, op: OpId, now: SimTime) {
        let state = &mut self.states[self.local[op as usize] as usize];
        state.done = true;
        let latency = now - state.start;
        let read_start = state.start;
        let var = state.variable as usize;
        let window = state.window;
        // A read's result, condensed to the written sequence number it
        // carries (`None` for an empty read); `None` for a write.
        let read = match state.session.as_ref() {
            Some(OpSession::Write(_, _)) => None,
            Some(OpSession::Read(session)) => Some(
                session
                    .finish()
                    .expect("finalize is only called with at least one responder")
                    .map(|tv| tv.value.as_u64().unwrap_or(0)),
            ),
            None => unreachable!("finalized operation must have a session"),
        };
        match &mut self.sink {
            Sink::Direct(_) => {
                self.report.latency.record(latency);
                if read.is_some() {
                    self.report.read_latency.record(latency);
                } else {
                    self.report.write_latency.record(latency);
                }
            }
            Sink::Log { completions, .. } => completions.push(CompletionRecord {
                time: now,
                op,
                read: read.is_some(),
                latency,
            }),
        }
        self.note_flight(op, now, false);
        self.report.per_variable[var].latency.record(latency);
        let Some(result) = read else {
            self.report.completed_writes += 1;
            self.report.per_variable[var].completed_writes += 1;
            if let Some(handle) = window {
                self.writes[var].close(handle, now);
            }
            return;
        };
        self.report.completed_reads += 1;
        self.report.per_variable[var].completed_reads += 1;
        if self.writes[var].concurrent_with(read_start, now) {
            self.report.concurrent_reads += 1;
            self.report.per_variable[var].concurrent_reads += 1;
            return;
        }
        // The freshest write of this variable completed before this read
        // started is the expected result.
        match (self.writes[var].latest_completed_before(read_start), result) {
            (None, _) => {
                self.report.unwritten_reads += 1;
                self.report.per_variable[var].unwritten_reads += 1;
            }
            (Some(seq), Some(got)) => {
                if got < seq {
                    self.report.stale_reads += 1;
                    self.report.per_variable[var].stale_reads += 1;
                    self.note_component_staleness(now, var);
                }
            }
            (Some(_), None) => {
                self.report.empty_reads += 1;
                self.report.per_variable[var].empty_reads += 1;
                self.note_component_staleness(now, var);
            }
        }
    }

    /// Attributes one stale/empty read finalized inside an active partition
    /// window to its client's component (`variable % components`), so
    /// reports break consistency loss down by partition side.  A no-op
    /// outside partition windows.
    fn note_component_staleness(&mut self, now: SimTime, var: usize) {
        if let Some(window) = self.plan.active_partition(now) {
            self.report.per_component_stale_reads
                [(var as u64 % window.components as u64) as usize] += 1;
        }
    }
}

/// Applies one probe's server-side effect and, if the client still cares
/// about this attempt, feeds the reply into the session.  Returns whether
/// the session consumed the probe.
fn deliver_probe<S: QuorumSystem + ?Sized>(
    state: &mut OpState,
    server: ServerId,
    cluster: &mut Cluster,
    attempt: u32,
) -> bool {
    let live = !state.done && state.attempt == attempt;
    let variable = state.variable;
    match state.session.as_mut() {
        Some(OpSession::Write(record, session)) => {
            let acked = RegisterMap::<S>::apply_write(cluster, server, variable, record);
            if live {
                session.on_ack(acked);
            }
            live
        }
        Some(OpSession::Read(session)) => {
            // A `None` probe result is a resolved-but-silent server
            // (crashed): the attempt's outstanding count still drops.
            if session.wants_signed() {
                if let Some(sv) = cluster.probe_read_signed(server, variable) {
                    if live {
                        session.on_signed_reply(server, sv);
                    }
                }
            } else if let Some(tv) = cluster.probe_read_plain(server, variable) {
                if live {
                    session.on_plain_reply(server, tv);
                }
            }
            live
        }
        None => false,
    }
}

/// The simulated-seconds delay before retry number `attempt` (1-based)
/// starts: `retry_backoff · op_timeout · 2^(attempt−1)`, 0 with the
/// default immediate-retry policy.
fn retry_delay(config: &SimConfig, attempt: u32) -> SimTime {
    if config.retry_backoff <= 0.0 {
        return 0.0;
    }
    let doublings = attempt.saturating_sub(1).min(62);
    config.retry_backoff * config.op_timeout.max(0.0) * (1u64 << doublings) as f64
}

/// Online quorum-parameter recompute for membership churn: the smallest
/// probe margin at (or above) the configured one that keeps the
/// hypergeometric timeout probability within the planner's ε budget
/// ([`tolerance::TIMEOUT_BUDGET`]) for the current count of present
/// servers.  Falls back to probing everything beyond the quorum when no
/// margin satisfies the budget.  Pure arithmetic — every world calls it
/// with identical inputs at identical simulated times, so churn runs stay
/// deterministic.
fn churn_probe_margin(base_margin: u64, n: u64, quorum: u64, present: u64) -> usize {
    let hi = n.saturating_sub(quorum);
    let lo = base_margin.min(hi);
    smallest_u64_where(lo, hi, |m| {
        timeout_probability(n, present, quorum, m) <= tolerance::TIMEOUT_BUDGET
    })
    .unwrap_or(hi) as usize
}

/// Whether an adaptive-adversary sleeper fires for this probe: evaluated at
/// probe-reply time from **foreground-only** statistics (per-variable write
/// sequence counters and last-write arrival times — the same state the
/// digest policies read), so the decision never touches any RNG stream and
/// diffusion-off replay invariants survive.  A firing sleeper answers this
/// one probe as [`Behavior::ByzantineStale`] (ack-without-storing, stale
/// replies) — the strongest *undetectable* deviation, and one that leaves
/// the event flow of the same-seed static run untouched.
fn strategy_fires(
    strategy: &ByzantineStrategy,
    server: ServerId,
    variable: VariableId,
    now: SimTime,
    sequences: &[u64],
    last_write_at: &[SimTime],
) -> bool {
    match strategy {
        ByzantineStrategy::Static => false,
        ByzantineStrategy::HotKeyTargeting {
            sleepers,
            min_writes,
        } => sequences[variable as usize] >= *min_writes && sleepers.contains(&server),
        ByzantineStrategy::StaleSigned { sleepers, window } => {
            sequences[variable as usize] > 0
                && now - last_write_at[variable as usize] <= *window
                && sleepers.contains(&server)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::DiffusionPolicy;
    use crate::workload::{KeySpace, WorkloadConfig};
    use pqs_core::probabilistic::EpsilonIntersecting;

    #[test]
    fn dirty_pairs_are_recorded_only_when_a_spine_reads_them() {
        let sys = EpsilonIntersecting::new(16, 4).unwrap();
        let config = SimConfig::builder()
            .with_duration(5.0)
            .with_arrival_rate(50.0)
            .with_read_fraction(0.2)
            .with_keyspace(KeySpace::uniform(4))
            .with_num_shards(2)
            .build();
        let ops = WorkloadConfig {
            duration: config.duration,
            arrival_rate: config.arrival_rate,
            read_fraction: config.read_fraction,
            keyspace: config.keyspace,
        }
        .generate(&mut ChaCha8Rng::seed_from_u64(1));
        let plan = FailurePlan::none();
        let drained = |config: SimConfig| {
            let sim = Simulation::new(&sys, ProtocolKind::Safe, config);
            let streams = Streams::per_key(config.seed, config.keyspace.keys);
            let mut world = World::new(&sim, &ops, &plan, 0, streams);
            assert_eq!(world.drain_until(None), None);
            assert!(world.report.completed_writes > 0);
            world.dirty.map_or(0, |dirty| dirty.len())
        };
        // No diffusion, no spine: the write probes leave no pairs behind.
        assert_eq!(drained(config), 0);
        let gossiping = SimConfig {
            diffusion: Some(DiffusionPolicy::default()),
            ..config
        };
        assert!(drained(gossiping) > 0);
    }

    #[test]
    fn key_streams_differ_per_variable_and_per_seed() {
        let a = key_stream_seed(42, 0);
        let b = key_stream_seed(42, 1);
        let c = key_stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And the mapping is a pure function of (seed, variable).
        assert_eq!(a, key_stream_seed(42, 0));
    }
}
