//! The sharded engine's spine: deterministic barriers, gossip planning and
//! crash waves over per-shard worlds.
//!
//! [`run_sharded`] executes a [`Simulation`] with
//! [`SimConfig::num_shards`](crate::runner::SimConfig::num_shards) ≥ 2:
//!
//! 1. [`Simulation::run_with_stats`] derives the workload trace and
//!    failure plan on the main RNG stream, the same derivation the
//!    sequential engine runs; then each [`World`] seeds the arrivals of
//!    the variables it owns (`variable % num_shards`) plus the full crash
//!    and membership schedules, and draws from per-variable streams.
//! 2. With no diffusion configured there is no cross-shard traffic at all:
//!    every shard drains to completion independently (on up to
//!    [`SimConfig::threads`](crate::runner::SimConfig::threads) worker
//!    threads) and the accumulators merge.
//! 3. With diffusion, the gossip round times are the spine's **barriers**:
//!    all shards drain strictly past each barrier, the spine applies the
//!    **incremental sync** — each shard replays only the `(server, key)`
//!    records dirtied since the last barrier (store-if-fresher is
//!    monotone, so this is bit-identical to a full resync; debug builds
//!    assert it) — applies due crash transitions, plans the round on the
//!    dedicated gossip RNG stream — drawing *all* message latencies
//!    eagerly, so the stream never depends on shard outcomes — and
//!    accumulates each message into its destination shard's
//!    [`RoundBatch`], bulk-scheduled in one pre-sorted pass per shard.
//!
//! Everything the spine computes is a function of per-variable outcomes
//! and the seed, never of shard layout or thread interleaving — which is
//! what makes the merged report bit-identical across all shard counts ≥ 2
//! and all thread counts.
//!
//! Steady-state barrier cost is proportional to *work since the last
//! barrier* (dirty records + planned messages), not to total simulation
//! state; [`run_sharded`] reports wall-clock per stage through
//! [`EngineStageTimings`].

use crate::failure::FailurePlan;
use crate::metrics::{merge_shard_reports, EngineStageTimings, SimReport};
use crate::runner::{
    digest_selector, gossip_stream, GossipMode, ProtocolKind, RoundAccounting, Simulation,
};
use crate::shard::{DeltaLeg, RoundBatch, Streams, World};
use crate::time::SimTime;
use crate::workload::Operation;
use pqs_core::system::QuorumSystem;
#[cfg(debug_assertions)]
use pqs_core::universe::ServerId;
#[cfg(debug_assertions)]
use pqs_protocols::cluster::Cluster;
use pqs_protocols::diffusion;
use pqs_protocols::server::{Behavior, VariableId};
use pqs_protocols::timestamp::Timestamp;
use std::collections::BTreeSet;
use std::time::Instant;

/// Runs the simulation on the sharded engine over the trace
/// [`Simulation::run_with_stats`] derived.  Called when `num_shards ≥ 2`.
pub(crate) fn run_sharded<S: QuorumSystem + ?Sized>(
    sim: &Simulation<'_, S>,
    plan: &FailurePlan,
    ops: &[Operation],
    run_start: Instant,
) -> (SimReport, EngineStageTimings) {
    let mut stages = EngineStageTimings::default();
    let config = sim.config;
    let num_shards = config.num_shards as u64;
    let nvars = config.keyspace.keys as usize;
    debug_assert!(num_shards >= 2);

    let mut worlds: Vec<World<'_, S>> = (0..num_shards)
        .map(|shard| {
            let streams = Streams::per_key(config.seed, config.keyspace.keys);
            World::new(sim, ops, plan, shard, streams)
        })
        .collect();
    let threads = (config.threads as usize).min(worlds.len()).max(1);

    let mut rounds = RoundAccounting::new(nvars);
    let mut digests_planned: u64 = 0;
    let mut digests_blocked: u64 = 0;

    if let Some(policy) = config.diffusion {
        // The spine's planning cluster: behaviour timeline plus the union
        // of every shard's per-key records, synchronised at each barrier.
        let mut spine = sim.initial_cluster(plan);
        let mut gossip_rng = gossip_stream(config.seed);
        let gossip_signed = matches!(sim.kind, ProtocolKind::Dissemination);
        let mut crash_cursor = 0usize;
        let mut membership_cursor = 0usize;
        let mut next_gossip_id: u64 = 0;

        // Round-scoped buffers, all reused across barriers: per-shard
        // message batches, per-shard digest-entry buckets, and the
        // write-state snapshots for the digest key policies.
        let mut batches: Vec<RoundBatch> = (0..num_shards).map(|_| RoundBatch::default()).collect();
        let mut entry_buckets: Vec<Vec<(VariableId, Timestamp)>> =
            (0..num_shards).map(|_| Vec::new()).collect();
        let mut write_counts = vec![0u64; nvars];
        let mut last_writes = vec![f64::NEG_INFINITY; nvars];

        // Round `r` fires at `r · period`, accumulated with the sequential
        // engine's own floating-point arithmetic; rounds stop with the
        // foreground arrivals.
        let mut round: u64 = 1;
        let mut t = policy.period;
        loop {
            let drain_start = Instant::now();
            drain_all(&mut worlds, Some(t), threads);
            stages.drain_seconds += drain_start.elapsed().as_secs_f64();

            let sync_start = Instant::now();
            // Crash transitions due by now flip the spine's behaviours —
            // in the sequential engine the upfront-seeded transitions pop
            // before the round event at equal times.
            while crash_cursor < plan.crashes.len() && plan.crashes[crash_cursor].at <= t {
                let c = &plan.crashes[crash_cursor];
                let behavior = if c.crash {
                    Behavior::Crashed
                } else {
                    Behavior::Correct
                };
                spine.set_behavior(c.server, behavior);
                crash_cursor += 1;
            }
            // Membership transitions use a *strict* cursor (`at < t`, not
            // `<= t`): a join resets the spine's copy of the joiner, and
            // the strict bound guarantees every shard has already replayed
            // the event — so the dirty-pair replay below reads the shards'
            // *post-reset* records and the incremental sync stays
            // bit-identical to a full resync (debug builds assert it).
            while membership_cursor < plan.memberships.len()
                && plan.memberships[membership_cursor].at < t
            {
                let m = &plan.memberships[membership_cursor];
                if m.join {
                    spine.join_server(m.server, config.keyspace.keys);
                } else {
                    spine.set_behavior(m.server, Behavior::Crashed);
                }
                membership_cursor += 1;
            }
            for world in worlds.iter_mut() {
                world.sync_dirty_into(&mut spine, gossip_signed);
            }
            #[cfg(debug_assertions)]
            assert_sync_matches_full_resync(sim, &worlds, &spine, gossip_signed);
            stages.sync_seconds += sync_start.elapsed().as_secs_f64();

            let plan_start = Instant::now();
            let (coverage, correct_servers) = match policy.mode {
                GossipMode::PushAll => {
                    let round_plan = diffusion::plan_cluster_round(
                        &spine,
                        policy.fanout as usize,
                        gossip_signed,
                        &mut gossip_rng,
                    );
                    for push in round_plan.pushes {
                        let rtt = policy.push_latency.sample(&mut gossip_rng);
                        let dest = (push.variable % num_shards) as usize;
                        batches[dest].pushes.push((t + rtt, push));
                    }
                    (round_plan.coverage, round_plan.correct_servers)
                }
                GossipMode::DigestDelta => {
                    gather_write_state(&worlds, &mut write_counts, &mut last_writes);
                    let selector =
                        digest_selector(policy.key_policy, round, t, &write_counts, &last_writes);
                    let round_plan = diffusion::plan_digest(
                        &spine,
                        policy.fanout as usize,
                        gossip_signed,
                        &selector,
                        &mut gossip_rng,
                    );
                    for digest in round_plan.digests {
                        // Both legs' latencies are drawn eagerly at
                        // planning time: the gossip stream must never
                        // depend on whether a shard's delta turns out
                        // non-empty.
                        let digest_rtt = policy.push_latency.sample(&mut gossip_rng);
                        let delta_rtt = policy.push_latency.sample(&mut gossip_rng);
                        digests_planned += 1;
                        let id = next_gossip_id;
                        next_gossip_id += 1;
                        // Partition gating for digests happens here on the
                        // spine (one digest fans out to sub-digests on
                        // several shards but is one message), evaluated at
                        // the digest's *delivery* time — the same predicate
                        // the sequential engine applies at delivery.  Both
                        // latencies are already drawn, so the gossip RNG
                        // stream is unaffected.
                        if plan.blocks_link(t + digest_rtt, digest.from, digest.to) {
                            digests_blocked += 1;
                            continue;
                        }
                        // One pass buckets the advertised entries by
                        // owning shard — O(entries + shards) per digest
                        // instead of a per-shard scan of the full list.
                        for &entry in &digest.entries {
                            entry_buckets[(entry.0 % num_shards) as usize].push(entry);
                        }
                        let leg = DeltaLeg::Spine { id, rtt: delta_rtt };
                        for (bucket, batch) in entry_buckets.iter_mut().zip(batches.iter_mut()) {
                            // An incomplete digest with no entries for this
                            // shard can neither transfer nor avoid
                            // anything; a *complete* one still lets the
                            // receiver volunteer records the sender never
                            // advertised, so it visits every shard.
                            if bucket.is_empty() && !digest.complete {
                                continue;
                            }
                            let sub = diffusion::GossipDigest {
                                from: digest.from,
                                to: digest.to,
                                signed: digest.signed,
                                complete: digest.complete,
                                entries: bucket.clone(),
                            };
                            bucket.clear();
                            batch.digests.push((t + digest_rtt, sub, leg));
                        }
                    }
                    (round_plan.coverage, round_plan.correct_servers)
                }
            };
            rounds.on_round(plan, t, round, &coverage, correct_servers);
            stages.plan_seconds += plan_start.elapsed().as_secs_f64();

            let route_start = Instant::now();
            for (world, batch) in worlds.iter_mut().zip(batches.iter_mut()) {
                world.schedule_round_batch(batch);
            }
            stages.route_seconds += route_start.elapsed().as_secs_f64();

            if t + policy.period <= config.duration {
                round += 1;
                t += policy.period;
            } else {
                break;
            }
        }
    }

    // No more cross-shard traffic will ever be injected: drain everything.
    let drain_start = Instant::now();
    drain_all(&mut worlds, None, threads);
    stages.drain_seconds += drain_start.elapsed().as_secs_f64();

    // One delta *event* per digest id that produced any records, matching
    // the sequential engine's one-delta-per-digest message count; blocked
    // deltas likewise deduplicate to one dropped message per id.
    let mut delta_ids: BTreeSet<u64> = BTreeSet::new();
    let mut blocked_delta_ids: BTreeSet<u64> = BTreeSet::new();
    for world in &worlds {
        delta_ids.extend(world.deltas_sent.iter().copied());
        blocked_delta_ids.extend(world.deltas_blocked.iter().copied());
    }

    let mut report = merge_shard_reports(worlds.into_iter().map(World::into_accumulator).collect());
    // Like the sequential engine, a digest a partition blocked was planned
    // but never delivered.
    report.gossip_digests = digests_planned - digests_blocked;
    report.partition_blocked_gossip += digests_blocked + blocked_delta_ids.len() as u64;
    report.membership_events = plan.memberships.len() as u64;
    rounds.finish_into(&mut report);
    // Spine-level events: crash and membership transitions (replayed per
    // shard but one event each), rounds, digest deliveries and delta
    // deliveries.
    report.events_processed += plan.crashes.len() as u64
        + plan.memberships.len() as u64
        + report.gossip_rounds
        + digests_planned
        + delta_ids.len() as u64;
    stages.total_seconds = run_start.elapsed().as_secs_f64();
    (report, stages)
}

/// Drains every shard up to `barrier` — inline on this thread, or on up to
/// `threads` scoped worker threads.  Purely an execution choice: shards
/// share nothing while draining, so the interleaving cannot matter.
fn drain_all<S: QuorumSystem + ?Sized>(
    worlds: &mut [World<'_, S>],
    barrier: Option<SimTime>,
    threads: usize,
) {
    let drain = |world: &mut World<'_, S>| {
        let round = world.drain_until(barrier);
        debug_assert!(round.is_none(), "shards never schedule gossip rounds");
    };
    if threads <= 1 || worlds.len() <= 1 {
        worlds.iter_mut().for_each(drain);
        return;
    }
    let chunk = worlds.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for chunk_worlds in worlds.chunks_mut(chunk) {
            scope.spawn(move || chunk_worlds.iter_mut().for_each(drain));
        }
    });
}

/// Debug-build invariant behind the incremental sync: after every shard
/// replays its dirty `(server, key)` pairs, the spine's record state must
/// be exactly what a from-scratch full resync of every shard record would
/// produce.  Store-if-fresher is monotone and per-key records live only on
/// the key's owning shard, so the dirty pairs — however conservatively
/// over-marked — are sufficient.
#[cfg(debug_assertions)]
fn assert_sync_matches_full_resync<S: QuorumSystem + ?Sized>(
    sim: &Simulation<'_, S>,
    worlds: &[World<'_, S>],
    spine: &Cluster,
    signed: bool,
) {
    let mut full = Cluster::new(sim.system.universe());
    full.reserve_variables(sim.config.keyspace.keys);
    for world in worlds {
        let n = world.cluster.len() as u32;
        for i in 0..n {
            let id = ServerId::new(i);
            let src = world.cluster.server(id);
            if signed {
                let vars: Vec<VariableId> = src.signed_variables().collect();
                for var in vars {
                    full.server_mut(id)
                        .store_signed_if_fresher(var, src.stored_signed(var));
                }
            } else {
                let vars: Vec<VariableId> = src.plain_variables().collect();
                for var in vars {
                    full.server_mut(id)
                        .store_plain_if_fresher(var, src.stored_plain(var));
                }
            }
        }
    }
    for i in 0..spine.len() as u32 {
        let id = ServerId::new(i);
        let inc = spine.server(id);
        let ful = full.server(id);
        if signed {
            let mut a: Vec<_> = inc
                .signed_variables()
                .map(|v| (v, inc.stored_signed(v)))
                .collect();
            let mut b: Vec<_> = ful
                .signed_variables()
                .map(|v| (v, ful.stored_signed(v)))
                .collect();
            a.sort_by_key(|e| e.0);
            b.sort_by_key(|e| e.0);
            assert_eq!(
                a, b,
                "incremental spine sync diverged from full resync at server {i}"
            );
        } else {
            let mut a: Vec<_> = inc
                .plain_variables()
                .map(|v| (v, inc.stored_plain(v)))
                .collect();
            let mut b: Vec<_> = ful
                .plain_variables()
                .map(|v| (v, ful.stored_plain(v)))
                .collect();
            a.sort_by_key(|e| e.0);
            b.sort_by_key(|e| e.0);
            assert_eq!(
                a, b,
                "incremental spine sync diverged from full resync at server {i}"
            );
        }
    }
}

/// Gathers the authoritative per-variable write counters and latest write
/// times from each variable's owning shard into the caller's reused
/// buffers, for the digest key policies.
fn gather_write_state<S: QuorumSystem + ?Sized>(
    worlds: &[World<'_, S>],
    counts: &mut [u64],
    last: &mut [SimTime],
) {
    let n = worlds.len();
    for (v, (count, at)) in counts.iter_mut().zip(last.iter_mut()).enumerate() {
        let world = &worlds[v % n];
        *count = world.sequences[v];
        *at = world.last_write_at[v];
    }
}
