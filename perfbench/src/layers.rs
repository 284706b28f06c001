//! Per-layer metrics: the engine's stage timings, exact counts from the
//! reports, and unit costs measured by calling each layer's public
//! functions with inputs shaped like the workload.
//!
//! A layer the workload never calls reports 0 (crypto on the safe
//! protocol, gossip with diffusion off, the planner outside
//! `directory_gossip`, the sharded stages on the sequential engine).

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{build_system, Prepared, RunResult};
use pqs_core::probabilistic::EpsilonIntersecting;
use pqs_core::system::QuorumSystem;
use pqs_core::universe::ServerId;
use pqs_math::plan;
use pqs_protocols::cluster::Cluster;
use pqs_protocols::crypto::{KeyRegistry, SignedValue};
use pqs_protocols::diffusion::{self, KeySelector};
use pqs_protocols::register::{RegisterFlavor, RegisterMap, WriteRecord};
use pqs_protocols::server::ReplicaServer;
use pqs_protocols::timestamp::Timestamp;
use pqs_protocols::value::{TaggedValue, Value};
use pqs_sim::metrics::LatencySamples;
use pqs_sim::runner::ProtocolKind;
use pqs_sim::time::EventQueue;
use pqs_sim::workload::WorkloadConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per unit cost; the median batch is reported.
const BATCHES: usize = 5;
/// Writer id and signing-key seed of the benchmark's register clients.
const WRITER: u32 = 0;
const KEY_SEED: u64 = 0x5eed;

/// Exact counts of one iteration (summed over its runs; `max_in_flight`
/// is the largest of them).
#[derive(Debug, Default)]
pub struct Counts {
    pub events: u64,
    pub reads: u64,
    pub writes: u64,
    pub ops: u64,
    pub retries: u64,
    pub timed_out_attempts: u64,
    pub max_in_flight: u64,
    pub accesses: u64,
    pub rounds: u64,
    pub digests: u64,
    pub pushes: u64,
    pub stores: u64,
    pub redundant_avoided: u64,
    pub dropped_probes: u64,
    pub adaptive_activations: u64,
    pub membership_events: u64,
}

impl Counts {
    /// Sums the counts of one iteration's reports.
    pub fn of(results: &[RunResult]) -> Counts {
        let mut c = Counts::default();
        for r in results.iter().map(|r| &r.report) {
            c.events += r.events_processed;
            c.reads += r.completed_reads;
            c.writes += r.completed_writes;
            c.ops += r.completed_reads + r.completed_writes + r.unavailable_ops;
            c.retries += r.retries;
            c.timed_out_attempts += r.timed_out_attempts;
            c.max_in_flight = c.max_in_flight.max(r.max_in_flight);
            c.accesses += r.per_server_accesses.iter().sum::<u64>();
            c.rounds += r.gossip_rounds;
            c.digests += r.gossip_digests;
            c.pushes += r.gossip_pushes;
            c.stores += r.gossip_stores;
            c.redundant_avoided += r.gossip_redundant_pushes_avoided;
            c.dropped_probes += r.dropped_probes;
            c.adaptive_activations += r.adaptive_activations;
            c.membership_events += r.membership_events;
        }
        c
    }
}

/// Engine stage timings of one iteration, summed over its runs.
#[derive(Debug, Default)]
pub struct Stages {
    pub drain: f64,
    pub sync: f64,
    pub plan: f64,
    pub route: f64,
    pub total: f64,
}

impl Stages {
    /// Sums the stage timings of one iteration.
    pub fn of(results: &[RunResult]) -> Stages {
        let mut s = Stages::default();
        for r in results.iter().map(|r| r.stages) {
            s.drain += r.drain_seconds;
            s.sync += r.sync_seconds;
            s.plan += r.plan_seconds;
            s.route += r.route_seconds;
            s.total += r.total_seconds;
        }
        s
    }

    /// Per-stage medians over iterations.
    pub fn median_of(all: &[Stages]) -> Stages {
        let m = |f: fn(&Stages) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        Stages {
            drain: m(|s| s.drain),
            sync: m(|s| s.sync),
            plan: m(|s| s.plan),
            route: m(|s| s.route),
            total: m(|s| s.total),
        }
    }
}

/// Seconds per call of `f`, the median over [`BATCHES`] batches of `calls`
/// calls, each batch inside a span named `name`.
fn per_call(tr: &mut Tracer, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let open = tr.begin(name);
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        per.push(start.elapsed().as_secs_f64() / calls as f64);
        tr.end(open);
    }
    median(&per)
}

/// Every per-layer metric of the workload, by name (units are in
/// [`crate::output::PER_LAYER`]).  `stages` are the timed iterations'
/// stage timings and `first` one iteration's results.
pub fn per_layer(
    prepared: &Prepared,
    first: &[RunResult],
    stages: &[Stages],
    seed: u64,
    tr: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let counts = Counts::of(first);
    let st = Stages::median_of(stages);
    let sharded = prepared.runs[0].config.num_shards > 1;
    let mut m = BTreeMap::new();

    // Engine stage timings, per iteration.
    let spine = st.sync + st.plan + st.route;
    let (runner_drain, parallel_drain) = if sharded {
        (0.0, st.drain)
    } else {
        (st.drain, 0.0)
    };
    m.insert("runner.drain_s", runner_drain);
    m.insert("parallel.drain_s", parallel_drain);
    m.insert("parallel.sync_s", st.sync);
    m.insert("parallel.plan_s", st.plan);
    m.insert("parallel.route_s", st.route);
    m.insert("parallel.spine_fraction", spine / st.total);
    m.insert(
        "parallel.drain_per_barrier_us",
        if counts.rounds > 0 {
            parallel_drain / counts.rounds as f64 * 1e6
        } else {
            0.0
        },
    );
    m.insert(
        "parallel.unstaged_s",
        if sharded {
            st.total - st.drain - spine
        } else {
            0.0
        },
    );

    // Exact counts, per iteration.
    m.insert("runner.events", counts.events as f64);
    m.insert("runner.ops", counts.ops as f64);
    m.insert("runner.retries", counts.retries as f64);
    m.insert(
        "runner.timed_out_attempts",
        counts.timed_out_attempts as f64,
    );
    m.insert("runner.max_in_flight", counts.max_in_flight as f64);
    m.insert("server.accesses", counts.accesses as f64);
    m.insert("diffusion.rounds", counts.rounds as f64);
    m.insert(
        "diffusion.messages",
        (counts.pushes + counts.digests) as f64,
    );
    m.insert(
        "diffusion.redundant_avoided",
        counts.redundant_avoided as f64,
    );
    m.insert(
        "diffusion.store_ratio",
        if counts.pushes > 0 {
            counts.stores as f64 / counts.pushes as f64
        } else {
            0.0
        },
    );
    m.insert("failure.dropped_probes", counts.dropped_probes as f64);
    m.insert(
        "failure.adaptive_activations",
        counts.adaptive_activations as f64,
    );
    m.insert("failure.membership_events", counts.membership_events as f64);

    let unit = unit_costs(prepared, first, seed, tr);
    let drain_model = drain_model(&unit, &counts, sharded, first.len());
    m.insert("model.drain_residual", (st.drain - drain_model) / st.drain);
    m.extend(unit.into_metrics());
    m
}

/// Unit costs in seconds per call.
#[derive(Debug, Default)]
struct UnitCosts {
    plan_solve: f64,
    system_build: f64,
    generate: f64,
    hold: f64,
    latency_sample: f64,
    probe_set: f64,
    read_step: f64,
    write_step: f64,
    server_read: f64,
    server_store: f64,
    sign: f64,
    verify: f64,
    plan_digest: f64,
    diff_digest: f64,
    deliver_delta: f64,
    record: f64,
    p99: f64,
}

impl UnitCosts {
    fn into_metrics(self) -> [(&'static str, f64); 17] {
        [
            ("plan.solve_s", self.plan_solve),
            ("core.system_build_s", self.system_build),
            ("workload.generate_s", self.generate),
            ("time.hold_ns", self.hold * 1e9),
            ("latency.sample_ns", self.latency_sample * 1e9),
            ("register.probe_set_ns", self.probe_set * 1e9),
            ("register.read_step_ns", self.read_step * 1e9),
            ("register.write_step_ns", self.write_step * 1e9),
            ("server.read_ns", self.server_read * 1e9),
            ("server.store_ns", self.server_store * 1e9),
            ("crypto.sign_ns", self.sign * 1e9),
            ("crypto.verify_ns", self.verify * 1e9),
            ("diffusion.plan_digest_us", self.plan_digest * 1e6),
            ("diffusion.diff_digest_us", self.diff_digest * 1e6),
            ("diffusion.deliver_delta_ns", self.deliver_delta * 1e9),
            ("metrics.record_ns", self.record * 1e9),
            ("metrics.p99_ms", self.p99 * 1e3),
        ]
    }
}

/// What the per-event layers predict the drain costs per iteration:
/// Σ unit cost × count.  The sequential engine's drain is its whole run,
/// so workload generation and gossip planning count there too; on the
/// sharded engine they are set-up and spine time.
fn drain_model(u: &UnitCosts, c: &Counts, sharded: bool, runs: usize) -> f64 {
    let read_share = if c.reads + c.writes > 0 {
        c.reads as f64 / (c.reads + c.writes) as f64
    } else {
        0.0
    };
    let accesses = c.accesses as f64;
    let mut t = u.hold * c.events as f64
        + u.latency_sample * accesses
        + u.probe_set * (c.ops + c.retries) as f64
        + u.read_step * c.reads as f64
        + u.write_step * c.writes as f64
        + (u.server_read * read_share + u.server_store * (1.0 - read_share)) * accesses
        + u.record * (c.reads + c.writes) as f64
        + (u.diff_digest + u.deliver_delta) * c.digests as f64;
    if !sharded {
        t += u.generate * runs as f64 + u.plan_digest * c.rounds as f64;
    }
    t
}

/// Measures every unit cost the workload's layers incur.
fn unit_costs(prepared: &Prepared, first: &[RunResult], seed: u64, tr: &mut Tracer) -> UnitCosts {
    let config = prepared.runs[0].config;
    let system = &prepared.system;
    let q = system.quorum_size();
    let keys = config.keyspace.keys;
    let signed = prepared.protocol == ProtocolKind::Dissemination;
    // Operations and completed-latency samples of one run.
    let run_ops = (Counts::of(&first[..1]).ops as usize).max(1);
    let run_samples = first[0].report.read_latency.count() + first[0].report.write_latency.count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut u = UnitCosts::default();

    if let Some((input, _)) = &prepared.capacity {
        u.plan_solve = per_call(tr, "plan.solve", 1, |_| {
            black_box(plan::solve(black_box(input)).expect("feasible preset"));
        });
    }
    let solved = prepared.capacity.as_ref().map(|(_, solved)| solved);
    u.system_build = per_call(tr, "core.system_build", 1, |_| {
        black_box(build_system(prepared.workload, solved));
    });

    let workload = WorkloadConfig {
        duration: config.duration,
        arrival_rate: config.arrival_rate,
        read_fraction: config.read_fraction,
        keyspace: config.keyspace,
    };
    u.generate = per_call(tr, "workload.generate", 1, |_| {
        black_box(workload.generate(&mut rng));
    });
    let keys_drawn: Vec<u64> = workload
        .generate(&mut rng)
        .iter()
        .map(|op| op.variable)
        .collect();
    let key_at = |i: usize| keys_drawn[i % keys_drawn.len()];

    // Event queue hold at the run's initial pending depth: every arrival is
    // pre-scheduled, so the depth is the operation count.
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..run_ops {
        queue.schedule(rng.gen_range(0.0..config.duration), i as u64);
    }
    let increments: Vec<f64> = (0..4096)
        .map(|_| -config.duration * rng.gen_range(f64::MIN_POSITIVE..1.0).ln())
        .collect();
    u.hold = per_call(tr, "time.hold", run_ops, |i| {
        let (t, e) = queue.pop().expect("the queue stays at constant depth");
        queue.schedule(t + increments[i % increments.len()], black_box(e));
    });

    u.latency_sample = per_call(tr, "latency.sample", 100_000, |_| {
        black_box(config.latency.sample(&mut rng));
    });

    let mut registry = KeyRegistry::new();
    let key = registry.register(WRITER, KEY_SEED);
    let flavor = if signed {
        RegisterFlavor::Dissemination {
            key,
            registry: registry.clone(),
        }
    } else {
        RegisterFlavor::Safe
    };
    let margin = config.probe_margin as usize;
    let mut map = RegisterMap::new(system, flavor, WRITER).with_probe_margin(margin);
    u.probe_set = per_call(tr, "register.sample_probe_set", 20_000, |_| {
        black_box(map.sample_probe_set(&mut rng));
    });

    // Session steps: begin, q replies (or acks), finish.
    let value = |i: u64| Value::from_u64(i);
    let plain_replies: Vec<TaggedValue> = (1..=q as u64)
        .map(|i| TaggedValue::new(value(i), Timestamp::new(i, WRITER)))
        .collect();
    let signed_replies: Vec<SignedValue> = (1..=q as u64)
        .map(|i| SignedValue::create(&key, value(i), Timestamp::new(i, WRITER)))
        .collect();
    u.read_step = per_call(tr, "register.read_session", 20_000, |_| {
        let mut session = map.begin_read(q);
        for s in 0..q {
            let from = ServerId::new(s as u32);
            if signed {
                session.on_signed_reply(from, signed_replies[s].clone());
            } else {
                session.on_plain_reply(from, plain_replies[s].clone());
            }
        }
        black_box(session.finish().expect("q replies"));
    });
    u.write_step = per_call(tr, "register.write_session", 20_000, |i| {
        let (record, mut session) = map.begin_write(key_at(i), value(i as u64), q, q + margin);
        for _ in 0..q {
            session.on_ack(true);
        }
        black_box(session.finish().expect("q acks"));
        black_box(record);
    });

    // Record store at the workload's key count: reads of a populated
    // store, and stores that are always fresher (a real overwrite).
    let calls = 50_000usize;
    let record = |i: u64| {
        let ts = Timestamp::new(i, WRITER);
        if signed {
            WriteRecord::Signed(SignedValue::create(&key, value(i), ts))
        } else {
            WriteRecord::Plain(TaggedValue::new(value(i), ts))
        }
    };
    let records: Vec<WriteRecord> = (1..=(BATCHES * calls) as u64).map(record).collect();
    let mut server = ReplicaServer::new(ServerId::new(0));
    server.reserve_variables(keys);
    for var in 0..keys {
        store(&mut server, var, &records[var as usize % records.len()]);
    }
    u.server_read = per_call(tr, "server.read", calls, |i| {
        if signed {
            black_box(server.handle_read_signed(key_at(i)));
        } else {
            black_box(server.handle_read_plain(key_at(i)));
        }
    });
    let mut server = ReplicaServer::new(ServerId::new(0));
    server.reserve_variables(keys);
    let mut next = 0usize;
    u.server_store = per_call(tr, "server.store", calls, |i| {
        black_box(store(&mut server, key_at(i), &records[next]));
        next += 1;
    });

    if signed {
        let tagged = &signed_replies[0].tagged;
        u.sign = per_call(tr, "crypto.sign", 100_000, |_| {
            black_box(key.sign(black_box(&tagged.value), tagged.timestamp));
        });
        u.verify = per_call(tr, "crypto.verify", 100_000, |i| {
            black_box(registry.verify_signed(&signed_replies[i % q]));
        });
    }

    if let Some(policy) = config.diffusion {
        // A cluster of the workload's n and key count, every key written
        // three times to fresh probe sets, so stores disagree and digests
        // produce real deltas.
        let mut cluster = Cluster::new(system.universe());
        cluster.reserve_variables(keys);
        for round in 1..=3u64 {
            let write = record(round);
            for var in 0..keys {
                for &s in &map.sample_probe_set(&mut rng).servers {
                    RegisterMap::<EpsilonIntersecting>::apply_write(&mut cluster, s, var, &write);
                }
            }
        }
        let fanout = policy.fanout as usize;
        u.plan_digest = per_call(tr, "diffusion.plan_digest", 10, |_| {
            black_box(diffusion::plan_digest(
                &cluster,
                fanout,
                signed,
                &KeySelector::All,
                &mut rng,
            ));
        });
        let digests =
            diffusion::plan_digest(&cluster, fanout, signed, &KeySelector::All, &mut rng).digests;
        u.diff_digest = per_call(tr, "diffusion.diff_digest", digests.len(), |i| {
            black_box(diffusion::diff_digest(&cluster, &digests[i]));
        });
        let deltas: Vec<_> = digests
            .iter()
            .filter_map(|d| diffusion::diff_digest(&cluster, d))
            .map(|d| d.delta)
            .collect();
        let mut per = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let mut target = cluster.clone();
            let open = tr.begin("diffusion.deliver_delta");
            let start = Instant::now();
            for delta in &deltas {
                black_box(diffusion::deliver_delta(&mut target, delta));
            }
            per.push(start.elapsed().as_secs_f64() / deltas.len().max(1) as f64);
            tr.end(open);
        }
        u.deliver_delta = median(&per);
    }

    u.record = per_call(tr, "metrics.record", 1, |_| {
        let mut samples = LatencySamples::new();
        for i in 0..run_samples {
            samples.record(i as f64);
        }
        black_box(samples);
    }) / run_samples.max(1) as f64;
    let mut samples = LatencySamples::new();
    for _ in 0..run_samples.max(1) {
        samples.record(config.latency.sample(&mut rng));
    }
    u.p99 = per_call(tr, "metrics.p99", 1, |_| {
        black_box(samples.p99());
    });
    u
}

fn store(server: &mut ReplicaServer, var: u64, record: &WriteRecord) -> bool {
    match record {
        WriteRecord::Plain(tv) => server.handle_write_plain(var, tv.clone()),
        WriteRecord::Signed(sv) => server.handle_write_signed(var, sv.clone()),
    }
}
