//! The traced run's per-layer measurements.
//!
//! Nothing here reaches inside the program: each time is taken around a
//! call from this file into one layer's public function (channel
//! handshake and transit, compiled-table view computation, path
//! selection, view serialisation, snapshot clone, compile, analyzer,
//! policy verifier), and each count is a delta of the program's own
//! counters (`MetricsSnapshot`, `BatchStats`).

use std::time::{Duration, Instant};

use websec_core::analyzer::{verify_policies, PassId, PolicyPassId, PolicyVerifyInput};
use websec_core::prelude::*;
use websec_core::services::ChannelSession;

use crate::phases::Metric;
use crate::stats::{mean, median, trimmed_mean};

/// Per-layer samples and counter totals of the traced rounds.
pub struct Tracer {
    /// Every `every`-th timed read is followed by the layer probes.
    pub every: usize,
    /// The deployment master key sessions are derived from.
    master_key: [u8; 32],
    /// Whether the workload's updates run through the Deny gate (and so
    /// through the analyzer and the policy verifier).
    gated: bool,
    establish_us: Vec<f64>,
    transit_us: Vec<f64>,
    compute_view_us: Vec<f64>,
    select_us: Vec<f64>,
    serialize_us: Vec<f64>,
    view_bytes: Vec<f64>,
    clone_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    analyze_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    views_at_publish: Vec<f64>,
    /// Counter deltas over the read and batch phases.
    reads: Counters,
    /// Counter deltas over whole rounds (updates included).
    rounds: Counters,
    steals: u64,
    injector_pops: u64,
    batch_qps: Vec<f64>,
    round_count: u64,
    admitted_updates: u64,
}

/// Sums of `MetricsSnapshot` counter deltas.
#[derive(Default)]
struct Counters {
    requests: u64,
    sessions_established: u64,
    session_reuses: u64,
    l1_hits: u64,
    l2_hits: u64,
    misses: u64,
    coalesced: u64,
    compiled_hits: u64,
    lock_waits: u64,
    channel_ns: u128,
    gate_ns: u128,
    rdf_ns: u128,
    xml_ns: u128,
    tables_ns: u128,
    compiles: u64,
    analysis_run: u64,
    analysis_reused: u64,
    policy_run: u64,
    policy_reused: u64,
    gate_denials: u64,
}

impl Counters {
    fn add(&mut self, d: &MetricsSnapshot) {
        self.requests += d.requests;
        self.sessions_established += d.sessions_established;
        self.session_reuses += d.session_reuses;
        self.l1_hits += d.l1_hits;
        self.l2_hits += d.l2_hits;
        self.misses += d.cache_misses;
        self.coalesced += d.coalesced;
        self.compiled_hits += d.compiled_hits;
        self.lock_waits += d.session_lock_waits + d.cache_lock_waits;
        self.channel_ns += d.layer_totals.channel_ns;
        self.gate_ns += d.layer_totals.gate_ns;
        self.rdf_ns += d.layer_totals.rdf_ns;
        self.xml_ns += d.layer_totals.xml_ns;
        self.tables_ns += d.layer_totals.compile_ns;
        self.compiles += d.snapshot_compiles;
        self.analysis_run += d.analysis_passes_run;
        self.analysis_reused += d.analysis_passes_reused;
        self.policy_run += d.policy_passes_run;
        self.policy_reused += d.policy_passes_reused;
        self.gate_denials += d.gate_denials;
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Tracer {
    pub fn new(master_key: [u8; 32], gated: bool, every: usize) -> Self {
        Tracer {
            every: every.max(1),
            master_key,
            gated,
            establish_us: Vec::new(),
            transit_us: Vec::new(),
            compute_view_us: Vec::new(),
            select_us: Vec::new(),
            serialize_us: Vec::new(),
            view_bytes: Vec::new(),
            clone_ms: Vec::new(),
            compile_ms: Vec::new(),
            analyze_ms: Vec::new(),
            verify_ms: Vec::new(),
            views_at_publish: Vec::new(),
            reads: Counters::default(),
            rounds: Counters::default(),
            steals: 0,
            injector_pops: 0,
            batch_qps: Vec::new(),
            round_count: 0,
            admitted_updates: 0,
        }
    }

    /// Re-runs one served read layer by layer: a fresh channel handshake
    /// and the request/response transit, the compiled-table view, path
    /// selection and serialisation of the matched nodes.
    pub fn probe_read(
        &mut self,
        stack: &SecureWebStack,
        compiled: &CompiledPolicies,
        request: &QueryRequest,
        response: &Result<QueryResponse, Error>,
    ) {
        let identity = &request.subject_profile().identity;
        let Some(path) = request.query_path() else {
            return;
        };
        let t = Instant::now();
        let mut session = ChannelSession::establish(&self.master_key, identity, true);
        self.establish_us.push(us(t));
        let body = response.as_ref().map_or("", |r| r.xml.as_str());
        let t = Instant::now();
        let transit = session
            .transit_to_server(path.source().as_bytes())
            .and_then(|_| session.transit_to_client(body.as_bytes()));
        self.transit_us.push(us(t));
        std::hint::black_box(transit.is_ok());
        self.view_bytes.push(body.len() as f64);

        let Some(doc) = stack.documents.get(request.doc_name()) else {
            return;
        };
        let t = Instant::now();
        let view = compiled.compute_view(request.subject_profile(), request.doc_name(), doc);
        self.compute_view_us.push(us(t));
        let Some(view) = view else {
            return;
        };
        let t = Instant::now();
        let matched = path.select_nodes(&view);
        self.select_us.push(us(t));
        let t = Instant::now();
        let xml: String = matched.iter().map(|&n| view.subtree_xml(n)).collect();
        self.serialize_us.push(us(t));
        std::hint::black_box(xml);
    }

    /// Adds one batch's scheduler statistics and rate.
    pub fn absorb_batch(&mut self, stats: &BatchStats, requests: usize, took: Duration) {
        self.steals += stats.steals;
        self.injector_pops += stats.injector_pops;
        self.batch_qps.push(requests as f64 / took.as_secs_f64());
    }

    /// Adds the counter deltas of one round's read and batch phases.
    pub fn absorb_reads(&mut self, delta: &MetricsSnapshot) {
        self.reads.add(delta);
    }

    /// Adds the counter deltas of one whole round.
    pub fn absorb_round(&mut self, delta: &MetricsSnapshot) {
        self.rounds.add(delta);
        self.round_count += 1;
    }

    /// Re-runs the stages of one admitted update on a private candidate,
    /// before the real update: the snapshot clone, the mutation, the
    /// compile of the candidate and, on gated workloads, the analyzer and
    /// the policy verifier over it.
    pub fn probe_update(&mut self, server: &StackServer, mutate: &dyn Fn(&mut SecureWebStack)) {
        self.views_at_publish
            .push(server.metrics().cached_views as f64);
        self.admitted_updates += 1;
        let current = server.snapshot();
        let t = Instant::now();
        let mut candidate = (*current).clone();
        self.clone_ms.push(ms(t));
        mutate(&mut candidate);
        let t = Instant::now();
        let compiled = PolicySnapshot::new(
            &candidate.policies,
            candidate.engine.strategy,
            &candidate.documents,
        )
        .compile();
        self.compile_ms.push(ms(t));
        if self.gated {
            let t = Instant::now();
            std::hint::black_box(candidate.analyze());
            self.analyze_ms.push(ms(t));
            let names = candidate.documents.names();
            let mut input = PolicyVerifyInput::new(&compiled);
            for name in names {
                if let Some(doc) = candidate.documents.get(name) {
                    input.documents.push((name, doc));
                }
            }
            let t = Instant::now();
            std::hint::black_box(verify_policies(&input));
            self.verify_ms.push(ms(t));
        }
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. Update-stage
    /// times are trimmed means, like `update_ms`, so that they can be
    /// added up against it; other times are medians of the probes; counts are per round (one read phase, one
    /// batch and the round's updates); `eval.*` are per served request.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, unit, value| Metric { name, unit, value };
        let rounds = self.round_count.max(1) as f64;
        let r = &self.reads;
        let u = &self.rounds;
        let per_round = |n: u64| n as f64 / rounds;
        let per_request = |ns: u128| ns as f64 / r.requests.max(1) as f64;
        let hits = r.l1_hits + r.l2_hits + r.coalesced;
        let lookups = hits + r.misses;
        vec![
            m("channel.establish_us", "us", median(&self.establish_us)),
            m("channel.transit_us", "us", median(&self.transit_us)),
            m(
                "channel.sessions_established",
                "count",
                per_round(r.sessions_established),
            ),
            m(
                "channel.session_reuses",
                "count",
                per_round(r.session_reuses),
            ),
            m("cache.l1_hits", "count", per_round(r.l1_hits)),
            m("cache.l2_hits", "count", per_round(r.l2_hits)),
            m("cache.misses", "count", per_round(r.misses)),
            m("cache.coalesced", "count", per_round(r.coalesced)),
            m(
                "cache.hit_ratio",
                "ratio",
                hits as f64 / lookups.max(1) as f64,
            ),
            m(
                "cache.views_at_publish",
                "count",
                mean(&self.views_at_publish),
            ),
            m("eval.channel_ns", "ns", per_request(r.channel_ns)),
            m("eval.gate_ns", "ns", per_request(r.gate_ns)),
            m("eval.rdf_ns", "ns", per_request(r.rdf_ns)),
            m("eval.xml_ns", "ns", per_request(r.xml_ns)),
            m("eval.tables_ns", "ns", per_request(r.tables_ns)),
            m(
                "tables.compute_view_us",
                "us",
                median(&self.compute_view_us),
            ),
            m("tables.compiled_hits", "count", per_round(r.compiled_hits)),
            m("compile.ms", "ms", trimmed_mean(&self.compile_ms)),
            m("compile.count", "count", per_round(u.compiles)),
            m("update.clone_ms", "ms", trimmed_mean(&self.clone_ms)),
            m("view.select_us", "us", median(&self.select_us)),
            m("view.serialize_us", "us", median(&self.serialize_us)),
            m("view.bytes", "bytes", mean(&self.view_bytes)),
            m("analyze.ms", "ms", trimmed_mean(&self.analyze_ms)),
            m("analyze.passes_run", "count", per_round(u.analysis_run)),
            m(
                "analyze.passes_reused",
                "count",
                per_round(u.analysis_reused),
            ),
            m("verify.ms", "ms", trimmed_mean(&self.verify_ms)),
            m("verify.passes_run", "count", per_round(u.policy_run)),
            m("verify.passes_reused", "count", per_round(u.policy_reused)),
            m("sched.batch_qps", "1/s", median(&self.batch_qps)),
            m("sched.steals", "count", per_round(self.steals)),
            m(
                "sched.injector_pops",
                "count",
                per_round(self.injector_pops),
            ),
            m("sched.lock_waits", "count", per_round(r.lock_waits)),
            m("gate.denials", "count", per_round(u.gate_denials)),
        ]
    }

    /// How the traced stage times account for the mean admitted update.
    ///
    /// Off the gate an update is one clone and one compile. Through the
    /// Deny gate it also analyzes the current snapshot and the candidate
    /// in full, verifies the candidate's compiled plane, and after
    /// publishing re-runs the analyzer passes and verifier passes whose
    /// inputs changed — the fractions of a full run read from the
    /// `*_passes_run` counters.
    pub fn update_breakdown(&self, update_ms: f64) -> String {
        let clone = trimmed_mean(&self.clone_ms);
        let compile = trimmed_mean(&self.compile_ms);
        let analyze = trimmed_mean(&self.analyze_ms);
        let verify = trimmed_mean(&self.verify_ms);
        let updates = self.admitted_updates.max(1) as f64;
        let analyze_runs = if self.gated {
            2.0 + self.rounds.analysis_run as f64 / updates / PassId::ALL.len() as f64
        } else {
            0.0
        };
        let verify_runs = if self.gated {
            1.0 + self.rounds.policy_run as f64 / updates / PolicyPassId::ALL.len() as f64
        } else {
            0.0
        };
        let modelled = clone + compile + analyze * analyze_runs + verify * verify_runs;
        let leftover = update_ms - modelled;
        format!(
            "update breakdown: clone {clone:.3} ms + compile {compile:.3} ms + analyze \
             {analyze:.3} ms x {analyze_runs:.2} + verify {verify:.3} ms x {verify_runs:.2} = \
             {modelled:.3} ms; update_ms {update_ms:.3} ms; leftover {leftover:.3} ms ({:.1}%)",
            100.0 * leftover / update_ms.max(f64::MIN_POSITIVE)
        )
    }
}
