//! The timed phases every workload is made of — a closed-loop read phase
//! (one client calling `serve`), a batch phase (`serve_batch` at `nproc`
//! workers), and updates — plus the end-to-end samples they produce.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use websec_core::prelude::*;
use websec_scenarios::Json;

use crate::ledger::Ledger;
use crate::stats::{percentile, trimmed_mean};
use crate::trace::Tracer;

/// End-to-end samples of one run. Read-phase figures are kept per phase
/// (each phase's rate and percentiles), and the run reports their
/// [`trimmed_mean`] across phases, as it does for set-ups and updates.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub serve_qps: Vec<f64>,
    pub serve_p50_us: Vec<f64>,
    pub serve_p99_us: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub revoke_visible_ms: Vec<f64>,
    pub reject_ms: Vec<f64>,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl E2e {
    /// The end-to-end metrics, in `BENCHMARK.json` order: trimmed means
    /// over the run's set-ups, read phases and operations.
    pub fn metrics(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("setup_s", "s", trimmed_mean(&self.setup_s)),
            m("serve_qps", "1/s", trimmed_mean(&self.serve_qps)),
            m("serve_p50_us", "us", trimmed_mean(&self.serve_p50_us)),
            m("serve_p99_us", "us", trimmed_mean(&self.serve_p99_us)),
            m("update_ms", "ms", trimmed_mean(&self.update_ms)),
            m(
                "revoke_visible_ms",
                "ms",
                trimmed_mean(&self.revoke_visible_ms),
            ),
            m("reject_ms", "ms", trimmed_mean(&self.reject_ms)),
            m("peak_rss_mb", "MiB", peak_rss_mb),
        ]
    }
}

/// The result line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(metrics: &[Metric], ledger: &Ledger) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            let value = Json::obj(vec![
                ("value", Json::Num(finite(m.value))),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name, value)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(ledger.correct())),
        ("attempted", Json::int(ledger.attempted)),
        ("failed", Json::int(ledger.failed)),
        ("metrics", Json::obj(body)),
    ])
    .render()
}

/// JSON has no NaN or infinity; a metric that could not be computed is
/// written as 0 (and a 0 end-to-end metric is itself a visible fault).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Closed-loop read phase: one client, each `serve` timed on its own.
/// With a tracer, every `trace_every`-th request is followed by the
/// tracer's layer probes inside the phase, so their cost shows in the
/// traced run's end-to-end numbers as the tracing overhead.
pub fn timed_reads(
    server: &StackServer,
    requests: &[QueryRequest],
    e2e: &mut E2e,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Result<QueryResponse, Error>> {
    let mut out = Vec::with_capacity(requests.len());
    let mut latency_us = Vec::with_capacity(requests.len());
    let compiled = tracer.as_ref().map(|_| server.compiled_policies());
    let snapshot = tracer.as_ref().map(|_| server.snapshot());
    let phase = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        let t = Instant::now();
        let response = server.serve(request);
        latency_us.push(secs(t.elapsed()) * 1e6);
        if let (Some(tracer), Some(compiled), Some(stack)) = (
            tracer.as_deref_mut(),
            compiled.as_deref(),
            snapshot.as_deref(),
        ) {
            if i % tracer.every == 0 {
                tracer.probe_read(stack, compiled, request, &response);
            }
        }
        out.push(response);
    }
    e2e.serve_qps
        .push(requests.len() as f64 / secs(phase.elapsed()));
    e2e.serve_p50_us.push(percentile(&latency_us, 50.0));
    e2e.serve_p99_us.push(percentile(&latency_us, 99.0));
    out
}

/// Batch phase: the request list through `serve_batch` at `workers`
/// workers. Its rate depends on whether the host leaves the process both
/// cores, so it is a per-layer figure of the traced run, not an
/// end-to-end metric.
pub fn batch(
    server: &StackServer,
    requests: &[QueryRequest],
    workers: usize,
    tracer: Option<&mut Tracer>,
) -> Vec<Result<QueryResponse, Error>> {
    let batch = BatchRequest::new(requests.to_vec()).workers(workers);
    let t = Instant::now();
    let response = server.serve_batch(&batch);
    let took = t.elapsed();
    if let Some(tracer) = tracer {
        tracer.absorb_batch(&response.stats, requests.len(), took);
    }
    response.results
}

/// The poller's pause between looks at the published snapshot. Each look
/// wakes a thread; when the host leaves the process one core, wake-ups
/// every few tens of microseconds slowed millisecond updates by an amount
/// that changed from run to run. At 100 µs a look costs the update little
/// and still places a visible update within about 0.15 ms.
const POLL_PAUSE: Duration = Duration::from_micros(100);

/// A read the visibility poller issues once the update has published.
struct Job {
    request: QueryRequest,
    expect: String,
    /// The snapshot published when the update was called.
    published: Arc<SecureWebStack>,
    start: Instant,
    timeout: Duration,
}

/// A second client that detects when an update becomes visible. It looks
/// at the published snapshot every 100 µs ([`POLL_PAUSE`], a pointer
/// compare) and, once the update has published a new one, reads until it is
/// answered with the post-update view; it reports the time from the
/// update call to that read's return. It issues no read before the
/// publication, when every read would still see the old view: on a
/// 2-core machine whose second core the host sometimes takes away, a
/// poller that kept reading would take its CPU from the update it waits
/// for, by an amount that changes from run to run. Its reads are never
/// timed as reads.
pub struct Poller {
    jobs: mpsc::Sender<Job>,
    seen: mpsc::Receiver<Option<Duration>>,
}

impl Poller {
    /// Runs `body` with a poller thread serving from `server`; the thread
    /// is joined before this returns.
    pub fn with<R>(server: &StackServer, body: impl FnOnce(&Poller) -> R) -> R {
        std::thread::scope(|scope| {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let (seen_tx, seen_rx) = mpsc::channel();
            let worker = scope.spawn(move || {
                for job in job_rx {
                    let deadline = job.start + job.timeout;
                    let seen = loop {
                        let published = !Arc::ptr_eq(&server.snapshot(), &job.published);
                        if published
                            && matches!(server.serve(&job.request), Ok(r) if r.xml == job.expect)
                        {
                            break Some(job.start.elapsed());
                        }
                        if Instant::now() > deadline {
                            break None;
                        }
                        std::thread::sleep(POLL_PAUSE);
                    };
                    if seen_tx.send(seen).is_err() {
                        return;
                    }
                }
            });
            let poller = Poller {
                jobs: job_tx,
                seen: seen_rx,
            };
            let result = body(&poller);
            drop(poller);
            worker.join().expect("the poller thread does not panic");
            result
        })
    }

    /// Times `update` from its call to its return, and to the first
    /// poller read answered with `expect`.
    pub fn timed_update<T>(
        &self,
        probe: &QueryRequest,
        expect: &str,
        timeout: Duration,
        published: Arc<SecureWebStack>,
        update: impl FnOnce() -> T,
    ) -> (T, Duration, Option<Duration>) {
        let start = Instant::now();
        let sent = self
            .jobs
            .send(Job {
                request: probe.clone(),
                expect: expect.to_string(),
                published,
                start,
                timeout,
            })
            .is_ok();
        let result = update();
        let took = start.elapsed();
        let seen = if sent {
            self.seen.recv().ok().flatten()
        } else {
            None
        };
        (result, took, seen)
    }
}

/// The XML a read answers with when the subject's view is computed by
/// the interpreting `PolicyEngine` over `policies` and `stack`'s documents
/// — the oracle the compiled serving path is compared with, byte for byte.
pub fn oracle_xml(
    stack: &SecureWebStack,
    policies: &PolicyStore,
    request: &QueryRequest,
) -> Option<String> {
    let doc = stack.documents.get(request.doc_name())?;
    let path = request.query_path()?;
    let view =
        stack
            .engine
            .compute_view(policies, request.subject_profile(), request.doc_name(), doc);
    Some(
        path.select_nodes(&view)
            .iter()
            .map(|&n| view.subtree_xml(n))
            .collect(),
    )
}
