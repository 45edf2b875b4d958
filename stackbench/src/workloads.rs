//! The three workloads, their round structure and their output checks.
//!
//! A run sets the server up several times (their trimmed mean is
//! `setup_s`), runs one untimed warm-up round, then repeats whole rounds
//! until `--seconds` have passed. Every round attempts the same operations:
//!
//! 1. a closed-loop read phase and the batches, against the snapshot the
//!    previous round's last update published — no update is in flight,
//!    so these are the only phases whose read metrics are timed;
//! 2. one admitted revocation, timed to its return (`update_ms`) and to
//!    the first poller read that observes it (`revoke_visible_ms`);
//! 3. the re-grant of the revoked rule (`update_ms`);
//! 4. one refused update (`reject_ms`): a planted grant/deny tie the Deny
//!    gate rejects on `gated_churn`; on the gate-Off workloads an update
//!    whose mutation aborts, which the server must not publish.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use websec_core::prelude::*;
use websec_scenarios::{
    hospital_stack, large_store, large_store_profiles, HospitalSpec, LargeStoreSpec, Pick, Recipe,
};

use crate::ledger::Ledger;
use crate::phases::{batch, oracle_xml, peak_rss_mb, timed_reads, E2e, Metric, Poller};
use crate::stats::trimmed_mean;
use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotReads,
    ColdLargeRevoke,
    GatedChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotReads,
        Workload::ColdLargeRevoke,
        Workload::GatedChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReads => "hot_reads",
            Workload::ColdLargeRevoke => "cold_large_revoke",
            Workload::GatedChurn => "gated_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A deliberate fault the self-test plants to show a check failing. Runs
/// of the benchmark always use [`Plant::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    None,
    /// One served view is altered before it is checked.
    TamperView,
    /// The expected post-revocation view still holds the revoked grant.
    StaleExpectation,
    /// The revocation's mutation changes nothing.
    SkipRevocation,
    /// The revocation was already published before the round's update.
    EarlyRevocation,
    /// One answer is replaced by an error before it is checked.
    DropAnswer,
    /// The "update" only invalidates views: nothing new is published.
    SkipPublication,
    /// The update that must be refused is admitted.
    AdmitRefused,
    /// `verify_compiled` reports a divergence (the public API cannot build
    /// a diverging plane, so the check is handed the error directly).
    BrokenPlane,
}

/// Sizes of one workload run.
pub struct Shape {
    pub hospital: HospitalSpec,
    pub store: LargeStoreSpec,
    /// Timed `serve` calls per read phase.
    pub reads: usize,
    /// Batch requests per round.
    pub batch: usize,
    /// Batches per round: the batch requests are split evenly over them.
    pub batches: usize,
    /// Set-ups before the first round; `setup_s` is the trimmed mean of
    /// these and of the per-round ones.
    pub setups: usize,
    /// Extra set-ups at the start of every round, each built and dropped.
    /// A set-up of a few milliseconds repeated back to back lands inside
    /// one slow or fast stretch of the host; spread over the rounds, it
    /// does not.
    pub round_setups: usize,
    /// Every n-th large-store read is compared with the interpreter.
    pub oracle_every: usize,
    /// Every n-th timed read is followed by the layer probes (traced run).
    pub trace_every: usize,
    /// How long the poller waits for an update to become visible.
    pub visible_timeout: Duration,
    /// Upper bound on rounds (the self-test runs exactly one).
    pub max_rounds: usize,
}

/// The deployment master key of the large-store stacks.
const LARGE_KEY: [u8; 32] = [11u8; 32];

/// The query path of every large-store read: the subject's view of the
/// whole record, the view `serving_bench`'s compiled section builds per
/// subject on the same store.
const LARGE_PATH: &str = "/rec";

/// The mid-size store of `gated_churn`: the large store's shape at a size
/// where one gated update (two full analyzer runs, a compile and two
/// verifier runs) takes about one second on a 2-core machine.
fn gated_store() -> LargeStoreSpec {
    LargeStoreSpec {
        docs: 400,
        subjects: 1_000,
        specific_auths: 320,
    }
}

impl Shape {
    /// The sizes of benchmark runs.
    pub fn full(workload: Workload) -> Shape {
        let base = Shape {
            hospital: HospitalSpec::bench(),
            store: LargeStoreSpec::bench(),
            // 1 000 reads per phase: the 24 identities' first reads after an
            // update miss the view cache (2.4% of the phase), so the p99 is
            // the middle of those misses rather than the border between
            // misses and hits, where it flips from run to run.
            reads: 1_000,
            batch: 1_024,
            batches: 1,
            setups: 9,
            round_setups: 1,
            oracle_every: 8,
            trace_every: 4,
            visible_timeout: Duration::from_secs(60),
            max_rounds: usize::MAX,
        };
        match workload {
            Workload::HotReads => base,
            Workload::ColdLargeRevoke => Shape {
                reads: 1_000,
                batch: 300,
                batches: 3,
                setups: 5,
                round_setups: 0,
                ..base
            },
            Workload::GatedChurn => Shape {
                store: gated_store(),
                reads: 2_000,
                batch: 1_000,
                batches: 2,
                setups: 5,
                oracle_every: 4,
                ..base
            },
        }
    }

    /// Small sizes for the smoke run and the self-test.
    pub fn smoke(workload: Workload) -> Shape {
        Shape {
            store: match workload {
                Workload::GatedChurn => LargeStoreSpec {
                    docs: 60,
                    subjects: 60,
                    specific_auths: 24,
                },
                _ => LargeStoreSpec {
                    docs: 2_000,
                    subjects: 2_000,
                    specific_auths: 160,
                },
            },
            reads: 100,
            batch: 100,
            setups: 2,
            oracle_every: 2,
            trace_every: 2,
            visible_timeout: Duration::from_secs(2),
            ..Shape::full(workload)
        }
    }
}

/// The payload of the panic that aborts a refused update on the gate-Off
/// workloads.
struct AbortUpdate;

/// Keeps the planned update aborts off standard error; every other panic
/// still reaches the default hook.
pub fn install_abort_hook() {
    let default = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<AbortUpdate>().is_none() {
            default(info);
        }
    }));
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The server plus the workload's corpus handles.
struct Fixture {
    server: StackServer,
    master_key: [u8; 32],
    /// Large-store document names (empty on `hot_reads`).
    names: Vec<String>,
    /// Large-store subject profiles (empty on `hot_reads`).
    profiles: Vec<SubjectProfile>,
}

fn build(workload: Workload, shape: &Shape) -> Fixture {
    match workload {
        Workload::HotReads => Fixture {
            server: StackServer::new(hospital_stack(&shape.hospital)),
            master_key: [shape.hospital.master_seed; 32],
            names: Vec::new(),
            profiles: Vec::new(),
        },
        Workload::ColdLargeRevoke | Workload::GatedChurn => {
            let (policies, documents, names) = large_store(&shape.store);
            let profiles = large_store_profiles(&shape.store);
            let mut stack = SecureWebStack::new(LARGE_KEY);
            stack.documents = documents;
            stack.policies = policies;
            let gate = if workload == Workload::GatedChurn {
                AnalysisGate::Deny
            } else {
                AnalysisGate::Off
            };
            Fixture {
                server: StackServer::with_config(stack, ServerConfig::new().analysis_gate(gate)),
                master_key: LARGE_KEY,
                names,
                profiles,
            }
        }
    }
}

/// Runs one workload: set-ups, then whole rounds for `seconds` (with
/// `trace`, an untraced half and then a traced half), then the end-of-run
/// checks. Returns the end-to-end metrics, or the per-layer metrics when
/// traced.
pub fn run(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: Plant,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let mut setup_s = Vec::with_capacity(shape.setups);
    let mut fixture = None;
    for _ in 0..shape.setups.max(1) {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(build(workload, shape));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fx = fixture.expect("at least one set-up ran");
    let mut rng = SecureRng::seeded(seed);
    let fresh = if workload == Workload::ColdLargeRevoke {
        permutation(fx.profiles.len(), &mut rng)
    } else {
        Vec::new()
    };
    let mut rounds = Rounds {
        workload,
        shape,
        plant,
        fx: &fx,
        rng,
        fresh,
        next_fresh: 0,
    };
    let (e2e, tracer) = Poller::with(&fx.server, |poller| {
        // One round whose operations are checked but not timed: the first
        // update of a process runs on a fresh heap and the first gated one
        // fills the verifier's cache, which later rounds never see again.
        rounds.repeat(poller, 0.0, &mut E2e::default(), None, ledger);
        if trace {
            let mut untraced = E2e::default();
            rounds.repeat(poller, seconds / 2.0, &mut untraced, None, ledger);
            let mut traced = E2e::default();
            let mut tracer = Tracer::new(
                fx.master_key,
                workload == Workload::GatedChurn,
                shape.trace_every,
            );
            rounds.repeat(
                poller,
                seconds / 2.0,
                &mut traced,
                Some(&mut tracer),
                ledger,
            );
            print_overhead(&untraced, &traced);
            (traced, Some(tracer))
        } else {
            let mut e2e = E2e {
                setup_s,
                ..E2e::default()
            };
            rounds.repeat(poller, seconds, &mut e2e, None, ledger);
            (e2e, None)
        }
    });
    end_of_run_checks(workload, &fx.server, plant, ledger);
    match tracer {
        Some(tracer) => {
            println!("{}", tracer.update_breakdown(trimmed_mean(&e2e.update_ms)));
            tracer.metrics()
        }
        None => e2e.metrics(peak_rss_mb()),
    }
}

/// Prints each end-to-end metric of the traced half next to the untraced
/// half's: the difference is what the layer probes cost.
fn print_overhead(untraced: &E2e, traced: &E2e) {
    for (u, t) in untraced.metrics(0.0).iter().zip(traced.metrics(0.0)) {
        if matches!(u.name, "setup_s" | "peak_rss_mb") {
            continue;
        }
        let diff = t.value - u.value;
        println!(
            "trace overhead {}: untraced {:.3} {unit}, traced {:.3} {unit}, difference {:+.3} \
             {unit} ({:+.1}%)",
            u.name,
            u.value,
            t.value,
            diff,
            100.0 * diff / u.value.abs().max(f64::MIN_POSITIVE),
            unit = u.unit
        );
    }
}

/// `verify_compiled` must hold once the run is over. It is skipped on
/// `cold_large_revoke`: on the 100k-document store it needs minutes and
/// more memory than the machine has (see the README).
fn end_of_run_checks(workload: Workload, server: &StackServer, plant: Plant, ledger: &mut Ledger) {
    if workload == Workload::ColdLargeRevoke {
        return;
    }
    let verdict = if plant == Plant::BrokenPlane {
        Err(Error::AnalysisRejected("planted divergence".into()))
    } else {
        server.verify_compiled().map(|_| ())
    };
    ledger.single("run.verify_compiled", verdict.is_ok(), || {
        format!("{verdict:?}")
    });
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, rng: &mut SecureRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// The server's answers to a list of requests, in request order.
type Answers = Vec<Result<QueryResponse, Error>>;

/// The expected answer to a `hot_reads` request, from the generator's
/// arithmetic.
#[derive(Debug, Clone, Copy)]
enum HotExpect {
    /// Exactly patient `p`'s record.
    Record(usize),
    /// Allowed, with an empty view.
    Empty,
    /// Refused at the RDF label layer (`WS102`).
    Ws102,
}

/// The record `//patient[@id='p{p}']` selects for a granted doctor: the
/// generator writes `<patient id="p{p}"><name>N{p}</name><record>r{p}
/// </record></patient>` under `<hospital>`, and a selected node is
/// serialised with its ancestors.
fn hot_record(p: usize) -> String {
    format!("<hospital><patient id=\"p{p}\"><name>N{p}</name><record>r{p}</record></patient></hospital>")
}

fn hot_ok(expect: Option<HotExpect>, got: &Result<QueryResponse, Error>) -> bool {
    match (expect, got) {
        (Some(HotExpect::Record(p)), Ok(r)) => r.xml == hot_record(p),
        (Some(HotExpect::Empty), Ok(r)) => r.xml.is_empty(),
        (Some(HotExpect::Ws102), Err(e)) => e.code() == "WS102",
        _ => false,
    }
}

/// The `hot_reads` traffic: the shares of the repository's mixed hospital
/// traffic (`Recipe::mixed_hospital`, which `serving_bench` and the
/// scenarios run), with each request drawn from the seed rather than from
/// its index. `HospitalMix` makes request `i` a Secret probe when
/// `i % 7 == 3` (5 in 35), otherwise a clerk view when `i % 5 == 1`
/// (6 in 35), otherwise a doctor's patient read (24 in 35).
fn hot_recipe() -> Recipe {
    Recipe::Mix(vec![
        (
            24,
            Recipe::PatientRead {
                subject: Pick::Uniform,
                patient: Pick::Uniform,
            },
        ),
        (
            6,
            Recipe::ClerkView {
                subject: Pick::Uniform,
            },
        ),
        (
            5,
            Recipe::SecretProbe {
                subject: Pick::Uniform,
            },
        ),
    ])
}

/// The expected answer to a generated `hot_reads` request, read off the
/// request alone: the Secret document is refused with WS102, a clerk
/// (granted nothing) gets an empty view, and a granted doctor's
/// `//patient[@id='p{p}']` read gets exactly record `p`. Anything else has
/// no expected answer and fails.
fn hot_expect(spec: &HospitalSpec, request: &QueryRequest) -> Option<HotExpect> {
    let identity = &request.subject_profile().identity;
    let granted = (0..spec.granted).any(|d| spec.granted_subject(d) == *identity);
    let clerk = (0..spec.clerks).any(|c| spec.clerk_subject(c) == *identity);
    match request.doc_name() {
        "secret.xml" => Some(HotExpect::Ws102),
        "records.xml" if clerk => Some(HotExpect::Empty),
        "records.xml" if granted => {
            let source = request.query_path()?.source();
            let p = source
                .strip_prefix("//patient[@id='p")?
                .strip_suffix("']")?;
            let p: usize = p.parse().ok()?;
            (p < spec.patients).then_some(HotExpect::Record(p))
        }
        _ => None,
    }
}

/// A read of patient `p` by granted doctor `d`.
fn doctor_read(spec: &HospitalSpec, d: usize, p: usize, rng: &mut SecureRng) -> QueryRequest {
    let read = Recipe::PatientRead {
        subject: Pick::Fixed(d),
        patient: Pick::Fixed(p),
    };
    read.generate(spec, 1, rng)
        .pop()
        .expect("a recipe generates the requested count")
}

/// Applies [`Plant::TamperView`] or [`Plant::DropAnswer`] to the first
/// successful response.
fn tamper(plant: Plant, responses: &mut [Result<QueryResponse, Error>]) {
    let Some(first) = responses.iter_mut().find(|r| r.is_ok()) else {
        return;
    };
    match plant {
        Plant::TamperView => {
            if let Ok(r) = first {
                r.xml.push('!');
            }
        }
        Plant::DropAnswer => *first = Err(Error::UnknownDocument("planted".into())),
        _ => {}
    }
}

/// What a round revokes and grants again: one authorization, a read
/// whose answer the revocation changes, and that read's answer before
/// and after.
struct Target {
    rule: Authorization,
    probe: QueryRequest,
    before: String,
    after: String,
}

/// The rounds of one run and the state they share.
struct Rounds<'a> {
    workload: Workload,
    shape: &'a Shape,
    plant: Plant,
    fx: &'a Fixture,
    rng: SecureRng,
    /// Order in which `cold_large_revoke` hands out subjects not yet seen.
    fresh: Vec<usize>,
    next_fresh: usize,
}

impl Rounds<'_> {
    /// Whole rounds until `seconds` have passed (at least one).
    fn repeat(
        &mut self,
        poller: &Poller,
        seconds: f64,
        e2e: &mut E2e,
        mut tracer: Option<&mut Tracer>,
        ledger: &mut Ledger,
    ) {
        let start = Instant::now();
        let mut done = 0;
        while done < self.shape.max_rounds
            && self.fits()
            && (done == 0 || start.elapsed().as_secs_f64() < seconds)
        {
            for _ in 0..self.shape.round_setups {
                let t = Instant::now();
                drop(build(self.workload, self.shape));
                e2e.setup_s.push(t.elapsed().as_secs_f64());
            }
            let before = tracer.as_ref().map(|_| self.fx.server.metrics());
            match self.workload {
                Workload::HotReads => self.hot_round(poller, e2e, tracer.as_deref_mut(), ledger),
                _ => self.large_round(poller, e2e, tracer.as_deref_mut(), ledger),
            }
            if let (Some(tracer), Some(before)) = (tracer.as_deref_mut(), before) {
                tracer.absorb_round(&self.fx.server.metrics().delta(&before));
            }
            done += 1;
        }
    }

    /// On `cold_large_revoke` every read needs a subject not yet seen in
    /// the run; a round starts only if its subjects are left.
    fn fits(&self) -> bool {
        self.workload != Workload::ColdLargeRevoke
            || self.next_fresh + self.shape.reads + self.shape.batch <= self.fresh.len()
    }

    fn workers() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// The read phase, then the round's batches; with a tracer, the
    /// counter deltas of these phases are recorded. Planted answer faults
    /// are applied here, before any check sees the answers.
    fn read_phases(
        &self,
        reads: &[QueryRequest],
        batched_requests: &[QueryRequest],
        e2e: &mut E2e,
        mut tracer: Option<&mut Tracer>,
    ) -> (Answers, Answers) {
        let server = &self.fx.server;
        let before = tracer.as_ref().map(|_| server.metrics());
        let mut served = timed_reads(server, reads, e2e, tracer.as_deref_mut());
        let mut batched = Vec::with_capacity(batched_requests.len());
        let per_batch = batched_requests.len().div_ceil(self.shape.batches).max(1);
        for chunk in batched_requests.chunks(per_batch) {
            batched.extend(batch(server, chunk, Self::workers(), tracer.as_deref_mut()));
        }
        if let (Some(tracer), Some(before)) = (tracer, before) {
            tracer.absorb_reads(&server.metrics().delta(&before));
        }
        tamper(self.plant, &mut served);
        tamper(self.plant, &mut batched);
        (served, batched)
    }

    /// `n` reads drawn from [`hot_recipe`], each with its expected answer.
    fn hot_requests(&mut self, n: usize) -> (Vec<QueryRequest>, Vec<Option<HotExpect>>) {
        let spec = &self.shape.hospital;
        let requests = hot_recipe().generate(spec, n, &mut self.rng);
        let expected = requests.iter().map(|r| hot_expect(spec, r)).collect();
        (requests, expected)
    }

    fn hot_round(
        &mut self,
        poller: &Poller,
        e2e: &mut E2e,
        mut tracer: Option<&mut Tracer>,
        ledger: &mut Ledger,
    ) {
        let server = &self.fx.server;
        let (reads, read_expect) = self.hot_requests(self.shape.reads);
        let (batch, batch_expect) = self.hot_requests(self.shape.batch);
        let (served, batched) = self.read_phases(&reads, &batch, e2e, tracer.as_deref_mut());
        let requests = reads.iter().chain(&batch);
        let expected = read_expect.iter().chain(&batch_expect);
        for ((request, expect), got) in requests.zip(expected).zip(served.iter().chain(&batched)) {
            ledger.single("hot.view", hot_ok(*expect, got), || {
                format!(
                    "{} expected {expect:?}, got {got:?}",
                    request.subject_profile().identity
                )
            });
        }

        // Revoke one doctor's grant, then grant the same rule again.
        let spec = &self.shape.hospital;
        let d = self.rng.gen_range(spec.granted as u64) as usize;
        let p = self.rng.gen_range(spec.patients as u64) as usize;
        let probe = doctor_read(spec, d, p, &mut self.rng);
        let doctor = spec.granted_subject(d);
        let rule = server
            .snapshot()
            .policies
            .authorizations()
            .iter()
            .find(|a| matches!(&a.subject, SubjectSpec::Identity(id) if *id == doctor))
            .cloned();
        let Some(rule) = rule else {
            ledger.single("update.target", false, || format!("no grant for {doctor}"));
            return;
        };
        let target = Target {
            rule,
            probe,
            before: hot_record(p),
            after: String::new(),
        };
        self.churn(&target, poller, e2e, tracer, ledger);
    }

    /// The update half of a round: revoke the target rule, grant it
    /// again, then one refused update.
    fn churn(
        &mut self,
        target: &Target,
        poller: &Poller,
        e2e: &mut E2e,
        mut tracer: Option<&mut Tracer>,
        ledger: &mut Ledger,
    ) {
        let id = target.rule.id;
        let revoked = admitted_update(
            self,
            poller,
            &target.probe,
            (&target.before, &target.after),
            &move |s: &mut SecureWebStack| usize::from(s.policies.revoke(id)),
            self.plant,
            e2e,
            tracer.as_deref_mut(),
            ledger,
        );
        if let Some(seen) = revoked {
            e2e.revoke_visible_ms.push(seen);
        }
        let rule = target.rule.clone();
        admitted_update(
            self,
            poller,
            &target.probe,
            (&target.after, &target.before),
            &move |s: &mut SecureWebStack| {
                s.policies.add(rule.clone());
                1
            },
            Plant::None,
            e2e,
            tracer,
            ledger,
        );
        // `add` appends: the re-granted rule is the snapshot's last one.
        let Some(regranted) = self
            .fx
            .server
            .snapshot()
            .policies
            .authorizations()
            .last()
            .map(|a| a.id)
        else {
            return;
        };
        if self.workload == Workload::GatedChurn {
            self.planted_tie(&target.probe, e2e, ledger);
        } else {
            aborted_update(
                self,
                &target.probe,
                &move |s: &mut SecureWebStack| {
                    s.policies.revoke(regranted);
                },
                e2e,
                ledger,
            );
        }
    }

    /// Large-store reads of a whole record: a subject (not yet seen in the
    /// run on `cold_large_revoke`, recurring on `gated_churn`) and a
    /// document drawn uniformly from the seed, so that the reads cover
    /// the store evenly, as `serving_bench`'s strided walk does.
    fn large_requests(&mut self, n: usize) -> Vec<QueryRequest> {
        (0..n)
            .map(|_| {
                let subject = if self.workload == Workload::ColdLargeRevoke {
                    self.next_fresh += 1;
                    self.fresh[self.next_fresh - 1]
                } else {
                    self.rng.gen_range(self.fx.profiles.len() as u64) as usize
                };
                let doc = self.rng.gen_range(self.fx.names.len() as u64) as usize;
                QueryRequest::for_doc(&self.fx.names[doc])
                    .path(Path::parse(LARGE_PATH).expect("valid path"))
                    .subject(&self.fx.profiles[subject])
                    .clearance(Clearance(Level::Unclassified))
            })
            .collect()
    }

    /// Draws a rule-level grant (a role, credential or `Anyone` rule), a
    /// subject and a document such that revoking the grant changes what
    /// the subject sees of the document, comparing interpreter views with
    /// and without it. (The store's subject-specific grants all repeat
    /// what the subject's role already grants, so revoking one of them
    /// changes no view and could not be observed.)
    fn choose_target(&mut self) -> Option<Target> {
        let stack = self.fx.server.snapshot();
        let rules: Vec<&Authorization> = stack
            .policies
            .authorizations()
            .iter()
            .filter(|a| a.sign == Sign::Plus && !matches!(a.subject, SubjectSpec::Identity(_)))
            .collect();
        for _ in 0..256 {
            let rule = *rules.get(self.rng.gen_range(rules.len().max(1) as u64) as usize)?;
            let subject = self.rng.gen_range(self.fx.profiles.len() as u64) as usize;
            let doc = self.rng.gen_range(self.fx.names.len() as u64) as usize;
            let probe = QueryRequest::for_doc(&self.fx.names[doc])
                .path(Path::parse(LARGE_PATH).expect("valid path"))
                .subject(&self.fx.profiles[subject])
                .clearance(Clearance(Level::Unclassified));
            let mut without = stack.policies.clone();
            without.revoke(rule.id);
            let before = oracle_xml(&stack, &stack.policies, &probe)?;
            let after = oracle_xml(&stack, &without, &probe)?;
            if before != after {
                return Some(Target {
                    rule: rule.clone(),
                    probe,
                    before,
                    after,
                });
            }
        }
        None
    }

    fn large_round(
        &mut self,
        poller: &Poller,
        e2e: &mut E2e,
        mut tracer: Option<&mut Tracer>,
        ledger: &mut Ledger,
    ) {
        let server = &self.fx.server;
        let reads = self.large_requests(self.shape.reads);
        let batch = self.large_requests(self.shape.batch);
        let (served, batched) = self.read_phases(&reads, &batch, e2e, tracer.as_deref_mut());
        let stack = server.snapshot();
        let answered = reads
            .iter()
            .chain(&batch)
            .zip(served.iter().chain(&batched));
        for (i, (request, got)) in answered.enumerate() {
            let mut op = ledger.op();
            op.check("read.ok", got.is_ok(), || format!("{got:?}"));
            if i % self.shape.oracle_every == 0 {
                let expect = oracle_xml(&stack, &stack.policies, request);
                let same = matches!((got, &expect), (Ok(r), Some(x)) if r.xml == *x);
                op.check("view.oracle", same, || {
                    format!(
                        "{} on {}: served {got:?}, interpreter {expect:?}",
                        request.subject_profile().identity,
                        request.doc_name()
                    )
                });
            }
        }
        drop(stack);
        match self.choose_target() {
            Some(target) => self.churn(&target, poller, e2e, tracer, ledger),
            None => ledger.single("update.target", false, || "no revocable grant found".into()),
        }
    }

    /// An equal-priority grant/deny pair on the probe's document under
    /// explicit-priority resolution: the Deny gate must refuse it with
    /// WS109 naming the WS014 tie, publishing nothing.
    fn planted_tie(&mut self, probe: &QueryRequest, e2e: &mut E2e, ledger: &mut Ledger) {
        let server = &self.fx.server;
        let document = probe.doc_name().to_string();
        let tie = move |s: &mut SecureWebStack| {
            s.engine.strategy = ConflictStrategy::ExplicitPriority;
            for sign in [Sign::Plus, Sign::Minus] {
                s.policies.add(
                    Authorization::for_subject(SubjectSpec::Anyone)
                        .on(ObjectSpec::Portion {
                            document: document.clone(),
                            path: Path::parse("//entry").expect("valid path"),
                        })
                        .privilege(Privilege::Read)
                        .priority(3)
                        .sign(sign),
                );
            }
        };
        let unchanged = Unchanged::capture(server, probe);
        let t = Instant::now();
        let result = if self.plant == Plant::AdmitRefused {
            server.set_analysis_gate(AnalysisGate::Off);
            let admitted = server.try_update(tie);
            server.set_analysis_gate(AnalysisGate::Deny);
            admitted
        } else {
            server.try_update(tie)
        };
        e2e.reject_ms.push(ms(t.elapsed()));
        let refused =
            matches!(&result, Err(e) if e.code() == "WS109" && e.to_string().contains("WS014"));
        let mut op = ledger.op();
        op.check("reject.refused", refused, || {
            format!("planted tie answered {result:?}")
        });
        unchanged.check(server, probe, &mut op);
    }
}

/// What a refused update must leave as it was: the published snapshot,
/// the compile count and the bytes a probe read is served.
struct Unchanged {
    snapshot: Arc<SecureWebStack>,
    compiles: u64,
    served: Result<String, Error>,
}

impl Unchanged {
    fn capture(server: &StackServer, probe: &QueryRequest) -> Unchanged {
        Unchanged {
            snapshot: server.snapshot(),
            compiles: server.snapshot_compiles(),
            served: server.serve(probe).map(|r| r.xml),
        }
    }

    fn check(&self, server: &StackServer, probe: &QueryRequest, op: &mut crate::ledger::Op<'_>) {
        let published = server.snapshot_compiles() - self.compiles;
        op.check("update.compiles", published == 0, || {
            format!("{published} compiles for a refused update")
        });
        let same_snapshot = Arc::ptr_eq(&self.snapshot, &server.snapshot());
        let served = server.serve(probe).map(|r| r.xml);
        let same_bytes = matches!((&self.served, &served), (Ok(a), Ok(b)) if a == b);
        op.check("reject.unchanged", same_snapshot && same_bytes, || {
            format!(
                "snapshot kept {same_snapshot}, bytes before {:?} after {served:?}",
                self.served
            )
        });
    }
}

/// An admitted update (a revocation, or the re-grant that undoes it):
/// timed to its return (`update_ms`) and to the first poller read that
/// sees it, which is returned in ms. Every admitted update runs with the
/// poller reading, so all `update_ms` samples are taken alike. Then the
/// update must have published exactly one compile, and no read may serve
/// the view from before it. `views` is the probe's (before, after)
/// answer; `mutate` returns how many rules it changed (1).
#[allow(clippy::too_many_arguments)]
fn admitted_update(
    rounds: &Rounds<'_>,
    poller: &Poller,
    probe: &QueryRequest,
    views: (&str, &str),
    mutate: &dyn Fn(&mut SecureWebStack) -> usize,
    plant: Plant,
    e2e: &mut E2e,
    tracer: Option<&mut Tracer>,
    ledger: &mut Ledger,
) -> Option<f64> {
    let server = &rounds.fx.server;
    let (before, after) = views;
    if plant == Plant::EarlyRevocation {
        let _ = server.try_update(mutate);
    }
    let now = server.serve(probe);
    ledger.single(
        "update.before",
        matches!(&now, Ok(r) if r.xml == before),
        || format!("before the update: {now:?}"),
    );
    if let Some(tracer) = tracer {
        tracer.probe_update(server, &|s| {
            mutate(s);
        });
    }
    let expect = if plant == Plant::StaleExpectation {
        before
    } else {
        after
    };
    let compiles = server.snapshot_compiles();
    let published = server.snapshot();
    let (result, took, seen) = poller.timed_update(
        probe,
        expect,
        rounds.shape.visible_timeout,
        published,
        || match plant {
            Plant::SkipPublication => {
                server.invalidate_views();
                Ok(1)
            }
            Plant::SkipRevocation => server.try_update(|_| 0),
            _ => server.try_update(mutate),
        },
    );
    e2e.update_ms.push(ms(took));
    let published = server.snapshot_compiles() - compiles;
    let now = server.serve(probe);
    let mut op = ledger.op();
    op.check("update.admitted", matches!(result, Ok(1)), || {
        format!("update returned {result:?}")
    });
    op.check("update.compiles", published == 1, || {
        format!("{published} compiles")
    });
    op.check("update.visible", seen.is_some(), || {
        format!(
            "no read saw the update within {:?}",
            rounds.shape.visible_timeout
        )
    });
    op.check(
        "update.no_stale",
        matches!(&now, Ok(r) if r.xml == expect),
        || format!("after the update: {now:?}"),
    );
    seen.map(ms)
}

/// A refused update on a gate-Off workload: the mutation runs on the
/// server's private candidate and then aborts, so nothing is published.
fn aborted_update(
    rounds: &Rounds<'_>,
    probe: &QueryRequest,
    mutate: &dyn Fn(&mut SecureWebStack),
    e2e: &mut E2e,
    ledger: &mut Ledger,
) {
    let server = &rounds.fx.server;
    let unchanged = Unchanged::capture(server, probe);
    let abort = rounds.plant != Plant::AdmitRefused;
    let t = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        server.try_update(|s| {
            mutate(s);
            if abort {
                panic::panic_any(AbortUpdate);
            }
        })
    }));
    e2e.reject_ms.push(ms(t.elapsed()));
    let mut op = ledger.op();
    op.check("reject.refused", result.is_err(), || {
        "the aborted update returned normally".into()
    });
    unchanged.check(server, probe, &mut op);
}
