//! End-to-end host-time benchmark for the mgpu workspace.
//!
//! ```text
//! mgpu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//! ```
//!
//! One run repeats *sessions* until `--seconds` have passed (and at least
//! the workload's minimum count). A session loads the workload's graph
//! through the public library API (generate, weights, CSR, partition,
//! CSC), serves the seeded query script on it, checks every harvested
//! result against `mgpu_primitives::reference`, and drops it. Every session
//! runs the same script, so the simulated metrics of all sessions must be
//! bit-identical; the run fails if they are not. An untraced run follows
//! each session with the workload's extra set-ups, timed for `setup_s` only.
//!
//! With `--trace 0` the run measures the end-to-end metrics with every kind
//! of tracing off. With `--trace 1` it records host spans around each layer
//! call, alternates sessions with `EnactConfig::tracing` off and on, and
//! reports per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod probe;
mod spans;
mod stats;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mgpu_bench::runners::scaled_system;
use mgpu_bench::{build_query_specs, parse_query_list, residency_bytes, ExecMode, Primitive};
use mgpu_core::{
    EnactConfig, EnactReport, Executor, ExecutorKind, MgpuProblem, PressurePolicy, Profile,
    QuerySpec, RecoveryPolicy, Runner, Service, ServicePolicy,
};
use mgpu_gen::{weights::add_paper_weights, Dataset};
use mgpu_graph::{Csr, GraphBuilder};
use mgpu_partition::{DistGraph, Duplication, Partitioner, RandomPartitioner};
use mgpu_primitives::{Bc, Bfs, Cc, Dobfs, Pagerank, Sssp};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vgpu::{FaultPlan, HardwareProfile};

use spans::Tracer;
use workload::{Dispatch, Expected, Query, Workload};

/// Generator seed of every dataset (fixed: the workload seed only picks
/// sources and mix order).
const DATASET_SEED: u64 = 42;
/// Seed of the random partitioner.
const PARTITION_SEED: u64 = 42;

fn main() -> ExitCode {
    let t_process = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mgpu-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, t_process) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mgpu-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: mgpu-perfbench --workload <ingest-rmat|soc-queries|road-deep|service-mix> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        workload::by_name(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("bad --seconds {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}")),
                    })
                }
                "--spans-out" => spans_out = Some(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            spans_out,
        })
    }
}

// ---------------------------------------------------------------------------
// one query
// ---------------------------------------------------------------------------

/// Host timings and outcome of one finished query.
struct Done {
    prim: Primitive,
    kind: ExecutorKind,
    /// Build (system + bind) through harvest, in seconds.
    latency_s: f64,
    bind_s: f64,
    enact_s: f64,
    harvest_s: f64,
    result: Result<EnactReport, String>,
    words: Vec<u64>,
}

/// Span names of a query's bind, enact and harvest, per primitive.
fn enactor_spans(p: Primitive) -> [&'static str; 3] {
    match p {
        Primitive::Bfs => ["enactor.bind_ms.bfs", "enactor.enact_ms.bfs", "enactor.harvest_ms.bfs"],
        Primitive::Dobfs => {
            ["enactor.bind_ms.dobfs", "enactor.enact_ms.dobfs", "enactor.harvest_ms.dobfs"]
        }
        Primitive::Sssp => {
            ["enactor.bind_ms.sssp", "enactor.enact_ms.sssp", "enactor.harvest_ms.sssp"]
        }
        Primitive::Bc => ["enactor.bind_ms.bc", "enactor.enact_ms.bc", "enactor.harvest_ms.bc"],
        Primitive::Cc => ["enactor.bind_ms.cc", "enactor.enact_ms.cc", "enactor.harvest_ms.cc"],
        Primitive::Pr => ["enactor.bind_ms.pr", "enactor.enact_ms.pr", "enactor.harvest_ms.pr"],
    }
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Build a fresh system, bind `problem`, enact from `src`, harvest.
#[allow(clippy::too_many_arguments)]
fn direct<P: MgpuProblem<u32, u64>>(
    tr: &Tracer,
    i: usize,
    prim: Primitive,
    dist: &DistGraph<u32, u64>,
    w: &Workload,
    config: EnactConfig,
    problem: P,
    src: Option<u32>,
) -> Done {
    let [bind_span, enact_span, harvest_span] = enactor_spans(prim);
    let t0 = Instant::now();
    let system = tr
        .span("vgpu.system_ms", Some(i), || scaled_system(w.gpus, HardwareProfile::k40(), w.shift));
    let t1 = Instant::now();
    let bound = tr.span(bind_span, Some(i), || Runner::new(system, dist, problem, config));
    let t2 = Instant::now();
    let mut done = Done {
        prim,
        kind: ExecutorKind::Bsp,
        latency_s: 0.0,
        bind_s: secs(t1, t2),
        enact_s: 0.0,
        harvest_s: 0.0,
        result: Err(String::new()),
        words: Vec::new(),
    };
    let mut runner = match bound {
        Ok(r) => r,
        Err(e) => {
            done.result = Err(format!("bind: {e}"));
            return done;
        }
    };
    let report = tr.span(enact_span, Some(i), || runner.enact(src));
    let t3 = Instant::now();
    done.enact_s = secs(t2, t3);
    match report {
        Ok(r) => {
            done.words = tr.span(harvest_span, Some(i), || runner.harvest());
            let t4 = Instant::now();
            done.harvest_s = secs(t3, t4);
            done.latency_s = secs(t0, t4);
            done.result = Ok(r);
        }
        Err(e) => done.result = Err(format!("enact: {e}")),
    }
    done
}

fn run_direct(
    tr: &Tracer,
    i: usize,
    q: Query,
    dist: &DistGraph<u32, u64>,
    w: &Workload,
    config: EnactConfig,
) -> Done {
    let src = q.source;
    match q.prim {
        Primitive::Bfs => direct(tr, i, q.prim, dist, w, config, Bfs::default(), src),
        Primitive::Dobfs => direct(tr, i, q.prim, dist, w, config, Dobfs::default(), src),
        Primitive::Sssp => direct(tr, i, q.prim, dist, w, config, Sssp, src),
        Primitive::Bc => direct(tr, i, q.prim, dist, w, config, Bc, src),
        Primitive::Cc => direct(tr, i, q.prim, dist, w, config, Cc, src),
        Primitive::Pr => {
            let pr = Pagerank { damping: 0.85, threshold: 0.0, max_iters: workload::PR_ITERS };
            direct(tr, i, q.prim, dist, w, config, pr, src)
        }
    }
}

// ---------------------------------------------------------------------------
// service batches
// ---------------------------------------------------------------------------

/// Worker-side timestamps of one served query.
#[derive(Clone, Copy)]
struct Stamps {
    query: usize,
    start: Instant,
    bound: Instant,
    enact_start: Instant,
    enacted: Instant,
    harvested: Instant,
}

/// An executor wrapper that timestamps bind, enact and harvest from the
/// worker thread the service runs it on.
struct Timed<'g> {
    inner: Box<dyn Executor<u32> + Send + 'g>,
    query: usize,
    start: Instant,
    bound: Instant,
    enact: (Instant, Instant),
    sink: Arc<Mutex<Vec<Stamps>>>,
}

impl Executor<u32> for Timed<'_> {
    fn kind(&self) -> ExecutorKind {
        self.inner.kind()
    }
    fn primitive(&self) -> &'static str {
        self.inner.primitive()
    }
    fn n_devices(&self) -> usize {
        self.inner.n_devices()
    }
    fn recovery_policy(&self) -> RecoveryPolicy {
        self.inner.recovery_policy()
    }
    fn enact(&mut self, src: Option<u32>) -> vgpu::Result<EnactReport> {
        let t = Instant::now();
        let r = self.inner.enact(src);
        self.enact = (t, Instant::now());
        r
    }
    fn harvest(&self) -> Vec<u64> {
        let words = self.inner.harvest();
        let stamps = Stamps {
            query: self.query,
            start: self.start,
            bound: self.bound,
            enact_start: self.enact.0,
            enacted: self.enact.1,
            harvested: Instant::now(),
        };
        self.sink.lock().expect("timing sink poisoned by a panicking worker").push(stamps);
        words
    }
}

/// One served query of a service script.
struct Served {
    query: Query,
    mode: ExecMode,
    plan: Option<FaultPlan>,
}

/// Split a session script into service batches and assign executor modes:
/// per batch, the first BFS runs `@resilient` under a seeded transient
/// kernel fault, every CC runs `@async`, the rest `@bsp`. (The query
/// grammar also accepts `bfs@async`, but the BFS primitive is not
/// label-correcting and returns wrong depths asynchronously.)
fn service_script(script: &[Query], batch: usize, w: &Workload, seed: u64) -> Vec<Vec<Served>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e41_ce00);
    script
        .chunks(batch)
        .map(|chunk| {
            let mut resilient = false;
            chunk
                .iter()
                .map(|&query| {
                    let (mode, plan) = match query.prim {
                        Primitive::Bfs if !resilient => {
                            resilient = true;
                            let dev = rng.gen_range(0..w.gpus);
                            let launch = rng.gen_range(1..4u64);
                            let plan = FaultPlan::new().kernel_fail(dev, launch);
                            (ExecMode::Resilient, Some(plan))
                        }
                        Primitive::Cc => (ExecMode::Async, None),
                        _ => (ExecMode::Bsp, None),
                    };
                    Served { query, mode, plan }
                })
                .collect()
        })
        .collect()
}

/// Aggregates of one service batch.
#[derive(Default)]
struct ServiceStats {
    waves: u64,
    queued: u64,
    wall_s: f64,
    enact_wall_s: f64,
    serial_sim_us: f64,
    concurrent_sim_us: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_batch(
    tr: &Tracer,
    first: usize,
    batch: &[Served],
    g: &Csr<u32, u64>,
    dist: &DistGraph<u32, u64>,
    owner: &[u32],
    w: &Workload,
    config: EnactConfig,
    seed: u64,
) -> Result<(Vec<Done>, ServiceStats), String> {
    let sink: Arc<Mutex<Vec<Stamps>>> = Arc::new(Mutex::new(Vec::new()));
    let plan_span = tr.open("service.plan_ms", None);
    // The batch as a `--queries` spec (`prim[:source][@mode]`), parsed by
    // the same grammar `mgpu serve` uses; fault plans ride on the parsed
    // descriptors.
    let spec: Vec<String> = batch
        .iter()
        .map(|s| {
            let prim = workload::suffix(s.query.prim);
            let src = s.query.source.map_or(String::new(), |v| format!(":{v}"));
            format!("{prim}{src}@{}", s.mode.label())
        })
        .collect();
    let descs = parse_query_list(&spec.join(","))?;
    let mut specs: Vec<QuerySpec<'_, u32>> = Vec::with_capacity(batch.len());
    for (k, (s, mut desc)) in batch.iter().zip(descs).enumerate() {
        desc.plan = s.plan.clone();
        let cfg = match s.mode {
            ExecMode::Resilient => EnactConfig { recovery: RecoveryPolicy::resilient(), ..config },
            _ => config,
        };
        let inner =
            build_query_specs(g, dist, owner, HardwareProfile::k40(), w.shift, cfg, &[desc])?
                .pop()
                .ok_or("bridge built no spec")?;
        let sink = Arc::clone(&sink);
        let query = first + k;
        specs.push(QuerySpec::new(
            inner.name.clone(),
            inner.source,
            inner.footprint_bytes,
            move || {
                let start = Instant::now();
                let ex = (inner.build)()?;
                let bound = Instant::now();
                Ok(Box::new(Timed {
                    inner: ex,
                    query,
                    start,
                    bound,
                    enact: (bound, bound),
                    sink: Arc::clone(&sink),
                }) as Box<dyn Executor<u32> + Send + '_>)
            },
        ));
    }
    // A per-device cap that fits the residency plus about two and a half
    // average queries under the soft watermark — so waves queue — and
    // every query alone under the hard cap — so none is rejected.
    let residency = residency_bytes(dist);
    let fps: Vec<u64> = specs.iter().map(|s| s.footprint_bytes).collect();
    let mean_fp = fps.iter().sum::<u64>() / fps.len().max(1) as u64;
    let max_fp = fps.iter().copied().max().unwrap_or(0);
    let pressure = PressurePolicy::governed();
    let packed = ((residency + mean_fp * 5 / 2) as f64 / pressure.soft_watermark) as u64;
    let policy = ServicePolicy {
        seed,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        lanes: 4,
        mem_cap: Some(packed.max(residency + max_fp)),
        residency_bytes: residency,
        pressure,
    };
    let service = Service::new(policy);
    let named: Vec<(String, u64)> =
        specs.iter().map(|s| (s.name.clone(), s.footprint_bytes)).collect();
    let schedule = service.plan(&named);
    tr.close(plan_span);

    let run_span = tr.open("service.run_ms", None);
    let t0 = Instant::now();
    let report = service.run(&specs);
    let wall_s = secs(t0, Instant::now());
    tr.close(run_span);

    let stamps: HashMap<usize, Stamps> =
        sink.lock().map_err(|_| "timing sink poisoned")?.iter().map(|s| (s.query, *s)).collect();
    let mut stats = ServiceStats {
        waves: report.waves as u64,
        queued: schedule.admission.iter().filter(|a| a.queued).count() as u64,
        wall_s,
        serial_sim_us: report.serial_sim_us,
        concurrent_sim_us: report.concurrent_sim_us,
        ..Default::default()
    };
    let mut done = Vec::with_capacity(batch.len());
    for (k, outcome) in report.outcomes.into_iter().enumerate() {
        let query = first + k;
        let prim = batch[k].query.prim;
        let st = stamps.get(&query);
        if let Some(st) = st {
            let [bind, enact, harvest] = enactor_spans(prim);
            for (name, a, b) in [
                (bind, st.start, st.bound),
                (enact, st.enact_start, st.enacted),
                (harvest, st.enacted, st.harvested),
            ] {
                tr.record_worker(name, Some(query), run_span, a, b);
            }
        }
        let kind = match batch[k].mode {
            ExecMode::Bsp => ExecutorKind::Bsp,
            ExecMode::Async => ExecutorKind::Async,
            ExecMode::Resilient => ExecutorKind::Resilient,
        };
        let result = outcome.result.map_err(|e| e.to_string());
        if let Ok(r) = &result {
            stats.enact_wall_s += r.wall_time_us / 1e6;
        }
        done.push(Done {
            prim,
            kind,
            latency_s: st.map_or(0.0, |s| secs(s.start, s.harvested)),
            bind_s: st.map_or(0.0, |s| secs(s.start, s.bound)),
            enact_s: st.map_or(0.0, |s| secs(s.enact_start, s.enacted)),
            harvest_s: st.map_or(0.0, |s| secs(s.enacted, s.harvested)),
            result,
            words: outcome.values,
        });
    }
    Ok((done, stats))
}

// ---------------------------------------------------------------------------
// sessions
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PrimStats {
    n: u64,
    bind_s: f64,
    enact_s: f64,
    harvest_s: f64,
    supersteps: u64,
    w_items: u64,
}

/// Everything one session measured.
#[derive(Default)]
struct Session {
    traced: bool,
    setup_s: f64,
    /// Set-up times of the extra set-ups after the session (untraced runs).
    extra_setups: Vec<f64>,
    total_s: f64,
    query_s: f64,
    latencies: Vec<f64>,
    /// The same latencies by (primitive, executor kind).
    by_kind: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    attempted: u64,
    failed: u64,
    sim_ms: f64,
    /// Per script position: the deterministic-timing report (trace
    /// stripped), for the cross-session bit-identity check.
    fingerprints: Vec<Option<EnactReport>>,
    gen_s: f64,
    gen_edges: u64,
    csr_bytes: u64,
    border_frac: f64,
    topology_bytes: u64,
    kernel_launches: u64,
    wire_bytes: u64,
    messages: u64,
    sim_peak_bytes: u64,
    reallocs: u64,
    retries: u64,
    failovers: u64,
    service: ServiceStats,
    enact_s: f64,
    /// Enact wall time per script position.
    enact_at: Vec<f64>,
    trace_w_us: f64,
    trace_h_us: f64,
    trace_sync_us: f64,
    trace_wait_us: f64,
    prims: BTreeMap<&'static str, PrimStats>,
}

/// Run-wide state shared by the sessions.
struct Ctx<'a> {
    args: &'a Args,
    tracer: Tracer,
    script: Option<Vec<Query>>,
    oracle: HashMap<(&'static str, Option<u32>), Expected>,
    first_error: Option<String>,
}

impl Session {
    /// Fold one finished query in; `check` is the oracle's verdict.
    fn record(
        &mut self,
        d: Done,
        check: Result<(), String>,
        ctx: &mut Ctx<'_>,
    ) -> Result<(), String> {
        self.attempted += 1;
        self.enact_at.push(d.enact_s);
        let report = match (d.result, check) {
            (Ok(r), Ok(())) => r,
            (Err(e), _) | (Ok(_), Err(e)) => {
                self.failed += 1;
                self.fingerprints.push(None);
                ctx.first_error.get_or_insert(format!("{} query failed: {e}", d.prim.name()));
                return Ok(());
            }
        };
        self.latencies.push(d.latency_s);
        self.by_kind.entry((d.prim.name(), d.kind.label())).or_default().push(d.latency_s);
        let p = self.prims.entry(workload::suffix(d.prim)).or_default();
        p.n += 1;
        p.bind_s += d.bind_s;
        p.enact_s += d.enact_s;
        p.harvest_s += d.harvest_s;
        p.supersteps += report.iterations as u64;
        p.w_items += report.totals.w_items;
        self.enact_s += d.enact_s;
        self.kernel_launches += report.totals.kernel_launches;
        self.wire_bytes += report.totals.h_bytes_sent;
        self.messages += report.totals.h_messages;
        self.sim_peak_bytes = self.sim_peak_bytes.max(report.total_peak_memory);
        self.reallocs += report.pool_reallocs;
        self.retries += report.recovery.kernel_retries + report.recovery.transfer_retries;
        self.failovers += report.recovery.failovers;
        if self.traced {
            let trace = report.trace.as_ref().ok_or("a traced enact returned no trace")?;
            let prof = Profile::from_trace(trace);
            prof.reconcile(&report).map_err(|e| format!("Profile::reconcile failed: {e}"))?;
            self.trace_w_us += prof.total.w_us;
            self.trace_h_us += prof.total.h_us;
            self.trace_sync_us += prof.total.sync_us;
            self.trace_wait_us += prof.total.wait_us;
        }
        if d.kind.deterministic_timing() {
            self.sim_ms += report.sim_time_us / 1e3;
            self.fingerprints.push(Some(EnactReport { trace: None, ..report }));
        } else {
            self.fingerprints.push(None);
        }
        Ok(())
    }
}

/// Check `d` against the cached reference for `q` (computing it once).
fn verify(ctx: &mut Ctx<'_>, q: Query, g: &Csr<u32, u64>, d: &Done) -> Result<(), String> {
    if d.result.is_err() {
        return Ok(());
    }
    let key = (workload::suffix(q.prim), q.source);
    let expected = ctx.oracle.entry(key).or_insert_with(|| workload::reference_for(q, g));
    workload::check(expected, &d.words)
}

/// A resident partitioned graph, and what building it measured.
struct Residency {
    g: Csr<u32, u64>,
    dist: DistGraph<u32, u64>,
    /// Vertex owners, kept only for service dispatch (the query bridge
    /// needs them).
    owner: Vec<u32>,
    gen_s: f64,
    gen_edges: u64,
}

/// Generate the workload's graph, weight it, build the CSR, partition it
/// and, when the mix has DOBFS, build the CSCs.
fn set_up(tr: &Tracer, w: &Workload) -> Result<Residency, String> {
    let ds = Dataset::by_name(w.dataset).ok_or_else(|| format!("no dataset {}", w.dataset))?;
    let t_gen = Instant::now();
    let mut coo = tr.span("gen.ms", None, || ds.generate(w.shift, DATASET_SEED));
    tr.span("gen.ms", None, || add_paper_weights(&mut coo, DATASET_SEED ^ 0x77));
    let gen_s = secs(t_gen, Instant::now());
    let gen_edges = coo.n_edges() as u64;
    let g: Csr<u32, u64> = tr.span("graph.csr_ms", None, || {
        let g = GraphBuilder::undirected(&coo);
        drop(coo);
        g
    });
    let served = w.dispatch == Dispatch::Service;
    let owner = tr.span("partition.ms", None, || {
        RandomPartitioner { seed: PARTITION_SEED }.assign(&g, w.gpus)
    });
    let (mut dist, owner) = tr.span("partition.ms", None, || {
        if served {
            (DistGraph::build(&g, owner.clone(), w.gpus, Duplication::All), owner)
        } else {
            (DistGraph::build(&g, owner, w.gpus, Duplication::All), Vec::new())
        }
    });
    if w.mix.iter().any(|&(p, _)| p == Primitive::Dobfs) {
        tr.span("partition.csc_ms", None, || dist.build_cscs());
    }
    Ok(Residency { g, dist, owner, gen_s, gen_edges })
}

fn run_session(
    ctx: &mut Ctx<'_>,
    index: usize,
    start: Instant,
    traced: bool,
) -> Result<Session, String> {
    let w = ctx.args.workload;
    let mut s = Session { traced, ..Default::default() };
    let session_span = ctx.tracer.open(spans::SESSION, None);
    let tr = &ctx.tracer;

    // --- set-up: generate, weights, CSR, partition, CSC ---
    let Residency { g, dist, owner, gen_s, gen_edges } = set_up(tr, w)?;
    s.setup_s = secs(start, Instant::now());
    s.gen_s = gen_s;
    s.gen_edges = gen_edges;
    s.csr_bytes = g.bytes();
    // Border vertices (|B_i| summed over peers) per local vertex slot.
    let borders: usize = dist.parts.iter().map(|p| p.border_total()).sum();
    let slots: usize = dist.parts.iter().map(|p| p.n_vertices()).sum();
    s.border_frac = borders as f64 / slots.max(1) as f64;
    s.topology_bytes = dist.parts.iter().map(|p| p.topology_bytes()).sum();

    // --- the script (picked once per run, outside the session's time) ---
    let mut paused = 0.0;
    if ctx.script.is_none() {
        let t = Instant::now();
        let seed = ctx.args.seed;
        ctx.script = Some(tr.span("bench.check_ms", None, || workload::script(w, &g, seed)));
        paused += secs(t, Instant::now());
    }
    let script = ctx.script.clone().unwrap_or_default();

    // --- queries ---
    let config = EnactConfig { tracing: traced, ..Default::default() };
    let t_queries = Instant::now();
    let paused_before_queries = paused;
    match w.dispatch {
        Dispatch::Direct => {
            for (i, &q) in script.iter().enumerate() {
                let d = run_direct(&ctx.tracer, i, q, &dist, w, config);
                let t = Instant::now();
                let id = ctx.tracer.open("bench.check_ms", Some(i));
                let verdict = verify(ctx, q, &g, &d);
                let recorded = s.record(d, verdict, ctx);
                ctx.tracer.close(id);
                paused += secs(t, Instant::now());
                recorded?;
            }
        }
        Dispatch::Service => {
            let batch = script.len() / w.rounds.max(1);
            let batches = service_script(&script, batch, w, ctx.args.seed);
            let mut first = 0;
            for (b, batch) in batches.iter().enumerate() {
                // A fresh scheduler seed per batch and session: waves are
                // packed differently each time (results never change), so a
                // run samples many co-schedules.
                let seed =
                    ctx.args.seed ^ ((index * w.rounds + b) as u64).wrapping_mul(0x9e37_79b9);
                let (done, stats) =
                    run_batch(&ctx.tracer, first, batch, &g, &dist, &owner, w, config, seed)?;
                let t = Instant::now();
                let id = ctx.tracer.open("bench.check_ms", None);
                let mut recorded = Ok(());
                for (d, sv) in done.into_iter().zip(batch) {
                    let verdict = verify(ctx, sv.query, &g, &d);
                    recorded = recorded.and(s.record(d, verdict, ctx));
                }
                ctx.tracer.close(id);
                paused += secs(t, Instant::now());
                recorded?;
                s.service.waves += stats.waves;
                s.service.queued += stats.queued;
                s.service.wall_s += stats.wall_s;
                s.service.enact_wall_s += stats.enact_wall_s;
                s.service.serial_sim_us += stats.serial_sim_us;
                s.service.concurrent_sim_us += stats.concurrent_sim_us;
                first += batch.len();
            }
        }
    }
    let end = Instant::now();
    s.query_s = secs(t_queries, end) - (paused - paused_before_queries);
    s.total_s = secs(start, end) - paused;
    ctx.tracer.close(session_span);
    // The residency is released after the session's clock stopped.
    drop((dist, g));
    // More set-ups for the `setup_s` median, also outside the session's
    // clock. A traced run reports no `setup_s`, so it makes none.
    if !ctx.args.trace {
        for _ in 1..w.setups {
            let t = Instant::now();
            let extra = set_up(&ctx.tracer, w)?;
            s.extra_setups.push(secs(t, Instant::now()));
            drop(extra);
        }
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// the run and its report
// ---------------------------------------------------------------------------

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn run(args: &Args, t_process: Instant) -> Result<bool, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    println!(
        "env workload={} seed={} seconds={} trace={} nproc={nproc} kernel_threads={} commit={commit}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        vgpu::par::default_kernel_threads()
    );

    let mut ctx = Ctx {
        args,
        tracer: Tracer::new(args.trace),
        script: None,
        oracle: HashMap::new(),
        first_error: None,
    };
    // At least four sessions, so a traced run, which alternates simulated
    // tracing off and on, has both.
    let min_sessions = workload::min_sessions(w);
    let mut sessions: Vec<Session> = Vec::new();
    // Process counters at the end of the warm-up session.
    let (mut cpu0, mut nvcsw0) = (None, None);
    while sessions.len() < min_sessions || secs(t_process, Instant::now()) < args.seconds {
        let start = if sessions.is_empty() { t_process } else { Instant::now() };
        let traced = args.trace && sessions.len() % 2 == 1;
        sessions.push(run_session(&mut ctx, sessions.len(), start, traced)?);
        if sessions.len() == 1 {
            cpu0 = probe::cpu_seconds().ok();
            nvcsw0 = probe::status().ok().map(|s| s.nonvoluntary_ctxt_switches);
        }
    }

    // Cross-session invariants: every session ran the same script, so the
    // simulated results must agree bit for bit — traced against untraced
    // included.
    let mut invariant: Option<String> = None;
    let base = &sessions[0];
    for (k, s) in sessions.iter().enumerate().skip(1) {
        if s.sim_ms.to_bits() != base.sim_ms.to_bits() {
            invariant.get_or_insert(format!(
                "sim_ms differs between session 0 ({}) and session {k} ({})",
                base.sim_ms, s.sim_ms
            ));
        }
        for (i, (a, b)) in base.fingerprints.iter().zip(&s.fingerprints).enumerate() {
            if let (Some(a), Some(b)) = (a, b) {
                if !a.same_simulation(b) {
                    invariant.get_or_insert(format!(
                        "query {i} simulated differently in session {k} than in session 0"
                    ));
                }
            }
        }
    }
    let attribution = if args.trace { Some(ctx.tracer.attribute()?) } else { None };

    let attempted: u64 = sessions.iter().map(|s| s.attempted).sum();
    let failed: u64 = sessions.iter().map(|s| s.failed).sum();
    let metrics = if args.trace {
        let cpu = cpu0.and_then(|c0| probe::cpu_seconds().ok().map(|c| c - c0));
        let nv = nvcsw0.and_then(|n0| {
            probe::status().ok().map(|s| s.nonvoluntary_ctxt_switches.saturating_sub(n0))
        });
        let attribution = attribution.as_deref().unwrap_or_default();
        per_layer(&sessions, attribution, cpu, nv)
    } else {
        end_to_end(&sessions)
    };

    if let Some(path) = &args.spans_out {
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"kernel_threads\": {}, \
             \"commit\": \"{commit}\",\n\"spans\": {}}}\n",
            w.name,
            args.seed,
            vgpu::par::default_kernel_threads(),
            spans::to_json(&ctx.tracer.spans())
        );
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    for s in sessions.iter() {
        eprintln!(
            "session traced={} setup_s={:.4} extra_setups_s={:.4?} total_s={:.4} queries={} sim_ms={}",
            s.traced, s.setup_s, s.extra_setups, s.total_s, s.attempted, s.sim_ms
        );
    }
    // Latency clusters per primitive and executor: where a mix puts its
    // percentiles.
    let mut by_kind: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for s in sessions.iter().skip(1) {
        for (k, v) in &s.by_kind {
            by_kind.entry(*k).or_default().extend(v);
        }
    }
    for ((prim, kind), v) in &by_kind {
        let med = stats::median(v).unwrap_or(0.0) * 1e3;
        let max = v.iter().copied().fold(0.0, f64::max) * 1e3;
        println!("latency {prim}@{kind} n={} median={med:.3} ms max={max:.3} ms", v.len());
    }
    println!("sessions {} (the first is warm-up for the latency percentiles)", sessions.len());
    println!(
        "failed_frac {} (attempted {attempted}, failed {failed})",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    if let Some(e) = &ctx.first_error {
        eprintln!("mgpu-perfbench: {e}");
    }
    if let Some(e) = &invariant {
        eprintln!("mgpu-perfbench: invariant broken: {e}");
    }
    let correct = failed == 0 && invariant.is_none();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn end_to_end(sessions: &[Session]) -> Metrics {
    let mut m: Metrics = Vec::new();
    let setup: Vec<f64> = sessions
        .iter()
        .flat_map(|s| std::iter::once(s.setup_s).chain(s.extra_setups.iter().copied()))
        .collect();
    let total: Vec<f64> = sessions.iter().map(|s| s.total_s).collect();
    m.push(("setup_s".into(), stats::median(&setup).unwrap_or(0.0), "s"));
    m.push(("total_s".into(), stats::median(&total).unwrap_or(0.0), "s"));
    // The first session warms allocator, page cache and thread pools; its
    // queries count toward total_s but not toward the percentiles.
    let warm = &sessions[1.min(sessions.len())..];
    let lat: Vec<f64> = warm.iter().flat_map(|s| s.latencies.iter().copied()).collect();
    for (name, p) in [("query_p50_ms", 0.5), ("query_p90_ms", 0.9)] {
        match stats::percentile(&lat, p) {
            Some(v) => m.push((name.into(), v * 1e3, "ms")),
            None => println!(
                "note {name} omitted: {} samples leave fewer than {} beyond it",
                lat.len(),
                stats::MIN_BEYOND
            ),
        }
    }
    println!("query_samples {} count", lat.len());
    if let Some(p) = stats::highest_reportable(&[0.5, 0.9, 0.99, 0.999], lat.len()) {
        let v = stats::percentile(&lat, p).unwrap_or(0.0);
        println!(
            "query_tail p{} = {:.3} ms ({} samples, {} beyond)",
            p * 100.0,
            v * 1e3,
            lat.len(),
            stats::beyond(p, lat.len())
        );
    }
    // Completed queries per second of query phase, per session; the median
    // keeps one disturbed session from moving the run's figure.
    let rates: Vec<f64> = warm
        .iter()
        .filter(|s| s.query_s > 0.0)
        .map(|s| s.latencies.len() as f64 / s.query_s)
        .collect();
    if let Some(r) = stats::median(&rates) {
        m.push(("queries_per_s".into(), r, "1/s"));
    }
    m.push(("sim_ms".into(), sessions[0].sim_ms, "ms"));
    if let Ok(st) = probe::status() {
        m.push(("peak_rss_mb".into(), st.vm_hwm_bytes as f64 / 1e6, "MB"));
    }
    m
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The per-layer metrics of a traced run; `cpu_s` and `nvcsw` are the
/// process's counters since the warm-up session ended.
fn per_layer(
    sessions: &[Session],
    attribution: &[spans::SessionAttribution],
    cpu_s: Option<f64>,
    nvcsw: Option<u64>,
) -> Metrics {
    // Host times are means over the warm sessions (all but the first, as
    // for the end-to-end metrics); `plain` are those with simulated tracing
    // off, `traced` those with it on.
    let warm = sessions.len().saturating_sub(1).max(1) as f64;
    let plain: Vec<usize> = (1..sessions.len()).filter(|&i| !sessions[i].traced).collect();
    let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
    let mut m: Metrics = Vec::new();
    let ms = |ns: u64| ns as f64 / 1e6;
    // Self times per session.
    let self_ms = |name: &str| {
        mean(plain.iter().map(|&i| {
            attribution[i]
                .self_ns
                .iter()
                .filter(|(k, _)| **k == name || (name == "enactor.ms" && k.starts_with("enactor.")))
                .map(|(_, &v)| ms(v))
                .sum::<f64>()
        }))
    };
    let over = |f: &dyn Fn(&Session) -> f64| mean(plain.iter().map(|&i| f(&sessions[i])));
    m.push(("gen.ms".into(), self_ms("gen.ms"), "ms"));
    m.push(("gen.edges_per_s".into(), over(&|s| s.gen_edges as f64 / s.gen_s), "1/s"));
    m.push(("graph.csr_ms".into(), self_ms("graph.csr_ms"), "ms"));
    m.push(("graph.csr_mb".into(), sessions[0].csr_bytes as f64 / 1e6, "MB"));
    m.push(("partition.ms".into(), self_ms("partition.ms"), "ms"));
    m.push(("partition.csc_ms".into(), self_ms("partition.csc_ms"), "ms"));
    m.push(("partition.border_frac".into(), sessions[0].border_frac, "ratio"));
    m.push(("partition.topology_mb".into(), sessions[0].topology_bytes as f64 / 1e6, "MB"));
    m.push(("vgpu.system_ms".into(), self_ms("vgpu.system_ms"), "ms"));
    m.push(("vgpu.kernel_launches".into(), sessions[0].kernel_launches as f64, "count"));
    m.push(("enactor.ms".into(), self_ms("enactor.ms"), "ms"));
    for prim in Primitive::all() {
        let sfx = workload::suffix(prim);
        let mut p = PrimStats::default();
        for &i in &plain {
            if let Some(q) = sessions[i].prims.get(sfx) {
                p.n += q.n;
                p.bind_s += q.bind_s;
                p.enact_s += q.enact_s;
                p.harvest_s += q.harvest_s;
                p.supersteps += q.supersteps;
                p.w_items += q.w_items;
            }
        }
        let per_q = |v: f64| if p.n == 0 { 0.0 } else { v / p.n as f64 };
        let enact_us = p.enact_s * 1e6;
        m.push((format!("enactor.bind_ms.{sfx}"), per_q(p.bind_s * 1e3), "ms"));
        m.push((format!("enactor.enact_ms.{sfx}"), per_q(p.enact_s * 1e3), "ms"));
        m.push((format!("enactor.harvest_ms.{sfx}"), per_q(p.harvest_s * 1e3), "ms"));
        m.push((format!("enactor.supersteps.{sfx}"), per_q(p.supersteps as f64), "count"));
        let us_per_step = if p.supersteps == 0 { 0.0 } else { enact_us / p.supersteps as f64 };
        m.push((format!("enactor.us_per_superstep.{sfx}"), us_per_step, "us"));
        let items = if enact_us == 0.0 { 0.0 } else { p.w_items as f64 / enact_us };
        m.push((format!("enactor.witems_per_us.{sfx}"), items, "1/us"));
    }
    let s0 = &sessions[0];
    m.push(("comm.wire_mb".into(), s0.wire_bytes as f64 / 1e6, "MB"));
    m.push(("comm.messages".into(), s0.messages as f64, "count"));
    m.push(("alloc.sim_peak_mb".into(), s0.sim_peak_bytes as f64 / 1e6, "MB"));
    m.push(("alloc.reallocs".into(), s0.reallocs as f64, "count"));
    m.push(("service.plan_ms".into(), self_ms("service.plan_ms"), "ms"));
    m.push(("service.run_ms".into(), self_ms("service.run_ms"), "ms"));
    m.push(("service.waves".into(), s0.service.waves as f64, "count"));
    m.push(("service.queued".into(), s0.service.queued as f64, "count"));
    let (enact_wall, svc_wall) = plain.iter().fold((0.0, 0.0), |(a, b), &i| {
        (a + sessions[i].service.enact_wall_s, b + sessions[i].service.wall_s)
    });
    let overlap = if svc_wall > 0.0 { enact_wall / svc_wall } else { 0.0 };
    m.push(("service.host_overlap".into(), overlap, "ratio"));
    let x = if s0.service.concurrent_sim_us > 0.0 {
        s0.service.serial_sim_us / s0.service.concurrent_sim_us
    } else {
        0.0
    };
    m.push(("service.sim_throughput_x".into(), x, "ratio"));
    m.push(("resilience.retries".into(), s0.retries as f64, "count"));
    m.push(("resilience.failovers".into(), s0.failovers as f64, "count"));
    if let Some(c) = cpu_s {
        m.push(("host.cpu_s".into(), c / warm, "s"));
    }
    if let Some(v) = nvcsw {
        m.push(("host.nvcsw".into(), v as f64 / warm, "count"));
    }
    let tmean = |f: &dyn Fn(&Session) -> f64| mean(traced.iter().map(|s| f(s)));
    m.push(("trace.w_ms".into(), tmean(&|s| s.trace_w_us / 1e3), "ms"));
    m.push(("trace.h_ms".into(), tmean(&|s| s.trace_h_us / 1e3), "ms"));
    m.push(("trace.sync_ms".into(), tmean(&|s| s.trace_sync_us / 1e3), "ms"));
    m.push(("trace.wait_ms".into(), tmean(&|s| s.trace_wait_us / 1e3), "ms"));
    // Simulated tracing's host cost: per script position, the median enact
    // wall time over the traced sessions against that over the warm
    // untraced ones (every session runs the same script).
    let off: Vec<&[f64]> = plain.iter().map(|&i| sessions[i].enact_at.as_slice()).collect();
    let on: Vec<&[f64]> = traced.iter().map(|s| s.enact_at.as_slice()).collect();
    let (off, on) = (stats::position_median_sum(&off), stats::position_median_sum(&on));
    m.push((
        "trace.overhead_pct".into(),
        if off > 0.0 { (on - off) / off * 100.0 } else { 0.0 },
        "%",
    ));
    m.push(("bench.check_ms".into(), self_ms("bench.check_ms"), "ms"));
    let unattributed = mean(plain.iter().map(|&i| ms(attribution[i].unattributed_ns)));
    m.push(("bench.unattributed_ms".into(), unattributed, "ms"));
    let wall = mean(plain.iter().map(|&i| ms(attribution[i].wall_ns)));
    m.push(("bench.session_ms".into(), wall, "ms"));
    let samples: usize = sessions.iter().skip(1).map(|s| s.latencies.len()).sum();
    m.push(("bench.query_samples".into(), samples as f64, "count"));
    m
}
