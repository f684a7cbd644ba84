//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-clean|noisy-multiconfig|fleet-lossy|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload up several times (reporting the median as
//! `setup_s`), warms up on a disjoint seed, then measures whole passes over
//! the seeded inputs until `--seconds` have elapsed. `--trace 0` drives the
//! program through its real entry points and reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes and reports
//! the per-layer metrics. Every pass must reproduce the first pass's
//! per-session output digests, or the run fails. The last line of stdout is
//! the result as one JSON object.

mod calib;
mod fleet;
mod inputs;
mod session;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::registry::Registry;
use gpu_sc_attack::service::AttackService;
use minipool::Pool;

use crate::inputs::{generate, warmup_seed, Route, SessionInput, Workload, WorkloadInputs};
use crate::session::{run_traced, run_untraced, SessionRecord};
use crate::spans::Recorder;
use crate::stats::{median, Summary};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Set-up stops repeating early once this much time has gone into it (a
/// slow build profile or host still gets at least one repetition).
const SETUP_BUDGET_S: f64 = 8.0;
/// Clean-link split sessions checked against an in-process run.
const CLEAN_LINK_CHECKS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sessions: Option<usize>,
    spans_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <paper-clean|noisy-multiconfig|fleet-lossy|all> \
--seed <n> --seconds <s> --trace <0|1> [--sessions <n>] [--spans-dir <dir>]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sessions = None;
    let mut spans_dir = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?]
                });
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--sessions" => {
                let n: usize = value()?.parse().map_err(|e| format!("--sessions: {e}"))?;
                if n == 0 {
                    return Err("--sessions must be at least 1".into());
                }
                sessions = Some(n);
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let spans_dir = spans_dir.unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        PathBuf::from(target).join("perfbench")
    });
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sessions,
        spans_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = Pool::available_parallelism();
    let meta = Meta::collect(workers);
    println!("{}", meta.json());
    let mut all_correct = true;
    for &workload in &args.workloads {
        let outcome = run_workload(workload, &args, workers);
        all_correct &= outcome.correct;
        print!("{}", outcome.table(workload, &meta));
        println!("{}", outcome.json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Machine and build metadata printed with every result: comparisons
/// across machines, toolchains or profiles are not valid.
struct Meta {
    cores: usize,
    rustc: &'static str,
    profile: &'static str,
    commit: String,
    workers: usize,
}

impl Meta {
    fn collect(workers: usize) -> Self {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|c| !c.is_empty())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        Meta {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit,
            workers,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"meta\": {{\"cores\": {}, \"rustc\": {}, \"git_commit\": {}, \"build_profile\": {}, \"workers\": {}}}}}",
            self.cores,
            json_str(self.rustc),
            json_str(&self.commit),
            json_str(self.profile),
            self.workers
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A workload prepared for measurement.
struct Prepared {
    inputs: WorkloadInputs,
    /// Warm-up sessions, from the disjoint warm-up seed.
    warm: Vec<SessionInput>,
    services: Vec<AttackService>,
    train_ns: u64,
    trainings: u64,
    blob_bytes: u64,
}

/// Generates the inputs (measured and warm-up), trains every
/// configuration's model through a fresh registry, and builds the services
/// (one per fleet shard). The process-global render caches are emptied
/// first, so every repetition starts equally cold.
fn prepare(workload: Workload, seed: u64, sessions: usize, workers: usize) -> (Prepared, u64) {
    adreno_sim::memo::reset_render_caches();
    let started = Instant::now();
    let inputs = generate(workload, seed, sessions);
    let warm = generate(workload, warmup_seed(seed), workload.warmup_sessions()).sessions;
    let registry = Registry::default();
    let mut train_ns = 0;
    let handles: Vec<_> = inputs
        .configs
        .iter()
        .map(|&(device, keyboard, app)| {
            let t = Instant::now();
            let h = registry.get_or_train(device, keyboard, app);
            train_ns += t.elapsed().as_nanos() as u64;
            h
        })
        .collect();
    let shards = if workload == Workload::FleetLossy { workers } else { 1 };
    let services = (0..shards)
        .map(|_| {
            let mut store = ModelStore::new();
            for h in &handles {
                store.add_handle(h.clone());
            }
            AttackService::new(store, inputs.service.clone())
        })
        .collect();
    let setup_ns = started.elapsed().as_nanos() as u64;
    let stats = registry.stats();
    let prepared = Prepared {
        inputs,
        warm,
        services,
        train_ns,
        trainings: stats.trainings,
        blob_bytes: stats.total_bytes as u64,
    };
    (prepared, setup_ns)
}

/// The program's public telemetry counters the per-layer metrics read.
const COUNTERS: [&str; 11] = [
    "kgsl.ioctl.calls",
    "core.classify.accepted",
    "core.classify.rejected",
    "core.trace.deltas",
    "core.sampler.attempted",
    "core.sampler.acquired",
    "core.sampler.retries_spent",
    "core.sampler.transient_errors",
    "core.sampler.denied_reads",
    "core.sampler.revocations_seen",
    "core.sampler.reservation_losses",
];

/// Counter totals read from the program's public stats — [`COUNTERS`],
/// then the whole-list render cache's hits and misses — diffed around a
/// pass.
#[derive(Debug, Clone, Copy, Default)]
struct Counters([u64; COUNTERS.len() + 2]);

impl Counters {
    fn read() -> Self {
        let snap = spansight::snapshot();
        let memo = adreno_sim::memo::render_cache_stats();
        let mut c = Counters::default();
        for (v, name) in c.0.iter_mut().zip(COUNTERS) {
            *v = snap.counter(name);
        }
        c.0[COUNTERS.len()] = memo.hits;
        c.0[COUNTERS.len() + 1] = memo.misses;
        c
    }

    fn since(mut self, before: Counters) -> Counters {
        self.0.iter_mut().zip(before.0).for_each(|(v, b)| *v -= b);
        self
    }

    fn plus(mut self, other: Counters) -> Counters {
        self.0.iter_mut().zip(other.0).for_each(|(v, o)| *v += o);
        self
    }

    /// One of [`COUNTERS`].
    fn get(&self, name: &str) -> u64 {
        self.0[COUNTERS.iter().position(|&c| c == name).expect("a listed counter")]
    }

    fn memo_hits(&self) -> u64 {
        self.0[COUNTERS.len()]
    }

    fn memo_misses(&self) -> u64 {
        self.0[COUNTERS.len() + 1]
    }
}

/// One measured pass over the workload's sessions (one batch for the fleet).
#[derive(Default)]
struct Pass {
    /// Which batch of the workload's sessions the pass ran.
    batch: usize,
    traced: bool,
    records: Vec<SessionRecord>,
    /// Measured wall time, ns (reference-kernel runs excluded).
    wall_ns: u64,
    /// The same wall time at nominal host speed (see [`calib`]), s.
    norm_s: f64,
    /// Traced passes: the counter diff over the pass.
    counters: Counters,
    /// Fleet batches: `run_sessions` wall time, quanta, and (traced) the
    /// host time of every step.
    run_ns: u64,
    quanta: u64,
    steps_ns: Vec<u64>,
}

impl Pass {
    /// The pass's mean host-speed factor.
    fn scale(&self) -> f64 {
        self.norm_s / secs(self.wall_ns)
    }
}

/// Sequential passes re-read the host's speed this often.
const CHUNK_NS: u64 = 250_000_000;

/// Times a pass chunk by chunk, each chunk bracketed by reference-kernel
/// runs that fall outside the timed region.
struct ChunkClock {
    reference_ms: f64,
    start: Instant,
    first_record: usize,
}

impl ChunkClock {
    fn start() -> Self {
        ChunkClock { reference_ms: calib::reference_ms(), start: Instant::now(), first_record: 0 }
    }

    fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Closes the chunk that took `ns`: scales its sessions and adds it to
    /// the pass, then starts the next chunk.
    fn close(&mut self, pass: &mut Pass, ns: u64) {
        let next = calib::reference_ms();
        let scale = calib::scale((self.reference_ms + next) / 2.0);
        for r in &mut pass.records[self.first_record..] {
            r.scale = scale;
        }
        pass.wall_ns += ns;
        pass.norm_s += secs(ns) * scale;
        *self = ChunkClock {
            reference_ms: next,
            start: Instant::now(),
            first_record: pass.records.len(),
        };
    }
}

/// Runs one pass. Traced passes record spans on `rec` and burst times in
/// `bursts`. Sequential passes are timed in chunks of about [`CHUNK_NS`]
/// (a fleet batch is one chunk), and each session's record carries its
/// chunk's host-speed factor.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    workload: Workload,
    prepared: &Prepared,
    sessions: &[SessionInput],
    pool: &Pool,
    mut rec: Option<&mut Recorder>,
    bursts: &mut Vec<u64>,
    epoch: Instant,
) -> Pass {
    let mut pass = Pass { traced: rec.is_some(), ..Pass::default() };
    let before = if pass.traced { Counters::read() } else { Counters::default() };
    let mut clock = ChunkClock::start();
    if workload == Workload::FleetLossy {
        let batch = fleet::run_batch(pool, &prepared.services, sessions, rec.as_deref_mut(), epoch);
        let ns = clock.elapsed_ns();
        pass.run_ns = batch.run_ns;
        for d in batch.done {
            pass.quanta += d.quanta;
            pass.steps_ns.extend(d.steps_ns);
            if let (Some(r), Some(task)) = (rec.as_deref_mut(), d.rec) {
                r.absorb(task);
            }
            pass.records.push(d.record);
        }
        clock.close(&mut pass, ns);
    } else {
        let service = &prepared.services[0];
        for (i, s) in sessions.iter().enumerate() {
            let record = match rec.as_deref_mut() {
                Some(r) => {
                    r.set_session(i as u32);
                    run_traced(service, s, r, bursts)
                }
                None => run_untraced(service, s),
            };
            pass.records.push(record);
            let ns = clock.elapsed_ns();
            if ns >= CHUNK_NS || i + 1 == sessions.len() {
                clock.close(&mut pass, ns);
            }
        }
    }
    if pass.traced {
        pass.counters = Counters::read().since(before);
    }
    pass
}

/// A workload run's result.
struct Outcome {
    correct: bool,
    problems: Vec<String>,
    /// Input sessions, each counted once however many passes ran it.
    attempted: u64,
    /// Input sessions that returned `Err`.
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Metrics of the other kind, printed in the table only.
    extra: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(name), json_str(unit))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn table(&self, workload: Workload, meta: &Meta) -> String {
        let mut out = format!(
            "== {} == cores={} workers={} rustc=\"{}\" profile={} commit={}\n",
            workload.name(),
            meta.cores,
            meta.workers,
            meta.rustc,
            meta.profile,
            meta.commit
        );
        for n in &self.notes {
            out.push_str(&format!("  {n}\n"));
        }
        for (name, value, unit) in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!("  {name:<32} {value:>16.4} {unit}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("  OUTPUT CHECK FAILED: {p}\n"));
        }
        out
    }
}

fn pct(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        100.0 * num / den
    }
}

fn run_workload(workload: Workload, args: &Args, workers: usize) -> Outcome {
    let n = args.sessions.unwrap_or_else(|| workload.default_sessions());
    let pool = Pool::new(workers);
    let mut problems = Vec::new();
    let mut notes = Vec::new();

    // The peak RSS mark starts over, so that a workload's figure does not
    // carry an earlier workload's peak under `--workload all`.
    if !reset_peak_rss() {
        notes.push(
            "could not reset the peak RSS mark: peak_rss_mib covers the whole process".into(),
        );
    }

    // Set-up, several times; the last repetition is kept. The previous
    // repetition is dropped first, so the peak RSS holds one copy.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setups_raw = Vec::with_capacity(SETUP_REPS);
    let mut trains = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    let setup_started = Instant::now();
    while setups.len() < SETUP_REPS
        && (setups.is_empty() || setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(prepared.take());
        let before = calib::reference_ms();
        let (p, ns) = prepare(workload, args.seed, n, workers);
        let scale = calib::scale((before + calib::reference_ms()) / 2.0);
        setups.push(ns as f64 / 1e9 * scale);
        setups_raw.push(ns as f64 / 1e9);
        trains.push(p.train_ns as f64 / 1e6 * scale);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up repetition");
    let setup_s = median(&setups);
    notes.push(format!(
        "setup_s raw (not normalised): {:.4} s, median of {} set-ups",
        median(&setups_raw),
        setups.len()
    ));

    let epoch = Instant::now();
    notes.push(format!(
        "seed {} (held-out seed for claim checks: {}); before each pass the render, glyph and \
         layer caches are emptied, then warmed by {} sessions on seed {}",
        args.seed,
        inputs::HELD_OUT_SEED,
        prepared.warm.len(),
        warmup_seed(args.seed),
    ));

    // Clean-link split sessions must match the same inputs run in process.
    let sessions = &prepared.inputs.sessions;
    let clean_split: Vec<usize> = sessions
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.route, Route::Split { intensity, .. } if intensity == 0.0))
        .map(|(i, _)| i)
        .take(CLEAN_LINK_CHECKS)
        .collect();
    for &i in &clean_split {
        if let Err(e) = fleet::check_clean_link(&prepared.services[0], &sessions[i]) {
            problems.push(format!("session {i}: clean-link split != in-process: {e}"));
        }
    }

    // Timed phase: whole passes until the time is up, cycling over the
    // workload's batches (one batch, all sessions, for the sequential
    // workloads), completing at least one cycle and leaving at least
    // `MIN_BEYOND` session times beyond p99. Traced runs follow
    // each untraced pass with a traced pass over the same batch. Every
    // pass starts from the same cache state: emptied, then warmed on the
    // disjoint seed (untimed), so the seed's own frames render cold each
    // time.
    let batches: Vec<&[SessionInput]> = sessions.chunks(workload.batch_sessions(n)).collect();
    let mut rec = Recorder::new(epoch, 0);
    let mut bursts = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let measure = |batch: usize, rec: Option<&mut Recorder>, bursts: &mut Vec<u64>| {
        adreno_sim::memo::reset_render_caches();
        run_pass(workload, &prepared, &prepared.warm, &pool, None, &mut Vec::new(), epoch);
        let mut pass = run_pass(workload, &prepared, batches[batch], &pool, rec, bursts, epoch);
        pass.batch = batch;
        pass
    };
    // Latencies are read from the first cycle only; later passes drop
    // theirs so the benchmark's own bookkeeping stays small.
    let slim = |mut pass: Pass| {
        for r in &mut pass.records {
            r.latencies_ns = Vec::new();
        }
        pass
    };
    let timed = Instant::now();
    // Read once the first cycle is done: later passes reuse the program's
    // memory, while the benchmark's own records keep growing with the
    // number of passes, which depends on the host's speed.
    let mut peak_rss = 0.0;
    let mut timed_sessions = 0;
    for k in 0.. {
        let batch = k % batches.len();
        let pass = measure(batch, None, &mut bursts);
        timed_sessions += pass.records.len();
        passes.push(if k < batches.len() { pass } else { slim(pass) });
        if args.trace {
            passes.push(slim(measure(batch, Some(&mut rec), &mut bursts)));
        }
        if k + 1 == batches.len() {
            peak_rss = peak_rss_mib();
        }
        if k + 1 >= batches.len()
            && timed.elapsed().as_secs_f64() >= args.seconds
            && stats::beyond(timed_sessions, 99.0) >= stats::MIN_BEYOND
        {
            break;
        }
    }

    // Output check: every pass, traced or not, reproduces the per-session
    // digests of its batch's first pass.
    let first_of: Vec<&Pass> = (0..batches.len())
        .map(|b| passes.iter().find(|p| p.batch == b).expect("every batch ran"))
        .collect();
    let mut mismatches = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        let reference = first_of[pass.batch];
        for (i, (r, want)) in pass.records.iter().zip(&reference.records).enumerate() {
            if r.digest != want.digest {
                let kind = if pass.traced { "traced" } else { "untraced" };
                mismatches.push(format!(
                    "pass {p} ({kind}) batch {} session {i}: digest {:016x} != {:016x}",
                    pass.batch, r.digest, want.digest
                ));
            }
        }
    }
    if !mismatches.is_empty() {
        problems.push(format!("{} session digests differ from the first pass", mismatches.len()));
        problems.extend(mismatches.into_iter().take(5));
    }

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    // The first cycle covers every session once: deterministic metrics and
    // counts come from it.
    let first = &untraced[..batches.len()];
    let workload_digest = first
        .iter()
        .flat_map(|p| &p.records)
        .fold(stats::Fnv::default(), |mut h, r| *h.u64(r.digest))
        .finish();
    notes.push(format!(
        "output digest {workload_digest:016x} over {} sessions in {} batch(es); {} passes ({} traced)",
        sessions.len(),
        batches.len(),
        passes.len(),
        traced.len()
    ));
    // Each input session counts once. Later passes re-run the same sessions
    // and the digest check holds them to the first cycle's outcomes, so
    // counting every pass would only scale the same failures by the number
    // of passes, which depends on the host's speed.
    let attempted: u64 = first.iter().map(|p| p.records.len() as u64).sum();
    let failed = first.iter().flat_map(|p| &p.records).filter(|r| r.error.is_some()).count() as u64;
    let mut errors: Vec<String> = first
        .iter()
        .flat_map(|p| p.records.iter().enumerate().map(move |(i, r)| (p.batch, i, r)))
        .filter_map(|(b, i, r)| r.error.map(|e| format!("batch {b} session {i}: {e}")))
        .collect();
    if !errors.is_empty() {
        errors.truncate(5);
        notes.push(format!("sessions returning Err in the first cycle: {}", errors.join("; ")));
    }

    let e2e = end_to_end(first, &untraced, setup_s, peak_rss, &mut notes);
    let floor = accuracy_floor(workload);
    let accuracy = e2e.iter().find(|m| m.0 == "key_accuracy_pct").map_or(0.0, |m| m.1);
    if accuracy < floor {
        problems.push(format!("key accuracy {accuracy:.2}% is below the {floor}% floor"));
    }
    let failed_pct = pct(failed as f64, attempted as f64);

    let (metrics, mut extra) = if args.trace {
        let layers = per_layer(
            workload,
            &prepared,
            &untraced,
            &traced,
            &traced[..batches.len()],
            &rec,
            &bursts,
            &trains,
            workers,
        );
        let path = args.spans_dir.join(format!("spans-{}-seed{}.json", workload.name(), args.seed));
        match rec.write_chrome(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
        }
        (layers, e2e)
    } else {
        (e2e, Vec::new())
    };
    extra.push(("failed_pct", failed_pct, "%"));

    Outcome { correct: problems.is_empty(), problems, attempted, failed, metrics, extra, notes }
}

/// The lowest key accuracy a correct pipeline shows on each workload; the
/// paper's own bench sits near 100%.
fn accuracy_floor(workload: Workload) -> f64 {
    match workload {
        Workload::PaperClean => 90.0,
        Workload::NoisyMulticonfig => 50.0,
        Workload::FleetLossy => 90.0,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The end-to-end metrics, from the untraced passes. Accuracy and latency
/// come from the first pass, so they repeat exactly for a seed.
fn end_to_end(
    first: &[&Pass],
    untraced: &[&Pass],
    setup_s: f64,
    peak_rss_mib: f64,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let raw_wall_s: f64 = untraced.iter().map(|p| secs(p.wall_ns)).sum();
    let wall_s: f64 = untraced.iter().map(|p| p.norm_s).sum();
    let all = || untraced.iter().flat_map(|p| &p.records);
    let keys: usize = all().map(|r| r.keys).sum();
    let sessions = all().count();
    let sim_s: f64 = all().map(|r| r.sim_s).sum();
    let session_ms = Summary::new(
        untraced
            .iter()
            .flat_map(|p| p.records.iter().map(|r| r.host_ns as f64 / 1e6 * r.scale))
            .collect(),
    );
    let first_records = || first.iter().flat_map(|p| &p.records);
    let latency_ms = Summary::new(
        first_records().flat_map(|r| &r.latencies_ns).map(|&ns| ns as f64 / 1e6).collect(),
    );
    let correct: usize = first_records().map(|r| r.correct).sum();
    let truth: usize = first_records().map(|r| r.truth).sum();
    notes.push(format!(
        "host speed: passes ran at {:.3}x nominal (median); raw keys_per_s {:.4}, sessions_per_s {:.4}",
        1.0 / median(&untraced.iter().map(|p| p.scale()).collect::<Vec<_>>()),
        keys as f64 / raw_wall_s,
        sessions as f64 / raw_wall_s
    ));
    notes.push(format!("session host time (normalised): {}", session_ms.describe("ms")));
    notes.push(format!("press-to-inference (sim): {}", latency_ms.describe("ms")));
    vec![
        ("setup_s", setup_s, "s"),
        ("keys_per_s", keys as f64 / wall_s, "1/s"),
        ("sessions_per_s", sessions as f64 / wall_s, "1/s"),
        ("sim_speedup", sim_s / wall_s, "x"),
        ("session_ms_p50", session_ms.pct(50.0), "ms"),
        ("session_ms_p99", session_ms.pct(99.0), "ms"),
        ("key_latency_ms_p50", latency_ms.pct(50.0), "ms"),
        ("key_latency_ms_p99", latency_ms.pct(99.0), "ms"),
        ("key_accuracy_pct", pct(correct as f64, truth as f64), "%"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// Starts the process's peak RSS mark over from the current RSS; false
/// where the kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`].
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
    };
    kib("VmHWM:").or_else(|| kib("VmRSS:")).unwrap_or(0.0) / 1024.0
}

/// The per-layer metrics of a traced run. Times are per session and
/// averaged over every traced pass; counts come from the first traced pass,
/// so they repeat exactly for a seed.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: Workload,
    prepared: &Prepared,
    untraced: &[&Pass],
    traced: &[&Pass],
    first_traced: &[&Pass],
    rec: &Recorder,
    bursts: &[u64],
    trains_ms: &[f64],
    workers: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let fleet = workload == Workload::FleetLossy;
    let traced_records = || traced.iter().flat_map(|p| &p.records);
    // Span totals are not kept per pass, so they take the traced passes'
    // mean host-speed factor.
    let scale = traced.iter().map(|p| p.scale()).sum::<f64>() / traced.len() as f64;
    let per_session_ms = |name: &str, split: Option<bool>| {
        let sessions = traced_records().filter(|r| split.is_none_or(|s| r.split == s)).count();
        rec.agg(name).self_ns as f64 / 1e6 / sessions.max(1) as f64 * scale
    };

    let first = || first_traced.iter().flat_map(|p| &p.records);
    let c = first_traced.iter().fold(Counters::default(), |a, p| a.plus(p.counters));
    // Renderer counts only where they repeat exactly: under the fleet's two
    // workers, which session renders a shared frame first (and misses the
    // process-global caches) depends on the interleaving.
    let (frames, identical, prims) = if fleet {
        (0, 0, 0)
    } else {
        first().fold((0u64, 0u64, 0u64), |(f, i, p), r| {
            (f + r.frames.frames, i + r.frames.identical_frames, p + r.frames.prims_recomputed)
        })
    };
    let (memo_hits, memo_lookups) =
        if fleet { (0, 0) } else { (c.memo_hits(), c.memo_hits() + c.memo_misses()) };
    let classify_calls = c.get("core.classify.accepted") + c.get("core.classify.rejected");
    let faults = c.get("core.sampler.transient_errors")
        + c.get("core.sampler.denied_reads")
        + c.get("core.sampler.revocations_seen")
        + c.get("core.sampler.reservation_losses");
    let infer = first().fold([0u64; 4], |mut a, r| {
        a[0] += r.infer.direct as u64;
        a[1] += r.infer.peeled as u64;
        a[2] += r.infer.splits_recovered as u64;
        a[3] += r.infer.noise as u64;
        a
    });
    let links: Vec<_> = first().filter_map(|r| r.link).collect();
    let split_keys: usize = first().filter(|r| r.split).map(|r| r.keys).sum();
    let link_sum = |f: fn(&gpu_sc_attack::service::LinkDegradationReport) -> u64| -> u64 {
        links.iter().map(f).sum()
    };
    let bursts_us = Summary::new(bursts.iter().map(|&ns| ns as f64 / 1e3 * scale).collect());
    let steps_us = Summary::new(
        traced
            .iter()
            .flat_map(|p| p.steps_ns.iter().map(|&ns| ns as f64 / 1e3 * p.scale()))
            .collect(),
    );
    let sched_overhead = if fleet {
        let step_ns: u64 = traced.iter().flat_map(|p| &p.steps_ns).sum();
        let run_ns: u64 = traced.iter().map(|p| p.run_ns).sum();
        100.0 * (1.0 - step_ns as f64 / (run_ns as f64 * workers as f64))
    } else {
        0.0
    };

    // Tracing overhead: each traced pass against the untraced pass run just
    // before it over the same inputs.
    let overheads: Vec<f64> =
        untraced.iter().zip(traced).map(|(u, t)| 100.0 * (t.norm_s / u.norm_s - 1.0)).collect();
    // Wall (× worker) time the layer spans do not cover.
    let layer_ns: u64 = rec
        .aggregates()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, a)| a.self_ns)
        .sum();
    let capacity_ns: f64 = traced
        .iter()
        .map(|p| {
            if fleet {
                (p.wall_ns - p.run_ns) as f64 + p.run_ns as f64 * workers as f64
            } else {
                p.wall_ns as f64
            }
        })
        .sum();

    vec![
        ("ui.advance_ms", per_session_ms("ui.advance", None), "ms"),
        ("adreno.frames", frames as f64, "count"),
        ("adreno.identical_frame_pct", pct(identical as f64, frames as f64), "%"),
        ("adreno.prims_recomputed", prims as f64, "count"),
        ("adreno.memo_hit_pct", pct(memo_hits as f64, memo_lookups as f64), "%"),
        ("sampler.next_sample_ms", per_session_ms("sampler.next_sample", None), "ms"),
        ("kgsl.ioctl_calls", c.get("kgsl.ioctl.calls") as f64, "count"),
        (
            "sampler.coverage_pct",
            pct(c.get("core.sampler.acquired") as f64, c.get("core.sampler.attempted") as f64),
            "%",
        ),
        ("sampler.retries", c.get("core.sampler.retries_spent") as f64, "count"),
        ("kgsl.faults_seen", faults as f64, "count"),
        ("core.push_samples_ms", per_session_ms("core.push_samples", None), "ms"),
        ("core.finish_ms", per_session_ms("core.finish", None), "ms"),
        (
            "core.classify_calls_per_delta",
            classify_calls as f64 / c.get("core.trace.deltas").max(1) as f64,
            "ratio",
        ),
        ("core.infer_burst_us_p50", bursts_us.pct(50.0), "us"),
        ("core.infer_burst_us_p99", bursts_us.pct(99.0), "us"),
        (
            "core.classify_accept_pct",
            pct(c.get("core.classify.accepted") as f64, classify_calls as f64),
            "%",
        ),
        ("core.infer.direct", infer[0] as f64, "count"),
        ("core.infer.peeled", infer[1] as f64, "count"),
        ("core.infer.splits", infer[2] as f64, "count"),
        ("core.infer.noise", infer[3] as f64, "count"),
        ("registry.train_ms", median(trains_ms), "ms"),
        ("registry.trainings", prepared.trainings as f64, "count"),
        ("registry.blob_bytes", prepared.blob_bytes as f64, "bytes"),
        ("wire.step_ms", per_session_ms("wire.step", Some(true)), "ms"),
        ("wire.frames_sent", link_sum(|l| l.frames_sent) as f64, "count"),
        ("wire.retransmits", link_sum(|l| l.retransmits) as f64, "count"),
        ("wire.reconnects", link_sum(|l| l.reconnects) as f64, "count"),
        (
            "wire.goodput_pct",
            pct(link_sum(|l| l.bytes_acked) as f64, link_sum(|l| l.bytes_sent) as f64),
            "%",
        ),
        (
            "wire.bytes_per_key",
            link_sum(|l| l.bytes_sent) as f64 / split_keys.max(1) as f64,
            "bytes",
        ),
        ("fleet.step_ms", per_session_ms("fleet.step", Some(false)), "ms"),
        ("fleet.quanta", first_traced.iter().map(|p| p.quanta).sum::<u64>() as f64, "count"),
        ("fleet.step_us_p99", steps_us.pct(99.0), "us"),
        ("fleet.sched_overhead_pct", sched_overhead, "%"),
        ("trace.overhead_pct", median(&overheads), "%"),
        ("unattributed_pct", 100.0 * (1.0 - layer_ns as f64 / capacity_ns), "%"),
    ]
}
