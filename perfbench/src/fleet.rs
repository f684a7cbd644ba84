//! The `fleet-lossy` batch: every session enrolled at once and driven by
//! `fleet::run_sessions` on a `minipool::Pool`.

use std::time::Instant;

use gpu_sc_attack::fleet::{run_sessions, FleetConfig, FleetSession, Session, SessionOutcome};
use gpu_sc_attack::service::AttackService;
use minipool::Pool;
use wire::{ExfilConfig, SplitSessionOutcome, SplitSessionTask};

use crate::inputs::{Route, SessionInput};
use crate::session::{build_sim, decisions, reduce, Ending, SessionRecord};
use crate::spans::Recorder;

/// A fleet task: an in-process session or a split one.
enum Inner<'s> {
    Local(Box<FleetSession<'s>>),
    Split(Box<SplitSessionTask<'s>>),
}

/// A finished task's raw outcome.
enum Finished {
    Local(SessionOutcome),
    Split(SplitSessionOutcome),
}

/// One task as the scheduler sees it: the program's session plus the
/// benchmark's per-task timing (and, traced, its own span recorder, so
/// workers never share one).
struct Task<'s, 'i> {
    inner: Inner<'s>,
    input: &'i SessionInput,
    busy_ns: u64,
    trace: Option<TaskTrace>,
}

struct TaskTrace {
    rec: Recorder,
    steps_ns: Vec<u64>,
}

/// What a finished task hands back.
pub struct Done {
    /// The reduced session.
    pub record: SessionRecord,
    /// Scheduler quanta the session took.
    pub quanta: u64,
    /// Traced: the task's spans.
    pub rec: Option<Recorder>,
    /// Traced: the host time of each step, ns.
    pub steps_ns: Vec<u64>,
}

impl Session for Task<'_, '_> {
    type Outcome = Done;

    fn step(&mut self) -> Option<Done> {
        let name = match self.inner {
            Inner::Local(_) => "fleet.step",
            Inner::Split(_) => "wire.step",
        };
        if let Some(t) = &mut self.trace {
            t.rec.open(name);
        }
        let started = Instant::now();
        let finished = match &mut self.inner {
            Inner::Local(s) => s.step().map(Finished::Local),
            Inner::Split(s) => s.step().map(Finished::Split),
        };
        let took = started.elapsed().as_nanos() as u64;
        self.busy_ns += took;
        if let Some(t) = &mut self.trace {
            t.rec.close(name);
            t.steps_ns.push(took);
        }
        finished.map(|f| self.done(f))
    }
}

impl Task<'_, '_> {
    fn done(&mut self, finished: Finished) -> Done {
        let (record, quanta) = match finished {
            Finished::Local(out) => {
                (local_record(self.input, &out, self.busy_ns), out.stats.quanta)
            }
            Finished::Split(out) => (split_record(self.input, &out, self.busy_ns), out.quanta),
        };
        let (rec, steps_ns) = match self.trace.take() {
            Some(t) => (Some(t.rec), t.steps_ns),
            None => (None, Vec::new()),
        };
        Done { record, quanta, rec, steps_ns }
    }
}

/// Reduces a finished in-process fleet session. The session's simulation
/// stays inside the task, so scoring uses the outcome's own truth and score.
fn local_record(input: &SessionInput, out: &SessionOutcome, busy_ns: u64) -> SessionRecord {
    let ending = match &out.result {
        Ok(_) => Ending::Ok,
        Err(e) => Ending::Failed(*e),
    };
    let result = out.result.as_ref().ok();
    let decided = decisions(result);
    let correct = out.score.map_or(0, |s| s.correct_keys);
    reduce(input, ending, result, correct, &out.truth, &decided, busy_ns)
}

/// Reduces a finished split session.
fn split_record(input: &SessionInput, out: &SplitSessionOutcome, busy_ns: u64) -> SessionRecord {
    let (ending, result, arrivals) = match &out.outcome {
        Ok(o) if o.completed => (Ending::Ok, Some(&o.result), o.key_arrivals.as_slice()),
        Ok(o) => (Ending::Salvaged, Some(&o.result), o.key_arrivals.as_slice()),
        Err(e) => (Ending::Failed(*e), None, &[][..]),
    };
    let correct = out.score.map_or(0, |s| s.correct_keys);
    SessionRecord {
        split: true,
        link: result.map(|r| r.link),
        ..reduce(input, ending, result, correct, &out.truth, arrivals, busy_ns)
    }
}

/// One batch's outcome.
pub struct Batch {
    /// Per-session results, in input order.
    pub done: Vec<Done>,
    /// Wall time of `run_sessions` alone, ns.
    pub run_ns: u64,
}

/// Enrols every session of `inputs` and runs the batch. Session `i` goes
/// to shard `i % services.len()`. Traced, enrolment is spanned on `rec`
/// and each task records its steps on its own recorder.
pub fn run_batch(
    pool: &Pool,
    services: &[AttackService],
    inputs: &[SessionInput],
    mut rec: Option<&mut Recorder>,
    epoch: Instant,
) -> Batch {
    let config = FleetConfig { shards: services.len(), ..FleetConfig::default() };
    let tasks: Vec<Task<'_, '_>> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let shard = i % services.len();
            let service = &services[shard];
            if let Some(r) = rec.as_deref_mut() {
                r.set_session(i as u32);
                r.open("ui.new");
            }
            let sim = build_sim(input);
            if let Some(r) = rec.as_deref_mut() {
                r.close("ui.new");
                r.open("fleet.enroll");
            }
            let inner = match &input.route {
                Route::Split { link, .. } => Inner::Split(Box::new(SplitSessionTask::new(
                    shard,
                    service,
                    sim,
                    input.until,
                    link,
                    ExfilConfig::default(),
                ))),
                Route::Local { .. } => Inner::Local(Box::new(FleetSession::new(
                    shard,
                    service,
                    sim,
                    input.until,
                    &config,
                ))),
            };
            if let Some(r) = rec.as_deref_mut() {
                r.close("fleet.enroll");
            }
            let trace = rec.is_some().then(|| {
                let mut task_rec = Recorder::new(epoch, i as u32 + 1);
                task_rec.set_session(i as u32);
                TaskTrace { rec: task_rec, steps_ns: Vec::new() }
            });
            Task { inner, input, busy_ns: 0, trace }
        })
        .collect();
    let run_started = Instant::now();
    let done = run_sessions(pool, tasks);
    let run_ns = run_started.elapsed().as_nanos() as u64;
    Batch { done, run_ns }
}

/// A split session run alone over a fault-free link must equal the same
/// inputs run in process (up to the link report). Returns a description of
/// the first difference.
pub fn check_clean_link(service: &AttackService, input: &SessionInput) -> Result<(), String> {
    let Route::Split { link, .. } = &input.route else {
        return Err("not a split session".into());
    };
    let mut split_sim = build_sim(input);
    let split =
        wire::run_split_session(service, &mut split_sim, input.until, link, ExfilConfig::default())
            .map_err(|e| format!("split session failed: {e:?}"))?;
    if !split.completed {
        return Err("clean-link split session did not complete its handshake".into());
    }
    let mut local_sim = build_sim(input);
    let local = service
        .eavesdrop(&mut local_sim, input.until)
        .map_err(|e| format!("in-process session failed: {e:?}"))?;
    let mut split_result = split.result;
    split_result.link = Default::default();
    if split_result != local {
        return Err(format!(
            "split recovered {:?} with {} keys, in-process {:?} with {} keys",
            split_result.recovered_text,
            split_result.keys.len(),
            local.recovered_text,
            local.keys.len()
        ));
    }
    Ok(())
}
