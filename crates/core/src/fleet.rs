//! Fleet-scale session orchestration: many concurrent eavesdropping
//! sessions multiplexed over a bounded worker set.
//!
//! The paper's threat model is app-store scale — a tiny sampler shipped to
//! millions of phones, each feeding a classifier — so the interesting unit
//! is not one session but a *fleet* of them in flight at once. This module
//! supplies the orchestration layer:
//!
//! * [`Session`] — a cooperative task: one `step` runs one *quantum* of a
//!   session (one burst of sampling, then classification of that burst)
//!   and yields. [`minipool::Pool::par_drive`] requeues
//!   yielded sessions FIFO on a ring-shaped run queue, so quanta of
//!   different sessions interleave on the same workers and one degraded
//!   session can pin at most one worker while every other session keeps
//!   flowing.
//! * [`FleetSession`] — the in-process implementation: it owns its victim
//!   [`UiSimulation`] and drives [`Sampler::next_sample`] into a
//!   [`StreamingSession`] in the same 64-sample bursts
//!   [`AttackService::eavesdrop`] uses. Sampling and classification run
//!   on the same thread within one quantum, so a session never holds more
//!   than one burst of samples.
//!
//! Shards are [`AttackService`]s (each with its own `ModelStore`,
//! typically sharing trained `ClassifierModel`s by `Arc` — the hub/clients
//! split); the caller picks a session's shard when it builds the session.
//! Sessions are fully independent (each owns its simulation and its
//! burst buffer), so outcomes are byte-identical at any worker count; the
//! `fleet` experiment in `crates/bench` pins that at 1000+ sessions.
//!
//! Degraded sessions never stall a shard: a `FaultPlan` installed on a
//! session's device degrades *that session's* coverage (or fails it with a
//! [`ServiceError`] carried in its [`SessionOutcome`]), while the FIFO ring
//! keeps stepping everyone else. The wire layer adds a split-session task
//! on the same [`Session`] trait for remote fleets over lossy links.

use adreno_sim::time::SimInstant;
use android_ui::UiSimulation;
use minipool::Pool;

use crate::metrics::SessionScore;
use crate::sampler::{SampleStream, Sampler};
use crate::service::{AttackService, ServiceError, SessionResult, StreamingSession, SAMPLE_BURST};
use crate::trace::Sample;

/// A cooperative fleet task.
///
/// `step` runs one quantum and returns `Some(outcome)` when the session is
/// finished, `None` to yield. The scheduler ([`run_sessions`]) requeues
/// yielded sessions FIFO, so with `k` live sessions each is stepped again
/// within `k` dequeues regardless of how long any single session takes —
/// the starvation-freedom property the fleet leans on. A task is never
/// stepped again after it returns `Some`.
pub trait Session {
    /// What a finished session yields.
    type Outcome;

    /// Runs one quantum. `Some` = finished, `None` = yield and requeue.
    fn step(&mut self) -> Option<Self::Outcome>;
}

/// Drives every session to completion over the pool's cooperative ring
/// run queue, returning outcomes in session order.
///
/// Sessions must be independent of each other (each [`FleetSession`] owns
/// its simulation and sampler), which makes the outcome vector
/// byte-identical at any `Pool` worker count.
pub fn run_sessions<S>(pool: &Pool, sessions: Vec<S>) -> Vec<S::Outcome>
where
    S: Session + Send,
    S::Outcome: Send,
{
    spansight::count("core.fleet.sessions", sessions.len() as u64);
    pool.par_drive(sessions, |_, s| s.step())
}

/// Fleet construction settings.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of shards the caller spreads sessions over. Unread by this
    /// crate — a [`FleetSession`] carries its own shard id — and kept so
    /// existing callers that record their shard count still compile.
    pub shards: usize,
}

impl Default for FleetConfig {
    /// One shard.
    fn default() -> Self {
        FleetConfig { shards: 1 }
    }
}

/// Per-session scheduler statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Quanta the scheduler spent on this session (steps taken).
    pub quanta: u64,
}

/// What one fleet session produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Which shard ran the session.
    pub shard: usize,
    /// The session result, or why it failed. Failures are carried here —
    /// a failed session never stalls its shard.
    pub result: Result<SessionResult, ServiceError>,
    /// Accuracy against the victim simulation's ground truth (`None` when
    /// the session failed).
    pub score: Option<SessionScore>,
    /// The true keystrokes, kept so callers can measure per-key latency
    /// after the simulation itself is dropped.
    pub truth: Vec<(SimInstant, char)>,
    /// Scheduler statistics for this session.
    pub stats: SessionStats,
}

/// The live half of a [`FleetSession`] that exists only until the session
/// finishes or fails.
enum State<'s> {
    /// Session construction failed (e.g. the device refused to open); the
    /// error is surfaced by the first `step`.
    Failed(ServiceError),
    /// Sampling and/or classification still in flight. Boxed so the
    /// per-quantum state swap moves one pointer, not ~2 KB of sampler.
    Running(Box<Live<'s>>),
    /// Outcome already produced; `step` must not be called again.
    Finished,
}

/// The in-flight sampler/stream/pipeline trio of a running session.
struct Live<'s> {
    sampler: Sampler,
    stream: SampleStream,
    session: StreamingSession<'s>,
}

/// One in-process eavesdropping session as a cooperative fleet task.
///
/// Owns its victim [`UiSimulation`] end to end. Each [`Session::step`]
/// runs one quantum: acquire up to 64 samples (fewer when the stream
/// ends), then push them into the [`StreamingSession`] stage pipeline as
/// one burst. The outcome is identical to
/// running [`AttackService::eavesdrop`] on the same seeded simulation;
/// only the interleaving with other sessions differs.
///
/// Because the session owns its simulation — and the simulation owns its
/// GPU — each session also carries its own set of incremental frame
/// renderers ([`adreno_sim::incremental::RendererSet`]): per-session frame
/// diffing is isolated state, so session results stay bit-identical at any
/// `--jobs` level. [`FleetSession::incremental_stats`] exposes the reuse
/// counters.
pub struct FleetSession<'s> {
    sim: UiSimulation,
    shard: usize,
    burst: Vec<Sample>,
    stats: SessionStats,
    state: State<'s>,
}

impl<'s> FleetSession<'s> {
    /// Prepares a session on `shard`'s service, eavesdropping `sim` until
    /// `until`. Device faults at open time don't panic or stall — they
    /// surface as a [`ServiceError::Device`] outcome on the first step.
    /// `config` is not read (see [`FleetConfig::shards`]).
    pub fn new(
        shard: usize,
        service: &'s AttackService,
        sim: UiSimulation,
        until: SimInstant,
        _config: &FleetConfig,
    ) -> Self {
        let state = match Sampler::open(sim.device(), service.config().sampler) {
            Ok(mut sampler) => {
                let stream = sampler.start_stream(&sim, until);
                State::Running(Box::new(Live {
                    sampler,
                    stream,
                    session: service.streaming_session(),
                }))
            }
            Err(err) => State::Failed(ServiceError::Device(err)),
        };
        FleetSession {
            sim,
            shard,
            burst: Vec::with_capacity(SAMPLE_BURST),
            stats: SessionStats::default(),
            state: State::Finished, // replaced below
        }
        .with_state(state)
    }

    fn with_state(mut self, state: State<'s>) -> Self {
        self.state = state;
        self
    }

    /// Reuse counters of this session's incremental frame renderers.
    pub fn incremental_stats(&self) -> adreno_sim::incremental::IncrementalStats {
        self.sim.incremental_stats()
    }

    /// Wraps up: score and ground truth are extracted *before* the
    /// simulation is dropped, so the outcome is self-contained.
    fn outcome(&mut self, result: Result<SessionResult, ServiceError>) -> SessionOutcome {
        spansight::count("core.fleet.quanta", self.stats.quanta);
        let score = result.as_ref().ok().map(|r| r.score(&self.sim));
        SessionOutcome {
            shard: self.shard,
            result,
            score,
            truth: self.sim.truth().keystrokes(),
            stats: self.stats,
        }
    }
}

impl Session for FleetSession<'_> {
    type Outcome = SessionOutcome;

    fn step(&mut self) -> Option<SessionOutcome> {
        self.stats.quanta += 1;
        match std::mem::replace(&mut self.state, State::Finished) {
            State::Failed(err) => Some(self.outcome(Err(err))),
            State::Running(mut live) => {
                // One burst: up to `SAMPLE_BURST` reads, stopping early
                // when the stream ends, pushed through the stage pipeline
                // as one batch.
                let mut stream_done = false;
                while !stream_done && self.burst.len() < SAMPLE_BURST {
                    match live.sampler.next_sample(&mut live.stream, &mut self.sim) {
                        Some(sample) => self.burst.push(sample),
                        None => stream_done = true,
                    }
                }
                live.session.push_samples(&self.burst);
                self.burst.clear();

                if stream_done {
                    let Live { mut sampler, stream, session } = *live;
                    let result = match sampler.finish_stream(stream) {
                        Ok(()) => session.finish(&sampler.report()),
                        Err(err) => Err(ServiceError::Device(err)),
                    };
                    return Some(self.outcome(result));
                }
                self.state = State::Running(live);
                None
            }
            State::Finished => unreachable!("a finished fleet session must not be stepped"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::ModelStore;
    use crate::service::ServiceConfig;
    use android_ui::SimConfig;

    fn empty_service() -> AttackService {
        AttackService::new(ModelStore::new(), ServiceConfig::default())
    }

    /// A session whose device refuses to open yields a Device error
    /// outcome on its first step instead of panicking or hanging.
    #[test]
    fn failed_open_surfaces_as_outcome() {
        let service = empty_service();
        let sim = UiSimulation::new(SimConfig::paper_default(12));
        sim.device().set_policy(kgsl::AccessPolicy::DenyAll);
        let mut session = FleetSession::new(
            3,
            &service,
            sim,
            SimInstant::from_millis(500),
            &FleetConfig::default(),
        );
        let outcome = session.step().expect("a failed session finishes on its first step");
        assert_eq!(outcome.shard, 3);
        assert_eq!(outcome.result, Err(ServiceError::Device(kgsl::Errno::Eacces)));
        assert!(outcome.score.is_none());
    }

    /// Outcomes are identical at any worker count: the scheduler may
    /// interleave differently, but each session owns its world.
    #[test]
    fn outcomes_identical_across_worker_counts() {
        let run = |jobs: usize| -> Vec<SessionOutcome> {
            let service = empty_service();
            let config = FleetConfig::default();
            let sessions: Vec<FleetSession<'_>> = (0..6)
                .map(|i| {
                    FleetSession::new(
                        i % 2,
                        &service,
                        UiSimulation::new(SimConfig::paper_default(40 + i as u64)),
                        SimInstant::from_millis(400),
                        &config,
                    )
                })
                .collect();
            run_sessions(&Pool::new(jobs), sessions)
        };
        let seq = run(1);
        assert_eq!(seq, run(4));
    }
}
