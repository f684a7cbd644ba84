//! One victim session: building it from its inputs, running it through the
//! program's entry points (untraced or traced), and reducing what it
//! produced to a [`SessionRecord`].

use std::time::Instant;

use adreno_sim::incremental::IncrementalStats;
use adreno_sim::time::SimInstant;
use android_ui::UiSimulation;
use gpu_sc_attack::metrics::MATCH_WINDOW;
use gpu_sc_attack::online::InferenceStats;
use gpu_sc_attack::sampler::Sampler;
use gpu_sc_attack::service::{AttackService, LinkDegradationReport, ServiceError, SessionResult};
use gpu_sc_attack::InferredKey;

use crate::inputs::{Route, SessionInput};
use crate::spans::Recorder;
use crate::stats::Fnv;

/// Burst size of the traced driver: the analysis side receives samples in
/// the same 64-sample bursts `AttackService::eavesdrop` drains its ring in.
const BURST: usize = 64;

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// A result, with the final handshake done (always, in process).
    Ok,
    /// A split session whose handshake never landed; the server salvaged
    /// the samples that did arrive.
    Salvaged,
    /// The session returned an error.
    Failed(ServiceError),
}

/// What one session produced, reduced to what the metrics and the output
/// check need.
#[derive(Debug, Clone, Default)]
pub struct SessionRecord {
    /// Digest of the ending kind, the recovered text and the `(ch, at)` keys.
    pub digest: u64,
    /// The error the session returned, if it failed.
    pub error: Option<ServiceError>,
    /// Keys inferred.
    pub keys: usize,
    /// True keys correctly inferred.
    pub correct: usize,
    /// True keys.
    pub truth: usize,
    /// Press-to-inference simulated latency of each matched press, ns.
    pub latencies_ns: Vec<u64>,
    /// Simulated session length, s.
    pub sim_s: f64,
    /// Host time of the session's run (one `eavesdrop` call, or the sum of
    /// a fleet task's steps), ns.
    pub host_ns: u64,
    /// Host-speed factor while the session ran (see `calib`).
    pub scale: f64,
    /// Algorithm 1's tallies.
    pub infer: InferenceStats,
    /// The session ran split over the wire.
    pub split: bool,
    /// Link tallies (split sessions with a result).
    pub link: Option<LinkDegradationReport>,
    /// Renderer tallies (sessions whose simulation the benchmark can see).
    pub frames: IncrementalStats,
}

/// Builds a fresh victim simulation from a session's inputs.
pub fn build_sim(input: &SessionInput) -> UiSimulation {
    let mut sim = UiSimulation::new(input.sim.clone());
    sim.queue_all(input.events.iter().copied());
    if let Route::Local { faults: Some(plan), .. } = &input.route {
        sim.device().install_fault_plan(plan);
    }
    sim
}

/// Folds a session's output into its digest.
pub fn digest(ending: Ending, result: Option<&SessionResult>) -> u64 {
    let mut h = Fnv::default();
    match ending {
        Ending::Ok => h.bytes(b"ok"),
        Ending::Salvaged => h.bytes(b"salvaged"),
        Ending::Failed(err) => h.bytes(format!("err:{err:?}").as_bytes()),
    };
    if let Some(r) = result {
        h.u64(r.recovered_text.len() as u64).bytes(r.recovered_text.as_bytes());
        h.u64(r.keys.len() as u64);
        for k in &r.keys {
            h.u64(u64::from(k.ch)).u64(k.at.as_nanos());
        }
    }
    h.finish()
}

/// Greedy time-ordered alignment of inferred presses against the truth
/// (the rule `metrics::score_session` uses), yielding each matched press's
/// latency: decision (or wire-arrival) time minus true press time.
pub fn press_latencies_ns(
    truth: &[(SimInstant, char)],
    inferred: &[(InferredKey, SimInstant)],
) -> Vec<u64> {
    let mut used = vec![false; inferred.len()];
    let mut out = Vec::with_capacity(truth.len());
    for &(t, c) in truth {
        let hit = inferred.iter().enumerate().position(|(i, (k, _))| {
            !used[i]
                && k.ch == c
                && k.at.saturating_since(t) <= MATCH_WINDOW
                && t.saturating_since(k.at) <= MATCH_WINDOW
        });
        if let Some(i) = hit {
            used[i] = true;
            out.push(inferred[i].1.saturating_since(t).as_nanos());
        }
    }
    out
}

/// Reduces a finished session's output. `decided` pairs each inferred
/// press with when it was decided (in process) or arrived (split).
pub fn reduce(
    input: &SessionInput,
    ending: Ending,
    result: Option<&SessionResult>,
    correct: usize,
    truth: &[(SimInstant, char)],
    decided: &[(InferredKey, SimInstant)],
    host_ns: u64,
) -> SessionRecord {
    SessionRecord {
        digest: digest(ending, result),
        error: match ending {
            Ending::Failed(e) => Some(e),
            Ending::Ok | Ending::Salvaged => None,
        },
        keys: result.map_or(0, |r| r.keys.len()),
        correct,
        truth: truth.len(),
        latencies_ns: press_latencies_ns(truth, decided),
        sim_s: input.until.as_secs_f64(),
        host_ns,
        infer: result.map(|r| r.stats).unwrap_or_default(),
        ..SessionRecord::default()
    }
}

/// Press/decision pairs of an in-process result.
pub fn decisions(result: Option<&SessionResult>) -> Vec<(InferredKey, SimInstant)> {
    result
        .map(|r| r.keys_before_corrections.iter().map(|k| (*k, k.decided_at)).collect())
        .unwrap_or_default()
}

/// Reduces a finished in-process session that still owns its simulation.
pub fn record(
    sim: &UiSimulation,
    input: &SessionInput,
    ending: Ending,
    result: Option<&SessionResult>,
    host_ns: u64,
) -> SessionRecord {
    let correct = result.map_or(0, |r| r.score(sim).correct_keys);
    let truth = sim.truth().keystrokes();
    SessionRecord {
        frames: sim.incremental_stats(),
        ..reduce(input, ending, result, correct, &truth, &decisions(result), host_ns)
    }
}

fn ending_of(result: &Result<SessionResult, ServiceError>) -> Ending {
    match result {
        Ok(_) => Ending::Ok,
        Err(e) => Ending::Failed(*e),
    }
}

/// Runs one session through `AttackService::eavesdrop`, timing only that
/// call.
pub fn run_untraced(service: &AttackService, input: &SessionInput) -> SessionRecord {
    let mut sim = build_sim(input);
    let started = Instant::now();
    let result = service.eavesdrop(&mut sim, input.until);
    let host_ns = started.elapsed().as_nanos() as u64;
    record(&sim, input, ending_of(&result), result.as_ref().ok(), host_ns)
}

/// Host time of each `push_samples` burst that emitted a key, ns.
pub type BurstTimes = Vec<u64>;

/// Runs one session through the same public pieces `eavesdrop` is built
/// from, with a span around each call into a layer:
///
/// * `ui.new`, `ui.advance` — `UiSimulation::new` and `advance_to`, the
///   latter called up to each read slot's nominal time before the read;
/// * `sampler.open`, `sampler.start_stream`, `sampler.next_sample`,
///   `sampler.finish_stream` — the kgsl reads and the sampling loop;
/// * `core.streaming_session`, `core.push_samples`, `core.finish` — delta
///   extraction, recognition, Algorithm 1 and corrections.
///
/// The result must equal [`run_untraced`]'s; the output check compares
/// their digests.
pub fn run_traced(
    service: &AttackService,
    input: &SessionInput,
    rec: &mut Recorder,
    bursts: &mut BurstTimes,
) -> SessionRecord {
    rec.open("bench.session");
    let mut sim = rec.time("ui.new", || build_sim(input));
    let started = Instant::now();
    let result = traced_eavesdrop(service, &mut sim, input.until, rec, bursts);
    let host_ns = started.elapsed().as_nanos() as u64;
    rec.close("bench.session");
    record(&sim, input, ending_of(&result), result.as_ref().ok(), host_ns)
}

fn traced_eavesdrop(
    service: &AttackService,
    sim: &mut UiSimulation,
    until: SimInstant,
    rec: &mut Recorder,
    bursts: &mut BurstTimes,
) -> Result<SessionResult, ServiceError> {
    let config = service.config().sampler;
    let mut sampler = rec
        .time("sampler.open", || Sampler::open(sim.device(), config))
        .map_err(ServiceError::from)?;
    let mut stream = rec.time("sampler.start_stream", || sampler.start_stream(sim, until));
    let mut session = rec.time("core.streaming_session", || service.streaming_session());
    let start = sim.now();
    let interval = config.interval.as_nanos().max(1);
    let mut last_at: Option<SimInstant> = None;
    let mut burst = Vec::with_capacity(BURST);
    let mut fresh: Vec<InferredKey> = Vec::new();
    loop {
        let mut stream_done = false;
        while burst.len() < BURST {
            // The next read slot's nominal time is no earlier than the
            // first grid point at or after the last read; advancing the
            // simulation that far first leaves the read itself unchanged
            // and charges the rendering in between to the UI layer.
            if let Some(at) = last_at {
                let since = at.saturating_since(start).as_nanos();
                let nominal =
                    SimInstant::from_nanos(start.as_nanos() + since.div_ceil(interval) * interval);
                if nominal <= until {
                    rec.time("ui.advance", || sim.advance_to(nominal));
                }
            }
            match rec.time("sampler.next_sample", || sampler.next_sample(&mut stream, sim)) {
                Some(sample) => {
                    last_at = Some(sample.at);
                    burst.push(sample);
                }
                None => {
                    stream_done = true;
                    break;
                }
            }
        }
        let t0 = rec.now_ns();
        rec.time("core.push_samples", || session.push_samples(&burst));
        let took = rec.now_ns() - t0;
        burst.clear();
        fresh.clear();
        session.drain_new_keys(&mut fresh);
        if !fresh.is_empty() {
            bursts.push(took);
        }
        if stream_done {
            break;
        }
    }
    rec.time("sampler.finish_stream", || sampler.finish_stream(stream))
        .map_err(ServiceError::from)?;
    let report = sampler.report();
    rec.time("core.finish", || session.finish(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, Workload};

    #[test]
    fn latencies_align_like_the_scorer() {
        let key = |ms: u64, ch: char| InferredKey {
            at: SimInstant::from_millis(ms),
            decided_at: SimInstant::from_millis(ms),
            ch,
            via_split: false,
        };
        let truth = [(SimInstant::from_millis(100), 'a'), (SimInstant::from_millis(400), 'b')];
        let inferred = [
            (key(110, 'a'), SimInstant::from_millis(130)),
            (key(900, 'b'), SimInstant::from_millis(900)),
        ];
        // 'a' matches (decided 30 ms after the press); 'b' is out of window.
        assert_eq!(press_latencies_ns(&truth, &inferred), vec![30_000_000]);
    }

    #[test]
    fn digest_separates_endings() {
        assert_ne!(digest(Ending::Ok, None), digest(Ending::Salvaged, None));
        assert_ne!(
            digest(Ending::Ok, None),
            digest(Ending::Failed(ServiceError::UnrecognisedDevice), None)
        );
    }

    #[test]
    fn sims_built_from_inputs_are_identical() {
        let inputs = generate(Workload::FleetLossy, 9, 3);
        for input in &inputs.sessions {
            let mut a = build_sim(input);
            let mut b = build_sim(input);
            a.advance_to(input.until);
            b.advance_to(input.until);
            assert_eq!(a.truth().keystrokes(), b.truth().keystrokes());
            assert_eq!(a.frames_submitted(), b.frames_submitted());
        }
    }
}
