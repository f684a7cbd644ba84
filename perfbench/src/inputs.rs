//! Workload definitions and seeded input generation.
//!
//! Everything a workload feeds the program is drawn here, before timing
//! starts, from the workload seed alone: victim configurations, typing
//! plans, and kgsl fault / wire link plans. The program only ever sees the
//! generated inputs.

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::{DeviceConfig, KeyboardKind, PhoneModel, SimConfig, TargetApp, TimedEvent};
use gpu_sc_attack::sampler::SamplerConfig;
use gpu_sc_attack::service::ServiceConfig;
use input_bot::corpus::{generate_ranged, CredentialKind};
use input_bot::script::{practical_session, SessionConfig, Typist};
use input_bot::timing::VOLUNTEERS;
use kgsl::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wire::LinkPlan;

/// The held-out seed: not for tuning; a later perf claim must also hold on
/// it (see the README).
pub const HELD_OUT_SEED: u64 = 7_777_777;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential `eavesdrop` sessions on the paper's default bench.
    PaperClean,
    /// Sequential practical sessions over six configurations and one
    /// multi-model store, with ambient noise and load.
    NoisyMulticonfig,
    /// Closed fleet batches of in-process and split sessions under kgsl
    /// faults and lossy links.
    FleetLossy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperClean, Workload::NoisyMulticonfig, Workload::FleetLossy];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperClean => "paper-clean",
            Workload::NoisyMulticonfig => "noisy-multiconfig",
            Workload::FleetLossy => "fleet-lossy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct sessions the workload's inputs hold.
    pub fn default_sessions(self) -> usize {
        match self {
            Workload::PaperClean => 480,
            Workload::NoisyMulticonfig => 1152,
            Workload::FleetLossy => 5760,
        }
    }

    /// Salt separating the workloads' input streams for one seed.
    fn salt(self) -> u64 {
        match self {
            Workload::PaperClean => 0x9A9E_C1EA,
            Workload::NoisyMulticonfig => 0x0015_E11C,
            Workload::FleetLossy => 0xF1EE_7105,
        }
    }

    /// Sessions per measured pass: fleet passes are closed batches cycling
    /// over the inputs; a sequential pass runs them all.
    pub fn batch_sessions(self, sessions: usize) -> usize {
        match self {
            Workload::FleetLossy => sessions.min(360),
            Workload::PaperClean | Workload::NoisyMulticonfig => sessions,
        }
    }

    /// Warm-up sessions run before each measured pass.
    pub fn warmup_sessions(self) -> usize {
        match self {
            Workload::PaperClean => 5,
            Workload::NoisyMulticonfig => NOISY_CONFIGS.len(),
            Workload::FleetLossy => 24,
        }
    }
}

/// The six `noisy-multiconfig` configurations: every keyboard once, and the
/// phones cover all four Adreno generations (540, 640, 650, 660).
pub const NOISY_CONFIGS: [(PhoneModel, KeyboardKind); 6] = [
    (PhoneModel::OnePlus8Pro, KeyboardKind::Gboard),
    (PhoneModel::GooglePixel2, KeyboardKind::Swift),
    (PhoneModel::OnePlus7Pro, KeyboardKind::Sogou),
    (PhoneModel::OnePlus9, KeyboardKind::GooglePinyin),
    (PhoneModel::LgV30Plus, KeyboardKind::Go),
    (PhoneModel::GalaxyS21, KeyboardKind::Grammarly),
];

/// Ambient load of `noisy-multiconfig` sessions.
const NOISY_SYSTEM_NOISE_HZ: f64 = 0.5;
const NOISY_GPU_LOAD: f64 = 0.3;
const NOISY_CPU_LOAD: f64 = 0.3;

/// kgsl fault intensities cycled over `fleet-lossy`'s in-process sessions.
pub const FAULT_MIX: [f64; 4] = [0.0, 0.3, 0.6, 0.9];
/// Link intensities cycled over `fleet-lossy`'s split sessions.
pub const LINK_MIX: [f64; 3] = [0.0, 0.4, 0.8];
/// Every `SPLIT_EVERY`-th fleet session runs split over the wire.
pub const SPLIT_EVERY: usize = 3;
/// Horizon of the fault and link plans.
const PLAN_HORIZON: SimDuration = SimDuration::from_secs(8);

/// How a session reaches the classifier.
#[derive(Debug, Clone)]
pub enum Route {
    /// In process, optionally under a kgsl fault plan.
    Local { faults: Option<FaultPlan> },
    /// Split over a simulated link.
    Split { link: LinkPlan, intensity: f64 },
}

/// One victim session's generated inputs.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// The victim configuration (its seed drives the simulation).
    pub sim: SimConfig,
    /// The typing plan, queued into a fresh simulation per run.
    pub events: Vec<TimedEvent>,
    /// When eavesdropping stops.
    pub until: SimInstant,
    /// How the session is run.
    pub route: Route,
}

/// Everything one workload run needs, generated from one seed.
#[derive(Debug, Clone)]
pub struct WorkloadInputs {
    /// The victim configurations a model must be trained for.
    pub configs: Vec<(DeviceConfig, KeyboardKind, TargetApp)>,
    /// The attacking service's configuration.
    pub service: ServiceConfig,
    /// One pass over the workload.
    pub sessions: Vec<SessionInput>,
}

/// Generates `sessions` sessions of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, sessions: usize) -> WorkloadInputs {
    let mut rng = StdRng::seed_from_u64(seed ^ workload.salt());
    let paper = SimConfig::paper_default(0);
    let (configs, service) = match workload {
        Workload::PaperClean | Workload::FleetLossy => {
            (vec![(paper.device, paper.keyboard, paper.app)], ServiceConfig::default())
        }
        Workload::NoisyMulticonfig => (
            NOISY_CONFIGS
                .iter()
                .map(|&(phone, kb)| (DeviceConfig::for_phone(phone), kb, TargetApp::Chase))
                .collect(),
            ServiceConfig {
                sampler: SamplerConfig { cpu_load: NOISY_CPU_LOAD, ..SamplerConfig::default() },
                ..ServiceConfig::default()
            },
        ),
    };
    let sessions = (0..sessions)
        .map(|i| {
            let text = generate_ranged(&mut rng, CredentialKind::Password, 8, 16);
            let session_seed: u64 = rng.gen();
            session(workload, i, &text, session_seed)
        })
        .collect();
    WorkloadInputs { configs, service, sessions }
}

/// Builds session `index` of `workload`.
fn session(workload: Workload, index: usize, text: &str, seed: u64) -> SessionInput {
    let mut typing_rng = StdRng::seed_from_u64(seed ^ 0x7157);
    // Multiconfig sessions cycle configurations fastest, so the volunteer
    // advances once per configuration cycle to pair every volunteer with
    // every configuration.
    let volunteer = match workload {
        Workload::NoisyMulticonfig => index / NOISY_CONFIGS.len(),
        Workload::PaperClean | Workload::FleetLossy => index,
    };
    let mut typist = Typist::new(VOLUNTEERS[volunteer % VOLUNTEERS.len()]);
    let start = SimInstant::from_millis(900);
    let (sim, plan) = match workload {
        Workload::PaperClean | Workload::FleetLossy => {
            (SimConfig::paper_default(seed), typist.type_text(text, start, &mut typing_rng))
        }
        Workload::NoisyMulticonfig => {
            let (phone, keyboard) = NOISY_CONFIGS[index % NOISY_CONFIGS.len()];
            let sim = SimConfig {
                device: DeviceConfig::for_phone(phone),
                keyboard,
                gpu_load: NOISY_GPU_LOAD,
                cpu_load: NOISY_CPU_LOAD,
                system_noise_hz: NOISY_SYSTEM_NOISE_HZ,
                ..SimConfig::paper_default(seed)
            };
            let plan = practical_session(
                &mut typist,
                text,
                start,
                &SessionConfig::default(),
                &mut typing_rng,
            );
            (sim, plan)
        }
    };
    let route = match workload {
        Workload::FleetLossy if index % SPLIT_EVERY == SPLIT_EVERY - 1 => {
            let intensity = LINK_MIX[(index / SPLIT_EVERY) % LINK_MIX.len()];
            let link = if intensity > 0.0 {
                LinkPlan::with_intensity(seed, intensity, PLAN_HORIZON)
            } else {
                LinkPlan::new(seed)
            };
            Route::Split { link, intensity }
        }
        Workload::FleetLossy => {
            // Local sessions take the fault cycle in their arrival order.
            let ordinal = index - index / SPLIT_EVERY;
            let intensity = FAULT_MIX[ordinal % FAULT_MIX.len()];
            let faults = (intensity > 0.0)
                .then(|| FaultPlan::with_intensity(seed ^ 0xFA, intensity, PLAN_HORIZON));
            Route::Local { faults }
        }
        Workload::PaperClean | Workload::NoisyMulticonfig => Route::Local { faults: None },
    };
    SessionInput {
        sim,
        until: plan.end + SimDuration::from_millis(800),
        events: plan.events,
        route,
    }
}

/// The warm-up seed for a measured seed: a different stream, so warm-up
/// never replays the measured inputs.
pub fn warmup_seed(seed: u64) -> u64 {
    seed ^ 0xA5A5_5A5A_C3C3_3C3C
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        for w in Workload::ALL {
            // The inputs hold configs without `PartialEq`; their `Debug`
            // rendering covers every field.
            let render = |seed| format!("{:?}", generate(w, seed, 12));
            assert_eq!(render(42), render(42), "{}", w.name());
            assert_ne!(render(42), render(43), "{}: another seed, other inputs", w.name());
        }
    }

    #[test]
    fn noisy_configs_cover_all_generations_and_keyboards() {
        let gpus: std::collections::BTreeSet<_> = NOISY_CONFIGS
            .iter()
            .map(|&(p, _)| format!("{:?}", DeviceConfig::for_phone(p).gpu()))
            .collect();
        assert_eq!(gpus.len(), 4);
        let kbs: std::collections::BTreeSet<_> = NOISY_CONFIGS.iter().map(|&(_, k)| k).collect();
        assert_eq!(kbs.len(), android_ui::keyboard::ALL_KEYBOARDS.len());
    }

    #[test]
    fn fleet_mix_has_two_locals_per_split() {
        let inputs = generate(Workload::FleetLossy, 5, 24);
        let splits =
            inputs.sessions.iter().filter(|s| matches!(s.route, Route::Split { .. })).count();
        assert_eq!(splits, 8);
        let faulted = inputs
            .sessions
            .iter()
            .filter(|s| matches!(s.route, Route::Local { faults: Some(_), .. }))
            .count();
        assert_eq!(faulted, 12, "three of every four local sessions run under faults");
    }

    #[test]
    fn warmup_seed_is_disjoint() {
        for seed in [0, 1, 42, HELD_OUT_SEED] {
            assert_ne!(warmup_seed(seed), seed);
        }
    }
}
