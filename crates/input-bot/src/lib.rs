//! # input-bot — the offline-phase input bot and human typing models
//!
//! The paper's offline phase drives a bot through the Android input stack to
//! emulate every key press and collect training data (§6); its evaluation
//! replays the key-press durations and intervals of five human volunteers
//! (Fig 16). This crate reproduces both:
//!
//! * [`timing`] — volunteer duration/interval distributions and the §7.2
//!   speed classes;
//! * [`corpus`] — random credential generation (length 8–16, per-class);
//! * [`script`] — converting texts into timed key events with page-switch
//!   handling, corrections, app switches and the other §8 behaviours.
//!
//! ```
//! use adreno_sim::time::SimInstant;
//! use input_bot::corpus::{generate, CredentialKind};
//! use input_bot::script::Typist;
//! use input_bot::timing::VOLUNTEERS;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let password = generate(&mut rng, CredentialKind::Password, 10);
//! let mut typist = Typist::new(VOLUNTEERS[2]);
//! let plan = typist.type_text(&password, SimInstant::from_millis(300), &mut rng);
//! assert!(!plan.events.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod script;
pub mod timing;

pub use corpus::{generate, generate_ranged, CharClass, CredentialKind};
pub use script::{calibration_taps, practical_session, Plan, SessionConfig, Typist};
pub use timing::{SpeedClass, VolunteerModel, VOLUNTEERS};
