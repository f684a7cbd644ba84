//! # android-ui — the victim-device UI substrate
//!
//! Models the parts of Android's graphics stack the attack observes through
//! GPU performance counters:
//!
//! * [`screen`] — phone models, resolutions, refresh rates, OS versions
//!   (§7.5 adaptability matrix);
//! * [`keyboard`] — six on-screen keyboards with per-key popup geometry and
//!   animation (Fig 1, Fig 20);
//! * [`apps`] — login screens of the target apps (Fig 19), including PNC's
//!   animated login (Fig 29);
//! * [`compositor`] — per-window damage-driven draw lists (the mechanism
//!   behind the three counter changes per key press, Fig 3);
//! * [`events`] — input events and ground truth;
//! * [`sim`] — the discrete-event simulation tying input, vsync, windows and
//!   the GPU together.
//!
//! ```
//! use adreno_sim::time::{SimDuration, SimInstant};
//! use android_ui::keyboard::Key;
//! use android_ui::sim::{SimConfig, UiSimulation};
//!
//! let mut sim = UiSimulation::new(SimConfig::default());
//! sim.tap_key(SimInstant::from_millis(200), Key::Char('p'), SimDuration::from_millis(95));
//! sim.advance_to(SimInstant::from_millis(800));
//! assert_eq!(sim.truth().final_text(), "p");
//! ```

#![forbid(unsafe_code)]

pub mod apps;
pub mod compositor;
pub mod events;
pub mod keyboard;
pub mod screen;
pub mod sim;

pub use apps::{LoginScreen, TargetApp};
pub use compositor::{KeyboardWindow, StatusBar};
pub use events::{GroundTruth, TimedEvent, TruthEvent, TruthKind, UiEvent};
pub use keyboard::{Key, KeyboardKind, KeyboardLayout, Page};
pub use screen::{AndroidVersion, DeviceConfig, PhoneModel, RefreshRate, Resolution};
pub use sim::{SimConfig, UiSimulation};
