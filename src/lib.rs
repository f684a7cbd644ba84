//! # gpu-eaves — umbrella crate for the ASPLOS'22 GPU side-channel reproduction
//!
//! Re-exports the workspace crates under one roof so examples and integration
//! tests can `use gpu_eaves::...`. See the individual crates for details:
//!
//! * [`adreno_sim`] — tile-based GPU simulator with LRZ/RAS/VPC counters.
//! * [`kgsl`] — the `/dev/kgsl-3d0` device-file façade and §9 mitigations.
//! * [`android_ui`] — compositor, keyboards, popups and target-app scenes.
//! * [`input_bot`] — human typing models and scripted user sessions.
//! * [`attack`] (crate `gpu-sc-attack`) — the paper's attack end to end.
//! * [`baseline`] — the coarse GPU-workload comparison attack (Table 2).
//! * [`wire`] — the exfiltration wire protocol and split-session driver.
//! * [`minipool`] — the scoped worker pool and cooperative ring run queue
//!   the fleet orchestrator schedules sessions on.

#![forbid(unsafe_code)]

pub use adreno_sim;
pub use android_ui;
pub use baseline;
pub use gpu_sc_attack as attack;
pub use input_bot;
pub use kgsl;
pub use minipool;
pub use wire;
