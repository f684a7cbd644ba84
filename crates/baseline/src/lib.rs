//! # baseline — the coarse GPU-workload keystroke attack (Table 2)
//!
//! Reproduces the comparison baseline of §7.1: the desktop-GPU attack style
//! of Naghibijouybari et al. (CCS'18), which samples *workload-level*
//! counters (utilisation, active cycles, throughput) and classifies
//! keypresses with standard ML. The paper shows this approach fails for
//! keystrokes (<14 % accuracy) because a key press changes the GPU workload
//! only marginally; this crate reproduces both the measurement model and
//! the three classifiers.
//!
//! * [`scenes`] — gedit / Gmail web / Dropbox typing scenes and the
//!   CUPTI-style coarse feature extraction;
//! * [`nb`], [`knn`], [`forest`] — from-scratch Gaussian Naive Bayes, kNN
//!   and random forest;
//! * [`harness`] — the Table 2 protocol.
//!
//! ```
//! use baseline::harness::{table2_cell, BaselineAlgo, Protocol};
//! use baseline::scenes::DesktopScene;
//!
//! let p = Protocol { train_reps: 2, test_reps: 2, seed: 1 };
//! let acc = table2_cell(DesktopScene::Gedit, BaselineAlgo::Knn3, p);
//! assert!(acc < 0.5, "the baseline must be weak");
//! ```

#![forbid(unsafe_code)]

pub mod forest;
pub mod harness;
pub mod knn;
pub mod nb;
pub mod scenes;

pub use forest::{ForestConfig, RandomForest};
pub use harness::{table2_cell, BaselineAlgo, Protocol, BASELINE_CHARSET, TABLE2_ALGOS};
pub use knn::Knn;
pub use nb::GaussianNb;
pub use scenes::{keypress_features, DesktopScene, COARSE_DIMS, TABLE2_SCENES};
