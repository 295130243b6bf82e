//! # puno-vlsi
//!
//! Analytic area/power model reproducing the paper's Table III overhead
//! estimation.
//!
//! The paper used a commercial memory compiler at 65 nm / 2.3 GHz / 0.9 V
//! and compared against the Sun Rock (16 cores, 14,000,000 um^2 and 10 W
//! per core, same node and frequency). We cannot run a proprietary memory
//! compiler, so this module uses a CACTI-style analytic SRAM model — area
//! and dynamic+leakage power as affine functions of bit count with
//! per-port overheads — **calibrated so the three structures the paper
//! sizes land on its reported values** (P-Buffer 4700 um^2 / 7.28 mW,
//! TxLB 5380 um^2 / 7.52 mW, UD pointers 47400 um^2 / 16.43 mW). The model
//! then extrapolates to other configurations (different node counts, entry
//! counts, widths) for the sensitivity ablations.

#![forbid(unsafe_code)]

pub mod rock;
pub mod sensitivity;
pub mod sram;
pub mod table3;

pub use rock::RockBaseline;
pub use sensitivity::PunoHardwareConfig;
pub use sram::{SramArray, SramEstimate};
pub use table3::{paper_components, table3, Table3, Table3Row};
