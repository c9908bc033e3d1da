//! Area, power, and energy models for the MatRaptor reproduction.
//!
//! Sections V-A and V-C of the paper: component areas/powers from synthesis
//! at TSMC 28 nm (Table I), CACTI-style SRAM scaling for the sorting
//! queues, DRAM energy-per-bit figures, and the CPP² technology-node area
//! scaling used to compare against baselines manufactured at other nodes.
//!
//! We cannot rerun Synopsys DC / Cadence Innovus / CACTI, so Table I's
//! published numbers *are* the model; everything else (resized queues,
//! other nodes) is derived from them by the scaling laws the paper itself
//! uses.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod components;
mod dram;
mod model;
mod tech;

pub use components::{table1, AreaPower, ComponentRow, MatRaptorFloorplan};
pub use dram::DramEnergy;
pub use model::EnergyModel;
pub use tech::TechNode;
