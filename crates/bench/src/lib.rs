//! Benchmark harness regenerating every table and figure of the Agilla
//! paper's evaluation (Section 4) and case study (Section 5).
//!
//! Each `fig*`/`table_*`/`ablation_*` binary prints the paper's reported
//! numbers next to the reproduction's, so the figure report can be regenerated
//! by running them all (`cargo run -p agilla-bench --release --bin
//! all_figures`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cli;
pub mod engine;
pub mod harness;
pub mod paper;
pub mod report;
pub mod scale;

pub use artifact::{write_artifact, Json};
pub use cli::BenchArgs;
pub use engine::TrialExecutor;
pub use harness::{
    fig11_one_hop, fig12_local_ops, fig9_fig10, fig_energy_agents_alive, fig_energy_lifetime,
    fig_energy_per_op, fig_mix, fig_mix_loss_ramp, fig_mobile_crossing, fig_mobile_fire,
    fig_mobile_relay, fig_tenancy, AliveSample, CrossingRow, EnergyOpRow, Fig11Row, Fig12Row,
    FireFrontRow, HopResult, LifetimeRow, LossRampRow, MixRow, RelayRow, RemoteOpKind, TenancyRow,
};
pub use report::Table;
pub use scale::{fig_scale, ScaleRow};
