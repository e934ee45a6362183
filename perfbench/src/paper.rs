//! The paper's reference values for Figs. 9–11 and the simulator's error
//! against them.
//!
//! The values are copied from the figure binaries, which read them off the
//! paper's plots: `crates/bench/src/bin/fig9_reliability.rs` (success
//! fractions), `fig10_latency.rs` (one-way smove and rout latency, ms) and
//! `fig11_remote_ops.rs` (one-hop latency per operation, ms).

use wsn_sim::LatencyRecorder;

use crate::fold::{PaperSample, TrialStats};
use crate::workloads::{Kind, PaperFig, TrialDef, FIG11_OPS};

/// Fig. 9: smove success at 1–5 hops.
const FIG9_SMOVE: [f64; 5] = [1.00, 0.99, 0.97, 0.95, 0.92];
/// Fig. 9: rout success at 1–5 hops.
const FIG9_ROUT: [f64; 5] = [0.99, 0.96, 0.90, 0.82, 0.73];
/// Fig. 10: one-way smove latency at 1–5 hops, ms.
const FIG10_SMOVE_MS: [f64; 5] = [225.0, 430.0, 650.0, 870.0, 1080.0];
/// Fig. 10: rout latency at 1–5 hops, ms.
const FIG10_ROUT_MS: [f64; 5] = [55.0, 130.0, 215.0, 300.0, 400.0];
/// Fig. 11: one-hop latency of each operation in [`FIG11_OPS`] order, ms.
const FIG11_MS: [f64; 7] = [55.0, 60.0, 60.0, 225.0, 215.0, 240.0, 220.0];

/// One paper point: its label, the simulated value and the paper's.
#[derive(Debug, Clone)]
pub struct Point {
    /// e.g. `fig9.smove.h3`.
    pub label: String,
    /// The simulated value, by the figure's own definition.
    pub sim: f64,
    /// The paper's value.
    pub paper: f64,
}

impl Point {
    /// Absolute relative error, %.
    pub fn err_pct(&self) -> f64 {
        100.0 * (self.sim - self.paper).abs() / self.paper
    }
}

/// The 27 points of Figs. 9–11, computed from a `paper_testbed` pass. Fig.
/// 9 reads the Fig. 9 batch and Fig. 10 the Fig. 10 batch, as the two
/// binaries do; smove failures are halved for the double migration.
pub fn points(defs: &[TrialDef], stats: &[TrialStats]) -> Vec<Point> {
    let samples = |want: &dyn Fn(Kind) -> bool| -> Vec<PaperSample> {
        defs.iter()
            .zip(stats)
            .filter(|(d, _)| want(d.kind))
            .filter_map(|(_, s)| s.paper)
            .collect()
    };
    let latency_ms = |samples: &[PaperSample]| {
        let mut lat = LatencyRecorder::new();
        for p in samples {
            if let (true, Some(d)) = (p.ok, p.latency) {
                lat.record(d);
            }
        }
        lat.mean().as_micros() as f64 / 1e3
    };
    let mut out = Vec::new();
    for h in 1..=5i16 {
        let i = (h - 1) as usize;
        let at = |smove: bool, fig: PaperFig| {
            samples(&|k| match k {
                Kind::PaperSmove { fig: f, hops } => smove && f == fig && hops == h,
                Kind::PaperRout { fig: f, hops } => !smove && f == fig && hops == h,
                _ => false,
            })
        };
        let smove9 = at(true, PaperFig::Fig9);
        let failures = smove9
            .iter()
            .filter(|p| !(p.ok && p.latency.is_some()))
            .count() as f64;
        out.push(Point {
            label: format!("fig9.smove.h{h}"),
            sim: (1.0 - (failures / 2.0) / smove9.len().max(1) as f64).clamp(0.0, 1.0),
            paper: FIG9_SMOVE[i],
        });
        let rout9 = at(false, PaperFig::Fig9);
        out.push(Point {
            label: format!("fig9.rout.h{h}"),
            sim: rout9.iter().filter(|p| p.ok).count() as f64 / rout9.len().max(1) as f64,
            paper: FIG9_ROUT[i],
        });
        out.push(Point {
            label: format!("fig10.smove.h{h}"),
            sim: latency_ms(&at(true, PaperFig::Fig10)),
            paper: FIG10_SMOVE_MS[i],
        });
        out.push(Point {
            label: format!("fig10.rout.h{h}"),
            sim: latency_ms(&at(false, PaperFig::Fig10)),
            paper: FIG10_ROUT_MS[i],
        });
    }
    for (op, name) in FIG11_OPS.iter().enumerate() {
        out.push(Point {
            label: format!("fig11.{name}"),
            sim: latency_ms(&samples(&|k| k == Kind::Fig11(op))),
            paper: FIG11_MS[op],
        });
    }
    out
}

/// Mean absolute relative error over `points`, %.
pub fn err_pct(points: &[Point]) -> f64 {
    points.iter().map(Point::err_pct).sum::<f64>() / points.len().max(1) as f64
}
