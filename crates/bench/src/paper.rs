//! The paper's reference values for Figs. 9–11, read off its plots. The
//! figure binaries print them next to the reproduction's numbers.

/// Fig. 9: `smove` success fraction at 1–5 hops.
pub const FIG9_SMOVE: [f64; 5] = [1.00, 0.99, 0.97, 0.95, 0.92];

/// Fig. 9: `rout` success fraction at 1–5 hops.
pub const FIG9_ROUT: [f64; 5] = [0.99, 0.96, 0.90, 0.82, 0.73];

/// Fig. 10: one-way `smove` latency at 1–5 hops, ms.
pub const FIG10_SMOVE_MS: [f64; 5] = [225.0, 430.0, 650.0, 870.0, 1080.0];

/// Fig. 10: `rout` latency at 1–5 hops, ms.
pub const FIG10_ROUT_MS: [f64; 5] = [55.0, 130.0, 215.0, 300.0, 400.0];

/// Fig. 11: one-hop latency of each remote operation, ms.
pub const FIG11_MS: [(&str, f64); 7] = [
    ("rout", 55.0),
    ("rinp", 60.0),
    ("rrdp", 60.0),
    ("smove", 225.0),
    ("wmove", 215.0),
    ("sclone", 240.0),
    ("wclone", 220.0),
];
