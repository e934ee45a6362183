//! Deterministic node motion models.
//!
//! A [`Motion`] describes how a mote's position evolves as a *pure function
//! of elapsed time* from its boot origin — there is no incremental
//! integration state, so replaying the same model at the same instants
//! always lands on the same coordinates regardless of how the simulation's
//! ticks were scheduled. The network layer samples the model on a fixed
//! tick and moves the mote through
//! [`Topology::move_node`](crate::Topology::move_node) whenever the
//! quantized grid position changes; the channel then sees the new
//! inter-node distances on the very next transmission.
//!
//! Positions are continuous internally (`f64` grid units) and quantized to
//! the integer [`Location`] grid only at the edge, because locations double
//! as network addresses in Agilla.

use wsn_common::Location;
use wsn_sim::SimDuration;

/// How a node moves, anchored at its boot-time origin.
#[derive(Debug, Clone, PartialEq)]
pub enum Motion {
    /// The node never moves (the default for every mote).
    Static,
    /// Constant velocity, grid units per second along each axis.
    ConstantVelocity {
        /// Velocity along x, grid units/s.
        vx: f64,
        /// Velocity along y, grid units/s.
        vy: f64,
    },
    /// Piecewise-linear travel through `waypoints` at a constant `speed`,
    /// starting from the origin and stopping for good at the last waypoint.
    LinearWaypoints {
        /// Waypoints visited in order after the origin.
        waypoints: Vec<Location>,
        /// Travel speed, grid units per second (`<= 0` never moves).
        speed: f64,
    },
    /// A circular orbit of `radius` grid units completed every `period_s`
    /// seconds, counterclockwise. The orbit's center sits `radius` units in
    /// the −x direction from the origin, so the position at `t = 0` *is*
    /// the origin — attaching a circle never teleports the mote at boot.
    Circle {
        /// Orbit radius, grid units.
        radius: f64,
        /// Seconds per revolution (`<= 0` never moves).
        period_s: f64,
    },
}

impl Motion {
    /// Whether this model can ever move the node.
    pub fn is_static(&self) -> bool {
        match self {
            Motion::Static => true,
            Motion::ConstantVelocity { vx, vy } => *vx == 0.0 && *vy == 0.0,
            Motion::LinearWaypoints { waypoints, speed } => waypoints.is_empty() || *speed <= 0.0,
            Motion::Circle { radius, period_s } => *radius == 0.0 || *period_s <= 0.0,
        }
    }

    /// The continuous position `elapsed` after boot, in grid units, for a
    /// node that booted at `origin`.
    pub fn position_at(&self, origin: Location, elapsed: SimDuration) -> (f64, f64) {
        let t = elapsed.as_secs_f64();
        let (ox, oy) = (f64::from(origin.x), f64::from(origin.y));
        match self {
            Motion::Static => (ox, oy),
            Motion::ConstantVelocity { vx, vy } => (ox + vx * t, oy + vy * t),
            Motion::LinearWaypoints { waypoints, speed } => {
                if *speed <= 0.0 {
                    return (ox, oy);
                }
                let mut pos = (ox, oy);
                let mut budget = speed * t;
                for wp in waypoints {
                    let (wx, wy) = (f64::from(wp.x), f64::from(wp.y));
                    let (dx, dy) = (wx - pos.0, wy - pos.1);
                    let seg = (dx * dx + dy * dy).sqrt();
                    if seg <= budget {
                        pos = (wx, wy);
                        budget -= seg;
                    } else {
                        if seg > 0.0 {
                            let f = budget / seg;
                            pos = (pos.0 + dx * f, pos.1 + dy * f);
                        }
                        return pos;
                    }
                }
                pos // past the last waypoint: parked there
            }
            Motion::Circle { radius, period_s } => {
                if *radius == 0.0 || *period_s <= 0.0 {
                    return (ox, oy);
                }
                let omega = std::f64::consts::TAU / period_s;
                // Center at (ox - radius, oy): position(0) == origin.
                (
                    ox + radius * ((omega * t).cos() - 1.0),
                    oy + radius * (omega * t).sin(),
                )
            }
        }
    }

    /// The grid [`Location`] (= network address) `elapsed` after boot:
    /// the continuous position rounded to the nearest grid point, clamped
    /// to the representable coordinate range.
    pub fn location_at(&self, origin: Location, elapsed: SimDuration) -> Location {
        let (x, y) = self.position_at(origin, elapsed);
        Location::new(quantize(x), quantize(y))
    }

    /// The instantaneous velocity `elapsed` after boot, grid units/s.
    pub fn velocity_at(&self, elapsed: SimDuration, origin: Location) -> (f64, f64) {
        let t = elapsed.as_secs_f64();
        match self {
            Motion::Static => (0.0, 0.0),
            Motion::ConstantVelocity { vx, vy } => (*vx, *vy),
            Motion::LinearWaypoints { waypoints, speed } => {
                if *speed <= 0.0 {
                    return (0.0, 0.0);
                }
                // Direction of the segment being traversed at `t`; zero once
                // parked at the last waypoint.
                let mut pos = (f64::from(origin.x), f64::from(origin.y));
                let mut budget = speed * t;
                for wp in waypoints {
                    let (wx, wy) = (f64::from(wp.x), f64::from(wp.y));
                    let (dx, dy) = (wx - pos.0, wy - pos.1);
                    let seg = (dx * dx + dy * dy).sqrt();
                    if seg <= budget {
                        pos = (wx, wy);
                        budget -= seg;
                    } else {
                        if seg == 0.0 {
                            return (0.0, 0.0);
                        }
                        return (speed * dx / seg, speed * dy / seg);
                    }
                }
                (0.0, 0.0)
            }
            Motion::Circle { radius, period_s } => {
                if *radius == 0.0 || *period_s <= 0.0 {
                    return (0.0, 0.0);
                }
                let omega = std::f64::consts::TAU / period_s;
                (
                    -radius * omega * (omega * t).sin(),
                    radius * omega * (omega * t).cos(),
                )
            }
        }
    }

    /// The `(heading, speed)` sensor readings `elapsed` after boot:
    /// heading in whole degrees counterclockwise from +x, normalized to
    /// `[0, 360)`, and speed in hundredths of a grid unit per second.
    /// `None` when the node is not moving at that instant (a parked
    /// waypoint walker still reports its zero speed — only a model that
    /// can never move lacks the readings entirely).
    pub fn heading_speed(&self, origin: Location, elapsed: SimDuration) -> Option<(i16, i16)> {
        if self.is_static() {
            return None;
        }
        let (vx, vy) = self.velocity_at(elapsed, origin);
        let speed = (vx * vx + vy * vy).sqrt();
        let heading = if speed == 0.0 {
            0.0
        } else {
            let deg = vy.atan2(vx).to_degrees();
            if deg < 0.0 {
                deg + 360.0
            } else {
                deg
            }
        };
        let heading = (heading.round() as i64).rem_euclid(360) as i16;
        let speed_cu = (speed * 100.0).round().clamp(0.0, f64::from(i16::MAX)) as i16;
        Some((heading, speed_cu))
    }
}

fn quantize(v: f64) -> i16 {
    v.round().clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
}

/// A scenario's complete motion assignment: which motes move, how, and how
/// often positions are re-evaluated.
///
/// The default plan is empty and [`MotionPlan::is_static`]: attaching it to
/// a trial schedules nothing and changes no output byte — the inertness
/// contract every pre-mobility figure relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionPlan {
    /// How often moving motes re-evaluate their position. Every tick is one
    /// node-owned event per moving mote; static motes never tick.
    pub tick: SimDuration,
    /// `(boot origin, model)` per moving mote. The origin doubles as the
    /// address the mote must occupy in the scenario's topology.
    pub entries: Vec<(Location, Motion)>,
}

impl MotionPlan {
    /// The default position re-evaluation period: 250 ms, fine enough that
    /// a 1-unit/s vehicle advances in quarter-cell steps.
    pub const DEFAULT_TICK: SimDuration = SimDuration::from_micros(250_000);

    /// An empty (fully static) plan.
    pub fn new() -> Self {
        MotionPlan {
            tick: Self::DEFAULT_TICK,
            entries: Vec::new(),
        }
    }

    /// Attaches `motion` to the mote booted at `origin` (builder style).
    /// A `Motion::Static` entry is dropped — it would schedule nothing.
    pub fn with(mut self, origin: Location, motion: Motion) -> Self {
        if !motion.is_static() {
            self.entries.push((origin, motion));
        }
        self
    }

    /// Sets the position re-evaluation tick (builder style).
    pub fn with_tick(mut self, tick: SimDuration) -> Self {
        assert!(tick.as_micros() > 0, "motion tick must be positive");
        self.tick = tick;
        self
    }

    /// Whether the plan moves nothing (the inert default).
    pub fn is_static(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for MotionPlan {
    fn default() -> Self {
        MotionPlan::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_micros(s * 1_000_000)
    }

    #[test]
    fn static_never_moves() {
        let o = Location::new(3, 4);
        assert!(Motion::Static.is_static());
        assert_eq!(Motion::Static.location_at(o, secs(1000)), o);
        assert_eq!(Motion::Static.heading_speed(o, secs(5)), None);
    }

    #[test]
    fn constant_velocity_advances_linearly() {
        let m = Motion::ConstantVelocity { vx: 0.5, vy: -0.25 };
        let o = Location::new(0, 0);
        assert_eq!(m.location_at(o, secs(0)), o, "t=0 is the origin");
        assert_eq!(m.location_at(o, secs(4)), Location::new(2, -1));
        let (h, s) = m.heading_speed(o, secs(4)).unwrap();
        assert_eq!(s, 56, "|(0.5,-0.25)| = 0.559 units/s in hundredths");
        assert!(
            (333..=334).contains(&h),
            "heading {h} in the fourth quadrant"
        );
    }

    #[test]
    fn zero_velocity_is_static() {
        assert!(Motion::ConstantVelocity { vx: 0.0, vy: 0.0 }.is_static());
    }

    #[test]
    fn waypoints_walk_then_park() {
        let m = Motion::LinearWaypoints {
            waypoints: vec![Location::new(4, 0), Location::new(4, 3)],
            speed: 1.0,
        };
        let o = Location::new(0, 0);
        assert_eq!(m.location_at(o, secs(0)), o);
        assert_eq!(m.location_at(o, secs(2)), Location::new(2, 0));
        assert_eq!(m.location_at(o, secs(4)), Location::new(4, 0), "corner");
        assert_eq!(m.location_at(o, secs(6)), Location::new(4, 2));
        // Past the total path length (7 units): parked at the last waypoint.
        assert_eq!(m.location_at(o, secs(100)), Location::new(4, 3));
        let (h, s) = m.heading_speed(o, secs(6)).unwrap();
        assert_eq!((h, s), (90, 100), "moving +y at 1 unit/s");
        let (_, s) = m.heading_speed(o, secs(100)).unwrap();
        assert_eq!(s, 0, "parked walker reports zero speed, not None");
    }

    #[test]
    fn empty_waypoints_or_zero_speed_is_static() {
        assert!(Motion::LinearWaypoints {
            waypoints: vec![],
            speed: 1.0
        }
        .is_static());
        assert!(Motion::LinearWaypoints {
            waypoints: vec![Location::new(1, 1)],
            speed: 0.0
        }
        .is_static());
    }

    #[test]
    fn circle_starts_at_origin_and_returns_each_period() {
        let m = Motion::Circle {
            radius: 2.0,
            period_s: 8.0,
        };
        let o = Location::new(5, 5);
        assert_eq!(m.location_at(o, secs(0)), o, "no boot teleport");
        assert_eq!(m.location_at(o, secs(8)), o, "full revolution");
        // Half a revolution: diametrically opposite through the center at
        // (3, 5), i.e. (1, 5).
        assert_eq!(m.location_at(o, secs(4)), Location::new(1, 5));
        let (h, s) = m.heading_speed(o, secs(0)).unwrap();
        assert_eq!(h, 90, "tangent at the origin points +y (counterclockwise)");
        assert_eq!(s, 157, "2πr/T = 1.571 units/s");
    }

    #[test]
    fn quantization_clamps_runaways() {
        let m = Motion::ConstantVelocity { vx: 1e9, vy: 0.0 };
        let loc = m.location_at(Location::new(0, 0), secs(1000));
        assert_eq!(loc.x, i16::MAX, "clamped, not wrapped");
    }

    #[test]
    fn plan_builder_drops_static_entries() {
        let plan = MotionPlan::new()
            .with(Location::new(0, 0), Motion::Static)
            .with(
                Location::new(1, 1),
                Motion::ConstantVelocity { vx: 1.0, vy: 0.0 },
            );
        assert_eq!(plan.entries.len(), 1);
        assert!(!plan.is_static());
        assert!(MotionPlan::default().is_static());
        assert_eq!(
            MotionPlan::new().with_tick(secs(1)).tick,
            secs(1),
            "tick is configurable"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tick_rejected() {
        let _ = MotionPlan::new().with_tick(SimDuration::from_micros(0));
    }
}
