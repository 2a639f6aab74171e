//! Mobile robot coordination through a virtual node.
//!
//! ```sh
//! cargo run --example robot_rendezvous
//! ```
//!
//! The paper's robot-coordination motivation (references [4, 27]):
//! patrolling robots periodically report their positions to a virtual
//! node, which — being a single reliable, deterministic coordination
//! point — computes and announces a rendezvous location (the centroid
//! of the latest reports). Every robot hears the *same* announcement,
//! which is exactly the agreement property that is hard to get from
//! unreliable peers and trivial to get from virtual infrastructure.
//!
//! This example also shows defining a custom [`VirtualAutomaton`]
//! outside the workspace crates: the entire coordination service is
//! ~60 lines.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use virtual_infra::core::vi::{
    ClientApp, VirtualAutomaton, VirtualInput, VnCtx, VnId, VnLayout, World, WorldConfig,
};
use virtual_infra::radio::geometry::{Point, Rect};
use virtual_infra::radio::mobility::MobilitySpec;
use virtual_infra::radio::{RadioConfig, WireSized};

/// Robot coordination messages (positions in millimeters).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
enum RobotMsg {
    Position { robot: u32, x: i64, y: i64 },
    Rendezvous { x: i64, y: i64 },
}

impl WireSized for RobotMsg {
    fn wire_size(&self) -> usize {
        21
    }
}

/// The coordination virtual node: remembers each robot's last report
/// and announces the centroid whenever its broadcast slot comes up.
#[derive(Clone, Copy, Debug, Default)]
struct RendezvousVn;

#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
struct RendezvousState {
    robots: BTreeMap<u32, (i64, i64)>,
}

impl VirtualAutomaton for RendezvousVn {
    type Msg = RobotMsg;
    type State = RendezvousState;

    fn init(&self) -> RendezvousState {
        RendezvousState::default()
    }

    fn step(
        &self,
        state: &mut RendezvousState,
        ctx: VnCtx,
        input: &VirtualInput<RobotMsg>,
    ) -> Option<RobotMsg> {
        for m in &input.messages {
            if let RobotMsg::Position { robot, x, y } = m {
                state.robots.insert(*robot, (*x, *y));
            }
        }
        if ctx.next_scheduled && !state.robots.is_empty() {
            let n = state.robots.len() as i64;
            let (sx, sy) = state
                .robots
                .values()
                .fold((0, 0), |(ax, ay), (x, y)| (ax + x, ay + y));
            return Some(RobotMsg::Rendezvous {
                x: sx / n,
                y: sy / n,
            });
        }
        None
    }
}

/// A robot: reports its position every other virtual round and records
/// rendezvous announcements.
struct Robot {
    id: u32,
    announcements: Vec<(i64, i64)>,
}

impl ClientApp<RobotMsg> for Robot {
    fn on_virtual_round(
        &mut self,
        vr: u64,
        pos: Point,
        prev: &VirtualInput<RobotMsg>,
    ) -> Option<RobotMsg> {
        for m in &prev.messages {
            if let RobotMsg::Rendezvous { x, y } = m {
                self.announcements.push((*x, *y));
            }
        }
        // Stagger reports by robot id so simultaneous position
        // broadcasts don't collide in the client phase.
        (vr % 3 == u64::from(self.id)).then_some(RobotMsg::Position {
            robot: self.id,
            x: (pos.x * 1000.0) as i64,
            y: (pos.y * 1000.0) as i64,
        })
    }
}

fn main() {
    let vn_loc = Point::new(50.0, 50.0);
    let layout = VnLayout::new(vec![vn_loc], 2.5);
    let mut world = World::new(WorldConfig {
        radio: RadioConfig::reliable(80.0, 120.0), // field-wide radio
        layout,
        automaton: RendezvousVn,
        seed: 3,
        record_trace: false,
    });

    // Two devices anchor the virtual node.
    world.add_device(Box::new(Point::new(50.5, 50.0)), None);
    world.add_device(Box::new(Point::new(49.5, 50.0)), None);

    // Three patrolling robots on different circuits.
    let circuits = [
        vec![Point::new(20.0, 20.0), Point::new(30.0, 20.0)],
        vec![Point::new(80.0, 30.0), Point::new(80.0, 40.0)],
        vec![Point::new(40.0, 80.0), Point::new(50.0, 80.0)],
    ];
    let robots: Vec<_> = circuits
        .into_iter()
        .enumerate()
        .map(|(i, route)| {
            let start = route[0];
            world.add_device(
                MobilitySpec::PatrolRoute { route, speed: 1.5 }.build(start, Rect::square(100.0)),
                Some(Box::new(Robot {
                    id: i as u32,
                    announcements: Vec::new(),
                })),
            )
        })
        .collect();

    world.run_virtual_rounds(20);

    for (i, &id) in robots.iter().enumerate() {
        let robot: &Robot = world.device(id).client::<Robot>().unwrap();
        let last = robot.announcements.last();
        println!(
            "robot {i}: heard {} announcements, latest rendezvous {:?}",
            robot.announcements.len(),
            last.map(|(x, y)| (*x as f64 / 1000.0, *y as f64 / 1000.0))
        );
    }

    // All robots that heard the final announcement heard the same one.
    let finals: Vec<_> = robots
        .iter()
        .filter_map(|&id| {
            world
                .device(id)
                .client::<Robot>()
                .unwrap()
                .announcements
                .last()
                .copied()
        })
        .collect();
    println!(
        "all robots agree on the rendezvous point: {}",
        finals.windows(2).all(|w| w[0] == w[1])
    );
    let (state, _) = world.vn_state(VnId(0)).expect("coordinator alive");
    println!("coordinator tracked {} robots", state.robots.len());
}
