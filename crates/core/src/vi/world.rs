//! Deployment builder: assembles radio engine, schedule, regional
//! contention managers, and devices into a runnable virtual
//! infrastructure. Execution knobs forward to the engine it owns:
//! `set_adversary`, and `set_observers` for the run's one observer
//! handle.

use crate::vi::automaton::{VirtualAutomaton, VnId};
use crate::vi::client::ClientApp;
use crate::vi::emulator::{Deployment, Device, EmulatorReport};
use crate::vi::layout::VnLayout;
use crate::vi::message::Wire;
use crate::vi::round::RoundPlan;
use crate::vi::schedule::Schedule;
use std::rc::Rc;
use vi_contention::{RegionalCm, RegionalConfig, SharedCm};
use vi_radio::mobility::MobilityModel;
use vi_radio::trace::ChannelStats;
use vi_radio::{Adversary, Engine, EngineConfig, NodeId, NodeSpec, RadioConfig};

/// Construction parameters for a [`World`].
#[derive(Debug)]
pub struct WorldConfig<VA> {
    /// Radio model (the conflict distance for the schedule is derived
    /// from it: `r1 + 2·r2`).
    pub radio: RadioConfig,
    /// Virtual-node placement.
    pub layout: VnLayout,
    /// The virtual-node program.
    pub automaton: VA,
    /// Simulation seed.
    pub seed: u64,
    /// Whether to record a full channel trace.
    pub record_trace: bool,
}

/// A runnable virtual-infrastructure deployment.
///
/// See the crate examples (`quickstart.rs`) for end-to-end usage.
pub struct World<VA: VirtualAutomaton> {
    engine: Engine<Wire<VA::Msg, VA::State>, Device<VA>>,
    dep: Rc<Deployment<VA>>,
    devices: Vec<NodeId>,
}

impl<VA: VirtualAutomaton> World<VA> {
    /// Builds the deployment: computes the Section 4.1 schedule, sets
    /// up one regional contention manager per virtual node (with the
    /// paper's `2(s+10)` lease), and prepares the engine.
    ///
    /// # Panics
    ///
    /// Panics if the radio configuration is invalid.
    pub fn new(config: WorldConfig<VA>) -> Self {
        config.radio.validate().expect("invalid radio config");
        let conflict = config.radio.r1 + 2.0 * config.radio.r2;
        let schedule = Schedule::build(&config.layout, conflict);
        let plan = RoundPlan::new(schedule.len());
        let cms: Vec<SharedCm> = config
            .layout
            .iter()
            .map(|(_, loc)| {
                SharedCm::new(RegionalCm::new(RegionalConfig::for_schedule(
                    loc,
                    config.layout.region_radius(),
                    schedule.len(),
                )))
            })
            .collect();
        let dep = Rc::new(Deployment {
            automaton: config.automaton,
            layout: config.layout,
            schedule,
            plan,
            cms,
        });
        let engine = Engine::new(EngineConfig {
            radio: config.radio,
            seed: config.seed,
            record_trace: config.record_trace,
        });
        World {
            engine,
            dep,
            devices: Vec::new(),
        }
    }

    /// The shared deployment (layout, schedule, plan).
    pub fn deployment(&self) -> &Deployment<VA> {
        &self.dep
    }

    /// The virtual-round plan.
    pub fn plan(&self) -> RoundPlan {
        self.dep.plan
    }

    /// Adds a device with an optional client program.
    pub fn add_device(
        &mut self,
        mobility: Box<dyn MobilityModel>,
        client: Option<Box<dyn ClientApp<VA::Msg>>>,
    ) -> NodeId {
        self.add_device_spec(mobility, client, None, None)
    }

    /// Adds a device with scripted lifecycle: spawn and/or crash at
    /// given *real* rounds (use [`RoundPlan::start_of`] to convert
    /// virtual rounds).
    pub fn add_device_spec(
        &mut self,
        mobility: Box<dyn MobilityModel>,
        client: Option<Box<dyn ClientApp<VA::Msg>>>,
        spawn_at: Option<u64>,
        crash_at: Option<u64>,
    ) -> NodeId {
        let device = Device::new(Rc::clone(&self.dep), client);
        let mut spec = NodeSpec::by_value(mobility, device);
        if let Some(r) = spawn_at {
            spec = spec.spawn_at(r);
        }
        if let Some(r) = crash_at {
            spec = spec.crash_at(r);
        }
        let id = self.engine.add_node(spec);
        self.devices.push(id);
        id
    }

    /// Installs a channel adversary.
    pub fn set_adversary(&mut self, adversary: Box<dyn Adversary>) {
        self.engine.set_adversary(adversary);
    }

    /// Installs the run's observer handle on the underlying engine (see
    /// [`vi_radio::Engine::set_observers`]): an observed deployment is
    /// byte-identical to an unobserved one.
    pub fn set_observers(&mut self, obs: vi_telemetry::Observers) {
        self.engine.set_observers(obs);
    }

    /// Runs `n` complete virtual rounds.
    pub fn run_virtual_rounds(&mut self, n: u64) {
        self.engine.run(n * self.dep.plan.rounds_per_vr());
    }

    /// Number of complete virtual rounds executed.
    pub fn virtual_rounds_done(&self) -> u64 {
        self.engine.round() / self.dep.plan.rounds_per_vr()
    }

    /// Crashes a device at the start of the next real round.
    pub fn crash(&mut self, device: NodeId) {
        self.engine.crash(device);
    }

    /// The device process.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a device of this world.
    pub fn device(&self, id: NodeId) -> &Device<VA> {
        self.engine.process_at(id)
    }

    /// All device ids, in insertion order.
    pub fn devices(&self) -> &[NodeId] {
        &self.devices
    }

    /// Channel statistics.
    pub fn stats(&self) -> &ChannelStats {
        self.engine.stats()
    }

    /// Direct engine access (positions, traces).
    pub fn engine(&self) -> &Engine<Wire<VA::Msg, VA::State>, Device<VA>> {
        &self.engine
    }

    /// The most advanced replica view of `vn`, borrowed: `(state,
    /// folded_to)` with the largest `folded_to` among current replicas
    /// (the last such replica in device order).
    pub fn vn_view(&self, vn: VnId) -> Option<(&VA::State, u64)> {
        self.devices
            .iter()
            .filter_map(|&id| {
                let d = self.device(id);
                if d.is_replica()? == vn {
                    let (state, folded, _) = d.vn_view()?;
                    Some((state, folded))
                } else {
                    None
                }
            })
            .max_by_key(|&(_, folded)| folded)
    }

    /// [`World::vn_view`], cloned: one clone of the chosen replica's
    /// state, none of the others'.
    pub fn vn_state(&self, vn: VnId) -> Option<(VA::State, u64)> {
        self.vn_view(vn)
            .map(|(state, folded)| (state.clone(), folded))
    }

    /// Number of current replicas of `vn`.
    pub fn replica_count(&self, vn: VnId) -> usize {
        self.devices
            .iter()
            .filter(|&&id| self.device(id).is_replica() == Some(vn))
            .count()
    }

    /// Aggregated emulator reports per virtual node over all device
    /// lifetimes (including emulations retired when devices left the
    /// region): `(current replicas, summed report)`.
    pub fn vn_report(&self, vn: VnId) -> (usize, EmulatorReport) {
        (self.replica_count(vn), self.tally(|v| v == vn))
    }

    /// The whole-world emulation tally: every virtual node's
    /// [`vn_report`](Self::vn_report), summed in one pass.
    pub fn report(&self) -> EmulatorReport {
        self.tally(|_| true)
    }

    fn tally(&self, counts: impl Fn(VnId) -> bool) -> EmulatorReport {
        let mut sum = EmulatorReport::default();
        for &id in &self.devices {
            for (vn, report) in self.device(id).lifetime_reports() {
                if counts(vn) {
                    sum += report;
                }
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vi::automaton::{CounterAutomaton, CounterState};
    use crate::vi::client::CollectorClient;
    use vi_radio::geometry::Point;

    fn single_vn_world(n_devices: usize) -> (World<CounterAutomaton>, Vec<NodeId>) {
        let layout = VnLayout::new(vec![Point::new(50.0, 50.0)], 2.5);
        let mut world = World::new(WorldConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout,
            automaton: CounterAutomaton,
            seed: 7,
            record_trace: false,
        });
        let ids: Vec<NodeId> = (0..n_devices)
            .map(|i| {
                world.add_device(
                    Box::new(Point::new(50.0 + i as f64 * 0.5, 50.0)),
                    Some(Box::new(CollectorClient::<u64>::default())),
                )
            })
            .collect();
        (world, ids)
    }

    #[test]
    fn bootstrap_via_reset_creates_replicas() {
        let (mut world, ids) = single_vn_world(3);
        world.run_virtual_rounds(2);
        for &id in &ids {
            assert_eq!(world.device(id).is_replica(), Some(VnId(0)));
        }
        let (n, report) = world.vn_report(VnId(0));
        assert_eq!(n, 3);
        assert_eq!(report.resets, 3, "all three bootstrap-reset together");
    }

    #[test]
    fn replicas_decide_and_stay_consistent() {
        let (mut world, ids) = single_vn_world(3);
        world.run_virtual_rounds(8);
        let states: Vec<(CounterState, u64)> = ids
            .iter()
            .map(|&id| {
                let (s, f, _) = world.device(id).vn_view().unwrap();
                (s.clone(), f)
            })
            .collect();
        // All replicas fully caught up and identical.
        for (s, f) in &states {
            assert_eq!(*f, 8, "folded through the last complete virtual round");
            assert_eq!(s, &states[0].0);
        }
        let (_, report) = world.vn_report(VnId(0));
        assert!(report.decided >= 18, "most instances green: {report:?}");
    }

    #[test]
    fn clients_hear_the_virtual_node() {
        let (mut world, ids) = single_vn_world(3);
        world.run_virtual_rounds(6);
        // The counter automaton broadcasts every scheduled round (s=1:
        // every round once live); collectors must have heard it.
        let client: &CollectorClient<u64> = world
            .device(ids[0])
            .client::<CollectorClient<u64>>()
            .unwrap();
        let heard: usize = client.log.iter().map(|r| r.messages.len()).sum();
        assert!(heard >= 3, "client heard the virtual node: {heard}");
    }

    #[test]
    fn vn_state_reports_most_advanced_replica() {
        let (mut world, _) = single_vn_world(2);
        world.run_virtual_rounds(5);
        let (state, folded) = world.vn_state(VnId(0)).unwrap();
        assert_eq!(folded, 5);
        // The counter counted its own broadcasts (loopback) at least.
        assert!(state.received >= 1);
    }

    #[test]
    fn empty_world_runs() {
        let layout = VnLayout::new(vec![Point::new(0.0, 0.0)], 2.5);
        let mut world = World::new(WorldConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout,
            automaton: CounterAutomaton,
            seed: 0,
            record_trace: false,
        });
        world.run_virtual_rounds(3);
        assert_eq!(world.replica_count(VnId(0)), 0);
        assert_eq!(world.vn_state(VnId(0)), None);
    }
}
