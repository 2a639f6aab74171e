//! Per-round resolution of the collision-prone broadcast channel.
//!
//! Implements the delivery rule of Section 2 of the paper:
//!
//! > there exists a round `rcf` such that in every round `r >= rcf`:
//! > if some source `pi` broadcasts a message `m` in round `r`, and
//! > (i) some non-failed receiver `pj` is within distance `R1` of
//! > `pi`, and (ii) no \[other\] node within distance `R2` of `pj`
//! > broadcasts in round `r`, then `pj` receives the message `m`.
//!
//! together with the collision-detector Properties 1 (completeness)
//! and 2 (eventual accuracy) through one rule: a receiver's detector
//! reports exactly when a message broadcast within `R2` of it was
//! lost. Every loss within `R1` is such a loss, so completeness holds
//! in every round; before round `racc` the adversary may add spurious
//! reports, and from `racc` onwards nothing else is reported.
//!
//! Nodes are half-duplex: a broadcaster does not receive other nodes'
//! messages in the same round (it does observe its own, which models
//! the sender knowing what it sent). Consequently two broadcasters
//! within `R1` of each other each *lose* the other's message, and
//! completeness forces both their detectors to report a collision —
//! exactly the behaviour contention management must eventually
//! eliminate.

use crate::adversary::Adversary;
use crate::config::RadioConfig;
use crate::engine::NodeId;
use crate::geometry::{CellIndex, Heard, HeardFold, Point};
use rand::rngs::StdRng;
use std::time::Instant;
use vi_telemetry::{Observers, Phase};

/// A node's transmission decision for one round.
#[derive(Clone, Debug)]
pub struct TxIntent<M> {
    /// The node making the decision.
    pub node: NodeId,
    /// Where the node currently is.
    pub pos: Point,
    /// `Some(payload)` to broadcast, `None` to listen.
    pub payload: Option<M>,
}

/// What one node observes at the end of a round: the received messages
/// plus the collision-detector output.
///
/// A borrowed view into engine-owned round storage (see
/// [`ReceptionBuffer`]), so delivering outcomes allocates nothing;
/// protocols copy out whatever they keep beyond the round.
#[derive(Clone, Copy, Debug)]
pub struct RoundReception<'a, M> {
    /// Messages received this round, in deterministic (sender) order.
    /// Senders are anonymous: the model gives nodes no unique
    /// identifiers, so payloads arrive unattributed.
    pub messages: &'a [M],
    /// Collision-detector output: `true` means the detector delivered
    /// the `±` indication to this node.
    pub collision: bool,
}

/// One resolved round: one entry per intent (receiving node, detector
/// output, and the received messages with their senders), with all
/// senders/payloads in two flat arrays sliced by per-entry offsets.
///
/// Both resolvers write it and the engine delivers from it; two
/// buffers are equal exactly when every entry agrees, senders
/// included. Clearing drops no per-entry `Vec`s and refilling reuses
/// the flat buffers, so steady-state rounds make no heap allocations
/// once capacities have grown to the working-set size.
#[derive(Clone, Debug, PartialEq)]
pub struct ReceptionBuffer<M> {
    nodes: Vec<NodeId>,
    collisions: Vec<bool>,
    /// `starts[k]..starts[k + 1]` slices `senders`/`messages` for
    /// entry `k` (always one more offset than entries).
    starts: Vec<u32>,
    senders: Vec<NodeId>,
    messages: Vec<M>,
}

impl<M> Default for ReceptionBuffer<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> ReceptionBuffer<M> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        ReceptionBuffer {
            nodes: Vec::new(),
            collisions: Vec::new(),
            starts: vec![0],
            senders: Vec::new(),
            messages: Vec::new(),
        }
    }

    /// Reserves the per-entry columns for `entries` entries in all,
    /// exactly.
    pub(crate) fn reserve_receivers(&mut self, entries: usize) {
        self.nodes
            .reserve_exact(entries.saturating_sub(self.nodes.len()));
        self.collisions
            .reserve_exact(entries.saturating_sub(self.collisions.len()));
        self.starts
            .reserve_exact((entries + 1).saturating_sub(self.starts.len()));
    }

    /// Drops all entries, keeping every capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.collisions.clear();
        self.senders.clear();
        self.messages.clear();
        self.starts.clear();
        self.starts.push(0);
    }

    /// Number of complete entries.
    pub fn len(&self) -> usize {
        self.collisions.len()
    }

    /// `true` if the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.collisions.is_empty()
    }

    /// Opens the next entry. Must be balanced by
    /// [`ReceptionBuffer::finish`] after the entry's messages are
    /// pushed.
    pub fn begin(&mut self, node: NodeId) {
        debug_assert_eq!(self.nodes.len(), self.collisions.len(), "unbalanced begin");
        self.nodes.push(node);
    }

    /// Appends one received message to the open entry.
    pub fn push_message(&mut self, sender: NodeId, payload: M) {
        self.senders.push(sender);
        self.messages.push(payload);
    }

    /// Closes the open entry with the detector output.
    pub fn finish(&mut self, collision: bool) {
        self.collisions.push(collision);
        self.starts.push(self.messages.len() as u32);
    }

    /// The receiving node of entry `k`.
    pub fn node(&self, k: usize) -> NodeId {
        self.nodes[k]
    }

    /// The detector output of entry `k`.
    pub fn collision(&self, k: usize) -> bool {
        self.collisions[k]
    }

    fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.starts[k] as usize..self.starts[k + 1] as usize
    }

    /// The senders of entry `k`'s messages, in message order.
    pub fn senders(&self, k: usize) -> &[NodeId] {
        &self.senders[self.range(k)]
    }

    /// The payloads of entry `k`, in sender order.
    pub fn messages(&self, k: usize) -> &[M] {
        &self.messages[self.range(k)]
    }

    /// Entry `k` as the anonymous view a protocol receives.
    pub fn reception(&self, k: usize) -> RoundReception<'_, M> {
        RoundReception {
            messages: self.messages(k),
            collision: self.collisions[k],
        }
    }
}

/// What happened to the node topology since the previous
/// [`Medium::resolve_round_cached`] call, as tracked by the caller
/// (the engine's dirty-set of movers plus its live-set comparison).
#[derive(Clone, Copy, Debug)]
pub enum TopologyDelta<'a> {
    /// The participant set changed, or the caller lost track: a churn
    /// round. It resolves from a per-round index of its broadcasters
    /// and drops the cached neighborhoods; the first round after it
    /// that is not itself churn re-anchors them.
    Rebuild,
    /// Same participants, every position unchanged: a steady round
    /// over the cached neighborhoods (a re-anchor first if they are
    /// stale).
    Unchanged,
    /// Same participants; exactly these intent slots changed position.
    /// Few movers are patched into the cache surgically; many make it
    /// a churn round.
    Moved(&'a [u32]),
}

/// The shared broadcast medium: resolves rounds through one spatial
/// index with persistent per-node neighborhoods and reusable per-round
/// buffers.
///
/// This is the engine's hot path. The naive delivery rule is
/// O(receivers × broadcasters × nodes): for every (receiver,
/// broadcaster) pair it scans *all* broadcasters for an interferer.
/// `Medium` instead answers "how many broadcasters sit within `R2` of
/// this receiver, is one inside `R1`, and who is it if it is alone?"
/// from one 3×3-cell scan of a [`CellIndex`] over the round's
/// broadcasters (cell size `R2`) or, while the topology holds still,
/// from the cached neighborhood of an earlier round — its slots only;
/// the delivery rule recomputes the one distance it reads — making the
/// round near-linear in the node count for bounded-density
/// deployments. All index and scratch buffers are owned by the
/// `Medium` and reused round over round, so resolution allocates
/// nothing in steady state.
///
/// A round runs on the calling thread from start to finish: whatever
/// the round kind, receivers are resolved in ascending intent order by
/// the one walk (`ReceiverWalk::run`) through the one delivery rule.
///
/// Observational equivalence with the naive rule is load-bearing:
/// [`Medium::resolve_round_cached`] consults the [`Adversary`] for
/// exactly the same (round, sender, receiver) queries in exactly the
/// same order as [`resolve_round_reference`], so for any seed the two
/// produce byte-for-byte identical receptions, traces, and statistics
/// (see the differential tests in `tests/substrate_properties.rs`).
#[derive(Debug)]
pub struct Medium {
    cfg: RadioConfig,
    /// The one spatial index (cell size `R2`), tagged by intent slot: a
    /// churn round's broadcasters, or every intent position as of the
    /// last re-anchor round, moved surgically since.
    index: CellIndex,
    /// Per-slot neighborhood: every other slot within `R2`, ascending.
    nbr: Vec<Vec<u32>>,
    /// Which slots broadcast this round (refreshed every cached and
    /// re-anchor round).
    is_tx: Vec<bool>,
    /// Whether `index` + `nbr` describe the current node topology (a
    /// churn round invalidates them).
    cache_ready: bool,
    /// Number of intent slots the cache covers.
    cached_n: usize,
    /// Scratch: which slots are moving this round (surgical updates).
    is_mover: Vec<bool>,
    /// Scratch: a freshly queried neighborhood.
    fresh: Vec<u32>,
    /// Scratch: `receiver << 32 | broadcaster` events for the
    /// sparse-broadcast scatter resolution.
    events: Vec<u64>,
    /// The run's observers (null by default: every site is one
    /// branch); counts and timers land only where engine rounds feed
    /// them.
    obs: Observers,
}

impl Medium {
    /// Movers-per-round threshold of the cached resolver: when more
    /// than one slot in `MOVER_REBUILD_NUM` moved, surgical
    /// neighborhood updates cost more than re-anchoring, so the round
    /// falls back to a full rebuild.
    const MOVER_REBUILD_NUM: usize = 4;

    /// Broadcaster-sparsity threshold of the scatter resolution: with
    /// fewer than one broadcaster per `SCATTER_MAX_TX_NUM` slots, the
    /// round is resolved by scattering from the broadcasters' cached
    /// neighborhoods instead of scanning every receiver's.
    const SCATTER_MAX_TX_NUM: usize = 8;

    /// Creates a medium for the given radio parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RadioConfig::validate`]).
    pub fn new(cfg: RadioConfig) -> Self {
        cfg.validate().expect("invalid radio config");
        Medium {
            cfg,
            index: CellIndex::new(cfg.r2),
            nbr: Vec::new(),
            is_tx: Vec::new(),
            cache_ready: false,
            cached_n: 0,
            is_mover: Vec::new(),
            fresh: Vec::new(),
            events: Vec::new(),
            obs: Observers::default(),
        }
    }

    /// Installs the run's observers (a clone shares the caller's
    /// state; [`crate::Engine::set_observers`] hands its own down). The
    /// default handle is null and costs one branch per site.
    pub fn set_observers(&mut self, obs: Observers) {
        self.obs = obs;
    }

    /// Resolves one round through *persistent* per-node neighborhoods
    /// instead of a per-round index rebuild, writing one entry per
    /// intent (same order) to `out`.
    ///
    /// `intents` carries every *alive, participating* node exactly
    /// once. The adversary is consulted only within its mandate:
    /// message drops only for rounds before `cfg.rcf`, spurious
    /// collision indications only before `cfg.racc`. Completeness
    /// (Property 1) cannot be suppressed by any adversary.
    ///
    /// The medium keeps, for every intent slot, the sorted list of
    /// slots within `R2`. The caller reports how the topology changed
    /// via `delta`:
    ///
    /// * [`TopologyDelta::Unchanged`] — nothing to maintain; the round
    ///   is resolved by scanning cached neighborhoods (zero distance
    ///   computations, zero heap allocations in steady state).
    /// * [`TopologyDelta::Moved`] — the movers are moved in the index,
    ///   their neighborhoods refreshed with one query each and their
    ///   peers' lists patched surgically; everything else stays cached.
    /// * [`TopologyDelta::Rebuild`] or movers beyond a churn threshold
    ///   — the index is rebuilt over the round's broadcasters alone
    ///   (one counting sort, then one fused scan per receiver) and the
    ///   cache is invalidated: topology that churns
    ///   every round never pays for a cache it cannot reuse.
    ///   The first stable round afterwards re-anchors the
    ///   full-topology cache (as do few-mover rounds whose cache went
    ///   stale or whose movers left the anchored bounding box).
    ///
    /// Observational equivalence with [`resolve_round_reference`] is
    /// load-bearing: same receptions, same adversary consultation
    /// order, same RNG stream (asserted by differential proptests) —
    /// **provided** `delta` is truthful. Reporting a moved slot as
    /// unchanged silently corrupts the cached neighborhoods.
    ///
    /// `out` is cleared first; callers that keep the buffer across
    /// rounds amortize its allocation away.
    pub fn resolve_round_cached<M: Clone>(
        &mut self,
        round: u64,
        intents: &[TxIntent<M>],
        delta: TopologyDelta<'_>,
        adversary: &mut dyn Adversary,
        rng: &mut StdRng,
        out: &mut ReceptionBuffer<M>,
    ) {
        out.clear();
        let n = intents.len();
        self.obs.count_round(|c| c.rounds_total += 1);

        // Pick the round's maintenance mode. Participant churn and
        // mass movement go through the per-round broadcaster index
        // (the cache would be rebuilt only to be thrown away again
        // next round); an intact cache takes the surgical or steady
        // path; everything else (first stable round after churn)
        // re-anchors the full-topology cache.
        let stale = !self.cache_ready || self.cached_n != n;
        let (churn, movers): (bool, &[u32]) = match delta {
            TopologyDelta::Rebuild => {
                self.obs.count_round(|c| c.fallback_participant_churn += 1);
                (true, &[])
            }
            TopologyDelta::Unchanged => (false, &[]),
            TopologyDelta::Moved(slots) => {
                if slots.len() * Self::MOVER_REBUILD_NUM > n {
                    self.obs.count_round(|c| c.fallback_mass_move += 1);
                    (true, &[])
                } else if stale
                    || slots
                        .iter()
                        .any(|&s| !self.index.covers(intents[s as usize].pos))
                {
                    // Few movers but no usable cache (or drift past the
                    // anchor's one-cell margin around the hull):
                    // re-anchor now — the next rounds reuse it.
                    (false, &[])
                } else {
                    (false, slots)
                }
            }
        };

        // Geometry phase (wall-clock only): index or cache maintenance.
        let cfg = self.cfg;
        let walk = ReceiverWalk {
            cfg,
            obs: &self.obs,
            t_geom: self.obs.round_timer(),
            round,
            intents,
            adversary,
            rng,
            out,
        };
        if churn {
            self.obs.count_round(|c| {
                c.rounds_churn += 1;
                c.grid_queries += n as u64;
            });
            self.cache_ready = false;
            self.index.rebuild(
                intents
                    .iter()
                    .enumerate()
                    .filter(|(_, intent)| intent.payload.is_some())
                    .map(|(i, intent)| (intent.pos, i as u32)),
            );
            // One fused scan of the round's broadcaster index per
            // receiver: no list in between.
            let index = &self.index;
            walk.run(|j, rx| index.scan(rx.pos, cfg.r2, j as u32));
            return;
        }

        let rebuild = stale || (movers.is_empty() && !matches!(delta, TopologyDelta::Unchanged));
        if rebuild {
            self.obs.count_round(|c| {
                c.rounds_reanchor += 1;
                if stale {
                    c.fallback_stale_cache += 1;
                } else {
                    c.fallback_anchor_drift += 1;
                }
                c.grid_queries += n as u64;
            });
            self.index.rebuild(
                intents
                    .iter()
                    .enumerate()
                    .map(|(i, intent)| (intent.pos, i as u32)),
            );
            // The walk below refills `nbr[..n]` receiver by receiver.
            if self.nbr.len() < n {
                self.nbr.resize_with(n, Vec::new);
            }
            self.is_mover.clear();
            self.is_mover.resize(n, false);
            self.cached_n = n;
            self.cache_ready = true;
        } else if !movers.is_empty() {
            self.obs.count_round(|c| {
                c.mover_rounds += 1;
                c.mover_slots += movers.len() as u64;
                c.grid_queries += movers.len() as u64;
            });
            let (index, nbr, fresh) = (&mut self.index, &mut self.nbr, &mut self.fresh);
            // Phase A: land every move in the index first, so each
            // refreshed neighborhood below sees this round's true
            // positions (mover–mover pairs included).
            for &m in movers {
                index.move_point(m, intents[m as usize].pos);
                self.is_mover[m as usize] = true;
            }
            // Phase B: refresh each mover's own neighborhood and patch
            // its non-moving peers' lists where it arrived or left.
            // Fellow movers are skipped — their own refresh rewrites
            // their list wholesale.
            for &m in movers {
                let mu = m as usize;
                index.query_within(intents[mu].pos, cfg.r2, m, fresh);
                let mut old = std::mem::take(&mut nbr[mu]);
                for &x in &old {
                    if !self.is_mover[x as usize] && fresh.binary_search(&x).is_err() {
                        list_remove(&mut nbr[x as usize], m);
                    }
                }
                for &y in fresh.iter() {
                    if !self.is_mover[y as usize] && old.binary_search(&y).is_err() {
                        list_insert(&mut nbr[y as usize], m);
                    }
                }
                // Install the fresh list and recycle the old buffer as
                // the next query scratch (steady-state zero-alloc).
                old.clear();
                std::mem::swap(fresh, &mut old);
                nbr[mu] = old;
            }
            for &m in movers {
                self.is_mover[m as usize] = false;
            }
        }

        self.is_tx.clear();
        self.is_tx
            .extend(intents.iter().map(|i| i.payload.is_some()));
        let broadcasters = self.is_tx.iter().filter(|&&tx| tx).count();

        // Sparse-broadcast scatter: with few broadcasters it is far
        // cheaper to walk *their* cached neighborhoods (symmetric by
        // construction) and sort the resulting `(receiver,
        // broadcaster)` events than to probe every receiver's list.
        // Needs every list valid, so re-anchor rounds stay on the
        // scan path. Either path folds the identical per-receiver
        // broadcaster subset.
        let scatter = !rebuild && broadcasters * Self::SCATTER_MAX_TX_NUM < n;
        self.obs.count_round(|c| {
            if scatter {
                c.rounds_scatter += 1;
            } else if !rebuild {
                c.rounds_steady += 1;
            }
        });
        let (index, nbr, is_tx) = (&self.index, &mut self.nbr, &self.is_tx);
        if scatter {
            self.events.clear();
            for (i, intent) in intents.iter().enumerate() {
                if intent.payload.is_some() {
                    let events = nbr[i].iter().map(|&j| u64::from(j) << 32 | i as u64);
                    self.events.extend(events);
                }
            }
            self.events.sort_unstable();
            let mut events = self.events.iter().peekable();
            walk.run(|j, _| {
                let mine = std::iter::from_fn(|| {
                    events
                        .next_if(|&&key| (key >> 32) == j as u64)
                        .map(|&key| key as u32)
                });
                Heard::of(mine)
            });
        } else if rebuild {
            // One full index query per receiver refills its cached
            // neighborhood; what it hears is the broadcasting subset.
            // The query lands in scratch and is copied over so a new
            // list is allocated at its exact size: querying straight
            // into `nbr[j]` leaves push-growth slack in 20 000 small
            // lists, which cost `metro_static` 1 MiB of RSS and 3 % of
            // wall-clock on the steady rounds that read them.
            let fresh = &mut self.fresh;
            walk.run(|j, rx| {
                index.query_within(rx.pos, cfg.r2, j as u32, fresh);
                nbr[j].clear();
                nbr[j].extend_from_slice(fresh);
                heard_in(&nbr[j], is_tx)
            });
        } else {
            walk.run(|j, _| heard_in(&nbr[j], is_tx));
        }
    }
}

/// What a receiver hears of the broadcasters in `list`, its cached
/// `R2` neighborhood.
fn heard_in(list: &[u32], is_tx: &[bool]) -> Heard {
    let empty = HeardFold::default();
    list.iter()
        .fold(empty, |f, &i| f.push(is_tx[i as usize], i))
        .finish()
}

/// The receiver walk every round kind ends in, and everything about
/// the round it needs: each intent is resolved, in ascending order,
/// through the one [`resolve_receiver`] delivery rule. Every adversary
/// and RNG consultation of a round happens in [`ReceiverWalk::run`],
/// which reports the round's adversary-consultation count to the
/// observers once, after the last receiver.
struct ReceiverWalk<'a, M> {
    cfg: RadioConfig,
    obs: &'a Observers,
    /// Start of the geometry phase (index or cache maintenance,
    /// wall-clock only); it ends where the walk — the finalize phase —
    /// starts.
    t_geom: Option<Instant>,
    round: u64,
    intents: &'a [TxIntent<M>],
    adversary: &'a mut dyn Adversary,
    rng: &'a mut StdRng,
    out: &'a mut ReceptionBuffer<M>,
}

impl<M: Clone> ReceiverWalk<'_, M> {
    /// Resolves every receiver given what `hear(slot, intent)` says it
    /// [`Heard`].
    fn run(self, mut hear: impl FnMut(usize, &TxIntent<M>) -> Heard) {
        self.obs.phase_since(Phase::Geometry, self.t_geom);
        let t_fin = self.obs.round_timer();
        let mut checks = 0;
        for (j, rx_intent) in self.intents.iter().enumerate() {
            let heard = hear(j, rx_intent);
            checks += resolve_receiver(
                &self.cfg,
                self.round,
                rx_intent,
                heard,
                self.intents,
                self.adversary,
                self.rng,
                self.out,
            );
        }
        self.obs.phase_since(Phase::Finalize, t_fin);
        self.obs.adversary_checks(checks);
    }
}

/// Removes `key` from a sorted neighborhood list.
fn list_remove(list: &mut Vec<u32>, key: u32) {
    let at = list
        .binary_search(&key)
        .expect("cached neighborhood must contain the departing mover");
    list.remove(at);
}

/// Inserts `key` into a sorted neighborhood list.
fn list_insert(list: &mut Vec<u32>, key: u32) {
    let at = list
        .binary_search(&key)
        .expect_err("cached neighborhood already contains the arriving mover");
    list.insert(at, key);
}

/// Resolves one receiver given what it [`Heard`] of the round's other
/// broadcasters, appending the entry to `out`; returns how many times
/// it consulted the adversary.
///
/// This is the delivery rule of [`resolve_round_reference`] — including
/// the short-circuit order of adversary consultations, which the
/// differential tests pin down. The reference walks the in-`R2`
/// broadcasters one by one, but `interfered` (some *other* broadcaster
/// within `R2`) is true for every one of them as soon as there are
/// two, and then no message is deliverable, the adversary is not asked
/// about any of them, and all that is left of the walk is "something
/// was lost within `R2`" — all the collision detector reads. So the
/// sender matters only when it is alone, and its distance is computed
/// here, from the round's positions, for that one receiver.
#[allow(clippy::too_many_arguments)]
fn resolve_receiver<M: Clone>(
    cfg: &RadioConfig,
    round: u64,
    rx_intent: &TxIntent<M>,
    heard: Heard,
    intents: &[TxIntent<M>],
    adversary: &mut dyn Adversary,
    rng: &mut StdRng,
    out: &mut ReceptionBuffer<M>,
) -> u64 {
    out.begin(rx_intent.node);
    // The sender observes its own payload (it knows what it sent).
    if let Some(own) = &rx_intent.payload {
        out.push_message(rx_intent.node, own.clone());
    }
    let mut checks = 0;
    let lost = match heard {
        Heard::Silence => false,
        Heard::One { slot } => {
            let tx = &intents[slot as usize];
            let physically_ok =
                rx_intent.payload.is_none() && rx_intent.pos.distance_sq(tx.pos) <= cfg.r1 * cfg.r1;
            let ask = physically_ok && round < cfg.rcf;
            checks += u64::from(ask);
            let delivered = physically_ok
                && !(ask && adversary.drop_message(round, tx.node, rx_intent.node, rng));
            if delivered {
                out.push_message(tx.node, tx.payload.as_ref().expect("broadcaster").clone());
            }
            !delivered
        }
        Heard::Many => true,
    };
    // Collision detector output: a report exactly when something
    // within R2 was lost, which covers every R1 loss (Property 1) and
    // nothing else from racc onwards (Property 2); before racc the
    // adversary may inject false positives; the E13 necessity
    // ablation may suppress reports.
    let ask = !lost && round < cfg.racc;
    checks += u64::from(ask);
    let mut collision = lost || (ask && adversary.spurious_collision(round, rx_intent.node, rng));
    if collision {
        checks += 1;
        collision = !adversary.suppress_detection(round, rx_intent.node, rng);
    }
    out.finish(collision);
    checks
}

/// Resolves one slotted round of the channel through a fresh
/// [`Medium`]: one [`Medium::resolve_round_cached`] call with
/// [`TopologyDelta::Rebuild`] into a fresh buffer, which it returns.
///
/// One-shot convenience for tests and tools; the engine keeps a
/// long-lived [`Medium`] instead so buffers amortize across rounds.
///
/// # Panics
///
/// Panics if `cfg` is invalid (see [`RadioConfig::validate`]).
pub fn resolve_round<M: Clone>(
    round: u64,
    cfg: &RadioConfig,
    intents: &[TxIntent<M>],
    adversary: &mut dyn Adversary,
    rng: &mut StdRng,
) -> ReceptionBuffer<M> {
    let mut out = ReceptionBuffer::new();
    Medium::new(*cfg).resolve_round_cached(
        round,
        intents,
        TopologyDelta::Rebuild,
        adversary,
        rng,
        &mut out,
    );
    out
}

/// The naive O(receivers × broadcasters × nodes) resolver, kept as the
/// executable specification of the delivery rule. It returns a fresh
/// [`ReceptionBuffer`], filled entry by entry in intent order.
///
/// [`Medium`] must be observationally identical to this function —
/// an equal buffer, same adversary consultation order, same RNG
/// stream. Differential tests (`tests/substrate_properties.rs`) and
/// the `radio_scale` experiment in `vi-bench` hold the two against
/// each other. Do not optimize this function: its value is being
/// obviously correct.
pub fn resolve_round_reference<M: Clone>(
    round: u64,
    cfg: &RadioConfig,
    intents: &[TxIntent<M>],
    adversary: &mut dyn Adversary,
    rng: &mut StdRng,
) -> ReceptionBuffer<M> {
    let broadcasters: Vec<usize> = (0..intents.len())
        .filter(|&i| intents[i].payload.is_some())
        .collect();

    let mut out = ReceptionBuffer::new();
    for (j, rx_intent) in intents.iter().enumerate() {
        let j_broadcasting = rx_intent.payload.is_some();
        let mut lost = false;
        out.begin(rx_intent.node);

        // The sender observes its own payload (it knows what it sent).
        if let Some(own) = &rx_intent.payload {
            out.push_message(rx_intent.node, own.clone());
        }

        for &i in &broadcasters {
            if i == j {
                continue;
            }
            let tx = &intents[i];
            let d2 = tx.pos.distance_sq(rx_intent.pos);
            let in_r1 = d2 <= cfg.r1 * cfg.r1;
            let in_r2 = d2 <= cfg.r2 * cfg.r2;
            if !in_r2 {
                continue; // out of both radii: physically irrelevant to j
            }

            // Physical deliverability: listener, in broadcast range, and
            // no *other* broadcaster interferes within R2 of j.
            let interfered = broadcasters.iter().any(|&k| {
                k != i && k != j && intents[k].pos.distance_sq(rx_intent.pos) <= cfg.r2 * cfg.r2
            });
            let physically_ok = !j_broadcasting && in_r1 && !interfered;

            let delivered = physically_ok
                && !(round < cfg.rcf
                    && adversary.drop_message(round, tx.node, rx_intent.node, rng));

            if delivered {
                out.push_message(tx.node, tx.payload.as_ref().expect("broadcaster").clone());
            } else {
                lost = true;
            }
        }

        // Collision detector output: reports exactly when something
        // within R2 was lost. That covers any loss within R1
        // (Property 1, completeness) and, from racc onwards, nothing
        // else (Property 2, eventual accuracy). Before racc the
        // adversary may inject false positives.
        let mut collision =
            lost || (round < cfg.racc && adversary.spurious_collision(round, rx_intent.node, rng));
        // Model-violation hook: the E13 necessity ablation may break
        // completeness here. Normal adversaries never do.
        if collision && adversary.suppress_detection(round, rx_intent.node, rng) {
            collision = false;
        }
        out.finish(collision);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryKind, ScriptedAdversary};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    fn cfg() -> RadioConfig {
        RadioConfig::reliable(10.0, 20.0)
    }

    fn intent<M>(id: usize, x: f64, payload: Option<M>) -> TxIntent<M> {
        TxIntent {
            node: NodeId::from(id),
            pos: Point::new(x, 0.0),
            payload,
        }
    }

    /// One broadcaster, one in-range listener: delivered, no collision.
    #[test]
    fn basic_delivery() {
        let intents = vec![intent(0, 0.0, Some(7u64)), intent(1, 5.0, None)];
        let out = resolve_round(0, &cfg(), &intents, &mut AdversaryKind::None, &mut rng());
        assert_eq!(out.senders(1), [NodeId::from(0)]);
        assert_eq!(out.messages(1), [7]);
        assert!(!out.collision(1));
        // Sender observes its own message and no collision.
        assert_eq!(out.senders(0), [NodeId::from(0)]);
        assert_eq!(out.messages(0), [7]);
        assert!(!out.collision(0));
    }

    /// Outside R1 (but inside R2): not delivered, and the listener's
    /// detector fires (accurate: a message within R2 was lost) — up to
    /// R2 inclusive, and no further.
    #[test]
    fn gray_ring_loss_reports() {
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 15.0, None)];
        let out = resolve_round(0, &cfg(), &intents, &mut AdversaryKind::None, &mut rng());
        assert!(out.messages(1).is_empty());
        assert!(out.collision(1), "ring loss should be reported");

        let edge = vec![intent(0, 0.0, Some(1u64)), intent(1, 20.0, None)];
        let out = resolve_round(0, &cfg(), &edge, &mut AdversaryKind::None, &mut rng());
        assert!(out.messages(1).is_empty());
        assert!(out.collision(1), "a loss exactly at R2 is reported");
    }

    /// Outside R2 entirely: silent round.
    #[test]
    fn out_of_range_is_silent() {
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 25.0, None)];
        let out = resolve_round(0, &cfg(), &intents, &mut AdversaryKind::None, &mut rng());
        assert!(out.messages(1).is_empty() && !out.collision(1));
    }

    /// Two broadcasters within R2 of a listener: both messages destroyed,
    /// collision reported (completeness).
    #[test]
    fn interference_destroys_both() {
        let intents = vec![
            intent(0, 0.0, Some(1u64)),
            intent(1, 8.0, Some(2u64)),
            intent(2, 4.0, None),
        ];
        let out = resolve_round(0, &cfg(), &intents, &mut AdversaryKind::None, &mut rng());
        assert!(out.messages(2).is_empty());
        assert!(out.collision(2));
    }

    /// Interferer outside R1 but inside R2 of the listener still
    /// destroys reception (quasi-unit-disk).
    #[test]
    fn far_interferer_still_interferes() {
        let intents = vec![
            intent(0, 0.0, Some(1u64)),
            intent(2, 5.0, None),
            intent(1, 22.0, Some(2u64)), // 17m from listener: in (R1, R2]
        ];
        let out = resolve_round(0, &cfg(), &intents, &mut AdversaryKind::None, &mut rng());
        assert!(out.messages(1).is_empty());
        assert!(out.collision(1));
    }

    /// Half-duplex: concurrent broadcasters within R1 miss each other
    /// and completeness forces both detectors to fire.
    #[test]
    fn concurrent_broadcasters_detect_collision() {
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 5.0, Some(2u64))];
        let out = resolve_round(0, &cfg(), &intents, &mut AdversaryKind::None, &mut rng());
        for k in 0..out.len() {
            assert_eq!(out.messages(k).len(), 1, "only own message observed");
            assert!(out.collision(k), "missed the other broadcaster");
        }
    }

    /// A lone broadcaster hears nothing but its own message and no
    /// collision.
    #[test]
    fn lone_broadcaster_clean() {
        let intents = vec![intent(0, 0.0, Some(1u64))];
        let out = resolve_round(0, &cfg(), &intents, &mut AdversaryKind::None, &mut rng());
        assert_eq!(out.messages(0).len(), 1);
        assert!(!out.collision(0));
    }

    /// Before rcf the adversary may drop a deliverable message; the
    /// listener's detector must then fire (completeness holds even
    /// pre-stabilization).
    #[test]
    fn adversarial_drop_forces_detection() {
        let mut adv = ScriptedAdversary::new();
        adv.drop(3, NodeId::from(0), NodeId::from(1));
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 100);
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 5.0, None)];
        let out = resolve_round(3, &cfg, &intents, &mut adv, &mut rng());
        assert!(out.messages(1).is_empty());
        assert!(out.collision(1), "completeness: lost R1 message detected");
    }

    /// After rcf the same script is impotent: the channel no longer
    /// consults the adversary for drops.
    #[test]
    fn post_rcf_drops_are_ignored() {
        let mut adv = ScriptedAdversary::new();
        adv.drop(100, NodeId::from(0), NodeId::from(1));
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 100);
        let intents = vec![intent(0, 0.0, Some(1u64)), intent(1, 5.0, None)];
        let out = resolve_round(100, &cfg, &intents, &mut adv, &mut rng());
        assert_eq!(out.messages(1).len(), 1);
        assert!(!out.collision(1));
    }

    /// Spurious indications are honoured before racc and suppressed
    /// after.
    #[test]
    fn spurious_collisions_respect_racc() {
        let mut adv = ScriptedAdversary::new();
        adv.inject_collision(3, NodeId::from(0));
        adv.inject_collision(100, NodeId::from(0));
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 100);
        let intents = vec![intent::<u64>(0, 0.0, None)];
        let out = resolve_round(3, &cfg, &intents, &mut adv, &mut rng());
        assert!(out.collision(0), "false positive allowed before racc");
        let out = resolve_round(100, &cfg, &intents, &mut adv, &mut rng());
        assert!(!out.collision(0), "accuracy: no false positives from racc");
    }

    /// Deliveries are reported in sender order, deterministically.
    #[test]
    fn deterministic_sender_order() {
        let intents = vec![
            intent(2, 1.0, Some(30u64)),
            intent(0, 2.0, Some(10u64)),
            intent(1, 50.0, None), // isolated listener, hears nothing
            intent(3, 3.0, None),
        ];
        // Node 3 is within R2 of both broadcasters: interference.
        let out = resolve_round(0, &cfg(), &intents, &mut AdversaryKind::None, &mut rng());
        assert!(out.messages(3).is_empty() && out.collision(3));
        assert!(out.messages(2).is_empty() && !out.collision(2));
    }

    /// Answers every consultation with a fixed script and records the
    /// call sequence, draining one RNG word per call so a skipped or
    /// extra consultation also shows in the stream.
    struct Recording {
        answers: [bool; 3],
        calls: Vec<(&'static str, u64, Option<NodeId>, NodeId)>,
    }

    impl Adversary for Recording {
        fn drop_message(&mut self, round: u64, src: NodeId, dst: NodeId, rng: &mut StdRng) -> bool {
            rand::Rng::next_u64(rng);
            self.calls.push(("drop", round, Some(src), dst));
            self.answers[0]
        }
        fn spurious_collision(&mut self, round: u64, node: NodeId, rng: &mut StdRng) -> bool {
            rand::Rng::next_u64(rng);
            self.calls.push(("spurious", round, None, node));
            self.answers[1]
        }
        fn suppress_detection(&mut self, round: u64, node: NodeId, rng: &mut StdRng) -> bool {
            rand::Rng::next_u64(rng);
            self.calls.push(("suppress", round, None, node));
            self.answers[2]
        }
    }

    /// The list-walking body `resolve_receiver` had before it took a
    /// [`Heard`], kept as the oracle of
    /// `heard_summary_resolves_like_the_list_walk` (with the one
    /// detector rule: report iff something within R2 was lost).
    #[allow(clippy::too_many_arguments)]
    fn walk_list<M: Clone>(
        cfg: &RadioConfig,
        round: u64,
        rx_intent: &TxIntent<M>,
        txn: &[u32],
        intents: &[TxIntent<M>],
        adversary: &mut dyn Adversary,
        rng: &mut StdRng,
        out: &mut ReceptionBuffer<M>,
    ) {
        out.begin(rx_intent.node);
        let j_broadcasting = rx_intent.payload.is_some();
        if let Some(own) = &rx_intent.payload {
            out.push_message(rx_intent.node, own.clone());
        }
        let interfered = txn.len() >= 2;
        let mut lost = false;
        for &i in txn {
            let tx = &intents[i as usize];
            let in_r1 = tx.pos.distance_sq(rx_intent.pos) <= cfg.r1 * cfg.r1;
            let physically_ok = !j_broadcasting && in_r1 && !interfered;
            let delivered = physically_ok
                && !(round < cfg.rcf
                    && adversary.drop_message(round, tx.node, rx_intent.node, rng));
            if delivered {
                out.push_message(tx.node, tx.payload.as_ref().expect("broadcaster").clone());
            } else {
                lost = true;
            }
        }
        let mut collision =
            lost || (round < cfg.racc && adversary.spurious_collision(round, rx_intent.node, rng));
        if collision && adversary.suppress_detection(round, rx_intent.node, rng) {
            collision = false;
        }
        out.finish(collision);
    }

    /// `resolve_receiver(Heard::of(list))` is the list walk: an equal
    /// buffer (senders included), same adversary calls in the same
    /// order, same RNG stream, and the consultation count it returns is
    /// the number of calls — for a listening and a broadcasting
    /// receiver, every shape of list, before and after `rcf` / `racc`,
    /// whatever the adversary answers.
    #[test]
    fn heard_summary_resolves_like_the_list_walk() {
        // Slot 0 receives at the origin; slots 1..=3 broadcast, each
        // listed one at its given distance from slot 0 and the others
        // far away (what is heard is the list, not the geometry).
        let intents_for = |rx_broadcasts: bool, list: &[(u32, f64)]| -> Vec<TxIntent<u64>> {
            (0..4usize)
                .map(|i| {
                    let at = list.iter().find(|&&(j, _)| j as usize == i);
                    let x = at.map_or(if i == 0 { 0.0 } else { 1e3 }, |&(_, d)| d);
                    intent(i, x, (i > 0 || rx_broadcasts).then_some(10 + i as u64))
                })
                .collect()
        };
        let (r1, ring, edge) = (10.0, 15.0, 20.0);
        let lists: [(&str, &[(u32, f64)]); 10] = [
            ("silence", &[]),
            ("one in R1", &[(2, 5.0)]),
            ("one exactly at R1", &[(1, r1)]),
            ("one in the ring", &[(3, ring)]),
            ("one exactly at R2", &[(3, edge)]),
            ("two in the ring", &[(1, ring), (3, edge)]),
            ("two, first in R1", &[(1, 5.0), (2, ring)]),
            ("two, last in R1", &[(1, ring), (3, r1)]),
            ("three, middle in R1", &[(1, ring), (2, 2.0), (3, ring)]),
            ("three in R1", &[(1, 1.0), (2, 2.0), (3, 3.0)]),
        ];
        // rcf = racc = 5: round 3 is before both, round 7 after.
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 5);
        let mut compared = 0;
        for rx_broadcasts in [false, true] {
            for (name, listed) in lists {
                let intents = intents_for(rx_broadcasts, listed);
                let list: Vec<u32> = listed.iter().map(|&(slot, _)| slot).collect();
                for round in [3u64, 7] {
                    for script in 0..8u8 {
                        let answers = [script & 1 != 0, script & 2 != 0, script & 4 != 0];
                        let case = format!(
                            "{name}, rx broadcasting: {rx_broadcasts}, \
                             round {round}, answers {answers:?}"
                        );
                        let run = |by_summary: bool| {
                            let mut adv = Recording {
                                answers,
                                calls: Vec::new(),
                            };
                            let (mut rng, mut out) = (rng(), ReceptionBuffer::new());
                            if by_summary {
                                let heard = Heard::of(list.iter().copied());
                                let checks = resolve_receiver(
                                    &cfg,
                                    round,
                                    &intents[0],
                                    heard,
                                    &intents,
                                    &mut adv,
                                    &mut rng,
                                    &mut out,
                                );
                                assert_eq!(
                                    checks,
                                    adv.calls.len() as u64,
                                    "consultation count: {case}"
                                );
                            } else {
                                walk_list(
                                    &cfg,
                                    round,
                                    &intents[0],
                                    &list,
                                    &intents,
                                    &mut adv,
                                    &mut rng,
                                    &mut out,
                                );
                            }
                            (out, adv.calls, rng)
                        };
                        let (summary, walk) = (run(true), run(false));
                        assert_eq!(summary.0, walk.0, "reception: {case}");
                        assert_eq!(summary.1, walk.1, "adversary calls: {case}");
                        assert_eq!(summary.2, walk.2, "RNG stream: {case}");
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, 2 * 10 * 2 * 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `heard_in`, the fold steady and re-anchor rounds run over a
        /// cached slot list, is the reference summary of the list's
        /// broadcasters (the fold once kept a minimum distance; the
        /// reference still lists the hits and matches on their number).
        /// Slots repeat and a lone broadcaster is often followed by
        /// listeners, so the last hit and the last candidate differ.
        #[test]
        fn cached_list_fold_matches_the_min_reference(
            list in proptest::collection::vec(0u32..12, 0..8),
            is_tx in proptest::collection::vec(any::<bool>(), 12),
        ) {
            let broadcasting = list.iter().copied().filter(|&i| is_tx[i as usize]);
            prop_assert_eq!(
                heard_in(&list, &is_tx),
                Heard::reference(broadcasting),
                "list {:?}, is_tx {:?}", list, is_tx
            );
        }
    }
}
