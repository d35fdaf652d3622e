//! Fleet-wide scenario compiler: the fleet becomes a network.
//!
//! A [`Scenario`] describes *cross-device* structure — where wearers
//! move, who meets whom, which environments a weather front derates,
//! which regions lose their BLE gateway, and how an infection seeds and
//! spreads along the contact graph. [`Scenario::compile`] lowers all of
//! it, deterministically, into **per-device artifacts**:
//!
//! * extra [`FaultWindow`]s (solar derates for weather fronts, BLE
//!   gateway-outage windows) that merge into the device's existing
//!   `iw-fault` plan, and
//! * a [`ContactPlan`] of `(window, peer, RSSI)` entries the device's
//!   BLE scanner plays back.
//!
//! Because every artifact is a pure function of `(scenario, device
//! index)`, devices stay **independently simulable**: a fleet shard can
//! run its devices in any order, on any host, and fold to the same
//! digest. The only genuinely cross-device computation — infection
//! spreading — is deferred to an **epoch fold** ([`run_epidemic`]) over
//! the observed [`ContactEdge`]s every device reports back: epochs are
//! iterated in lockstep, edges within an epoch are merged in
//! device-index order, and each transmission is a pure hash draw, so
//! the fold is itself a pure function of the merged edge set and runs
//! identically on the in-process runner and the multi-process
//! coordinator.
//!
//! Compilation streams (mobility, weather, gateway, seeding,
//! transmission) derive from distinct stream constants, so adding one
//! scenario feature never shifts another's draws.

#![warn(missing_docs)]

use iw_fault::{mix, FaultKind, FaultWindow, SplitMix64};
use iw_harvest::EnvProfile;

/// Microseconds per second (matches the event engine's tick rate).
const US_PER_S: f64 = 1e6;

fn secs_to_us(seconds: f64) -> u64 {
    (seconds * US_PER_S).round() as u64
}

/// Stream constant: per-device mobility random walks.
const MOBILITY_STREAM: u64 = 0x4d4f_4249_4c31; // "MOBIL1"
/// Stream constant: per-environment weather fronts.
const WEATHER_STREAM: u64 = 0x5745_4154_4831; // "WEATH1"
/// Stream constant: per-environment gateway outages.
const GATEWAY_STREAM: u64 = 0x4754_5741_5931; // "GTWAY1"
/// Stream constant: epidemic seeding rank.
const EPIDEMIC_STREAM: u64 = 0x4550_4944_4531; // "EPIDE1"
/// Stream constant: per-(epoch, edge) transmission draws.
const TRANSMIT_STREAM: u64 = 0x5452_414e_5331; // "TRANS1"
/// Stream constant: per-(epoch, cell) contact-window jitter.
const CONTACT_STREAM: u64 = 0x434f_4e54_4131; // "CONTA1"

/// One contact opportunity in a device's [`ContactPlan`]: peer
/// `peer` is co-located over `[start_us, end_us)` at the given RSSI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContactEntry {
    /// Window start, engine microseconds.
    pub start_us: u64,
    /// Window end, engine microseconds.
    pub end_us: u64,
    /// The co-located peer's device index.
    pub peer: u32,
    /// Received signal strength at the scanner, dBm (distance-derived).
    pub rssi_dbm: i8,
}

/// The per-device contact artifact: every co-location window the
/// device's BLE scanner may observe, sorted by start time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContactPlan {
    /// Contact windows, sorted by `(start_us, peer)`.
    pub entries: Vec<ContactEntry>,
    /// Simulated-time length of one epoch, microseconds (0 when the
    /// plan is empty / no scenario is attached).
    pub epoch_us: u64,
}

impl ContactPlan {
    /// Whether the plan carries any contact windows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One observed contact-graph edge, reported back by a device: during
/// epoch `epoch` the device successfully scanned `peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ContactEdge {
    /// Epoch index the scan completed in.
    pub epoch: u32,
    /// The scanning (observing) device.
    pub device: u32,
    /// The observed peer.
    pub peer: u32,
}

/// The epidemic script: who starts infected and how readily infection
/// crosses an observed contact edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpidemicScript {
    /// Number of initially infected devices (chosen by seeded hash
    /// rank, so the set is stable under sharding).
    pub initial_infected: usize,
    /// Probability that one observed contact with an infected peer
    /// transmits, per edge per epoch.
    pub transmissibility: f64,
}

/// A fleet-wide scenario description. Compile with
/// [`Scenario::compile`]; attach the result to a fleet configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario seed (independent of the fleet seed mixing for fault
    /// plans; the fleet runner passes its own seed through here).
    pub seed: u64,
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Simulated duration, seconds (must match the environment day).
    pub duration_s: f64,
    /// Epoch (barrier) length, seconds — mobility steps, contact
    /// windows and the infection fold all advance per epoch.
    pub epoch_s: f64,
    /// Side length of the square mobility world, meters.
    pub world_m: f64,
    /// Per-epoch random-walk step scale, meters.
    pub step_m: f64,
    /// Two devices within this range are in contact, meters.
    pub contact_radius_m: f64,
    /// Cap on contact windows per device per epoch (keeps plans — and
    /// therefore aggregate memory — bounded).
    pub max_contacts_per_epoch: usize,
    /// Weather fronts per environment over the whole run (each front
    /// derates every solar panel in that environment).
    pub weather_fronts_per_env: usize,
    /// Remaining solar intake fraction under a front (0 = blackout).
    pub weather_severity: f64,
    /// Gateway outages per environment region over the whole run.
    pub gateway_outages_per_env: usize,
    /// The epidemic script.
    pub epidemic: EpidemicScript,
    /// Environments the scenario supplies. When non-empty these replace
    /// the fleet configuration's environment list (the scenario is the
    /// source of truth for regional structure); weather fronts and
    /// gateway outages group devices by `index % environments.len()`,
    /// mirroring the fleet runner's assignment.
    pub environments: Vec<(String, EnvProfile)>,
}

/// The paper's three-environment list (indoor 6 h day, 40 klx sunny
/// day, fully dark day) — the single source both the default fleet
/// configuration and the scenario presets draw from.
#[must_use]
pub fn paper_environments() -> Vec<(String, EnvProfile)> {
    vec![
        ("indoor-6h".to_string(), EnvProfile::paper_indoor_day()),
        ("sunny-40klx".to_string(), EnvProfile::sunny_day(40.0)),
        ("dark".to_string(), EnvProfile::dark_day(86_400.0)),
    ]
}

impl Scenario {
    /// The epidemic preset: one simulated day in the paper's three
    /// environments, hourly epochs, a dense-enough mobility world that
    /// the contact graph percolates, two weather fronts and one gateway
    /// outage per environment, and a 4 %-seeded infection.
    #[must_use]
    pub fn epidemic(devices: usize, seed: u64) -> Scenario {
        Scenario {
            seed,
            devices,
            duration_s: 86_400.0,
            epoch_s: 3_600.0,
            world_m: 120.0,
            step_m: 25.0,
            contact_radius_m: 12.0,
            max_contacts_per_epoch: 6,
            weather_fronts_per_env: 2,
            weather_severity: 0.15,
            gateway_outages_per_env: 1,
            epidemic: EpidemicScript {
                initial_infected: (devices / 25).max(1),
                transmissibility: 0.35,
            },
            environments: paper_environments(),
        }
    }

    /// Number of whole epochs in the run.
    #[must_use]
    pub fn epochs(&self) -> u32 {
        (self.duration_s / self.epoch_s).floor() as u32
    }

    /// Rejects a scenario [`Scenario::compile`] cannot lower, with a
    /// human-readable reason: one without environments, with an epoch
    /// that is not positive and finite, or with a duration that is not
    /// finite or shorter than one epoch.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.environments.is_empty() {
            return Err("a scenario must supply at least one environment".to_string());
        }
        if !(self.epoch_s > 0.0 && self.epoch_s.is_finite()) {
            return Err(format!(
                "epoch length must be positive and finite, got {} s",
                self.epoch_s
            ));
        }
        if !(self.duration_s.is_finite() && self.duration_s >= self.epoch_s) {
            return Err(format!(
                "duration must cover at least one epoch, got {} s with {} s epochs",
                self.duration_s, self.epoch_s
            ));
        }
        Ok(())
    }

    /// Deterministically lowers the scenario into per-device artifacts.
    /// Pure: the same scenario compiles to the same
    /// [`CompiledScenario`], bit for bit, on every host — workers never
    /// exchange compiled plans, they just compile locally.
    ///
    /// # Panics
    ///
    /// Panics when the scenario has no environments, a non-positive
    /// epoch, or a non-finite duration ([`Scenario::validate`] names the
    /// reason).
    #[must_use]
    pub fn compile(&self) -> CompiledScenario {
        if let Err(reason) = self.validate() {
            panic!("{reason}");
        }
        let devices = self.devices;
        let epochs = self.epochs();
        let epoch_us = secs_to_us(self.epoch_s);
        let envs = self.environments.len();

        let mut contacts: Vec<Vec<ContactEntry>> = vec![Vec::new(); devices];
        let mut fault_windows: Vec<Vec<FaultWindow>> = vec![Vec::new(); devices];

        self.compile_contacts(epochs, epoch_us, &mut contacts);
        self.compile_weather(envs, &mut fault_windows);
        self.compile_gateway_outages(envs, &mut fault_windows);

        for plan in &mut contacts {
            plan.sort_by_key(|e| (e.start_us, e.peer));
        }
        for windows in &mut fault_windows {
            windows.sort_by_key(|w| (w.start_us, w.kind.index()));
        }

        CompiledScenario {
            seed: self.seed,
            devices,
            epochs,
            epoch_us,
            transmissibility: self.epidemic.transmissibility,
            seeded: self.seed_infected(),
            contacts: contacts
                .into_iter()
                .map(|entries| ContactPlan { entries, epoch_us })
                .collect(),
            fault_windows,
            environments: self.environments.clone(),
        }
    }

    /// Per-device mobility: a seeded random walk inside the world
    /// square, one step per epoch, reflecting off the walls. Each
    /// device's trace derives from its own stream, so a device's path
    /// never depends on fleet size or shard layout.
    fn positions(&self, device: u32, epochs: u32) -> Vec<(f64, f64)> {
        let mut rng = SplitMix64::new(mix(self.seed ^ MOBILITY_STREAM, u64::from(device)));
        let mut x = rng.range_f64(0.0, self.world_m);
        let mut y = rng.range_f64(0.0, self.world_m);
        let mut out = Vec::with_capacity(epochs as usize);
        for _ in 0..epochs {
            out.push((x, y));
            x = reflect(x + rng.range_f64(-self.step_m, self.step_m), self.world_m);
            y = reflect(y + rng.range_f64(-self.step_m, self.step_m), self.world_m);
        }
        out
    }

    /// Co-location detection per epoch via a uniform grid of
    /// `contact_radius`-sized cells: every pair within the radius gets
    /// a contact window inside the epoch, emitted into *both* devices'
    /// plans, capped per device to bound plan (and aggregate) memory.
    fn compile_contacts(&self, epochs: u32, epoch_us: u64, contacts: &mut [Vec<ContactEntry>]) {
        let devices = contacts.len();
        let traces: Vec<Vec<(f64, f64)>> = (0..devices as u32)
            .map(|d| self.positions(d, epochs))
            .collect();
        let cell = self.contact_radius_m.max(1e-9);
        let grid_w = (self.world_m / cell).ceil() as i64 + 1;
        for epoch in 0..epochs {
            // Bucket devices by grid cell, in index order.
            let mut buckets: std::collections::BTreeMap<(i64, i64), Vec<u32>> =
                std::collections::BTreeMap::new();
            for (d, trace) in traces.iter().enumerate() {
                let (x, y) = trace[epoch as usize];
                let key = ((x / cell) as i64, (y / cell) as i64);
                buckets.entry(key).or_default().push(d as u32);
            }
            let mut emitted = vec![0usize; devices];
            let mut rng = SplitMix64::new(mix(self.seed ^ CONTACT_STREAM, u64::from(epoch)));
            // Candidate pairs in deterministic (cell, index) order: each
            // cell against itself and its +x/+y/+xy neighbours so every
            // nearby pair is considered exactly once.
            for (&(cx, cy), devs) in &buckets {
                for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1), (1, -1)] {
                    let other = (cx + dx, cy + dy);
                    if other.0 >= grid_w || other.1 >= grid_w || other.1 < -1 {
                        continue;
                    }
                    let same = (dx, dy) == (0, 0);
                    let Some(peers) = (if same {
                        Some(devs)
                    } else {
                        buckets.get(&other)
                    }) else {
                        continue;
                    };
                    for (i, &a) in devs.iter().enumerate() {
                        let start_j = if same { i + 1 } else { 0 };
                        for &b in &peers[start_j..] {
                            self.try_emit_pair(
                                epoch,
                                epoch_us,
                                a,
                                b,
                                &traces,
                                &mut emitted,
                                &mut rng,
                                contacts,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Emits one contact window for pair `(a, b)` in `epoch` when they
    /// are within range and neither side is at its per-epoch cap.
    #[allow(clippy::too_many_arguments)]
    fn try_emit_pair(
        &self,
        epoch: u32,
        epoch_us: u64,
        a: u32,
        b: u32,
        traces: &[Vec<(f64, f64)>],
        emitted: &mut [usize],
        rng: &mut SplitMix64,
        contacts: &mut [Vec<ContactEntry>],
    ) {
        if emitted[a as usize] >= self.max_contacts_per_epoch
            || emitted[b as usize] >= self.max_contacts_per_epoch
        {
            return;
        }
        let (ax, ay) = traces[a as usize][epoch as usize];
        let (bx, by) = traces[b as usize][epoch as usize];
        let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        if dist > self.contact_radius_m {
            return;
        }
        // Log-distance path loss: −40 dBm at 1 m, −20 dB per decade.
        let rssi_dbm = (-40.0 - 20.0 * dist.max(0.5).log10())
            .round()
            .clamp(-127.0, 0.0) as i8;
        // The window sits inside the epoch: jittered start, a few
        // minutes long, clipped to the epoch boundary.
        let base = u64::from(epoch) * epoch_us;
        let len_us = secs_to_us(rng.range_f64(60.0, 600.0)).min(epoch_us);
        let jitter_us = secs_to_us(rng.next_f64() * (self.epoch_s - 1.0)).min(epoch_us - 1);
        let start_us = base + jitter_us.min(epoch_us - len_us.min(epoch_us));
        let end_us = (start_us + len_us).min(base + epoch_us);
        emitted[a as usize] += 1;
        emitted[b as usize] += 1;
        for (me, peer) in [(a, b), (b, a)] {
            contacts[me as usize].push(ContactEntry {
                start_us,
                end_us,
                peer,
                rssi_dbm,
            });
        }
    }

    /// Weather fronts: per environment, `weather_fronts_per_env`
    /// windows of solar derate applied to **every** device assigned to
    /// that environment (`index % envs`) — the correlated-occlusion
    /// fault the ROADMAP asked for, expressed in existing `iw-fault`
    /// window machinery.
    fn compile_weather(&self, envs: usize, fault_windows: &mut [Vec<FaultWindow>]) {
        for env in 0..envs {
            let mut rng = SplitMix64::new(mix(self.seed ^ WEATHER_STREAM, env as u64));
            for _ in 0..self.weather_fronts_per_env {
                let start_s = rng.range_f64(0.0, self.duration_s * 0.8);
                let len_s = rng.range_f64(0.05, 0.15) * self.duration_s;
                let window = FaultWindow {
                    kind: FaultKind::SolarOcclusion,
                    start_us: secs_to_us(start_s),
                    end_us: secs_to_us((start_s + len_s).min(self.duration_s)),
                    severity: self.weather_severity,
                };
                for (device, windows) in fault_windows.iter_mut().enumerate() {
                    if device % envs == env {
                        windows.push(window);
                    }
                }
            }
        }
    }

    /// Regional gateway outages: per environment region,
    /// `gateway_outages_per_env` windows during which every sync
    /// attempt in the region fails (the device's retry/backoff
    /// machinery absorbs them), expressed as `BleLoss` fault windows.
    fn compile_gateway_outages(&self, envs: usize, fault_windows: &mut [Vec<FaultWindow>]) {
        for env in 0..envs {
            let mut rng = SplitMix64::new(mix(self.seed ^ GATEWAY_STREAM, env as u64));
            for _ in 0..self.gateway_outages_per_env {
                let start_s = rng.range_f64(0.0, self.duration_s * 0.9);
                let len_s = rng.range_f64(600.0, 3_600.0);
                let window = FaultWindow {
                    kind: FaultKind::BleLoss,
                    start_us: secs_to_us(start_s),
                    end_us: secs_to_us((start_s + len_s).min(self.duration_s)),
                    severity: 0.0,
                };
                for (device, windows) in fault_windows.iter_mut().enumerate() {
                    if device % envs == env {
                        windows.push(window);
                    }
                }
            }
        }
    }

    /// The initially infected set: the `initial_infected` devices with
    /// the smallest seeded hash rank — stable under any shard layout.
    fn seed_infected(&self) -> Vec<u32> {
        let mut ranked: Vec<(u64, u32)> = (0..self.devices as u32)
            .map(|d| (mix(self.seed ^ EPIDEMIC_STREAM, u64::from(d)), d))
            .collect();
        ranked.sort_unstable();
        let mut seeds: Vec<u32> = ranked
            .into_iter()
            .take(self.epidemic.initial_infected.min(self.devices))
            .map(|(_, d)| d)
            .collect();
        seeds.sort_unstable();
        seeds
    }
}

/// Reflects a coordinate back into `[0, max]`.
fn reflect(v: f64, max: f64) -> f64 {
    if v < 0.0 {
        (-v).min(max)
    } else if v > max {
        (2.0 * max - v).max(0.0)
    } else {
        v
    }
}

/// A fully lowered scenario: per-device artifacts plus the epidemic
/// parameters the fleet-level fold needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// The scenario seed (drives the transmission draws in the fold).
    pub seed: u64,
    /// Fleet size the scenario was compiled for.
    pub devices: usize,
    /// Number of epochs.
    pub epochs: u32,
    /// Epoch length, microseconds.
    pub epoch_us: u64,
    /// Per-edge transmission probability.
    pub transmissibility: f64,
    /// Initially infected device indices, ascending.
    pub seeded: Vec<u32>,
    /// Per-device contact plans, indexed by device.
    pub contacts: Vec<ContactPlan>,
    /// Per-device extra fault windows (weather derates, gateway
    /// outages), indexed by device, sorted like a `FaultPlan`.
    pub fault_windows: Vec<Vec<FaultWindow>>,
    /// The environment list the scenario supplies (replaces the fleet
    /// configuration's default when attached).
    pub environments: Vec<(String, EnvProfile)>,
}

impl CompiledScenario {
    /// Whether `device` starts infected.
    #[must_use]
    pub fn seeded_infected(&self, device: usize) -> bool {
        self.seeded.binary_search(&(device as u32)).is_ok()
    }

    /// The device's contact plan (empty when out of range).
    #[must_use]
    pub fn contact_plan(&self, device: usize) -> ContactPlan {
        self.contacts.get(device).cloned().unwrap_or_default()
    }

    /// The device's extra correlated fault windows.
    #[must_use]
    pub fn device_fault_windows(&self, device: usize) -> &[FaultWindow] {
        self.fault_windows.get(device).map_or(&[], |w| w.as_slice())
    }
}

/// Per-epoch outcome of the epidemic fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpidemicOutcome {
    /// Devices infected at the start (hash-rank seeded).
    pub seeded: u64,
    /// Total devices infected by the end (seeded + secondary).
    pub infected: u64,
    /// Newly infected devices per epoch (secondary transmissions only).
    pub newly_per_epoch: Vec<u64>,
}

impl EpidemicOutcome {
    /// Final attack rate: infected fraction of the fleet.
    #[must_use]
    pub fn attack_rate(&self, devices: u64) -> f64 {
        self.infected as f64 / devices.max(1) as f64
    }
}

/// The deterministic cross-device exchange: iterates the epochs in
/// lockstep, merging the observed contact edges **in device-index
/// order** within each epoch, and spreads infection along them.
/// Transmission over an edge is a pure hash draw from
/// `(seed, epoch, device, peer)`, so the fold is a pure function of the
/// merged edge set — the in-process runner and the multi-process
/// coordinator compute the identical outcome from identical edges,
/// which is exactly what the digest certifies.
///
/// Infections activate at epoch *boundaries*: a device infected during
/// epoch `e` only transmits from epoch `e + 1` on (the barrier
/// re-broadcast), which is what makes the per-epoch fold equivalent to
/// a lockstep simulation.
#[must_use]
pub fn run_epidemic(scenario: &CompiledScenario, edges: &[ContactEdge]) -> EpidemicOutcome {
    let devices = scenario.devices;
    let mut infected = vec![false; devices];
    for &d in &scenario.seeded {
        if let Some(slot) = infected.get_mut(d as usize) {
            *slot = true;
        }
    }
    let mut sorted: Vec<ContactEdge> = edges.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut newly_per_epoch = Vec::with_capacity(scenario.epochs as usize);
    let mut cursor = 0usize;
    for epoch in 0..scenario.epochs {
        let mut fresh: Vec<u32> = Vec::new();
        while cursor < sorted.len() && sorted[cursor].epoch == epoch {
            let e = sorted[cursor];
            cursor += 1;
            let (d, p) = (e.device as usize, e.peer as usize);
            if d >= devices || p >= devices || infected[d] || !infected[p] {
                continue;
            }
            let draw = mix(
                mix(scenario.seed ^ TRANSMIT_STREAM, u64::from(epoch)),
                (u64::from(e.device) << 32) | u64::from(e.peer),
            );
            if (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < scenario.transmissibility {
                fresh.push(e.device);
            }
        }
        // Barrier: newly infected devices activate for the *next* epoch.
        fresh.sort_unstable();
        fresh.dedup();
        for d in &fresh {
            infected[*d as usize] = true;
        }
        newly_per_epoch.push(fresh.len() as u64);
    }
    EpidemicOutcome {
        seeded: scenario.seeded.len() as u64,
        infected: infected.iter().filter(|&&i| i).count() as u64,
        newly_per_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        let mut s = Scenario::epidemic(48, 2020);
        s.duration_s = 6.0 * 3_600.0;
        s
    }

    #[test]
    fn validate_accepts_the_presets() {
        assert_eq!(small().validate(), Ok(()));
        assert_eq!(Scenario::epidemic(4096, 1).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_a_scenario_without_environments() {
        let mut s = small();
        s.environments.clear();
        let err = s.validate().unwrap_err();
        assert!(err.contains("at least one environment"), "{err}");
    }

    #[test]
    fn validate_rejects_a_bad_epoch() {
        for epoch_s in [0.0, -3_600.0, f64::NAN, f64::INFINITY] {
            let mut s = small();
            s.epoch_s = epoch_s;
            let err = s.validate().unwrap_err();
            assert!(err.contains("epoch length"), "{epoch_s}: {err}");
        }
    }

    #[test]
    fn validate_rejects_a_bad_duration() {
        for duration_s in [1_800.0, f64::NAN, f64::INFINITY] {
            let mut s = small();
            s.duration_s = duration_s;
            let err = s.validate().unwrap_err();
            assert!(err.contains("duration"), "{duration_s}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive and finite")]
    fn compile_still_panics_on_what_validate_rejects() {
        let mut s = small();
        s.epoch_s = 0.0;
        let _ = s.compile();
    }

    #[test]
    fn compilation_is_pure() {
        let a = small().compile();
        let b = small().compile();
        assert_eq!(a, b);
        let mut other = small();
        other.seed = 2021;
        let c = other.compile();
        assert_ne!(a.contacts, c.contacts);
    }

    #[test]
    fn contact_plans_are_symmetric_sorted_and_capped() {
        let s = small();
        let c = s.compile();
        let mut total = 0usize;
        for (d, plan) in c.contacts.iter().enumerate() {
            total += plan.entries.len();
            let mut last = (0, 0);
            let mut per_epoch = std::collections::BTreeMap::new();
            for e in &plan.entries {
                assert!(e.peer != d as u32, "no self-contacts");
                assert!(e.end_us > e.start_us);
                assert!((e.start_us, e.peer) >= last, "entries sorted");
                last = (e.start_us, e.peer);
                assert!((-127..=0).contains(&e.rssi_dbm));
                *per_epoch.entry(e.start_us / c.epoch_us).or_insert(0usize) += 1;
                // Symmetry: the peer carries the same window back.
                assert!(c.contacts[e.peer as usize].entries.iter().any(|r| {
                    r.peer == d as u32 && r.start_us == e.start_us && r.end_us == e.end_us
                }));
            }
            for (_, n) in per_epoch {
                assert!(n <= s.max_contacts_per_epoch);
            }
        }
        assert!(total > 0, "the epidemic preset must produce contacts");
    }

    #[test]
    fn correlated_windows_group_by_environment() {
        let s = small();
        let c = s.compile();
        let envs = s.environments.len();
        for (d, windows) in c.fault_windows.iter().enumerate() {
            assert!(windows
                .windows(2)
                .all(|w| (w[0].start_us, w[0].kind.index()) <= (w[1].start_us, w[1].kind.index())));
            // Every device in the same environment shares the same windows.
            let twin = (d + envs) % c.devices;
            if twin % envs == d % envs {
                assert_eq!(windows, &c.fault_windows[twin]);
            }
            assert!(windows.iter().any(|w| w.kind == FaultKind::SolarOcclusion));
            assert!(windows.iter().any(|w| w.kind == FaultKind::BleLoss));
        }
    }

    #[test]
    fn seeding_is_a_stable_subset() {
        let c = small().compile();
        assert_eq!(c.seeded.len(), 48 / 25);
        assert!(c.seeded.windows(2).all(|w| w[0] < w[1]));
        for &d in &c.seeded {
            assert!(c.seeded_infected(d as usize));
        }
    }

    #[test]
    fn epidemic_fold_is_order_invariant_and_monotone() {
        let c = small().compile();
        // Build the full observed-edge set (every entry observed).
        let mut edges = Vec::new();
        for (d, plan) in c.contacts.iter().enumerate() {
            for e in &plan.entries {
                edges.push(ContactEdge {
                    epoch: (e.start_us / c.epoch_us) as u32,
                    device: d as u32,
                    peer: e.peer,
                });
            }
        }
        let forward = run_epidemic(&c, &edges);
        let mut shuffled = edges.clone();
        shuffled.reverse();
        assert_eq!(forward, run_epidemic(&c, &shuffled));
        assert!(forward.infected >= forward.seeded);
        assert_eq!(
            forward.infected,
            forward.seeded + forward.newly_per_epoch.iter().sum::<u64>()
        );
        // No edges → no spread.
        let none = run_epidemic(&c, &[]);
        assert_eq!(none.infected, none.seeded);
    }

    #[test]
    fn infection_waits_for_the_epoch_barrier() {
        // d1 infects d2 in epoch 0; d2 meets d3 in the SAME epoch — the
        // barrier means d3 cannot catch it until d2 re-broadcasts in a
        // later epoch.
        let mut s = small();
        s.epidemic.initial_infected = 1;
        s.epidemic.transmissibility = 1.0;
        let mut c = s.compile();
        let seed0 = c.seeded[0];
        let others: Vec<u32> = (0..3u32).map(|i| (seed0 + 1 + i) % 48).collect();
        let edges = [
            ContactEdge {
                epoch: 0,
                device: others[0],
                peer: seed0,
            },
            ContactEdge {
                epoch: 0,
                device: others[1],
                peer: others[0],
            },
            ContactEdge {
                epoch: 1,
                device: others[1],
                peer: others[0],
            },
        ];
        c.transmissibility = 1.0;
        let out = run_epidemic(&c, &edges);
        assert_eq!(out.newly_per_epoch[0], 1, "only the direct contact");
        assert_eq!(out.newly_per_epoch[1], 1, "second hop after the barrier");
        assert_eq!(out.infected, 3);
    }

    #[test]
    fn paper_environment_list_is_data_driven() {
        let envs = paper_environments();
        assert_eq!(envs.len(), 3);
        assert_eq!(envs[0].0, "indoor-6h");
        assert!((envs[2].1.duration_s() - 86_400.0).abs() < 1e-9);
        let s = Scenario::epidemic(8, 1);
        assert_eq!(s.environments, envs);
    }
}
