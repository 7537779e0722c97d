//! Chip-failure injection for the multichip switches.
//!
//! A multichip switch has a failure surface a single chip does not: one
//! dead hyperconcentrator silences (or worse, garbles) a whole row or
//! column of the mesh. This module injects the classic failure modes
//! into a [`StagedSwitch`] and measures the degraded switch — the
//! availability analysis a 1987 machine builder would have run before
//! committing to a stack design.
//!
//! Two evaluation paths cover the same fault model:
//!
//! * [`FaultySwitch`] — the message-level *reference*: faults applied by
//!   the switch's one message-level tracer, the same walk
//!   [`StagedSwitch::trace`] runs healthy. Obviously correct, and the
//!   oracle the chip program is differentially tested against.
//! * the *chip program* — the datapath the serving shards sweep, one
//!   compiled chip per chip type. Every fault mode replaces a whole chip's
//!   output pins, so [`StagedSwitch::faulted_program`] lowers a fault set
//!   into the program's gather tables (a stuck chip's pins read a
//!   constant, an inverted chip's the complemented valid rail, and the
//!   data rail reads 0 in every mode) and sweeps the healthy program's
//!   compiled chips at full batch speed.
//!
//! On top of both sits the campaign machinery: [`FaultCampaign`] draws a
//! deterministic, seeded schedule of permanent / intermittent / transient
//! chip faults, and [`run_campaign`] measures the degraded delivered
//! capacity frame by frame on the chip program (64 random offered
//! patterns per evaluated word).

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::spec::{ConcentratorKind, ConcentratorSwitch, Routing};
use crate::staged::{ChipProgram, Slot, StagedSwitch};
use crate::verify::SplitMix64;

/// How a failed chip misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultMode {
    /// All outputs stuck invalid: every message entering the chip is lost.
    StuckInvalid,
    /// All outputs stuck valid: the chip floods its column with phantom
    /// carriers (downstream sees spurious traffic; real payloads are
    /// lost). The worst mode for a concentrator, since phantoms steal
    /// output slots.
    StuckValid,
    /// All output valid rails complemented — a failed dual-rail pad driver
    /// presenting the wrong rail. The chip floods where it was empty and
    /// silences where it was full; payloads are lost either way.
    Inverted,
}

impl FaultMode {
    /// What a chip output pin presents when its chip has `fault` and the
    /// healthy chip would drive `healthy`. A failed pad carries no real
    /// message, whatever its valid rail claims.
    pub(crate) fn present(fault: Option<FaultMode>, healthy: Slot) -> Slot {
        match fault {
            None => healthy,
            Some(FaultMode::StuckInvalid) => (false, None),
            Some(FaultMode::StuckValid) => (true, None),
            Some(FaultMode::Inverted) => (!healthy.0, None),
        }
    }
}

/// A located fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChipFault {
    /// Stage index within the switch.
    pub stage: usize,
    /// Chip index within the stage.
    pub chip: usize,
    /// Failure mode.
    pub mode: FaultMode,
}

/// A staged switch with injected chip faults.
///
/// Generic over ownership of the underlying switch: borrow for scoped use
/// (`FaultySwitch::new(&staged, …)`), or hand it an `Arc<StagedSwitch>`
/// (the default type parameter) when the faulty view must outlive a scope
/// or cross threads, as fabric shards do.
pub struct FaultySwitch<S: Borrow<StagedSwitch> = Arc<StagedSwitch>> {
    inner: S,
    faults: Vec<ChipFault>,
}

impl<S: Borrow<StagedSwitch>> FaultySwitch<S> {
    /// Inject `faults` into `inner`.
    ///
    /// # Panics
    /// If a fault names a stage or chip that does not exist.
    pub fn new(inner: S, faults: Vec<ChipFault>) -> Self {
        {
            let switch = inner.borrow();
            for fault in &faults {
                assert!(
                    fault.stage < switch.stages.len(),
                    "fault names missing stage"
                );
                assert!(
                    fault.chip < switch.stages[fault.stage].chip_count,
                    "fault names missing chip"
                );
            }
        }
        FaultySwitch { inner, faults }
    }

    /// The underlying healthy switch.
    pub fn inner(&self) -> &StagedSwitch {
        self.inner.borrow()
    }

    /// The injected faults, in injection order.
    pub fn faults(&self) -> &[ChipFault] {
        &self.faults
    }

    /// Trace wire occupancy through the faulty switch: the faulted
    /// equivalent of [`StagedSwitch::trace`], on the same tracer. Public
    /// so differential harnesses can compare per-wire, not just
    /// per-routing.
    pub fn trace(&self, valid: &[bool]) -> Vec<(bool, Option<usize>)> {
        self.inner.borrow().trace_faulted(valid, &self.faults)
    }
}

impl<S: Borrow<StagedSwitch>> ConcentratorSwitch for FaultySwitch<S> {
    fn inputs(&self) -> usize {
        self.inner.borrow().n
    }

    fn outputs(&self) -> usize {
        self.inner.borrow().m
    }

    fn kind(&self) -> ConcentratorKind {
        // A faulty switch promises nothing.
        ConcentratorKind::Partial { alpha: 0.0 }
    }

    fn route(&self, valid: &[bool]) -> Routing {
        self.inner.borrow().route_faulted(valid, &self.faults)
    }
}

/// Measure delivery degradation: mean delivered fraction over seeded
/// random patterns at density `p`.
pub fn degradation<S: ConcentratorSwitch + ?Sized>(
    switch: &S,
    p: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    let n = switch.inputs();
    let mut rng = SplitMix64(seed);
    let mut offered = 0usize;
    let mut delivered = 0usize;
    for _ in 0..trials {
        let valid = rng.valid_bits(n, p);
        offered += valid.iter().filter(|&&v| v).count();
        delivered += switch.route(&valid).routed();
    }
    if offered == 0 {
        1.0
    } else {
        delivered as f64 / offered as f64
    }
}

/// Arrival model of a seeded fault campaign. All draws are pure functions
/// of `(seed, stage, chip, frame)`, so the schedule is reproducible and
/// independent of evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Root seed; same seed + same switch ⇒ same schedule.
    pub seed: u64,
    /// Campaign length in routing frames.
    pub frames: usize,
    /// Probability a chip suffers a *permanent* fault at some uniformly
    /// drawn frame (active from that frame onward).
    pub permanent_rate: f64,
    /// Probability a chip is an *intermittent* flapper, faulted during
    /// pseudo-random half of its epochs.
    pub intermittent_rate: f64,
    /// Epoch length (frames) of the intermittent on/off pattern.
    pub intermittent_period: usize,
    /// Per-chip-per-frame probability of a one-frame *transient* fault.
    pub transient_rate: f64,
}

impl CampaignSpec {
    /// A fault-free campaign: useful as a baseline of the same length.
    pub fn quiet(seed: u64, frames: usize) -> Self {
        CampaignSpec {
            seed,
            frames,
            permanent_rate: 0.0,
            intermittent_rate: 0.0,
            intermittent_period: 16,
            transient_rate: 0.0,
        }
    }
}

fn chip_key(seed: u64, stage: usize, chip: usize) -> u64 {
    let mut h = seed ^ 0x517C_C1B7_2722_0A95;
    h ^= (stage as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = h.rotate_left(23);
    h ^ (chip as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

fn pick_mode(rng: &mut SplitMix64) -> FaultMode {
    match rng.next_u64() % 3 {
        0 => FaultMode::StuckInvalid,
        1 => FaultMode::StuckValid,
        _ => FaultMode::Inverted,
    }
}

/// A fully materialized fault schedule: for every frame, the canonical
/// (sorted, one-per-chip) set of active chip faults. When a chip is
/// eligible for several classes in one frame, permanent wins over
/// intermittent wins over transient.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaign {
    spec: CampaignSpec,
    frames: Vec<Vec<ChipFault>>,
}

impl FaultCampaign {
    /// Draw the schedule for `switch` under `spec`.
    pub fn generate(switch: &StagedSwitch, spec: &CampaignSpec) -> FaultCampaign {
        let mut frames: Vec<Vec<ChipFault>> = vec![Vec::new(); spec.frames];
        for (stage_idx, stage) in switch.stages.iter().enumerate() {
            for chip in 0..stage.chip_count {
                let key = chip_key(spec.seed, stage_idx, chip);
                let mut rng = SplitMix64(key);
                let permanent = rng.bernoulli(spec.permanent_rate).then(|| {
                    let start = (rng.next_u64() % (spec.frames.max(1) as u64)) as usize;
                    (start, pick_mode(&mut rng))
                });
                let intermittent = rng.bernoulli(spec.intermittent_rate).then(|| {
                    let phase = rng.next_u64();
                    (phase, pick_mode(&mut rng))
                });
                for (frame, active) in frames.iter_mut().enumerate() {
                    let mode = if let Some((_, mode)) =
                        permanent.filter(|&(start, _)| frame >= start)
                    {
                        Some(mode)
                    } else if let Some((phase, mode)) = intermittent {
                        let epoch = frame / spec.intermittent_period.max(1);
                        let coin =
                            SplitMix64(phase ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                                .next_u64();
                        (coin & 1 == 0).then_some(mode)
                    } else {
                        let mut transient =
                            SplitMix64(key ^ (frame as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
                        transient
                            .bernoulli(spec.transient_rate)
                            .then(|| pick_mode(&mut transient))
                    };
                    if let Some(mode) = mode {
                        active.push(ChipFault {
                            stage: stage_idx,
                            chip,
                            mode,
                        });
                    }
                }
            }
        }
        for frame in &mut frames {
            frame.sort_unstable();
        }
        FaultCampaign {
            spec: *spec,
            frames,
        }
    }

    /// The spec this schedule was drawn from.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Campaign length in frames.
    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// The canonical fault set active during `frame`.
    pub fn faults_at(&self, frame: usize) -> &[ChipFault] {
        &self.frames[frame]
    }

    /// The fault set active at the clock's current tick, mapping
    /// `ticks_per_frame` clock ticks to one campaign frame and clamping
    /// past the end (a finished campaign holds its final state). Under a
    /// [`VirtualClock`](crate::clock::VirtualClock) this makes a live
    /// fault schedule a pure function of virtual time — the hook the
    /// deterministic simulation harness drives mid-run chip failures
    /// through.
    pub fn faults_at_clock(
        &self,
        clock: &dyn crate::clock::Clock,
        ticks_per_frame: u64,
    ) -> &[ChipFault] {
        assert!(ticks_per_frame > 0, "ticks_per_frame must be positive");
        if self.frames.is_empty() {
            return &[];
        }
        let frame = (clock.now() / ticks_per_frame) as usize;
        self.faults_at(frame.min(self.frames.len() - 1))
    }

    /// Number of distinct fault sets across the campaign — the number of
    /// faulted chip programs [`run_campaign`] builds.
    pub fn distinct_fault_sets(&self) -> usize {
        self.frames.iter().collect::<HashSet<_>>().len()
    }
}

/// Degradation measured over one campaign frame (64 offered patterns,
/// one per SWAR lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameDegradation {
    /// Frame index.
    pub frame: usize,
    /// Chips faulted during this frame.
    pub faults_active: usize,
    /// Valid inputs offered across the frame's 64 lanes.
    pub offered: u64,
    /// Real messages delivered (phantoms excluded).
    pub delivered: u64,
}

/// The degraded-capacity report of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign length in frames.
    pub frames: usize,
    /// Total chips in the switch (the failure surface).
    pub chips: usize,
    /// Offered traffic density per input per lane.
    pub density: f64,
    /// Distinct fault sets, i.e. faulted chip programs built.
    pub distinct_fault_sets: usize,
    /// Total valid inputs offered.
    pub offered: u64,
    /// Total real messages delivered.
    pub delivered: u64,
    /// Per-frame degradation curve.
    pub per_frame: Vec<FrameDegradation>,
}

impl CampaignReport {
    /// Overall delivered fraction.
    pub fn delivery_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// The worst per-frame delivered fraction (empty frames count as 1).
    pub fn worst_frame_rate(&self) -> f64 {
        self.per_frame
            .iter()
            .map(|f| {
                if f.offered == 0 {
                    1.0
                } else {
                    f.delivered as f64 / f.offered as f64
                }
            })
            .fold(1.0, f64::min)
    }
}

/// Run `campaign` against `switch` at offered `density`, measuring the
/// delivered capacity of every frame on the faulted chip program.
///
/// Each frame evaluates 64 independent offered patterns in one one-word
/// sweep of the frame's faulted chip program
/// ([`StagedSwitch::faulted_program`]). The data rail carries a *marker
/// bit* per real message (data in = valid in), so
/// `popcount(valid_out & data_out)` counts exactly the delivered real
/// messages: phantom carriers injected by `StuckValid`/`Inverted` chips
/// and padding constants all carry data 0 and are excluded. Programs are
/// memoized per distinct fault set, so a campaign builds one set of
/// gathers per set, not per frame, and compiles nothing past the
/// switch's cached chip program.
pub fn run_campaign(
    switch: &StagedSwitch,
    campaign: &FaultCampaign,
    density: f64,
) -> CampaignReport {
    let n = switch.n;
    let m = switch.m;
    let mut scratch = switch.datapath_program().scratch();
    let mut programs: HashMap<&[ChipFault], ChipProgram> = HashMap::new();
    let mut word_in = vec![0u64; 2 * n];
    let mut word_out = vec![0u64; 2 * m];
    // Traffic stream: keyed off the campaign seed but distinct from the
    // fault-schedule streams.
    let mut rng = SplitMix64(campaign.spec.seed ^ 0xA076_1D64_78BD_642F);
    let mut per_frame = Vec::with_capacity(campaign.frames());
    let (mut total_offered, mut total_delivered) = (0u64, 0u64);
    for frame in 0..campaign.frames() {
        let faults = campaign.faults_at(frame);
        let program = programs
            .entry(faults)
            .or_insert_with(|| switch.faulted_program(faults));
        let mut offered = 0u64;
        for i in 0..n {
            let mut word = 0u64;
            for bit in 0..64 {
                if rng.bernoulli(density) {
                    word |= 1u64 << bit;
                }
            }
            offered += u64::from(word.count_ones());
            word_in[i] = word;
            word_in[n + i] = word; // marker rail
        }
        program.sweep(&word_in, 1, &mut scratch, &mut word_out);
        let delivered: u64 = (0..m)
            .map(|j| u64::from((word_out[j] & word_out[m + j]).count_ones()))
            .sum();
        debug_assert!(delivered <= offered, "markers multiplied in flight");
        total_offered += offered;
        total_delivered += delivered;
        per_frame.push(FrameDegradation {
            frame,
            faults_active: faults.len(),
            offered,
            delivered,
        });
    }
    CampaignReport {
        frames: campaign.frames(),
        chips: switch.chip_count(),
        density,
        distinct_fault_sets: programs.len(),
        offered: total_offered,
        delivered: total_delivered,
        per_frame,
    }
}

impl serde_json::ToJson for CampaignSpec {
    fn to_json(&self) -> serde_json::Value {
        serde_json::object([
            ("seed", self.seed.to_json()),
            ("frames", (self.frames as u64).to_json()),
            ("permanent_rate", self.permanent_rate.to_json()),
            ("intermittent_rate", self.intermittent_rate.to_json()),
            (
                "intermittent_period",
                (self.intermittent_period as u64).to_json(),
            ),
            ("transient_rate", self.transient_rate.to_json()),
        ])
    }
}

impl serde_json::ToJson for FrameDegradation {
    fn to_json(&self) -> serde_json::Value {
        serde_json::object([
            ("frame", (self.frame as u64).to_json()),
            ("faults_active", (self.faults_active as u64).to_json()),
            ("offered", self.offered.to_json()),
            ("delivered", self.delivered.to_json()),
        ])
    }
}

impl serde_json::ToJson for CampaignReport {
    fn to_json(&self) -> serde_json::Value {
        serde_json::object([
            ("frames", (self.frames as u64).to_json()),
            ("chips", (self.chips as u64).to_json()),
            ("density", self.density.to_json()),
            (
                "distinct_fault_sets",
                (self.distinct_fault_sets as u64).to_json(),
            ),
            ("offered", self.offered.to_json()),
            ("delivered", self.delivered.to_json()),
            ("delivery_rate", self.delivery_rate().to_json()),
            ("worst_frame_rate", self.worst_frame_rate().to_json()),
            ("per_frame", self.per_frame.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revsort_switch::{RevsortLayout, RevsortSwitch};

    fn switch() -> RevsortSwitch {
        RevsortSwitch::new(64, 48, RevsortLayout::TwoDee)
    }

    #[test]
    fn no_faults_matches_the_healthy_switch() {
        let healthy = switch();
        let faulty = FaultySwitch::new(healthy.staged(), vec![]);
        let mut state = 5u64;
        for _ in 0..300 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let valid: Vec<bool> = (0..64).map(|i| (state >> i) & 1 == 1).collect();
            assert_eq!(healthy.route(&valid), faulty.route(&valid));
        }
    }

    #[test]
    fn stuck_invalid_chip_loses_its_column() {
        let healthy = switch();
        let fault = ChipFault {
            stage: 0,
            chip: 3,
            mode: FaultMode::StuckInvalid,
        };
        let faulty = FaultySwitch::new(healthy.staged(), vec![fault]);
        // Only column 3 carries messages: all lost.
        let valid: Vec<bool> = (0..64).map(|i| i % 8 == 3).collect();
        let routing = faulty.route(&valid);
        assert_eq!(routing.routed(), 0);
        // Other columns unaffected.
        let valid: Vec<bool> = (0..64).map(|i| i % 8 == 5).collect();
        assert_eq!(faulty.route(&valid).routed(), 8);
    }

    #[test]
    fn stuck_valid_floods_and_displaces_real_traffic() {
        let healthy = switch();
        let fault = ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckValid,
        };
        let faulty = FaultySwitch::new(healthy.staged(), vec![fault]);
        let healthy_rate = degradation(&healthy, 0.5, 300, 9);
        let faulty_rate = degradation(&faulty, 0.5, 300, 9);
        assert!(
            faulty_rate < healthy_rate,
            "phantom flood must displace real messages: {faulty_rate} vs {healthy_rate}"
        );
    }

    #[test]
    fn stuck_invalid_degrades_proportionally() {
        let healthy = switch();
        let fault = ChipFault {
            stage: 0,
            chip: 2,
            mode: FaultMode::StuckInvalid,
        };
        let faulty = FaultySwitch::new(healthy.staged(), vec![fault]);
        let rate = degradation(&faulty, 0.5, 400, 11);
        // One of eight first-stage chips dead: expect roughly 7/8 of
        // healthy delivery under light-to-moderate load.
        assert!(rate > 0.6 && rate < 0.98, "rate {rate}");
    }

    #[test]
    fn inverted_chip_floods_when_idle_and_silences_when_full() {
        let healthy = switch();
        let fault = ChipFault {
            stage: 0,
            chip: 1,
            mode: FaultMode::Inverted,
        };
        let faulty = FaultySwitch::new(healthy.staged(), vec![fault]);
        // Column 1 fully loaded: the healthy chip would deliver all 8;
        // inverted, its outputs all read invalid — everything lost.
        let valid: Vec<bool> = (0..64).map(|i| i % 8 == 1).collect();
        assert_eq!(faulty.route(&valid).routed(), 0);
        // Column 1 idle: the inverted chip floods 8 phantoms into the
        // switch, which steal output slots from the real column-5 traffic
        // but are never counted as deliveries themselves.
        let valid: Vec<bool> = (0..64).map(|i| i % 8 == 5).collect();
        let flooded = faulty.route(&valid).routed();
        assert!(flooded <= 8, "phantoms must not be counted as real");
    }

    #[test]
    fn arc_owned_variant_routes_identically() {
        let healthy = switch();
        let arc = Arc::new(healthy.staged().clone());
        let fault = ChipFault {
            stage: 0,
            chip: 3,
            mode: FaultMode::StuckValid,
        };
        let borrowed = FaultySwitch::new(healthy.staged(), vec![fault]);
        let owned: FaultySwitch = FaultySwitch::new(Arc::clone(&arc), vec![fault]);
        let mut rng = SplitMix64(21);
        for _ in 0..100 {
            let valid = rng.valid_bits(64, 0.4);
            assert_eq!(borrowed.route(&valid), owned.route(&valid));
        }
        // The owned variant is 'static: it can move into a thread.
        let handle = std::thread::spawn(move || owned.route(&[true; 64]).routed());
        assert!(handle.join().unwrap() > 0);
    }

    #[test]
    fn faulted_program_applies_only_the_first_fault_per_chip() {
        let healthy = RevsortSwitch::new(16, 8, RevsortLayout::TwoDee);
        let staged = healthy.staged();
        let first = ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckValid,
        };
        let second = ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckInvalid,
        };
        let both = staged.faulted_program(&[first, second]);
        let alone = staged.faulted_program(&[first]);
        let mut scratch = alone.scratch();
        let mut rng = SplitMix64(3);
        let inputs: Vec<u64> = (0..9 * alone.input_count())
            .map(|_| rng.next_u64())
            .collect();
        let mut sweep = |program: &ChipProgram| {
            let mut out = vec![0u64; 9 * program.output_count()];
            program.sweep(&inputs, 9, &mut scratch, &mut out);
            out
        };
        assert_eq!(
            sweep(&both),
            sweep(&alone),
            "duplicate chip faults must resolve first-wins, like the reference"
        );
    }

    #[test]
    #[should_panic(expected = "missing stage")]
    fn faulted_program_validates_the_fault_location() {
        let healthy = switch();
        healthy.staged().faulted_program(&[ChipFault {
            stage: 7,
            chip: 0,
            mode: FaultMode::Inverted,
        }]);
    }

    #[test]
    fn campaign_schedule_is_deterministic_and_one_fault_per_chip() {
        let healthy = switch();
        let spec = CampaignSpec {
            seed: 77,
            frames: 64,
            permanent_rate: 0.2,
            intermittent_rate: 0.3,
            intermittent_period: 8,
            transient_rate: 0.05,
        };
        let a = FaultCampaign::generate(healthy.staged(), &spec);
        let b = FaultCampaign::generate(healthy.staged(), &spec);
        assert_eq!(a, b, "same seed must draw the same schedule");
        let mut any = false;
        for frame in 0..a.frames() {
            let faults = a.faults_at(frame);
            any |= !faults.is_empty();
            let mut chips: Vec<(usize, usize)> = faults.iter().map(|f| (f.stage, f.chip)).collect();
            chips.dedup();
            assert_eq!(chips.len(), faults.len(), "one fault per chip per frame");
            assert!(faults.windows(2).all(|w| w[0] <= w[1]), "canonical order");
        }
        assert!(any, "these rates must actually draw faults");
    }

    #[test]
    fn clock_sampling_scales_and_clamps() {
        use crate::clock::{Clock, VirtualClock};
        let healthy = switch();
        let spec = CampaignSpec {
            seed: 77,
            frames: 8,
            permanent_rate: 0.5,
            intermittent_rate: 0.3,
            intermittent_period: 4,
            transient_rate: 0.1,
        };
        let campaign = FaultCampaign::generate(healthy.staged(), &spec);
        let clock = VirtualClock::new();
        // Four ticks per frame: ticks 0..4 sample frame 0, 4..8 frame 1, …
        for frame in 0..spec.frames {
            for _ in 0..4 {
                assert_eq!(
                    campaign.faults_at_clock(&clock, 4),
                    campaign.faults_at(frame)
                );
                clock.advance(1);
            }
        }
        // Past the end the campaign holds its final state.
        clock.advance(1000);
        assert_eq!(
            campaign.faults_at_clock(&clock, 4),
            campaign.faults_at(spec.frames - 1)
        );
        assert_eq!(clock.now(), 4 * spec.frames as u64 + 1000);
    }

    #[test]
    fn permanent_faults_never_recover() {
        let healthy = switch();
        let spec = CampaignSpec {
            seed: 5,
            frames: 40,
            permanent_rate: 1.0,
            intermittent_rate: 0.0,
            intermittent_period: 16,
            transient_rate: 0.0,
        };
        let campaign = FaultCampaign::generate(healthy.staged(), &spec);
        for frame in 1..campaign.frames() {
            let prev: HashSet<_> = campaign.faults_at(frame - 1).iter().collect();
            let now: HashSet<_> = campaign.faults_at(frame).iter().collect();
            assert!(
                prev.is_subset(&now),
                "a permanent fault disappeared at frame {frame}"
            );
        }
        // Every chip fails by the end (rate 1.0).
        assert_eq!(
            campaign.faults_at(campaign.frames() - 1).len(),
            healthy.staged().chip_count()
        );
    }

    #[test]
    fn quiet_campaign_reports_healthy_capacity() {
        let healthy = RevsortSwitch::new(16, 8, RevsortLayout::TwoDee);
        let campaign = FaultCampaign::generate(healthy.staged(), &CampaignSpec::quiet(1, 20));
        let report = run_campaign(healthy.staged(), &campaign, 0.3);
        assert_eq!(report.distinct_fault_sets, 1);
        assert!(report.offered > 0);
        // Light load on a healthy switch: nearly everything lands.
        assert!(report.delivery_rate() > 0.9, "{}", report.delivery_rate());
    }

    #[test]
    fn campaign_reports_are_reproducible_and_degraded() {
        let healthy = RevsortSwitch::new(16, 8, RevsortLayout::TwoDee);
        let spec = CampaignSpec {
            seed: 13,
            frames: 30,
            permanent_rate: 0.5,
            intermittent_rate: 0.0,
            intermittent_period: 8,
            transient_rate: 0.0,
        };
        let campaign = FaultCampaign::generate(healthy.staged(), &spec);
        let a = run_campaign(healthy.staged(), &campaign, 0.4);
        let b = run_campaign(healthy.staged(), &campaign, 0.4);
        assert_eq!(a, b, "same campaign must measure identically");
        let quiet = FaultCampaign::generate(healthy.staged(), &CampaignSpec::quiet(13, 30));
        let baseline = run_campaign(healthy.staged(), &quiet, 0.4);
        assert!(
            a.delivery_rate() < baseline.delivery_rate(),
            "permanent faults must cost capacity: {} vs {}",
            a.delivery_rate(),
            baseline.delivery_rate()
        );
    }

    #[test]
    #[should_panic(expected = "missing chip")]
    fn fault_location_is_validated() {
        let healthy = switch();
        FaultySwitch::new(
            healthy.staged(),
            vec![ChipFault {
                stage: 0,
                chip: 99,
                mode: FaultMode::StuckInvalid,
            }],
        );
    }
}
