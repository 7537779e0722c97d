//! Closed-loop load generation: one frame shape, one driver per target.
//!
//! A switch sees one thing per cycle — a frame of valid bits on its
//! inputs — so every workload reaches a serving target as the same
//! shape: `(tick, Vec<Message>)` frames in tick order. Every workload is
//! a [`crate::Trace`] lowered to it by [`crate::trace::frames`];
//! [`LoadPlan::frames`] generates a producer's trace from a
//! [`TraceModel`] and keeps its empty ticks. Each target then has
//! exactly one driver over that shape:
//!
//! * [`drive_sync`] — the synchronous [`Fabric`] (the service's cores
//!   under a fixed schedule), tick-faithful and bit-reproducible, with
//!   an optional [`FaultEvent`] schedule. Over [`one_per_tick`] frames
//!   it is the one-request-per-sweep baseline the batching executor is
//!   measured against.
//! * [`drive_service`] — a live [`FabricService`], one thread per
//!   producer, each submitting whole frames under the service's real
//!   backpressure (a blocked producer blocks — the closed loop).
//! * `tiers::drive_tree` — the deterministic tier-tree driver.

use concentrator::faults::ChipFault;
use serde::{Deserialize, Serialize};
use switchsim::traffic::{generate, tick_frames};
use switchsim::{Message, TraceModel};

use crate::engine::Fabric;
use crate::metrics::FabricSnapshot;
use crate::service::{FabricService, SubmitStep};
use crate::shard::{Delivery, FrameRun};

/// Ticks the drain phase may take before the harness gives up.
const DRAIN_LIMIT: u64 = 1 << 22;

/// One workload: a trace model played for a number of frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPlan {
    /// Per-tick offer model over the switch's `n` inputs.
    pub model: TraceModel,
    /// Payload size class: every payload is `1 << size_class` bytes.
    pub size_class: u8,
    /// Generator seed (the determinism claims key off this).
    pub seed: u64,
    /// Generation frames (the fabric may run more frames to drain).
    pub frames: usize,
}

impl LoadPlan {
    /// The frames producer `producer` offers when playing this plan
    /// against a switch with `inputs` inputs: the model's trace over
    /// `inputs` sources for `frames` ticks, seeded `seed + producer`,
    /// lowered by [`crate::trace::frames`], with a disjoint id space
    /// (producer index in the id's top 16 bits). Element `f` is
    /// generation frame `f` at tick `f`, kept even when empty. A pure
    /// function of its arguments, so every driver and the simulation
    /// harness replay identical workloads through it.
    pub fn frames(&self, inputs: usize, producer: usize) -> Vec<(u64, Vec<Message>)> {
        let ticks = self.frames as u64;
        let trace = generate(
            self.model,
            inputs,
            ticks,
            self.size_class,
            self.seed.wrapping_add(producer as u64),
        );
        let tag = (producer as u64) << 48;
        tick_frames(&trace, inputs, ticks)
            .into_iter()
            .zip(0..)
            .map(|(mut frame, tick)| {
                for message in &mut frame {
                    message.id |= tag;
                }
                (tick, frame)
            })
            .collect()
    }
}

/// Re-time `frames` so every message rides a tick of its own, in order:
/// the one-request-per-sweep baseline. A lone message always routes
/// (1 ≤ αm), so [`drive_sync`] over these frames never backpressures
/// and spends at least one compiled sweep per message.
pub fn one_per_tick(frames: Vec<(u64, Vec<Message>)>) -> Vec<(u64, Vec<Message>)> {
    frames
        .into_iter()
        .flat_map(|(_, frame)| frame)
        .enumerate()
        .map(|(tick, message)| (tick as u64, vec![message]))
        .collect()
}

/// What a synchronous drive did.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveReport {
    /// Fresh messages the frames carried.
    pub generated: u64,
    /// Every executed frame, in the order the ticks handed them out
    /// (payloads already reassembled and checked by the shard executor's
    /// debug assertions).
    pub frames: Vec<FrameRun>,
    /// Final metrics; `in_flight` is zero (the drive always drains).
    pub snapshot: FabricSnapshot,
}

impl DriveReport {
    /// Every delivery, in the order the ticks handed them out.
    pub fn completions(&self) -> impl Iterator<Item = &Delivery> {
        self.frames.iter().flat_map(|run| &run.delivered)
    }
}

/// A scheduled fault change: from tick `frame` on, shard `shard`'s fault
/// set is `faults` (empty = repair).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Tick (the generation frame, for [`LoadPlan::frames`]) at which
    /// the change lands.
    pub frame: usize,
    /// Target shard.
    pub shard: usize,
    /// The shard's new complete fault set.
    pub faults: Vec<ChipFault>,
}

/// Drive `fabric` closed-loop over tick-sorted `frames`, then drain.
///
/// Each frame's batch is offered at its tick; messages a full ring hands
/// back under blocking backpressure are held by the "producer" and
/// re-offered to the shard placement chose before the next batch, oldest
/// first. Time is faithful: the fabric ticks through arrival gaps while
/// work is held or a worker is busy, and an idle fabric skips ahead.
/// Before every fabric tick, each [`FaultEvent`] whose `frame` has
/// arrived is injected; events past the last frame land before the
/// drain. Same frames, same schedule, same config ⇒ bit-identical
/// report.
///
/// # Panics
/// If `faults` is not sorted by frame, or the fabric cannot drain.
pub fn drive_sync(
    fabric: &mut Fabric,
    frames: Vec<(u64, Vec<Message>)>,
    faults: &[FaultEvent],
) -> DriveReport {
    assert!(
        faults.windows(2).all(|w| w[0].frame <= w[1].frame),
        "fault schedule must be sorted by frame"
    );
    let mut faults = faults.iter().peekable();
    let mut inject_due = |fabric: &mut Fabric, now: u64| {
        while let Some(event) = faults.next_if(|e| e.frame as u64 <= now) {
            fabric.inject_faults(event.shard, event.faults.clone());
        }
    };
    // One fabric tick after the offers: held messages first, then `fresh`.
    let mut runs = Vec::new();
    let mut step = |fabric: &mut Fabric, held, fresh| {
        let held = resubmit_then_submit(fabric, held, fresh);
        runs.extend(fabric.tick());
        held
    };
    let mut held: Vec<(Message, usize)> = Vec::new();
    let mut generated = 0u64;
    let mut now = 0u64;
    for (tick, batch) in frames {
        // Advance virtual time to the batch's arrival tick. An idle
        // fabric with nothing held skips ahead; otherwise in-flight work
        // (and the held backlog) get their gap ticks.
        while now < tick {
            if held.is_empty() && !fabric.busy() {
                now = tick;
                break;
            }
            inject_due(fabric, now);
            held = step(fabric, held, Vec::new());
            now += 1;
        }
        generated += batch.len() as u64;
        inject_due(fabric, now);
        held = step(fabric, held, batch);
        // Saturating: a record at tick u64::MAX is the last one possible.
        now = now.saturating_add(1);
    }
    inject_due(fabric, u64::MAX);
    let mut drain_ticks = 0u64;
    while !held.is_empty() || fabric.busy() {
        assert!(
            drain_ticks < DRAIN_LIMIT,
            "sync drive failed to drain (held {})",
            held.len()
        );
        held = step(fabric, held, Vec::new());
        drain_ticks += 1;
    }
    DriveReport {
        generated,
        frames: runs,
        snapshot: fabric.snapshot(),
    }
}

/// Re-offer the held messages to their shards, then submit `fresh`, in
/// that order; return what the rings handed back.
fn resubmit_then_submit(
    fabric: &Fabric,
    held: Vec<(Message, usize)>,
    fresh: Vec<Message>,
) -> Vec<(Message, usize)> {
    held.into_iter()
        .map(|(message, shard)| fabric.retry_submit(message, shard))
        .chain(fresh.into_iter().map(|message| fabric.submit(message)))
        .filter_map(|step| match step {
            SubmitStep::Blocked { message, shard } => Some((message, shard)),
            SubmitStep::Done(_) => None,
        })
        .collect()
}

/// Drive a live [`FabricService`] with one thread per producer, each
/// submitting its frames in order through the frame-batched admission
/// path ([`FabricService::submit_batch`]: one placement-cursor
/// reservation and one ring publication per target shard per frame).
/// Ticks are not waited for — producers offer as fast as backpressure
/// lets them. Returns the number of messages submitted; call
/// [`FabricService::drain`] afterwards for the report.
pub fn drive_service(service: &FabricService, producers: Vec<Vec<(u64, Vec<Message>)>>) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = producers
            .into_iter()
            .map(|frames| {
                scope.spawn(move || {
                    let mut generated = 0u64;
                    for (_, frame) in frames {
                        generated += frame.len() as u64;
                        service.submit_batch(frame);
                    }
                    generated
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FabricConfig, RetryBudget};
    use concentrator::faults::FaultMode;
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
    use std::sync::Arc;

    #[test]
    fn sync_drive_drains_and_conserves() {
        let switch = Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        let mut fabric = Fabric::new(switch, FabricConfig::new(2));
        let plan = LoadPlan {
            model: TraceModel::Bernoulli { p: 0.6 },
            size_class: 1,
            seed: 42,
            frames: 50,
        };
        let report = drive_sync(&mut fabric, plan.frames(16, 0), &[]);
        assert!(report.generated > 0);
        assert!(report.snapshot.conserved());
        assert_eq!(report.snapshot.in_flight, 0);
        // Unlimited retries + drain: everything generated is delivered.
        assert_eq!(report.completions().count() as u64, report.generated);
    }

    #[test]
    fn unbatched_baseline_spends_a_sweep_per_request() {
        let switch = Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        let mut fabric = Fabric::new(Arc::clone(&switch), FabricConfig::new(1));
        let plan = LoadPlan {
            model: TraceModel::Bernoulli { p: 0.5 },
            size_class: 3, // 8 bytes: 64 payload cycles = exactly one sweep
            seed: 7,
            frames: 20,
        };
        let report = drive_sync(&mut fabric, one_per_tick(plan.frames(16, 0)), &[]);
        let totals = report.snapshot.totals();
        assert_eq!(report.completions().count() as u64, report.generated);
        assert_eq!(totals.sweeps, report.generated, "one sweep per request");
    }

    /// A fault event lands before the fabric tick it names, including a
    /// tick reached by skipping an idle gap, and a later repair restores
    /// delivery. With no retries, a message offered while the whole
    /// first chip row is dark is dropped in its own frame.
    #[test]
    fn fault_events_land_before_the_tick_they_name() {
        let switch = Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        let dark_row: Vec<ChipFault> = (0..switch.stages[0].chip_count)
            .map(|chip| ChipFault {
                stage: 0,
                chip,
                mode: FaultMode::StuckInvalid,
            })
            .collect();
        let mut config = FabricConfig::new(1);
        config.retry = RetryBudget::limited(0);
        let mut fabric = Fabric::new(switch, config);
        let lone = |tick: u64| (tick, vec![Message::new(tick, 3, vec![0xA5])]);
        let frames = vec![lone(0), lone(1), lone(2), lone(3), lone(7), lone(9)];
        let schedule = [
            FaultEvent {
                frame: 2,
                shard: 0,
                faults: dark_row,
            },
            FaultEvent {
                frame: 5,
                shard: 0,
                faults: Vec::new(),
            },
        ];
        let report = drive_sync(&mut fabric, frames, &schedule);
        let totals = report.snapshot.totals();
        // Ticks 0, 1 deliver; 2, 3 are dark; the repair at 5 lands in
        // the idle gap before tick 7, so 7 and 9 deliver again.
        assert_eq!((report.generated, report.completions().count()), (6, 4));
        assert_eq!(totals.retry_dropped, 2);
        assert!(report.snapshot.conserved());
    }
}
