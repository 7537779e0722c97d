//! The single-fabric serving workloads (`bulk-1024`, `open-64`): one
//! producer thread submitting whole trace ticks
//! through `ServiceCore::submit_batch_blocking`, one worker thread
//! stepping `WorkerCore` — the `FabricService` shell, rebuilt here so
//! every frame's deliveries can be timestamped as the step returns.
//! Traced rounds take the submit call apart to count the messages that
//! park on a full ring.

use std::hint::spin_loop;
use std::sync::Arc;

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use fabric::trace::{frames, generate, TraceModel};
use fabric::{FabricConfig, Message, ServiceCore, SubmitOutcome, WorkerCore, WorkerStep};

use crate::measure::{peak_growth_mib, percentile, pin_thread, reset_peak_rss, Clock, Cpus, Span};
use crate::round::{
    fingerprint, offered_ids, reexec_frames, Expected, Kind, Ledger, RecordedFrame, Reexec, Round,
};

/// One serving workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// Revsort switch inputs (a power of four) and outputs.
    pub n: usize,
    pub m: usize,
    pub model: TraceModel,
    pub ticks: u64,
    /// Payload size class: payloads are `1 << size_class` bytes.
    pub size_class: u8,
    pub pacing: Pacing,
    pub queue_capacity: usize,
}

/// When the producer sends the next trace tick.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Closed loop: once fewer than `window` messages are in flight, as
    /// when every client waits for its replies before sending more.
    Closed { window: u64 },
    /// Open loop: tick `t` is due `t × tick_ns` after the pass starts,
    /// whatever the fabric is doing.
    Open { tick_ns: u64 },
}

/// A workload's generated inputs: trace ticks lowered to messages.
pub struct ServingInputs {
    spec: ServingSpec,
    frames: Vec<(u64, Vec<Message>)>,
    warmup: usize,
    expected: Expected,
}

/// Per-pass bookkeeping, allocated before the peak-memory reset so the
/// benchmark's own arrays do not count as the program's memory.
struct Buffers {
    ledger: Ledger,
    /// When each message was first offered to a frame (traced only).
    first_offer: Vec<u64>,
    frame_due: Vec<u64>,
    frame_late: Vec<u64>,
    frame_returned: Vec<u64>,
}

/// What the worker thread saw.
#[derive(Default)]
struct WorkerOut {
    started: u64,
    done: u64,
    /// Time spent spinning on `ready()` (traced only).
    idle_ns: u64,
    /// `(start, end)` of every step that returned a frame (traced only).
    frame_spans: Vec<(u64, u64)>,
    /// Route and sweep costs re-executed on every recorded frame after
    /// drain, on the worker's own thread (traced only).
    reexec: Reexec,
}

struct Pass {
    start: u64,
    accepted: u64,
    worker: WorkerOut,
    /// `(start, end)` of every submit call (traced only).
    submits: Vec<(u64, u64)>,
    /// Messages that found the ring full and parked (traced only).
    parked: u64,
}

impl ServingInputs {
    pub fn generate(spec: ServingSpec, seed: u64, scale: u64) -> ServingInputs {
        let trace = generate(
            spec.model,
            spec.n,
            spec.ticks / scale,
            spec.size_class,
            seed,
        );
        let frames = frames(&trace, spec.n);
        let expected = Expected::new(&frames, trace.len(), 1 << spec.size_class);
        ServingInputs {
            spec,
            warmup: frames.len().div_ceil(10),
            frames,
            expected,
        }
    }

    fn buffers(&self, traced: bool) -> Buffers {
        let ids = self.expected.payloads.len();
        let ticks = self.frames.len();
        Buffers {
            ledger: Ledger::new(ids),
            first_offer: if traced {
                vec![u64::MAX; ids]
            } else {
                Vec::new()
            },
            frame_due: vec![0; ticks],
            frame_late: vec![0; ticks],
            frame_returned: vec![0; ticks],
        }
    }

    /// Set up from the switch spec and measure one pass over the whole
    /// trace. A memory round resets the peak-memory mark once the pass's
    /// inputs exist, just before set-up.
    ///
    /// Set-up and the worker run on `cpus.lead`, the producer (the calling
    /// thread, once set-up is done) on `cpus.other`. Set-up thus shares a
    /// CPU with the work that sets the round's speed.
    pub fn round(&self, kind: Kind, clock: &Clock, cpus: Option<Cpus>) -> Result<Round, String> {
        if let Some(cpus) = cpus {
            pin_thread(cpus.lead);
        }
        let traced = kind == Kind::Traced;
        let mut round = Round::default();
        let pass_frames = self.frames.clone();
        let mut buffers = self.buffers(traced);
        let base_kib = match kind {
            Kind::Memory => Some(reset_peak_rss()?),
            Kind::Timed | Kind::Traced => None,
        };
        let (core, worker) = self.set_up(clock, &mut round);
        if let Some(cpus) = cpus {
            pin_thread(cpus.other);
        }
        let pass = self.pass(
            &core,
            worker,
            cpus.map(|c| c.lead),
            pass_frames,
            &mut buffers,
            traced,
            clock,
        );
        if let Some(base_kib) = base_kib {
            round.peak_rss_mib = peak_growth_mib(base_kib)?;
        }
        self.settle(&core, &pass, &buffers, &self.frames, &mut round);
        if traced {
            self.trace_layers(&core, &pass, &buffers, &mut round);
        }
        Ok(round)
    }

    /// Switch spec to ready to serve, timed into `round`.
    fn set_up(&self, clock: &Clock, round: &mut Round) -> (ServiceCore, WorkerCore) {
        let spec = self.spec;
        let t = clock.now();
        let switch = Arc::new(
            RevsortSwitch::new(spec.n, spec.m, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        let compile_start = clock.now();
        let elab = switch.datapath_logic(false);
        round.compile_s = (clock.now() - compile_start) as f64 * 1e-9;
        round.insns = elab.compiled.insn_count() as u64;
        let core = ServiceCore::new(FabricConfig {
            queue_capacity: spec.queue_capacity,
            ..FabricConfig::new(1)
        });
        let worker = core.worker(0, switch);
        round.setup_s = (clock.now() - t) as f64 * 1e-9;
        (core, worker)
    }

    /// A discarded pass over the first tenth of the trace on its own
    /// switch and core, with the producer on `cpus.other` and the worker
    /// on `cpus.lead`. Returns its broken checks.
    pub fn warm_up(&self, clock: &Clock, cpus: Option<Cpus>) -> Vec<String> {
        if let Some(cpus) = cpus {
            pin_thread(cpus.other);
        }
        let frames = &self.frames[..self.warmup];
        let mut warm = Round::default();
        let mut buffers = self.buffers(false);
        let (core, worker) = self.set_up(clock, &mut warm);
        let pass = self.pass(
            &core,
            worker,
            cpus.map(|c| c.lead),
            frames.to_vec(),
            &mut buffers,
            false,
            clock,
        );
        self.settle(&core, &pass, &buffers, frames, &mut warm);
        warm.violations
    }

    /// Drive one pass: the calling thread is the producer, one scoped
    /// thread, pinned to `worker_cpu`, runs the worker until drain.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &self,
        core: &ServiceCore,
        worker: WorkerCore,
        worker_cpu: Option<usize>,
        frames: Vec<(u64, Vec<Message>)>,
        buffers: &mut Buffers,
        traced: bool,
        clock: &Clock,
    ) -> Pass {
        let ledger = &mut buffers.ledger;
        let first_offer = &mut buffers.first_offer;
        let expected = &self.expected;
        let pacing = self.spec.pacing;
        std::thread::scope(|scope| {
            let worker_thread = scope.spawn(move || {
                if let Some(cpu) = worker_cpu {
                    pin_thread(cpu);
                }
                run_worker(worker, ledger, first_offer, expected, traced, clock)
            });
            let start = clock.now();
            let (mut accepted, mut parked) = (0u64, 0u64);
            let mut submits = Vec::new();
            for (index, (tick, batch)) in frames.into_iter().enumerate() {
                // Waiting yields rather than spins, so a producer sharing
                // a core with the worker does not starve it.
                let due = match pacing {
                    Pacing::Open { tick_ns } => {
                        let due = start + tick * tick_ns;
                        while clock.now() < due {
                            std::thread::yield_now();
                        }
                        due
                    }
                    Pacing::Closed { window } => {
                        while core.in_flight() >= window {
                            std::thread::yield_now();
                        }
                        clock.now()
                    }
                };
                let sent = clock.now();
                accepted += if traced {
                    submit_counting_parked(core, batch, &mut parked)
                } else {
                    core.submit_batch_blocking(batch).accepted
                };
                let returned = clock.now();
                buffers.frame_due[index] = due;
                buffers.frame_late[index] = sent - due;
                buffers.frame_returned[index] = returned;
                if traced {
                    submits.push((sent, returned));
                }
            }
            core.close();
            let worker = worker_thread
                .join()
                .expect("benchmark worker thread panicked");
            Pass {
                start,
                accepted,
                worker,
                submits,
                parked,
            }
        })
    }

    /// Check a drained pass against the fabric's own ledger and record
    /// its throughput and latencies into `round`.
    fn settle(
        &self,
        core: &ServiceCore,
        pass: &Pass,
        buffers: &Buffers,
        frames: &[(u64, Vec<Message>)],
        round: &mut Round,
    ) {
        let snapshot = core.snapshot();
        let totals = snapshot.totals();
        let generated: u64 = frames.iter().map(|(_, b)| b.len() as u64).sum();
        let dropped = totals.rejected + totals.shed + totals.retry_dropped;
        let v = &mut round.violations;
        if totals.offered != generated {
            v.push(format!(
                "fabric counts {} offered, the benchmark submitted {generated}",
                totals.offered
            ));
        }
        if totals.offered != totals.delivered + dropped || snapshot.in_flight != 0 {
            v.push(format!(
                "conservation broken at drain: offered {} delivered {} dropped {dropped} in flight {}",
                totals.offered, totals.delivered, snapshot.in_flight
            ));
        }
        if pass.accepted < totals.delivered {
            v.push(format!(
                "{} accepted but {} delivered",
                pass.accepted, totals.delivered
            ));
        }
        buffers
            .ledger
            .check(offered_ids(frames), totals.delivered, dropped, v);
        round.items = totals.delivered;
        round.attempted = totals.offered;
        round.failed = dropped;
        round.active_s = (pass.worker.done - pass.start) as f64 * 1e-9;
        let samples = offered_ids(frames)
            .filter(|&id| buffers.ledger.count[id as usize] == 1)
            .map(|id| {
                let due = buffers.frame_due[self.expected.frame_of[id as usize] as usize];
                buffers.ledger.delivered_at[id as usize].saturating_sub(due)
            })
            .collect();
        round.set_latencies(samples);
    }

    /// Per-layer numbers of a traced pass: submit spans, queue waits,
    /// frame spans and worker idle time as observed, plus the route and
    /// sweep costs the worker re-executed on its recorded frames.
    fn trace_layers(&self, core: &ServiceCore, pass: &Pass, buffers: &Buffers, round: &mut Round) {
        let totals = core.snapshot().totals();
        let worker = &pass.worker;
        let reexec = worker.reexec;
        let offered = round.attempted as f64;
        let delivered = round.items as f64;
        let frames = worker.frame_spans.len() as f64;
        let submit_ns: u64 = pass.submits.iter().map(|&(s, e)| e - s).sum();
        let frame_ns: u64 = worker.frame_spans.iter().map(|&(s, e)| e - s).sum();
        let other_ns = frame_ns as f64 - reexec.route_ns as f64 - reexec.sweep_ns as f64;
        let loop_ns = (worker.done - worker.started) as f64;

        let mut waits: Vec<u64> = offered_ids(&self.frames)
            .filter(|&id| buffers.first_offer[id as usize] != u64::MAX)
            .map(|id| {
                let frame = self.expected.frame_of[id as usize] as usize;
                buffers.first_offer[id as usize].saturating_sub(buffers.frame_returned[frame])
            })
            .collect();
        waits.sort_unstable();
        let mut late = buffers.frame_late.clone();
        late.sort_unstable();

        let layers = &mut round.layers;
        layers.insert(
            "pipeline.input_ns_per_item".into(),
            submit_ns as f64 / offered,
        );
        layers.insert(
            "pipeline.control_ns_per_item".into(),
            reexec.route_ns as f64 / delivered,
        );
        layers.insert(
            "pipeline.datapath_ns_per_item".into(),
            reexec.sweep_ns as f64 / delivered,
        );
        layers.insert("pipeline.other_ns_per_item".into(), other_ns / delivered);
        layers.insert(
            "pipeline.busy_ns_per_item".into(),
            frame_ns as f64 / delivered,
        );
        layers.insert(
            "netlist.compile.sweep_ns_per_word".into(),
            reexec.sweep_ns as f64 / reexec.sweeps as f64,
        );
        layers.insert(
            "netlist.compile.items_per_sweep".into(),
            delivered / totals.sweeps as f64,
        );
        layers.insert("fabric.shard.max_pending".into(), totals.max_pending as f64);
        layers.insert("fabric.shard.retries".into(), totals.retries as f64);
        layers.insert(
            "fabric.service.parked_frac".into(),
            pass.parked as f64 / offered,
        );
        layers.insert("tiers.link.forward_stalls".into(), 0.0);

        layers.insert(
            "fabric.queue.wait_p50_us".into(),
            percentile(&waits, 50.0) as f64 * 1e-3,
        );
        layers.insert(
            "fabric.queue.wait_p99_us".into(),
            percentile(&waits, 99.0) as f64 * 1e-3,
        );
        layers.insert(
            "fabric.shard.frame_us".into(),
            frame_ns as f64 * 1e-3 / frames,
        );
        layers.insert(
            "fabric.worker.idle_frac".into(),
            worker.idle_ns as f64 / loop_ns,
        );
        layers.insert(
            "fabric.worker.frame_cover".into(),
            frame_ns as f64 / (loop_ns - worker.idle_ns as f64),
        );
        layers.insert(
            "concentrator.staged.route_us".into(),
            reexec.route_ns as f64 * 1e-3 / frames,
        );
        layers.insert("fabric.shard.other_us".into(), other_ns * 1e-3 / frames);
        layers.insert("fabric.shard.frames".into(), frames);
        layers.insert(
            "fabric.shard.sweeps_reexecuted".into(),
            reexec.sweeps as f64,
        );
        layers.insert("fabric.shard.sweeps".into(), totals.sweeps as f64);
        layers.insert(
            "fabric.shard.wait_p99_frames".into(),
            totals.wait_frames.percentile(99.0).0 as f64,
        );
        layers.insert(
            "loadgen.late_p99_us".into(),
            percentile(&late, 99.0) as f64 * 1e-3,
        );

        let spans = &mut round.spans;
        spans.extend(pass.submits.iter().enumerate().map(|(i, &(s, e))| Span {
            name: "fabric.service.submit",
            start_ns: s,
            end_ns: e,
            parent: None,
            id: i as u64,
        }));
        spans.extend(
            worker
                .frame_spans
                .iter()
                .enumerate()
                .map(|(i, &(s, e))| Span {
                    name: "fabric.shard.frame",
                    start_ns: s,
                    end_ns: e,
                    parent: None,
                    id: i as u64,
                }),
        );
        for id in offered_ids(&self.frames) {
            let index = id as usize;
            if buffers.ledger.count[index] != 1 {
                continue;
            }
            let frame = self.expected.frame_of[index] as usize;
            spans.push(Span {
                name: "message",
                start_ns: buffers.frame_due[frame],
                end_ns: buffers.ledger.delivered_at[index],
                parent: None,
                id,
            });
            spans.push(Span {
                name: "fabric.queue.wait",
                start_ns: buffers.frame_returned[frame],
                end_ns: buffers.first_offer[index].max(buffers.frame_returned[frame]),
                parent: Some("message"),
                id,
            });
        }
    }
}

/// `ServiceCore::submit_batch_blocking` taken apart so the messages that
/// found the ring full can be counted: the same non-blocking batch step,
/// then the parking slow path for the hand-back. With one shard,
/// placement sends each handed-back message to the ring that refused it.
fn submit_counting_parked(core: &ServiceCore, batch: Vec<Message>, parked: &mut u64) -> u64 {
    let result = core.try_submit_batch(batch);
    *parked += result.blocked.len() as u64;
    let mut accepted = result.accepted;
    for (message, _shard) in result.blocked {
        if let SubmitOutcome::Accepted | SubmitOutcome::AcceptedAfterShed =
            core.submit_blocking(message)
        {
            accepted += 1;
        }
    }
    accepted
}

/// The worker thread: untraced, it loops `step_blocking` exactly like
/// the `FabricService` worker; traced, it spins on `ready()` before each
/// `step()` so busy and idle time separate.
fn run_worker(
    mut worker: WorkerCore,
    ledger: &mut Ledger,
    first_offer: &mut [u64],
    expected: &Expected,
    traced: bool,
    clock: &Clock,
) -> WorkerOut {
    let mut out = WorkerOut {
        started: clock.now(),
        ..WorkerOut::default()
    };
    let mut recorded: Vec<RecordedFrame> = Vec::new();
    loop {
        let (begin, step) = if traced {
            let spin = clock.now();
            while !worker.ready() {
                spin_loop();
            }
            let begin = clock.now();
            out.idle_ns += begin - spin;
            (begin, worker.step())
        } else {
            (0, worker.step_blocking())
        };
        let end = clock.now();
        match step {
            WorkerStep::Frame(run) => {
                for delivery in &run.delivered {
                    let message = &delivery.message;
                    ledger.deliver(message.id, &message.payload, end, expected);
                }
                if traced {
                    out.frame_spans.push((begin, end));
                    for message in &run.offered {
                        let slot = &mut first_offer[message.id as usize];
                        *slot = (*slot).min(begin);
                    }
                    recorded.push(
                        run.offered
                            .iter()
                            .map(|m| (m.source as u32, fingerprint(&m.payload)))
                            .collect(),
                    );
                }
            }
            WorkerStep::Idle => {}
            WorkerStep::Done => {
                out.done = end;
                if traced {
                    let bits = 8 * expected.bytes;
                    out.reexec = reexec_frames(worker.shard().switch(), &recorded, bits, clock);
                }
                return out;
            }
        }
    }
}
