//! Integration tests for the elastic control plane: epoch-based shard
//! add/remove, live switch swap, runtime admission retargeting — and the
//! conservation ledger across every epoch boundary.
//!
//! The deterministic tests drive [`ServiceCore`] and [`WorkerCore`]
//! cooperatively on one thread (no sleeps, no timing assumptions): every
//! producer park is a [`SubmitStep::Blocked`] hand-back and every worker
//! step completes before the next assertion, so interleavings are exact.
//! The threaded tests then run the same protocol under real contention
//! and assert the properties that survive nondeterminism (conservation,
//! payload integrity, lane lifecycle).

use std::sync::Arc;

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::StagedSwitch;
use fabric::{
    drive_service, Backpressure, FabricConfig, FabricService, LaneState, LoadPlan, Message,
    ServiceCore, SubmitOutcome, SubmitStep, WorkerCore, WorkerStep,
};
use switchsim::TrafficModel;

fn staged(n: usize, m: usize) -> Arc<StagedSwitch> {
    Arc::new(
        RevsortSwitch::new(n, m, RevsortLayout::TwoDee)
            .staged()
            .clone(),
    )
}

fn msg(id: u64, source: usize) -> Message {
    Message::new(id, source, vec![0xA0 ^ id as u8])
}

/// Step a worker until it reports [`WorkerStep::Idle`], collecting
/// deliveries. Panics if the worker finishes instead.
fn run_until_idle(worker: &mut WorkerCore) -> Vec<u64> {
    let mut delivered = Vec::new();
    loop {
        match worker.step() {
            WorkerStep::Frame(run) => delivered.extend(run.delivered.iter().map(|d| d.message.id)),
            WorkerStep::Idle => return delivered,
            WorkerStep::Done => panic!("worker finished while the fabric is still serving"),
        }
    }
}

/// Step a worker until it reports [`WorkerStep::Done`], collecting
/// deliveries. Panics if the worker idles with its queue still open.
fn run_until_done(worker: &mut WorkerCore) -> Vec<u64> {
    let mut delivered = Vec::new();
    loop {
        match worker.step() {
            WorkerStep::Frame(run) => delivered.extend(run.delivered.iter().map(|d| d.message.id)),
            WorkerStep::Idle => panic!("worker idled while draining a closed queue"),
            WorkerStep::Done => return delivered,
        }
    }
}

/// Removing a shard whose ingress ring is *full* loses nothing: the
/// closed ring's backlog drains through the worker, the lane retires,
/// and traffic placed after the epoch bump never lands on it.
#[test]
fn remove_while_full_drains_the_backlog_and_retires() {
    let mut config = FabricConfig::new(2);
    config.queue_capacity = 2;
    config.backpressure = Backpressure::Reject;
    let core = ServiceCore::new(config);
    let mut w0 = core.worker(0, staged(16, 8));
    let mut w1 = core.worker(1, staged(16, 8));

    // Fill both rings to the brim (round-robin alternates 0,1,0,1).
    for id in 0..4u64 {
        assert_eq!(
            core.try_submit(msg(id, id as usize)),
            SubmitStep::Done(SubmitOutcome::Accepted)
        );
    }
    assert_eq!(core.queue(1).len(), 2, "shard 1's ring must be full");

    assert!(core.remove_shard(1), "an active non-last shard removes");
    assert_eq!(core.shard_state(1), LaneState::Draining);
    assert_eq!(core.epoch(), 1);
    assert_eq!(core.active_shards(), 1);

    // Post-removal traffic routes around the draining lane onto shard 0 —
    // whose ring is also full, so the Reject policy refuses it. Either
    // way, nothing new lands on the closed ring.
    for id in 4..6u64 {
        assert_eq!(
            core.try_submit(msg(id, id as usize)),
            SubmitStep::Done(SubmitOutcome::Rejected)
        );
    }
    assert_eq!(core.queue(1).len(), 2, "the draining ring admits nothing");

    // The removed shard's worker drains its full backlog and retires.
    let drained = run_until_done(&mut w1);
    assert_eq!(drained, vec![1, 3], "the full backlog must drain in order");
    assert_eq!(core.shard_state(1), LaneState::Retired);

    let alive = run_until_idle(&mut w0);
    assert_eq!(alive, vec![0, 2]);

    // The ledger balances across the boundary: 6 offered = 4 delivered +
    // 2 rejected, nothing in flight — and the retired lane's history is
    // still in the snapshot.
    let snapshot = core.snapshot();
    let totals = snapshot.totals();
    assert!(snapshot.conserved(), "ledger broke: {totals:?}");
    assert_eq!(
        (totals.offered, totals.delivered, totals.rejected),
        (6, 4, 2)
    );
    assert_eq!(snapshot.in_flight, 0);
    assert_eq!(snapshot.shards.len(), 2, "retired lanes stay in snapshots");
}

/// A producer parked on a full ring whose shard is then removed re-enters
/// placement under the new epoch instead of losing its message. The
/// cooperative mirror of a thread blocked in `submit`: the
/// [`SubmitStep::Blocked`] hand-back is the park, `retry_submit` is the
/// wake.
#[test]
fn remove_while_producer_blocked_replaces_under_the_new_epoch() {
    let mut config = FabricConfig::new(2);
    config.queue_capacity = 1;
    config.backpressure = Backpressure::Block;
    let core = ServiceCore::new(config);
    let mut w0 = core.worker(0, staged(16, 8));
    let mut w1 = core.worker(1, staged(16, 8));

    assert_eq!(
        core.try_submit(msg(0, 0)),
        SubmitStep::Done(SubmitOutcome::Accepted)
    );
    assert_eq!(
        core.try_submit(msg(1, 1)),
        SubmitStep::Done(SubmitOutcome::Accepted)
    );
    // Both rings full: the next submission parks on shard 0's ring…
    let parked = core.try_submit(msg(2, 2));
    let SubmitStep::Blocked { message, shard } = parked else {
        panic!("expected a blocked hand-back, got {parked:?}");
    };
    assert_eq!(shard, 0);
    // …and a fourth parks on shard 1, the one about to be removed.
    let parked = core.try_submit(msg(3, 3));
    let SubmitStep::Blocked {
        message: removed_msg,
        shard: removed_shard,
    } = parked
    else {
        panic!("expected a blocked hand-back, got {parked:?}");
    };
    assert_eq!(removed_shard, 1);

    assert!(core.remove_shard(1));
    // The removed ring now reports writable (closed queues wake parked
    // producers), so the simulated producer retries — and the retry
    // re-enters placement rather than offering to the closed ring. The
    // only active lane's ring is still full, so it parks there.
    assert!(core.queue(1).would_accept(Backpressure::Block));
    let retried = core.retry_submit(removed_msg, removed_shard);
    let SubmitStep::Blocked { message: m3, shard } = retried else {
        panic!("the re-placed message should park on the full active ring");
    };
    assert_eq!(shard, 0, "re-placement must target the surviving shard");

    // Workers make room; both parked producers land on shard 0.
    let first = run_until_idle(&mut w0);
    assert_eq!(first, vec![0]);
    assert_eq!(
        core.retry_submit(message, 0),
        SubmitStep::Done(SubmitOutcome::Accepted)
    );
    run_until_idle(&mut w0);
    assert_eq!(
        core.retry_submit(m3, 0),
        SubmitStep::Done(SubmitOutcome::Accepted)
    );
    run_until_idle(&mut w0);
    let drained = run_until_done(&mut w1);
    assert_eq!(drained, vec![1]);
    assert_eq!(core.shard_state(1), LaneState::Retired);

    let snapshot = core.snapshot();
    let totals = snapshot.totals();
    assert!(snapshot.conserved(), "ledger broke: {totals:?}");
    assert_eq!(totals.delivered, 4, "every message must deliver");
    assert_eq!(snapshot.in_flight, 0);
}

/// The two-phase switch swap with a nonempty ring and an old-epoch
/// backlog: every old-epoch frame — executed by a batch but not yet
/// handed out, or still pending — completes and goes out on the old
/// switch (the worker refuses to install mid-backlog and stops popping
/// fresh messages), the replacement installs the moment the backlog
/// completes, and messages still in the ring route on the *new* switch —
/// including sources the old switch could not even address.
#[test]
fn swap_with_nonempty_ring_installs_after_the_backlog() {
    // Messages on one source wire route one per frame. A backlog of 12
    // exceeds the switch's m = 8 outputs, so the first frame runs alone
    // and leaves 11 pending. Eight 16-byte payloads fill two lane words
    // per frame, so the first batch stops at eight lane words after four
    // frames, three of them not yet handed out, with four messages still
    // pending. Three 8-byte payloads all route in the first batch,
    // leaving only executed frames behind.
    swap_after_backlog(12, 1, 0, 11);
    swap_after_backlog(8, 16, 3, 4);
    swap_after_backlog(3, 8, 2, 0);
}

/// Submit `backlog` messages of `bytes` octets on one source wire, step
/// once, and require `queued` executed deliveries and `pending` messages
/// left; then stage a swap and check every old-epoch frame goes out on
/// the old switch before a ring message routes on the new one.
fn swap_after_backlog(backlog: u64, bytes: usize, queued: u64, pending: usize) {
    let config = FabricConfig::new(1);
    let core = ServiceCore::new(config);
    let old = staged(16, 8);
    let mut worker = core.worker(0, Arc::clone(&old));

    for id in 0..backlog {
        assert_eq!(
            core.try_submit(Message::new(id, 5, vec![0xA0 ^ id as u8; bytes])),
            SubmitStep::Done(SubmitOutcome::Accepted)
        );
    }
    let WorkerStep::Frame(first) = worker.step() else {
        panic!("expected a frame");
    };
    let mut delivered: Vec<u64> = first.delivered.iter().map(|d| d.message.id).collect();
    assert_eq!(delivered, vec![0]);
    assert_eq!(worker.queued_deliveries(), queued, "executed frames wait");
    assert_eq!(worker.shard().pending_len(), pending, "pending backlog");

    let new = staged(64, 16);
    assert_eq!(core.swap_switch(Arc::clone(&new)), 1);
    assert_eq!(core.epoch(), 1);
    // A message only the new switch can address waits in the ring behind
    // the old-epoch backlog.
    assert_eq!(
        core.try_submit(msg(40, 40)),
        SubmitStep::Done(SubmitOutcome::Accepted)
    );

    // Old-epoch frames, executed or pending, complete and go out on the
    // old switch, one per step: no install while any remains.
    while (delivered.len() as u64) < backlog {
        let WorkerStep::Frame(run) = worker.step() else {
            panic!("expected a frame");
        };
        assert!(
            Arc::ptr_eq(worker.shard().switch(), &old),
            "the swap must wait for the old-epoch backlog"
        );
        delivered.extend(run.delivered.iter().map(|d| d.message.id));
    }
    assert_eq!(delivered, (0..backlog).collect::<Vec<_>>());

    // Backlog done: the next step installs, then serves the ring message
    // through the freshly compiled wider datapath.
    let delivered = run_until_idle(&mut worker);
    assert!(
        Arc::ptr_eq(worker.shard().switch(), &new),
        "the replacement must install once the backlog completes"
    );
    assert_eq!(delivered, vec![40], "ring contents route on the new switch");

    let snapshot = core.snapshot();
    assert!(snapshot.conserved());
    assert_eq!(snapshot.totals().delivered, backlog + 1);
    assert_eq!(snapshot.in_flight, 0);
}

/// Runtime admission retargeting: a lowered limit rejects at the new
/// bound immediately, lifting it re-opens the gate, and both transitions
/// bump the epoch while the rejections stay on the ledger.
#[test]
fn admission_retarget_applies_immediately_and_stays_on_the_ledger() {
    let config = FabricConfig::new(1);
    let core = ServiceCore::new(config);
    let mut worker = core.worker(0, staged(16, 8));

    core.set_admission_limit(Some(2));
    assert_eq!(core.admission_limit(), Some(2));
    assert_eq!(core.epoch(), 1);
    // Same limit again: no epoch churn.
    core.set_admission_limit(Some(2));
    assert_eq!(core.epoch(), 1);

    for id in 0..2u64 {
        assert_eq!(
            core.try_submit(msg(id, id as usize)),
            SubmitStep::Done(SubmitOutcome::Accepted)
        );
    }
    assert_eq!(
        core.try_submit(msg(2, 2)),
        SubmitStep::Done(SubmitOutcome::Rejected),
        "the third message must hit the admission gate"
    );
    assert_eq!(core.admission_rejected(0), 1);

    core.set_admission_limit(None);
    assert_eq!(core.admission_limit(), None);
    assert_eq!(core.epoch(), 2);
    assert_eq!(
        core.try_submit(msg(3, 3)),
        SubmitStep::Done(SubmitOutcome::Accepted)
    );

    run_until_idle(&mut worker);
    let snapshot = core.snapshot();
    let totals = snapshot.totals();
    assert!(snapshot.conserved(), "ledger broke: {totals:?}");
    assert_eq!((totals.delivered, totals.rejected), (3, 1));
}

/// Control-plane refusals: the lane pool is the hard ceiling, the last
/// active shard is irremovable, a draining shard cannot be removed twice,
/// and a closed (shutting-down) fabric refuses every mutation.
#[test]
fn control_plane_refusals() {
    let mut config = FabricConfig::new(1);
    config.max_shards = 3;
    let core = ServiceCore::new(config);

    assert_eq!(core.add_shard(), Some(1));
    assert_eq!(core.add_shard(), Some(2));
    assert_eq!(core.add_shard(), None, "the lane pool is exhausted");
    assert_eq!(core.allocated_shards(), 3);

    assert!(core.remove_shard(1));
    assert!(!core.remove_shard(1), "a draining shard is not active");
    assert!(core.remove_shard(2));
    assert!(
        !core.remove_shard(0),
        "the last active shard must keep serving"
    );
    assert_eq!(core.active_shards(), 1);

    core.close();
    assert_eq!(core.add_shard(), None, "no growth during shutdown");
    assert!(!core.remove_shard(0), "no removal during shutdown");
}

/// The snapshot-during-epoch-transition regression: snapshot after
/// *every* producer submission, worker step, and control-plane operation
/// of a scripted resize (1 → 3 → 2 shards with a switch swap in the
/// middle) and assert the conservation identity each time. Cooperative
/// stepping makes each intermediate state quiescent, so the identity must
/// hold *exactly* at every boundary — a draining lane's in-flight
/// counted once, a retired lane's history never dropped.
#[test]
fn snapshot_every_step_of_a_resize_stays_conserved() {
    let mut config = FabricConfig::new(1);
    config.max_shards = 3;
    config.queue_capacity = 4;
    config.backpressure = Backpressure::Reject;
    let core = ServiceCore::new(config);
    let switch = staged(16, 8);
    let mut workers: Vec<WorkerCore> = vec![core.worker(0, Arc::clone(&switch))];

    let mut next_id = 0u64;
    let assert_conserved = |core: &ServiceCore, when: &str| {
        let snapshot = core.snapshot();
        assert!(
            snapshot.conserved(),
            "ledger broke {when}: {:?} in_flight {}",
            snapshot.totals(),
            snapshot.in_flight
        );
    };

    let mut pulse = |core: &ServiceCore, workers: &mut Vec<WorkerCore>, burst: usize| {
        for _ in 0..burst {
            let id = next_id;
            next_id += 1;
            core.try_submit(msg(id, (id % 16) as usize));
            assert_conserved(core, "after a submission");
        }
        for worker in workers.iter_mut() {
            while let WorkerStep::Frame(_) = worker.step() {
                assert_conserved(core, "after a worker frame");
            }
        }
    };

    pulse(&core, &mut workers, 6);

    let id = core.add_shard().expect("lane available");
    workers.push(core.worker(id, Arc::clone(&switch)));
    assert_conserved(&core, "after add_shard");
    pulse(&core, &mut workers, 6);

    let id = core.add_shard().expect("lane available");
    workers.push(core.worker(id, Arc::clone(&switch)));
    assert_conserved(&core, "after the second add_shard");
    pulse(&core, &mut workers, 6);

    core.swap_switch(staged(64, 16));
    assert_conserved(&core, "after swap_switch");
    pulse(&core, &mut workers, 6);

    assert!(core.remove_shard(1));
    // The critical window: shard 1 is Draining with messages possibly in
    // flight; a live snapshot here must count them exactly once.
    assert_conserved(&core, "immediately after remove_shard");
    pulse(&core, &mut workers, 6);
    assert_eq!(core.shard_state(1), LaneState::Retired);
    assert_conserved(&core, "after the removed lane retired");

    pulse(&core, &mut workers, 6);
    let snapshot = core.snapshot();
    assert_eq!(snapshot.in_flight, 0);
    assert!(snapshot.totals().delivered > 0);
    assert_eq!(core.active_shards(), 2);
    assert_eq!(core.epoch(), 4);
}

/// A real thread parked in a blocking submit on the removed shard's full
/// ring wakes, re-places under the new epoch, and delivers — the threaded
/// twin of the cooperative re-placement test.
#[test]
fn threaded_producer_parked_on_removed_shard_replaces() {
    let mut config = FabricConfig::new(2);
    config.queue_capacity = 1;
    config.backpressure = Backpressure::Block;
    let core = Arc::new(ServiceCore::new(config));
    let mut w0 = core.worker(0, staged(16, 8));
    let mut w1 = core.worker(1, staged(16, 8));

    // Fill both rings so the producer thread must park.
    assert_eq!(
        core.try_submit(msg(0, 0)),
        SubmitStep::Done(SubmitOutcome::Accepted)
    );
    assert_eq!(
        core.try_submit(msg(1, 1)),
        SubmitStep::Done(SubmitOutcome::Accepted)
    );

    // The producer's round-robin slot places it on shard 0, whose full
    // ring parks it. Removing shard 0 closes that ring, which wakes the
    // parked thread; it re-places under the new epoch onto shard 1 —
    // also full — and parks again until the worker makes room. (If the
    // removal wins the race instead, placement routes it straight to
    // shard 1; both orders end at the same park.)
    let producer = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.submit_blocking(msg(2, 2)))
    };
    assert!(core.remove_shard(0));
    let drained = run_until_done(&mut w0);
    assert_eq!(drained, vec![0]);
    // Step the surviving shard until the producer lands: each frame frees
    // a ring slot, and the wake is the queue's own condvar — no sleeps.
    while !producer.is_finished() {
        match w1.step() {
            WorkerStep::Frame(_) | WorkerStep::Idle => std::thread::yield_now(),
            WorkerStep::Done => panic!("the surviving shard must not finish"),
        }
    }
    assert_eq!(
        producer.join().expect("producer panicked"),
        SubmitOutcome::Accepted
    );
    run_until_idle(&mut w1);

    let snapshot = core.snapshot();
    assert!(snapshot.conserved());
    assert_eq!(snapshot.totals().delivered, 3, "no message may be lost");
    assert_eq!(snapshot.in_flight, 0);
}

/// The acceptance-gate scenario at integration scale: a threaded service
/// resizes 1 → 4 → 2 shards under continuous load, swaps the switch
/// mid-run, and drains with the ledger exactly conserved — zero lost
/// messages, every delivery payload-intact.
#[test]
fn service_resize_and_swap_under_load_is_zero_loss() {
    let mut config = FabricConfig::new(1);
    config.max_shards = 4;
    config.queue_capacity = 32;
    let service = FabricService::start(staged(16, 8), config);
    let plan = |seed: u64| LoadPlan {
        model: TrafficModel::Bernoulli { p: 0.7 },
        payload_bytes: 3,
        seed,
        frames: 10,
    };
    let drive = |seed| drive_service(&service, (0..2).map(|p| plan(seed).frames(16, p)).collect());

    let mut generated = drive(1);
    assert_eq!(service.add_shard(), Some(1));
    assert_eq!(service.add_shard(), Some(2));
    assert_eq!(service.add_shard(), Some(3));
    assert_eq!(service.add_shard(), None);
    assert_eq!(service.active_shards(), 4);
    generated += drive(2);

    // Swap every live lane onto a wider recompiled switch mid-load.
    assert_eq!(service.swap_switch(staged(64, 16)), 4);
    generated += drive(3);

    assert!(service.remove_shard(1));
    assert!(service.remove_shard(2));
    assert_eq!(service.active_shards(), 2);
    generated += drive(4);

    let report = service.drain();
    let totals = report.snapshot.totals();
    assert!(
        report.snapshot.conserved(),
        "resize under load broke the ledger: {totals:?}"
    );
    assert_eq!(
        totals.offered, generated,
        "every generated message must be accounted as offered"
    );
    assert_eq!(
        totals.delivered, generated,
        "blocking backpressure with no faults must deliver everything"
    );
    assert_eq!(totals.delivered as usize, report.completions.len());
    assert_eq!(report.snapshot.shards.len(), 4, "retired lanes stay");
}
