//! The CLI subcommands.

use std::fmt::Write as _;

use concentrator::layout::{columnsort_layout_2d, revsort_layout_2d};
use concentrator::packaging::{Dim, PackagingReport};
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::spec::ConcentratorSwitch;
use concentrator::verify::monte_carlo_check_compiled;
use concentrator::ColumnsortSwitch;

use crate::args::Parsed;
use crate::design::Design;
use switchsim::{frame_vcd, Message};

/// `help`.
pub fn help() -> String {
    "\
concentrator — multichip partial concentrator switches (Cormen 1987)

commands:
  design  --n <inputs> --pins <budget> [--load <fraction>]
          recommend constructions fitting a pin budget and offered load
  route   --design <spec> --valid <bits>
          run one setup cycle and print the established paths
  verify  --design <spec> [--trials <count>] [--seed <seed>]
          Monte Carlo + adversarial check of the concentration guarantee
  package --design <spec> [--dim 2d|3d] [--json]
          chips/pins/boards/volume resource report
  svg     --design <spec> --out <file>
          render the 2-D layout as SVG
  export  --design <spec> --format verilog|vcd --out <file>
          emit the flat control netlist as Verilog, or a sample frame as
          a VCD waveform
  fabric-bench [--design <spec>] [--frames <count>] [--shards <count>]
          [--load <p>] [--model bernoulli|diurnal|mmpp|zipf-population]
          [--class <c>] [--seed <seed>] [--policy block|shed|reject]
          [--placement rr|hash] [--json]
          drive the sharded serving fabric closed-loop and report the
          batched-vs-unbatched sweep counts, throughput, and wait
          percentiles; --model takes trace-gen's model names and
          per-model flags, --class its payload size class
  fabric-bench --reconfig [--design <spec>] [--frames <per-phase>]
          [--producers <count>] [--load <p>] [--model <name>] [--class <c>]
          [--seed <seed>] [--json]
          live-reconfiguration soak: drive the threaded service while the
          shard count changes 1 -> 4 -> 2 under load (epoch-based lane
          add/remove) and prove the drain ledger is lossless
  fabric-bench --trace <file|model> [--design <spec>] [--shards <count>]
          [--policy block|shed|reject] [--placement rr|hash] [--json]
          replay a workload trace through the serving fabric — a path to
          a trace file replays it byte-faithfully; a model name
          (bernoulli|diurnal|mmpp|zipf-population|adversarial) generates
          one in memory from the trace-gen flags
  fabric-bench --scaling [--n <aggregate>] [--frames <base>]
          [--producers <count>] [--load <p>] [--class <c>]
          [--seed <seed>] [--json]
          multichip scaling ladder: serve one fixed aggregate fabric at
          1/2/4/8 chips (one thread-per-shard lane each) under constant
          offered load; reports per-shard msgs/s, utilization, and
          parallel efficiency at every rung
  trace-gen --out <file> [--model bernoulli|diurnal|mmpp|zipf-population|adversarial]
          [--sources <wires>] [--ticks <count>] [--load <p>] [--class <c>]
          [--seed <seed>] [--jsonl] [--json]        (payload 2^c bytes)
          [--amplitude <a>] [--period <ticks>]          (diurnal)
          [--burst <mean>] [--rate-on <p>] [--rate-off <p>]
          [--on-to-off <p>] [--off-to-on <p>]           (mmpp)
          [--population <users>] [--exponent <s>]       (zipf-population)
          [--design <spec>] [--restarts <n>] [--rounds <n>] (adversarial)
          generate a replayable workload trace (binary CTRC, or
          JSON-lines with --jsonl) and print its checksum; replay it with
          fabric-bench --trace <file>
  tier-bench [--leaves <count>] [--frames <count>] [--producers <count>]
          [--sources <count>] [--load <p>] [--population <users>]
          [--exponent <s>] [--class <c>] [--seed <seed>] [--json]
          [--out <file>]
          drive the three-tier concentrator tree (leaves -> aggregation
          -> spine hyperconcentrators) closed-loop under zipf-population
          traffic; reports per-tier msgs/s, shed fraction, spine p99
          wait, and the single-spine baseline the tree must beat
  fault-campaign [--design <spec>] [--frames <count>] [--seed <seed>]
          [--load <density>] [--permanent <rate>] [--intermittent <rate>]
          [--period <frames>] [--transient <rate>] [--json] [--out <file>]
          run a seeded chip-fault injection campaign on the faulted
          chip program and report degraded capacity vs a quiet baseline
  sim     [--scenario <name>|tiers|reconfig|all] [--seeds <count>] [--base <seed>]
          [--seed <seed>] [--trace] [--json] [--out <file>]
          deterministic simulation harness: explore seeded interleavings
          of the serving fabric (and, for tier-* scenarios, the whole
          concentrator tree) under model-based oracles, or replay one
          failing seed bit-for-bit (--seed, optionally --trace)

design specs: revsort:<n>:<m> | columnsort:<r>x<s>:<m>
"
    .to_string()
}

/// `design`: recommend constructions under a pin budget.
pub fn design(args: &Parsed) -> Result<String, String> {
    let n: usize = args.required_parse("n")?;
    let pins: usize = args.required_parse("pins")?;
    let load: f64 = args.parse_or("load", 0.25)?;
    if !(0.0..=1.0).contains(&load) {
        return Err("--load must be in [0, 1]".into());
    }
    let side = (n as f64).sqrt() as usize;
    if side.checked_mul(side) != Some(n) || !side.is_power_of_two() {
        return Err(format!("--n must be 4^q (e.g. 256, 1024, 4096), got {n}"));
    }
    let m = n / 2;
    let need = (load * n as f64).ceil() as usize;
    let mut out = String::new();
    writeln!(
        out,
        "target: n = {n}, m = {m}, pin budget {pins}, offered load {need} msgs/frame"
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>6} {:>10} {:>9} {:>7} {:>6}",
        "design", "chips", "pins/chip", "capacity", "delays", "fits"
    )
    .unwrap();

    let mut recommended: Option<(String, u64)> = None;
    let mut consider = |name: String,
                        chips: usize,
                        pin_count: usize,
                        capacity: usize,
                        delays: u32,
                        volume: u64,
                        out: &mut String| {
        let fits = pin_count <= pins && capacity >= need;
        writeln!(
            out,
            "{name:<28} {chips:>6} {pin_count:>10} {capacity:>9} {delays:>7} {:>6}",
            if fits { "fits" } else { "no" }
        )
        .unwrap();
        if fits && recommended.as_ref().is_none_or(|&(_, best)| volume < best) {
            recommended = Some((name, volume));
        }
    };

    let revsort = RevsortSwitch::new(n, m, RevsortLayout::ThreeDee);
    let pack = PackagingReport::revsort(&revsort);
    consider(
        "revsort".into(),
        pack.total_chips(),
        pack.max_pins_per_chip(),
        revsort.guaranteed_capacity(),
        revsort.delay(),
        pack.volume_units,
        &mut out,
    );
    let mut r = side;
    while r <= n {
        let s = n / r;
        if n.is_multiple_of(r) && r.is_multiple_of(s) {
            let switch = ColumnsortSwitch::new(r, s, m);
            let pack = PackagingReport::columnsort(&switch, Dim::ThreeDee);
            consider(
                format!("columnsort:{r}x{s}"),
                pack.total_chips(),
                pack.max_pins_per_chip(),
                switch.guaranteed_capacity(),
                switch.delay(),
                pack.volume_units,
                &mut out,
            );
        }
        r *= 2;
    }
    match recommended {
        Some((name, volume)) => writeln!(
            out,
            "\nrecommended: {name} (smallest volume among fits: {volume} units)"
        )
        .unwrap(),
        None => writeln!(
            out,
            "\nno construction fits; raise the pin budget, lower the load, or add stages"
        )
        .unwrap(),
    }
    Ok(out)
}

/// Parse a `--valid` string of `0`/`1` characters.
fn parse_bits(raw: &str) -> Result<Vec<bool>, String> {
    raw.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("--valid must be 0/1 bits, found `{other}`")),
        })
        .collect()
}

/// `route`: one setup cycle.
pub fn route(args: &Parsed) -> Result<String, String> {
    let design = Design::parse(args.required("design")?)?;
    let valid = parse_bits(args.required("valid")?)?;
    let switch = design.switch();
    if valid.len() != switch.inputs() {
        return Err(format!(
            "--valid has {} bits but the design has n = {}",
            valid.len(),
            switch.inputs()
        ));
    }
    let routing = switch.route(&valid);
    let k = valid.iter().filter(|&&v| v).count();
    let mut out = String::new();
    writeln!(out, "{}", design.name()).unwrap();
    writeln!(
        out,
        "offered {k}, delivered {} of m = {}",
        routing.routed(),
        switch.outputs()
    )
    .unwrap();
    for (input, slot) in routing.assignment.iter().enumerate() {
        match slot {
            Some(output) => writeln!(out, "  X{input} -> Y{output}").unwrap(),
            None if valid[input] => writeln!(out, "  X{input} -> (congested)").unwrap(),
            None => {}
        }
    }
    Ok(out)
}

/// `verify`: Monte Carlo + adversarial guarantee check.
pub fn verify(args: &Parsed) -> Result<String, String> {
    let design = Design::parse(args.required("design")?)?;
    let trials: usize = args.parse_or("trials", 2000)?;
    let seed: u64 = args.parse_or("seed", 0xC0FFEE)?;
    // Patterns are screened through the compiled batch evaluator, 64 per
    // sweep; the exact router only re-examines flagged suspects.
    let report = match &design {
        Design::Revsort(s) => monte_carlo_check_compiled(s.staged(), trials, seed),
        Design::Columnsort(s) => monte_carlo_check_compiled(s.staged(), trials, seed),
    };
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} patterns checked, {} failures",
        design.name(),
        report.trials,
        report.failures.len()
    )
    .unwrap();
    for failure in report.failures.iter().take(3) {
        writeln!(out, "  violation: {:?}", failure.violations).unwrap();
    }
    if report.failures.is_empty() {
        Ok(out)
    } else {
        Err(format!("guarantee violated:\n{out}"))
    }
}

/// `package`: resource report, optionally JSON.
pub fn package(args: &Parsed) -> Result<String, String> {
    let design = Design::parse(args.required("design")?)?;
    let dim = match args.optional("dim").unwrap_or("3d") {
        "2d" => Dim::TwoDee,
        "3d" => Dim::ThreeDee,
        other => return Err(format!("--dim must be 2d or 3d, got `{other}`")),
    };
    let report = match (&design, dim) {
        (Design::Revsort(s), Dim::ThreeDee) => PackagingReport::revsort(s),
        (Design::Revsort(s), Dim::TwoDee) => {
            let flat = RevsortSwitch::new(s.inputs(), s.outputs(), RevsortLayout::TwoDee);
            PackagingReport::revsort(&flat)
        }
        (Design::Columnsort(s), dim) => PackagingReport::columnsort(s, dim),
    };
    if args.has_flag("json") {
        return serde_json::to_string_pretty(&report)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| e.to_string());
    }
    let mut out = String::new();
    writeln!(out, "{}", report.name).unwrap();
    for chip in &report.chip_types {
        writeln!(
            out,
            "  chip: {} x{} ({} pins)",
            chip.name, chip.count, chip.data_pins
        )
        .unwrap();
    }
    writeln!(
        out,
        "  boards: {} ({} types), stacks: {}",
        report.total_boards, report.board_types, report.stacks
    )
    .unwrap();
    writeln!(
        out,
        "  area: {} units, volume: {} units",
        report.area_units, report.volume_units
    )
    .unwrap();
    writeln!(out, "  gate delays: {}", report.gate_delays).unwrap();
    Ok(out)
}

/// `export`: Verilog netlist or VCD waveform.
pub fn export(args: &Parsed) -> Result<String, String> {
    let design = Design::parse(args.required("design")?)?;
    let out_path = args.required("out")?;
    let staged = match &design {
        Design::Revsort(s) => s.staged(),
        Design::Columnsort(s) => s.staged(),
    };
    let content = match args.required("format")? {
        "verilog" => staged.build_netlist(true).to_verilog("concentrator_switch"),
        "vcd" => {
            // A representative frame: every third input carries a byte.
            let n = design.switch().inputs();
            let offered: Vec<Message> = (0..n)
                .step_by(3)
                .enumerate()
                .map(|(i, src)| Message::new(i as u64, src, vec![(0x40 + i) as u8]))
                .collect();
            frame_vcd(design.switch(), &offered)
        }
        other => return Err(format!("--format must be verilog or vcd, got `{other}`")),
    };
    std::fs::write(out_path, &content).map_err(|e| format!("writing {out_path}: {e}"))?;
    Ok(format!("wrote {out_path} ({} bytes)\n", content.len()))
}

/// `svg`: render the 2-D layout.
pub fn svg(args: &Parsed) -> Result<String, String> {
    let design = Design::parse(args.required("design")?)?;
    let out_path = args.required("out")?;
    let svg = match &design {
        Design::Revsort(s) => revsort_layout_2d(s).to_svg(),
        Design::Columnsort(s) => columnsort_layout_2d(s).to_svg(),
    };
    std::fs::write(out_path, &svg).map_err(|e| format!("writing {out_path}: {e}"))?;
    Ok(format!("wrote {out_path} ({} bytes)\n", svg.len()))
}

/// The serving configuration `fabric-bench` runs under: `shards` shards
/// (at least one) with the `--policy` backpressure and `--placement`
/// rule, every other knob at its default.
fn serving_config(args: &Parsed, shards: usize) -> Result<fabric::FabricConfig, String> {
    use fabric::{Backpressure, FabricConfig, Placement};

    let mut config = FabricConfig::new(shards.max(1));
    config.backpressure = match args.optional("policy").unwrap_or("block") {
        "block" => Backpressure::Block,
        "shed" => Backpressure::ShedOldest,
        "reject" => Backpressure::Reject,
        other => return Err(format!("--policy must be block|shed|reject, got `{other}`")),
    };
    config.placement = match args.optional("placement").unwrap_or("rr") {
        "rr" => Placement::RoundRobin,
        "hash" => Placement::SourceHash,
        other => return Err(format!("--placement must be rr|hash, got `{other}`")),
    };
    Ok(config)
}

/// `fabric-bench`: drive the sharded serving fabric closed-loop and
/// compare the batching executor against the one-request-per-sweep
/// baseline on the same workload. With `--scaling`, run the multichip
/// scaling ladder instead ([`fabric::scaling`]); with `--trace`, replay
/// a workload trace ([`fabric_bench_trace`]).
pub fn fabric_bench(args: &Parsed) -> Result<String, String> {
    use fabric::{drive_sync, one_per_tick, Fabric, LoadPlan};
    use std::sync::Arc;
    use std::time::Instant;

    if args.has_flag("scaling") {
        return fabric_bench_scaling(args);
    }
    if args.has_flag("reconfig") {
        return fabric_bench_reconfig(args);
    }
    if let Some(spec) = args.optional("trace") {
        return fabric_bench_trace(args, spec);
    }

    let design = Design::parse(args.optional("design").unwrap_or("revsort:256:128"))?;
    let shards: usize = args.parse_or("shards", 2)?;
    let frames: usize = args.parse_or("frames", 64)?;
    let size_class = parse_class(args)?;
    let load: f64 = args.parse_or("load", 0.5)?;
    let seed: u64 = args.parse_or("seed", 0xFAB)?;
    if !(0.0..=1.0).contains(&load) {
        return Err(format!("--load must be in [0, 1], got {load}"));
    }
    let config = serving_config(args, shards)?;

    let model = parse_trace_gen_model(args, args.optional("model").unwrap_or("bernoulli"), load)?;
    let switch = Arc::new(design.staged().clone());
    let n = switch.n;
    let workload = LoadPlan {
        model,
        size_class,
        seed,
        frames,
    };

    let mut batched = Fabric::new(Arc::clone(&switch), config);
    let started = Instant::now();
    let batched_report = drive_sync(&mut batched, workload.frames(n, 0), &[]);
    let batched_secs = started.elapsed().as_secs_f64();

    let mut unbatched = Fabric::new(switch, config);
    let started = Instant::now();
    let unbatched_report = drive_sync(&mut unbatched, one_per_tick(workload.frames(n, 0)), &[]);
    let unbatched_secs = started.elapsed().as_secs_f64();

    let batched_totals = batched_report.snapshot.totals();
    let unbatched_totals = unbatched_report.snapshot.totals();
    if !batched_report.snapshot.conserved() || !unbatched_report.snapshot.conserved() {
        return Err("conservation identity violated (fabric bug)".into());
    }
    let sweep_ratio = unbatched_totals.sweeps as f64 / batched_totals.sweeps.max(1) as f64;
    let (p50, p50_lb) = batched_totals.wait_frames.percentile(50.0);
    let (p99, p99_lb) = batched_totals.wait_frames.percentile(99.0);

    if args.has_flag("json") {
        use serde_json::{object, ToJson};
        let value = object([
            ("design", design.name().to_json()),
            ("shards", (shards as u64).to_json()),
            ("frames", (frames as u64).to_json()),
            ("offered_load", load.to_json()),
            ("generated", batched_report.generated.to_json()),
            ("batched", batched_report.snapshot.to_json()),
            ("unbatched", unbatched_report.snapshot.to_json()),
            ("sweep_ratio", sweep_ratio.to_json()),
            (
                "batched_msgs_per_sec",
                (batched_totals.delivered as f64 / batched_secs).to_json(),
            ),
            (
                "unbatched_msgs_per_sec",
                (unbatched_totals.delivered as f64 / unbatched_secs).to_json(),
            ),
        ]);
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&value).unwrap()
        ));
    }

    let mut out = String::new();
    writeln!(
        out,
        "fabric bench: {} over {} shard(s)",
        design.name(),
        shards
    )
    .unwrap();
    writeln!(
        out,
        "  workload: {:?}, {frames} frames, {}-byte payloads, seed {seed}",
        workload.model,
        1usize << size_class
    )
    .unwrap();
    writeln!(out, "  generated: {}", batched_report.generated).unwrap();
    writeln!(
        out,
        "  batched:   {} delivered in {} sweeps ({:.2} deliveries/sweep, {:.0} msgs/s)",
        batched_totals.delivered,
        batched_totals.sweeps,
        batched_totals.deliveries_per_sweep(),
        batched_totals.delivered as f64 / batched_secs
    )
    .unwrap();
    writeln!(
        out,
        "  unbatched: {} delivered in {} sweeps ({:.2} deliveries/sweep, {:.0} msgs/s)",
        unbatched_totals.delivered,
        unbatched_totals.sweeps,
        unbatched_totals.deliveries_per_sweep(),
        unbatched_totals.delivered as f64 / unbatched_secs
    )
    .unwrap();
    writeln!(
        out,
        "  sweep speedup: {sweep_ratio:.1}x fewer compiled sweeps"
    )
    .unwrap();
    writeln!(
        out,
        "  wait frames: p50 = {p50}{} p99 = {p99}{}",
        if p50_lb { "+ (lower bound)" } else { "" },
        if p99_lb { "+ (lower bound)" } else { "" }
    )
    .unwrap();
    writeln!(
        out,
        "  dropped: {} rejected, {} shed, {} retry-exhausted",
        batched_totals.rejected, batched_totals.shed, batched_totals.retry_dropped
    )
    .unwrap();
    Ok(out)
}

/// `fabric-bench --reconfig`: the live-reconfiguration soak. One
/// threaded [`fabric::FabricService`] is driven through three load
/// phases while the control plane resizes it under the traffic — one
/// shard, grown to four, shrunk back to two — with every boundary an
/// epoch bump and every removed lane drained through the two-phase
/// handoff. Blocking backpressure plus the elastic re-placement path
/// make the run lossless by construction; the drain ledger proves it.
fn fabric_bench_reconfig(args: &Parsed) -> Result<String, String> {
    use fabric::{drive_service, FabricConfig, FabricService, LoadPlan};
    use std::sync::Arc;
    use std::time::Instant;

    let design = Design::parse(args.optional("design").unwrap_or("revsort:256:128"))?;
    let frames: usize = args.parse_or("frames", 32)?;
    let producers: usize = args.parse_or("producers", 3)?;
    let size_class = parse_class(args)?;
    let load: f64 = args.parse_or("load", 0.5)?;
    let seed: u64 = args.parse_or("seed", 0xFAB)?;
    if !(0.0..=1.0).contains(&load) {
        return Err(format!("--load must be in [0, 1], got {load}"));
    }
    if producers == 0 {
        return Err("--producers must be at least 1".into());
    }
    let model = parse_trace_gen_model(args, args.optional("model").unwrap_or("bernoulli"), load)?;
    let switch = Arc::new(design.staged().clone());
    let n = switch.n;
    let plan = |phase: u64| LoadPlan {
        model,
        size_class,
        seed: seed.wrapping_add(phase),
        frames,
    };

    let mut config = FabricConfig::new(1);
    config.max_shards = 4;
    config.backpressure = fabric::Backpressure::Block;
    let service = FabricService::start(switch, config);

    // Phase 1: a single lane. Phase 2: grown to four under load. Phase
    // 3: lanes 1 and 2 drained and retired, traffic re-placing onto the
    // survivors under the new epoch.
    let mut phases: Vec<(&str, u64, u64, f64)> = Vec::new();
    let mut generated = 0u64;
    let mut drive = |label: &'static str, phase: u64, phases: &mut Vec<(&str, u64, u64, f64)>| {
        let frames = (0..producers).map(|p| plan(phase).frames(n, p)).collect();
        let started = Instant::now();
        let produced = drive_service(&service, frames);
        generated += produced;
        phases.push((
            label,
            produced,
            service.epoch(),
            started.elapsed().as_secs_f64(),
        ));
    };
    drive("1 shard", 1, &mut phases);
    for expected in 1..4usize {
        if service.add_shard() != Some(expected) {
            return Err("lane pool exhausted early (service bug)".into());
        }
    }
    drive("4 shards", 2, &mut phases);
    if !service.remove_shard(1) || !service.remove_shard(2) {
        return Err("shard removal refused (service bug)".into());
    }
    drive("2 shards", 3, &mut phases);

    let report = service.drain();
    let totals = report.snapshot.totals();
    if !report.snapshot.conserved() {
        return Err("conservation identity violated across reconfiguration (fabric bug)".into());
    }
    if totals.delivered != generated {
        return Err(format!(
            "lost messages across reconfiguration: generated {generated}, delivered {} (fabric bug)",
            totals.delivered
        ));
    }

    if args.has_flag("json") {
        use serde_json::{object, ToJson, Value};
        let value = object([
            ("design", design.name().to_json()),
            ("frames_per_phase", (frames as u64).to_json()),
            ("producers", (producers as u64).to_json()),
            ("generated", generated.to_json()),
            ("delivered", totals.delivered.to_json()),
            ("lossless", (totals.delivered == generated).to_json()),
            (
                "phases",
                Value::Array(
                    phases
                        .iter()
                        .map(|(label, produced, epoch, secs)| {
                            object([
                                ("shards", (*label).to_json()),
                                ("generated", produced.to_json()),
                                ("epoch", epoch.to_json()),
                                (
                                    "msgs_per_sec",
                                    (*produced as f64 / secs.max(1e-9)).to_json(),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("snapshot", report.snapshot.to_json()),
        ]);
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&value).unwrap()
        ));
    }

    let mut out = String::new();
    writeln!(
        out,
        "fabric reconfig soak: {} resized 1 -> 4 -> 2 shards under load",
        design.name()
    )
    .unwrap();
    writeln!(
        out,
        "  workload: {:?}, {frames} frames x {producers} producer(s) per phase, seed {seed}",
        plan(1).model
    )
    .unwrap();
    for (label, produced, epoch, secs) in &phases {
        writeln!(
            out,
            "  {label:>9}: {produced} generated at {:.0} msgs/s (epoch {epoch})",
            *produced as f64 / secs.max(1e-9)
        )
        .unwrap();
    }
    writeln!(
        out,
        "  ledger: {} generated = {} delivered, {} still in flight — lossless",
        generated, totals.delivered, report.snapshot.in_flight
    )
    .unwrap();
    Ok(out)
}

/// `fabric-bench --scaling`: the multichip scaling ladder. One fixed
/// aggregate fabric (`--n` inputs → `--n`/2 outputs) is served at 1, 2,
/// 4, and 8 chips, each chip a Columnsort switch on its own
/// thread-per-shard lane, with the offered workload held constant; the
/// report shows aggregate and per-shard msgs/s, output-slot
/// utilization, and the parallel-efficiency ratio at each rung.
fn fabric_bench_scaling(args: &Parsed) -> Result<String, String> {
    use fabric::scaling;

    let aggregate: usize = args.parse_or("n", 1024)?;
    let producers: usize = args.parse_or("producers", 2)?;
    let base_frames: usize = args.parse_or("frames", 8)?;
    let load: f64 = args.parse_or("load", 0.5)?;
    let size_class = parse_class(args)?;
    let seed: u64 = args.parse_or("seed", 0xFAB0)?;
    if !(0.0..=1.0).contains(&load) {
        return Err(format!("--load must be in [0, 1], got {load}"));
    }
    const CHIP_COUNTS: [usize; 4] = [1, 2, 4, 8];
    // Every rung's chip needs a column count dividing its row count:
    // n/k divisible by 16 for k up to 8.
    if aggregate == 0 || !aggregate.is_multiple_of(128) {
        return Err(format!(
            "--n must be a positive multiple of 128, got {aggregate}"
        ));
    }
    if producers == 0 || base_frames == 0 {
        return Err("--producers and --frames must be positive".into());
    }

    let ladder = scaling::ladder(
        aggregate,
        &CHIP_COUNTS,
        producers,
        base_frames,
        load,
        size_class,
        seed,
    );

    if args.has_flag("json") {
        use serde_json::{object, ToJson, Value};
        let points: Vec<Value> = ladder
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let per_shard: Vec<Value> = p
                    .per_shard
                    .iter()
                    .map(|s| {
                        object([
                            ("shard", (s.shard as u64).to_json()),
                            ("delivered", s.delivered.to_json()),
                            ("msgs_per_sec", s.msgs_per_sec.to_json()),
                            ("utilization", s.utilization.to_json()),
                        ])
                    })
                    .collect();
                object([
                    ("chips", (p.chips as u64).to_json()),
                    ("threads", (p.threads as u64).to_json()),
                    ("chip_inputs", (p.chip_inputs as u64).to_json()),
                    ("chip_outputs", (p.chip_outputs as u64).to_json()),
                    ("generated", p.generated.to_json()),
                    ("delivered", p.delivered.to_json()),
                    ("frames", p.frames.to_json()),
                    ("sweeps", p.sweeps.to_json()),
                    ("msgs_per_sec", p.msgs_per_sec().to_json()),
                    ("scaling_efficiency", ladder.efficiency(i).to_json()),
                    (
                        "scaling_efficiency_normalized",
                        ladder.normalized_efficiency(i).to_json(),
                    ),
                    ("per_shard", per_shard.to_json()),
                ])
            })
            .collect();
        let value = object([
            ("aggregate_n", (ladder.aggregate_n as u64).to_json()),
            ("cores", (ladder.cores as u64).to_json()),
            ("offered_load", load.to_json()),
            ("base_frames", (base_frames as u64).to_json()),
            ("producers", (producers as u64).to_json()),
            ("seed", seed.to_json()),
            ("points", points.to_json()),
        ]);
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&value).unwrap()
        ));
    }

    let base_mps = ladder.points[0].msgs_per_sec();
    let mut out = String::new();
    writeln!(
        out,
        "multichip scaling ladder: {aggregate} -> {} aggregate fabric, {} core(s)",
        aggregate / 2,
        ladder.cores
    )
    .unwrap();
    writeln!(
        out,
        "  workload: Bernoulli p = {load}, {base_frames} base frames x chips, \
         {}-byte payloads, {producers} producer(s), seed {seed}",
        1usize << size_class
    )
    .unwrap();
    writeln!(
        out,
        "  {:<6} {:>10} {:>10} {:>12} {:>9} {:>11}",
        "chips", "chip n->m", "delivered", "msgs/s", "speedup", "efficiency"
    )
    .unwrap();
    for (i, p) in ladder.points.iter().enumerate() {
        writeln!(
            out,
            "  {:<6} {:>10} {:>10} {:>12.0} {:>8.2}x {:>10.3}",
            p.chips,
            format!("{}->{}", p.chip_inputs, p.chip_outputs),
            p.delivered,
            p.msgs_per_sec(),
            if base_mps > 0.0 {
                p.msgs_per_sec() / base_mps
            } else {
                0.0
            },
            ladder.efficiency(i)
        )
        .unwrap();
        for s in &p.per_shard {
            writeln!(
                out,
                "    shard {:>2}: {:>8} delivered, {:>10.0} msgs/s, {:>5.1}% utilization",
                s.shard,
                s.delivered,
                s.msgs_per_sec,
                100.0 * s.utilization
            )
            .unwrap();
        }
    }
    Ok(out)
}

/// The `--class <c>` payload size class (payload `2^c` bytes) shared by
/// every workload-generating command; defaults to 3 (8 bytes).
fn parse_class(args: &Parsed) -> Result<u8, String> {
    let class: u8 = args.parse_or("class", 3)?;
    if class > fabric::trace::MAX_SIZE_CLASS {
        return Err(format!(
            "--class must be at most {}, got {class}",
            fabric::trace::MAX_SIZE_CLASS
        ));
    }
    Ok(class)
}

/// Parse a workload model name and its per-model flags into a
/// [`fabric::TraceModel`]: the one `--model` vocabulary of `trace-gen`,
/// `fabric-bench` (plain, `--reconfig` and `--trace`). `adversarial` is
/// handled by the trace callers — it needs a switch to attack, not just
/// flags. Out-of-range parameters are errors, never panics.
fn parse_trace_gen_model(
    args: &Parsed,
    name: &str,
    load: f64,
) -> Result<fabric::TraceModel, String> {
    use fabric::TraceModel;
    let model = match name {
        "bernoulli" => TraceModel::Bernoulli { p: load },
        "diurnal" => {
            let amplitude: f64 = args.parse_or("amplitude", 0.3)?;
            let period = args.parse_or("period", 64)?;
            if !amplitude.is_finite() || period == 0 {
                return Err(format!(
                    "--amplitude must be finite and --period at least 1, got {amplitude} and {period}"
                ));
            }
            TraceModel::Diurnal {
                base: load,
                amplitude,
                period,
            }
        }
        "mmpp" => {
            // --burst picks the Bursty-compatible corner; the four
            // explicit rate flags override any component of it.
            let burst: f64 = args.parse_or("burst", 4.0)?;
            let TraceModel::Mmpp {
                rate_on,
                rate_off,
                on_to_off,
                off_to_on,
            } = TraceModel::mmpp_from_bursty(load, burst)
            else {
                unreachable!("mmpp_from_bursty returns Mmpp")
            };
            let rate = |flag: &str, default: f64| -> Result<f64, String> {
                let p: f64 = args.parse_or(flag, default)?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("--{flag} must be in [0, 1], got {p}"));
                }
                Ok(p)
            };
            TraceModel::Mmpp {
                rate_on: rate("rate-on", rate_on)?,
                rate_off: rate("rate-off", rate_off)?,
                on_to_off: rate("on-to-off", on_to_off)?,
                off_to_on: rate("off-to-on", off_to_on)?,
            }
        }
        "zipf-population" => {
            let population: u64 = args.parse_or("population", 1_000_000)?;
            let exponent: f64 = args.parse_or("exponent", 1.1)?;
            if population == 0 {
                return Err("--population must be at least 1".into());
            }
            if !(exponent.is_finite() && exponent >= 0.0) {
                return Err(format!(
                    "--exponent must be finite and >= 0, got {exponent}"
                ));
            }
            TraceModel::ZipfPopulation {
                p: load,
                population,
                exponent,
            }
        }
        "adversarial" => {
            return Err("--model adversarial needs a switch to attack: \
                 use trace-gen or fabric-bench --trace adversarial"
                .into())
        }
        other => {
            return Err(format!(
                "--model must be bernoulli|diurnal|mmpp|zipf-population|adversarial, got `{other}`"
            ))
        }
    };
    Ok(model)
}

/// Generate a trace for `model_name` from the shared generator flags
/// (`--load --sources --ticks --class --seed`, plus the per-model
/// knobs). `adversarial` runs the ε-attack against `switch` and returns
/// the search report alongside the lowered trace.
fn generate_trace(
    args: &Parsed,
    model_name: &str,
    switch: &concentrator::staged::StagedSwitch,
) -> Result<(fabric::Trace, Option<concentrator::search::SearchReport>), String> {
    let load: f64 = args.parse_or("load", 0.5)?;
    if !(0.0..=1.0).contains(&load) {
        return Err(format!("--load must be in [0, 1], got {load}"));
    }
    let ticks: u64 = args.parse_or("ticks", 256)?;
    let size_class = parse_class(args)?;
    let seed: u64 = args.parse_or("seed", 0x7ACE)?;
    if model_name == "adversarial" {
        let plan = fabric::AdversarialPlan {
            restarts: args.parse_or("restarts", 4)?,
            rounds: args.parse_or("rounds", 24)?,
            seed,
            ticks,
            size_class,
        };
        let (trace, report) = fabric::adversarial_trace(switch, &plan);
        return Ok((trace, Some(report)));
    }
    let sources: usize = args.parse_or("sources", switch.n)?;
    if sources == 0 {
        return Err("--sources must be at least 1".into());
    }
    let model = parse_trace_gen_model(args, model_name, load)?;
    Ok((
        fabric::trace::generate(model, sources, ticks, size_class, seed),
        None,
    ))
}

/// `trace-gen`: generate a replayable workload trace and write it to
/// disk — binary `CTRC` by default, JSON-lines with `--jsonl`. The
/// printed FNV-1a checksum identifies the exact trace bytes; `cli
/// fabric-bench --trace <file>` replays the file bit-for-bit.
pub fn trace_gen(args: &Parsed) -> Result<String, String> {
    let out_path = args.required("out")?;
    let model_name = args.optional("model").unwrap_or("mmpp");
    let design = Design::parse(args.optional("design").unwrap_or("revsort:256:128"))?;
    let switch = design.staged().clone();
    let (trace, search) = generate_trace(args, model_name, &switch)?;
    let flavor = if args.has_flag("jsonl") {
        fabric::TraceFlavor::Jsonl
    } else {
        fabric::TraceFlavor::Binary
    };
    let bytes = fabric::trace::encode(&trace, flavor);
    std::fs::write(out_path, &bytes).map_err(|e| format!("writing {out_path}: {e}"))?;
    let checksum = fabric::trace::fnv1a(&bytes);
    let wires = args.parse_or("sources", switch.n)?;

    if args.has_flag("json") {
        use serde_json::{object, ToJson, Value};
        let value = object([
            ("path", out_path.to_json()),
            ("model", model_name.to_json()),
            ("flavor", format!("{flavor:?}").to_lowercase().to_json()),
            ("space", trace.space.label().to_json()),
            ("records", (trace.len() as u64).to_json()),
            ("ticks", trace.ticks().to_json()),
            ("offered_load", trace.offered_load(wires).to_json()),
            ("bytes", (bytes.len() as u64).to_json()),
            ("fnv1a", format!("{checksum:016x}").to_json()),
            (
                "attack_score",
                match &search {
                    Some(report) => (report.best_score as u64).to_json(),
                    None => Value::Null,
                },
            ),
        ]);
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&value).unwrap()
        ));
    }

    let mut out = String::new();
    writeln!(
        out,
        "trace-gen: {model_name} -> {out_path} ({} bytes, {flavor:?})",
        bytes.len()
    )
    .unwrap();
    writeln!(
        out,
        "  {} record(s) over {} tick(s), {} source space, offered load {:.3}/wire",
        trace.len(),
        trace.ticks(),
        trace.space.label(),
        trace.offered_load(wires)
    )
    .unwrap();
    if let Some(report) = &search {
        writeln!(
            out,
            "  attack: score {} in {} evaluation(s)",
            report.best_score, report.evaluations
        )
        .unwrap();
    }
    writeln!(out, "  fnv1a: {checksum:016x}").unwrap();
    writeln!(
        out,
        "  replay: concentrator fabric-bench --trace {out_path}"
    )
    .unwrap();
    Ok(out)
}

/// `fabric-bench --trace <file|model>`: replay a trace through the
/// sharded serving fabric. A path to an existing `.ctrc`/`.jsonl` file
/// is loaded and replayed byte-faithfully; otherwise the spec names a
/// generator model (`bernoulli|diurnal|mmpp|zipf-population|adversarial`)
/// and the trace is generated in memory from the shared flags.
fn fabric_bench_trace(args: &Parsed, spec: &str) -> Result<String, String> {
    use fabric::{drive_sync, Fabric};
    use std::sync::Arc;
    use std::time::Instant;

    let design = Design::parse(args.optional("design").unwrap_or("revsort:256:128"))?;
    let shards: usize = args.parse_or("shards", 2)?;
    let config = serving_config(args, shards)?;

    let switch = Arc::new(design.staged().clone());
    let n = switch.n;
    let trace = if std::path::Path::new(spec).is_file() {
        fabric::trace::load(std::path::Path::new(spec))
            .map_err(|e| format!("loading trace {spec}: {e}"))?
    } else {
        generate_trace(args, spec, &switch)
            .map_err(|e| format!("--trace `{spec}` is neither a file nor a model: {e}"))?
            .0
    };

    let mut fabric = Fabric::new(Arc::clone(&switch), config);
    let started = Instant::now();
    let report = drive_sync(&mut fabric, fabric::trace::frames(&trace, n), &[]);
    let secs = started.elapsed().as_secs_f64();
    let totals = report.snapshot.totals();
    if !report.snapshot.conserved() {
        return Err("conservation identity violated (fabric bug)".into());
    }
    let (p50, p50_lb) = totals.wait_frames.percentile(50.0);
    let (p99, p99_lb) = totals.wait_frames.percentile(99.0);

    if args.has_flag("json") {
        use serde_json::{object, ToJson};
        let value = object([
            ("design", design.name().to_json()),
            ("shards", (shards as u64).to_json()),
            ("trace", spec.to_json()),
            ("space", trace.space.label().to_json()),
            ("records", (trace.len() as u64).to_json()),
            ("ticks", trace.ticks().to_json()),
            ("offered_load", trace.offered_load(n).to_json()),
            ("generated", report.generated.to_json()),
            ("snapshot", report.snapshot.to_json()),
            ("msgs_per_sec", (totals.delivered as f64 / secs).to_json()),
        ]);
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&value).unwrap()
        ));
    }

    let mut out = String::new();
    writeln!(
        out,
        "fabric trace replay: {} over {} shard(s)",
        design.name(),
        shards
    )
    .unwrap();
    writeln!(
        out,
        "  trace: {spec} — {} record(s), {} tick(s), {} space, offered {:.3}/wire",
        trace.len(),
        trace.ticks(),
        trace.space.label(),
        trace.offered_load(n)
    )
    .unwrap();
    writeln!(
        out,
        "  delivered: {} of {} in {} sweeps ({:.0} msgs/s)",
        totals.delivered,
        report.generated,
        totals.sweeps,
        totals.delivered as f64 / secs
    )
    .unwrap();
    writeln!(
        out,
        "  wait frames: p50 = {p50}{} p99 = {p99}{}",
        if p50_lb { "+ (lower bound)" } else { "" },
        if p99_lb { "+ (lower bound)" } else { "" }
    )
    .unwrap();
    writeln!(
        out,
        "  dropped: {} rejected, {} shed, {} retry-exhausted",
        totals.rejected, totals.shed, totals.retry_dropped
    )
    .unwrap();
    Ok(out)
}

/// `tier-bench`: drive the three-tier concentrator tree (leaf Revsort
/// fabrics -> aggregation Revsort fabrics -> §6 full-Columnsort spine
/// hyperconcentrators) closed-loop under zipf-population traffic through
/// the threaded [`tiers::TierService`], and report per-tier throughput
/// plus the single-spine baseline the tree must beat.
pub fn tier_bench(args: &Parsed) -> Result<String, String> {
    use tiers::{run_tree_bench, TierBenchOptions};

    let mut options = TierBenchOptions::small();
    options.leaves = args.parse_or("leaves", options.leaves)?;
    options.producers = args.parse_or("producers", options.producers)?;
    options.frames = args.parse_or("frames", options.frames)?;
    options.ingress_sources = args.parse_or("sources", options.ingress_sources)?;
    options.load = args.parse_or("load", options.load)?;
    options.size_class = parse_class(args)?;
    options.seed = args.parse_or("seed", options.seed)?;
    if !(options.leaves.is_power_of_two() && (2..=64).contains(&options.leaves)) {
        return Err(format!(
            "--leaves must be a power of two in 2..=64, got {}",
            options.leaves
        ));
    }
    if !(0.0..=1.0).contains(&options.load) {
        return Err(format!("--load must be in [0, 1], got {}", options.load));
    }
    let fabric::TraceModel::ZipfPopulation {
        population,
        exponent,
        ..
    } = parse_trace_gen_model(args, "zipf-population", options.load)?
    else {
        unreachable!("the zipf-population arm builds ZipfPopulation")
    };
    (options.population, options.exponent) = (population, exponent);
    if options.producers == 0 || options.frames == 0 || options.ingress_sources == 0 {
        return Err("--producers, --frames, and --sources must be positive".into());
    }

    let report = run_tree_bench(&options);

    if args.has_flag("json") || args.optional("out").is_some() {
        use serde_json::ToJson;
        let text = format!(
            "{}\n",
            serde_json::to_string_pretty(&report.to_json()).unwrap()
        );
        if let Some(path) = args.optional("out") {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            return Ok(format!("wrote {path} ({} bytes)\n", text.len()));
        }
        return Ok(text);
    }

    let ledger = report.snapshot.ledger();
    let mut out = String::new();
    writeln!(
        out,
        "tier bench: {} leaves -> {} aggregation -> {} spine fabrics ({} cores)",
        options.leaves, report.per_tier[1].fabrics, report.per_tier[2].fabrics, report.cores
    )
    .unwrap();
    writeln!(
        out,
        "  workload: zipf(p = {}, population = {}, s = {}) over {} sources, \
         {} frames x {} producer(s), seed {}",
        options.load,
        options.population,
        options.exponent,
        options.ingress_sources,
        options.frames,
        options.producers,
        options.seed
    )
    .unwrap();
    writeln!(
        out,
        "  generated {}, delivered {} ({:.1}% shed), {:.0} msgs/s end to end",
        report.generated,
        ledger.delivered,
        100.0 * report.shed_fraction,
        report.msgs_per_sec
    )
    .unwrap();
    for tier in &report.per_tier {
        writeln!(
            out,
            "    tier {} ({} fabric(s)): {:>8} delivered, {:>10.0} msgs/s",
            tier.tier, tier.fabrics, tier.delivered, tier.msgs_per_sec
        )
        .unwrap();
    }
    writeln!(
        out,
        "  spine p99 wait: {} frame(s){}",
        report.p99_wait_frames,
        if report.p99_wait_is_lower_bound {
            "+ (lower bound)"
        } else {
            ""
        }
    )
    .unwrap();
    writeln!(
        out,
        "  slowest single spine alone: {:.0} msgs/s -> tree {} the baseline",
        report.slowest_single_spine_msgs_per_sec,
        if report.tree_beats_slowest_single_spine() {
            "beats"
        } else {
            "TRAILS"
        }
    )
    .unwrap();
    Ok(out)
}

/// `fault-campaign`: run a seeded chip-fault injection campaign on the
/// faulted chip program and report degraded capacity against a fault-free
/// baseline of the same length and traffic.
pub fn fault_campaign(args: &Parsed) -> Result<String, String> {
    use concentrator::faults::{run_campaign, CampaignSpec, FaultCampaign};

    let design = Design::parse(args.optional("design").unwrap_or("revsort:64:32"))?;
    let frames: usize = args.parse_or("frames", 64)?;
    let seed: u64 = args.parse_or("seed", 0xFA57)?;
    let density: f64 = args.parse_or("load", 0.5)?;
    let spec = CampaignSpec {
        seed,
        frames,
        permanent_rate: args.parse_or("permanent", 0.05)?,
        intermittent_rate: args.parse_or("intermittent", 0.05)?,
        intermittent_period: args.parse_or("period", 16)?,
        transient_rate: args.parse_or("transient", 0.01)?,
    };
    if !(0.0..=1.0).contains(&density) {
        return Err(format!("--load must be in [0, 1], got {density}"));
    }
    for (flag, rate) in [
        ("permanent", spec.permanent_rate),
        ("intermittent", spec.intermittent_rate),
        ("transient", spec.transient_rate),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--{flag} must be in [0, 1], got {rate}"));
        }
    }
    let staged = design.staged();
    let campaign = FaultCampaign::generate(staged, &spec);
    let report = run_campaign(staged, &campaign, density);
    let baseline = run_campaign(
        staged,
        &FaultCampaign::generate(staged, &CampaignSpec::quiet(seed, frames)),
        density,
    );

    if args.has_flag("json") || args.optional("out").is_some() {
        use serde_json::{object, ToJson};
        let value = object([
            ("design", design.name().to_json()),
            ("spec", spec.to_json()),
            ("density", density.to_json()),
            ("delivery_rate", report.delivery_rate().to_json()),
            ("worst_frame_rate", report.worst_frame_rate().to_json()),
            ("baseline_delivery_rate", baseline.delivery_rate().to_json()),
            ("report", report.to_json()),
        ]);
        let text = format!("{}\n", serde_json::to_string_pretty(&value).unwrap());
        if let Some(path) = args.optional("out") {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            return Ok(format!("wrote {path} ({} bytes)\n", text.len()));
        }
        return Ok(text);
    }

    let mut out = String::new();
    writeln!(out, "fault campaign: {} (seed {seed})", design.name()).unwrap();
    writeln!(
        out,
        "  {} frames over {} chips, rates: permanent {}, intermittent {} (period {}), transient {}",
        report.frames,
        report.chips,
        spec.permanent_rate,
        spec.intermittent_rate,
        spec.intermittent_period,
        spec.transient_rate
    )
    .unwrap();
    writeln!(
        out,
        "  distinct fault sets: {} (faulted chip programs built)",
        report.distinct_fault_sets
    )
    .unwrap();
    writeln!(
        out,
        "  offered {} at density {density}, delivered {}",
        report.offered, report.delivered
    )
    .unwrap();
    writeln!(
        out,
        "  delivery rate: {:.4} (worst frame {:.4}, quiet baseline {:.4})",
        report.delivery_rate(),
        report.worst_frame_rate(),
        baseline.delivery_rate()
    )
    .unwrap();
    let worst = report
        .per_frame
        .iter()
        .max_by_key(|f| f.faults_active)
        .expect("campaign has frames");
    writeln!(
        out,
        "  most faulted frame: #{} with {} chip(s) down, {}/{} delivered",
        worst.frame, worst.faults_active, worst.delivered, worst.offered
    )
    .unwrap();
    Ok(out)
}

/// `sim`: the deterministic simulation harness. Explores seeded
/// interleavings of the full fabric stack under model-based oracles, or
/// replays a single failing seed bit-for-bit.
pub fn sim(args: &Parsed) -> Result<String, String> {
    use serde_json::{object, ToJson, Value};
    use simtest::{
        by_name, catalogue, explore, explore_tree, reconfig_catalogue, run_scenario, tree_by_name,
        tree_catalogue, Scenario, TreeScenario,
    };

    let which = args.optional("scenario").unwrap_or("all");
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut trees: Vec<TreeScenario> = Vec::new();
    match which {
        "all" => {
            scenarios = catalogue();
            trees = tree_catalogue();
        }
        "tiers" => trees = tree_catalogue(),
        "reconfig" => scenarios = reconfig_catalogue(),
        name => {
            if let Some(scenario) = by_name(name) {
                scenarios.push(scenario);
            } else if let Some(tree) = tree_by_name(name) {
                trees.push(tree);
            } else {
                let names: Vec<String> = catalogue()
                    .into_iter()
                    .map(|s| s.name)
                    .chain(tree_catalogue().into_iter().map(|s| s.name))
                    .collect();
                return Err(format!(
                    "unknown scenario `{name}` (available: {}, or tiers, reconfig, all)",
                    names.join(", ")
                ));
            }
        }
    }

    let (first, last) = match args.optional("seed") {
        Some(_) => {
            let seed: u64 = args.required_parse("seed")?;
            (seed, seed)
        }
        None => {
            let base: u64 = args.parse_or("base", 1)?;
            let count: u64 = args.parse_or("seeds", 64)?;
            if count == 0 {
                return Err("--seeds must be at least 1".into());
            }
            (base, base + (count - 1))
        }
    };
    if args.has_flag("trace") {
        if !trees.is_empty() {
            return Err(
                "--trace replays flat fabric scenarios only; tier-* tree scenarios replay \
                 deterministically via --seed without a trace"
                    .into(),
            );
        }
        if scenarios.len() != 1 || first != last {
            return Err("--trace needs a single --scenario and a single --seed".into());
        }
    }

    let mut out = String::new();
    let mut reports = Vec::new();
    let mut failing_seeds = 0usize;
    for scenario in &scenarios {
        if args.has_flag("trace") {
            let run = run_scenario(scenario, first);
            writeln!(out, "trace: {} seed {first}", scenario.name).unwrap();
            for event in &run.trace {
                writeln!(out, "  {event:?}").unwrap();
            }
        }
        let report = explore(scenario, first..=last);
        writeln!(
            out,
            "{}: seeds {first}..={last} runs={} ticks={} frames={} failures={}",
            report.scenario,
            report.runs,
            report.ticks,
            report.frames,
            report.failures.len()
        )
        .unwrap();
        for failure in &report.failures {
            failing_seeds += 1;
            writeln!(
                out,
                "  FAIL seed {}: {:?}",
                failure.seed, failure.violations
            )
            .unwrap();
            writeln!(
                out,
                "    shrunk reproducer: faults={} frames={} producers={}",
                failure.shrunk_faults, failure.shrunk_frames, failure.shrunk_producers
            )
            .unwrap();
            writeln!(
                out,
                "    replay: concentrator sim --scenario {} --seed {} --trace",
                report.scenario, failure.seed
            )
            .unwrap();
        }
        reports.push(report.to_json());
    }
    for tree in &trees {
        let report = explore_tree(tree, first..=last);
        writeln!(
            out,
            "{}: seeds {first}..={last} runs={} ticks={} frames={} \
             stall_backpressure={} failures={}",
            report.scenario,
            report.runs,
            report.ticks,
            report.frames,
            report.stall_backpressure,
            report.failures.len()
        )
        .unwrap();
        for failure in &report.failures {
            failing_seeds += 1;
            writeln!(
                out,
                "  FAIL seed {}: {:?}",
                failure.seed, failure.violations
            )
            .unwrap();
            writeln!(
                out,
                "    replay: concentrator sim --scenario {} --seed {}",
                report.scenario, failure.seed
            )
            .unwrap();
        }
        reports.push(report.to_json());
    }

    if args.has_flag("json") || args.optional("out").is_some() {
        let value = object([
            ("passed", (failing_seeds == 0).to_json()),
            ("first_seed", first.to_json()),
            ("last_seed", last.to_json()),
            ("reports", Value::Array(reports)),
        ]);
        let text = format!("{}\n", serde_json::to_string_pretty(&value).unwrap());
        if let Some(path) = args.optional("out") {
            // Written even on failure: CI uploads this as the
            // failing-seed artifact.
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            writeln!(out, "wrote {path} ({} bytes)", text.len()).unwrap();
        } else {
            out = text;
        }
    }

    if failing_seeds > 0 {
        return Err(format!(
            "{out}{failing_seeds} failing seed(s) — replay each with \
             `concentrator sim --scenario <name> --seed <s>` (add --trace for \
             flat fabric scenarios)"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        Parsed::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn design_rejects_bad_load() {
        assert!(design(&parse(&["--n", "64", "--pins", "64", "--load", "2.0"])).is_err());
    }

    #[test]
    fn design_rejects_non_square_n() {
        assert!(design(&parse(&["--n", "100", "--pins", "64"])).is_err());
    }

    #[test]
    fn route_validates_bit_string() {
        let args = parse(&["--design", "columnsort:8x2:12", "--valid", "10x"]);
        assert!(route(&args).is_err());
        let args = parse(&["--design", "columnsort:8x2:12", "--valid", "101"]);
        assert!(route(&args).is_err(), "wrong length must error");
    }

    proptest::proptest! {
        /// Any `--valid` string (mostly bits, sometimes a stray character
        /// or a leading `-`, of a length around n = 16) routes or errs; it
        /// never panics.
        #[test]
        fn any_valid_string_routes_or_errs(
            picks in proptest::collection::vec(0u32..64, 12..20),
            stray in 0u32..0x11_0000,
        ) {
            let raw: String = picks
                .iter()
                .map(|&p| match p {
                    0..=29 => '0',
                    30..=61 => '1',
                    62 => char::from_u32(stray).unwrap_or('\u{fffd}'),
                    _ => '-',
                })
                .collect();
            let bits = parse_bits(&raw);
            proptest::prop_assert_eq!(bits.is_ok(), raw.chars().all(|c| c == '0' || c == '1'));
            let argv: Vec<String> = ["--design", "revsort:16:8", "--valid", &raw]
                .iter()
                .map(|s| s.to_string())
                .collect();
            if let Ok(args) = Parsed::parse(&argv) {
                let routed = route(&args);
                if let Ok(text) = &routed {
                    proptest::prop_assert!(text.starts_with("Revsort"), "{text}");
                }
                proptest::prop_assert_eq!(routed.is_ok(), bits.is_ok() && raw.len() == 16);
            }
        }
    }

    #[test]
    fn package_text_mentions_chips() {
        let args = parse(&["--design", "columnsort:8x4:18"]);
        let text = package(&args).unwrap();
        assert!(text.contains("8-by-8 hyperconcentrator"));
    }

    #[test]
    fn fabric_bench_reports_batching_win() {
        let args = parse(&[
            "--design",
            "revsort:16:8",
            "--frames",
            "12",
            "--shards",
            "2",
        ]);
        let text = fabric_bench(&args).unwrap();
        assert!(text.contains("sweep speedup"), "{text}");
        assert!(text.contains("batched:"), "{text}");
    }

    #[test]
    fn fabric_bench_json_is_valid() {
        let args = parse(&[
            "--design",
            "revsort:16:8",
            "--frames",
            "8",
            "--policy",
            "reject",
            "--placement",
            "hash",
            "--json",
        ]);
        let text = fabric_bench(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert!(v["sweep_ratio"].as_f64().unwrap() >= 1.0);
        assert_eq!(v["shards"].as_u64(), Some(2));
    }

    #[test]
    fn fabric_bench_rejects_bad_policy() {
        let args = parse(&["--design", "revsort:16:8", "--policy", "nope"]);
        assert!(fabric_bench(&args).is_err());
    }

    #[test]
    fn trace_gen_writes_a_replayable_trace() {
        let path = std::env::temp_dir().join(format!("cli-trace-gen-{}.ctrc", std::process::id()));
        let path_s = path.to_str().unwrap();
        let text = trace_gen(&parse(&[
            "--out",
            path_s,
            "--model",
            "mmpp",
            "--design",
            "revsort:16:8",
            "--ticks",
            "12",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert!(text.contains("fnv1a"), "{text}");
        let bench = fabric_bench(&parse(&[
            "--trace",
            path_s,
            "--design",
            "revsort:16:8",
            "--json",
        ]))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&bench).expect("valid json");
        assert_eq!(
            v["generated"], v["records"],
            "wire-space replay offers one message per record: {bench}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_gen_jsonl_flavor_is_json_lines() {
        let path =
            std::env::temp_dir().join(format!("cli-trace-jsonl-{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap();
        trace_gen(&parse(&[
            "--out",
            path_s,
            "--model",
            "bernoulli",
            "--design",
            "revsort:16:8",
            "--ticks",
            "6",
            "--jsonl",
        ]))
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            bytes.first(),
            Some(&b'{'),
            "jsonl flavor starts with a header object"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fabric_bench_trace_accepts_model_names_and_rejects_noise() {
        let text = fabric_bench(&parse(&[
            "--trace",
            "zipf-population",
            "--design",
            "revsort:16:8",
            "--ticks",
            "10",
            "--population",
            "1000",
        ]))
        .unwrap();
        assert!(text.contains("trace replay"), "{text}");
        assert!(fabric_bench(&parse(&["--trace", "frobnicate"])).is_err());
    }

    #[test]
    fn fabric_bench_refuses_garbage_trace_files() {
        let path =
            std::env::temp_dir().join(format!("cli-trace-garbage-{}.ctrc", std::process::id()));
        let garbage: [&[u8]; 4] = [
            b"\xff\x00 not a trace",
            b"CTRC\x01\x00 truncated record",
            b"{\"format\":\"ctrc\",\"version\":1,\"space\":\"wire\"}\n{\"tick\":\xff}\n",
            b"{ nope",
        ];
        for bytes in garbage {
            std::fs::write(&path, bytes).unwrap();
            let result = fabric_bench(&parse(&[
                "--trace",
                path.to_str().unwrap(),
                "--design",
                "revsort:16:8",
            ]));
            let err = result.expect_err("a garbage trace file must be refused");
            assert!(err.starts_with("loading trace"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_gen_adversarial_reports_the_attack_score() {
        let path = std::env::temp_dir().join(format!("cli-trace-adv-{}.ctrc", std::process::id()));
        let path_s = path.to_str().unwrap();
        let text = trace_gen(&parse(&[
            "--out",
            path_s,
            "--model",
            "adversarial",
            "--design",
            "revsort:16:8",
            "--restarts",
            "2",
            "--rounds",
            "6",
            "--ticks",
            "4",
        ]))
        .unwrap();
        assert!(text.contains("attack: score"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fabric_bench_reconfig_soak_is_lossless() {
        let args = parse(&[
            "--reconfig",
            "--design",
            "revsort:16:8",
            "--frames",
            "8",
            "--producers",
            "2",
        ]);
        let text = fabric_bench(&args).unwrap();
        assert!(text.contains("1 -> 4 -> 2 shards"), "{text}");
        assert!(text.contains("lossless"), "{text}");
    }

    #[test]
    fn fabric_bench_reconfig_json_reports_phase_epochs() {
        let args = parse(&[
            "--reconfig",
            "--design",
            "revsort:16:8",
            "--frames",
            "6",
            "--json",
        ]);
        let text = fabric_bench(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["lossless"], true);
        assert_eq!(v["generated"], v["delivered"]);
        let phases = v["phases"].as_array().unwrap();
        assert_eq!(phases.len(), 3);
        // Grow is three epoch bumps, shrink two more.
        assert_eq!(phases[0]["epoch"].as_u64(), Some(0));
        assert_eq!(phases[1]["epoch"].as_u64(), Some(3));
        assert_eq!(phases[2]["epoch"].as_u64(), Some(5));
    }

    #[test]
    fn fabric_bench_scaling_reports_every_rung_with_shard_breakdown() {
        let args = parse(&[
            "--scaling",
            "--n",
            "128",
            "--frames",
            "1",
            "--producers",
            "1",
            "--class",
            "1",
            "--seed",
            "5",
        ]);
        let text = fabric_bench(&args).unwrap();
        assert!(text.contains("multichip scaling ladder"), "{text}");
        for rung in ["128->64", "64->32", "32->16", "16->8"] {
            assert!(text.contains(rung), "missing rung {rung}: {text}");
        }
        assert!(text.contains("utilization"), "{text}");
    }

    #[test]
    fn fabric_bench_scaling_json_has_efficiency_and_per_shard_rates() {
        let args = parse(&[
            "--scaling",
            "--n",
            "128",
            "--frames",
            "1",
            "--producers",
            "1",
            "--class",
            "1",
            "--seed",
            "5",
            "--json",
        ]);
        let text = fabric_bench(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["aggregate_n"].as_u64(), Some(128));
        assert!(v["cores"].as_u64().unwrap() >= 1);
        let points = v["points"].as_array().expect("points array");
        assert_eq!(points.len(), 4);
        assert!((points[0]["scaling_efficiency"].as_f64().unwrap() - 1.0).abs() < 1e-9);
        for (i, point) in points.iter().enumerate() {
            let chips = point["chips"].as_u64().unwrap();
            assert_eq!(chips, [1, 2, 4, 8][i]);
            let shards = point["per_shard"].as_array().expect("per_shard array");
            assert_eq!(shards.len(), chips as usize);
            for s in shards {
                assert!(s["utilization"].as_f64().unwrap() <= 1.0);
                assert!(s["msgs_per_sec"].as_f64().is_some());
            }
            // Constant offered load along the ladder.
            assert_eq!(point["generated"].as_u64(), points[0]["generated"].as_u64());
        }
    }

    #[test]
    fn fabric_bench_scaling_rejects_misaligned_aggregate() {
        let args = parse(&["--scaling", "--n", "100"]);
        assert!(fabric_bench(&args).is_err());
    }

    #[test]
    fn fault_campaign_reports_degradation() {
        let args = parse(&[
            "--design",
            "revsort:16:8",
            "--frames",
            "16",
            "--seed",
            "3",
            "--permanent",
            "0.2",
        ]);
        let text = fault_campaign(&args).unwrap();
        assert!(text.contains("delivery rate"), "{text}");
        assert!(text.contains("distinct fault sets"), "{text}");
        // Same seed, same report.
        assert_eq!(text, fault_campaign(&args).unwrap());
    }

    #[test]
    fn fault_campaign_json_is_valid() {
        let args = parse(&[
            "--design",
            "revsort:16:8",
            "--frames",
            "8",
            "--seed",
            "9",
            "--json",
        ]);
        let text = fault_campaign(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["report"]["frames"].as_u64(), Some(8));
        assert!(v["delivery_rate"].as_f64().unwrap() <= 1.0);
        assert!(v["baseline_delivery_rate"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn fault_campaign_rejects_bad_rates() {
        let args = parse(&["--design", "revsort:16:8", "--permanent", "1.5"]);
        assert!(fault_campaign(&args).is_err());
        let args = parse(&["--design", "revsort:16:8", "--load", "-0.1"]);
        assert!(fault_campaign(&args).is_err());
    }

    #[test]
    fn sim_replay_is_bit_identical() {
        // The replay contract end to end: same scenario, same seed, same
        // CLI invocation → byte-identical trace output, twice.
        let args = parse(&["--scenario", "drain-shed", "--seed", "5", "--trace"]);
        let first = sim(&args).unwrap();
        let second = sim(&args).unwrap();
        assert_eq!(first, second, "replay diverged between identical runs");
        assert!(first.contains("trace: drain-shed seed 5"), "{first}");
        assert!(first.contains("Frame {"), "{first}");
        assert!(first.contains("failures=0"), "{first}");
    }

    #[test]
    fn sim_explores_a_seed_range() {
        let args = parse(&["--scenario", "drain-block", "--seeds", "4", "--base", "10"]);
        let text = sim(&args).unwrap();
        assert!(text.contains("seeds 10..=13 runs=4"), "{text}");
        assert!(text.contains("failures=0"), "{text}");
    }

    #[test]
    fn sim_json_report_is_valid() {
        let args = parse(&["--scenario", "campaign", "--seeds", "2", "--json"]);
        let text = sim(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["passed"], true);
        assert_eq!(v["reports"][0]["scenario"], "campaign");
        assert_eq!(v["reports"][0]["runs"].as_u64(), Some(2));
    }

    #[test]
    fn sim_explores_the_tier_catalogue() {
        let args = parse(&[
            "--scenario",
            "tiers",
            "--seeds",
            "2",
            "--base",
            "3",
            "--json",
        ]);
        let text = sim(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["passed"], true);
        let reports = v["reports"].as_array().expect("reports array");
        assert_eq!(reports.len(), 3, "{text}");
        let names: Vec<&str> = reports
            .iter()
            .map(|r| r["scenario"].as_str().unwrap())
            .collect();
        assert!(names.contains(&"tier-spine-stall"), "{names:?}");
        // Tree reports carry the backpressure counter flat reports lack.
        assert!(reports[0]["stall_backpressure"].as_u64().is_some());
    }

    #[test]
    fn sim_explores_the_reconfig_group() {
        let args = parse(&[
            "--scenario",
            "reconfig",
            "--seeds",
            "2",
            "--base",
            "5",
            "--json",
        ]);
        let text = sim(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["passed"], true);
        let names: Vec<&str> = v["reports"]
            .as_array()
            .expect("reports array")
            .iter()
            .map(|r| r["scenario"].as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "resize-under-drain",
                "swap-during-campaign",
                "scale-down-while-quarantined",
                "slo-shed-burst"
            ],
            "{text}"
        );
    }

    #[test]
    fn sim_runs_a_single_tree_scenario_by_name() {
        let args = parse(&["--scenario", "tier-leaf-burst", "--seed", "11"]);
        let text = sim(&args).unwrap();
        assert!(text.contains("tier-leaf-burst: seeds 11..=11"), "{text}");
        assert!(text.contains("failures=0"), "{text}");
    }

    #[test]
    fn sim_refuses_to_trace_tree_scenarios() {
        let args = parse(&["--scenario", "tier-spine-stall", "--seed", "1", "--trace"]);
        let err = sim(&args).unwrap_err();
        assert!(err.contains("flat fabric scenarios only"), "{err}");
    }

    #[test]
    fn sim_unknown_scenario_lists_tree_names_too() {
        let args = parse(&["--scenario", "nope"]);
        let err = sim(&args).unwrap_err();
        assert!(err.contains("tier-spine-stall"), "{err}");
        assert!(err.contains("drain-block"), "{err}");
    }

    #[test]
    fn fabric_bench_accepts_zipf_model() {
        let args = parse(&[
            "--design",
            "revsort:16:8",
            "--frames",
            "8",
            "--model",
            "zipf-population",
            "--population",
            "100000",
            "--exponent",
            "1.2",
        ]);
        let text = fabric_bench(&args).unwrap();
        assert!(text.contains("Zipf"), "{text}");
        assert!(text.contains("sweep speedup"), "{text}");
    }

    #[test]
    fn fabric_bench_plays_every_trace_gen_model() {
        for model in ["bernoulli", "diurnal", "mmpp", "zipf-population"] {
            let args = parse(&[
                "--design",
                "revsort:16:8",
                "--frames",
                "6",
                "--model",
                model,
                "--class",
                "0",
            ]);
            let text = fabric_bench(&args).unwrap();
            assert!(text.contains("1-byte payloads"), "{model}: {text}");
        }
        for bad in [
            &["--model", "adversarial"][..],
            &["--class", "13"],
            &["--model", "diurnal", "--period", "0"],
            &["--model", "mmpp", "--rate-on", "2"],
        ] {
            let mut args = vec!["--design", "revsort:16:8"];
            args.extend_from_slice(bad);
            assert!(fabric_bench(&parse(&args)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fabric_bench_rejects_bad_zipf_parameters() {
        let args = parse(&[
            "--design",
            "revsort:16:8",
            "--model",
            "zipf-population",
            "--population",
            "0",
        ]);
        assert!(fabric_bench(&args).is_err());
        let args = parse(&[
            "--design",
            "revsort:16:8",
            "--model",
            "zipf-population",
            "--exponent",
            "-1",
        ]);
        assert!(fabric_bench(&args).is_err());
        let args = parse(&["--design", "revsort:16:8", "--model", "martian"]);
        assert!(fabric_bench(&args).is_err());
    }

    #[test]
    fn fabric_bench_scaling_json_records_thread_parallelism() {
        let args = parse(&[
            "--scaling",
            "--n",
            "128",
            "--frames",
            "1",
            "--producers",
            "1",
            "--class",
            "1",
            "--seed",
            "5",
            "--json",
        ]);
        let text = fabric_bench(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        let points = v["points"].as_array().expect("points array");
        for point in points {
            let threads = point["threads"].as_u64().expect("threads recorded");
            assert!(threads >= 1);
            assert!(threads <= point["chips"].as_u64().unwrap());
            let normalized = point["scaling_efficiency_normalized"]
                .as_f64()
                .expect("normalized efficiency recorded");
            assert!(normalized > 0.0);
        }
    }

    #[test]
    fn tier_bench_text_reports_tiers_and_baseline() {
        let args = parse(&[
            "--leaves",
            "2",
            "--frames",
            "2",
            "--producers",
            "1",
            "--sources",
            "32",
        ]);
        let text = tier_bench(&args).unwrap();
        assert!(text.contains("tier bench: 2 leaves"), "{text}");
        assert!(text.contains("tier 0"), "{text}");
        assert!(text.contains("tier 2"), "{text}");
        assert!(text.contains("slowest single spine"), "{text}");
        assert!(text.contains("zipf"), "{text}");
    }

    #[test]
    fn tier_bench_json_carries_the_release_gate() {
        let args = parse(&[
            "--leaves",
            "2",
            "--frames",
            "2",
            "--producers",
            "1",
            "--sources",
            "32",
            "--json",
        ]);
        let text = tier_bench(&args).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["leaves"].as_u64(), Some(2));
        let gate = &v["tree_beats_slowest_single_spine"];
        assert!(matches!(gate, serde_json::Value::Bool(_)), "{gate:?}");
        assert_eq!(v["per_tier"].as_array().unwrap().len(), 3);
        assert_eq!(v["snapshot"]["ledger"]["holds"], true);
    }

    #[test]
    fn tier_bench_rejects_bad_geometry() {
        let args = parse(&["--leaves", "3"]);
        assert!(tier_bench(&args).is_err());
        let args = parse(&["--leaves", "128"]);
        assert!(tier_bench(&args).is_err());
        let args = parse(&["--load", "1.5"]);
        assert!(tier_bench(&args).is_err());
        let err = tier_bench(&parse(&["--population", "0"])).unwrap_err();
        assert_eq!(err, "--population must be at least 1");
        let err = tier_bench(&parse(&["--exponent", "NaN"])).unwrap_err();
        assert_eq!(err, "--exponent must be finite and >= 0, got NaN");
    }

    #[test]
    fn sim_rejects_unknown_scenario_and_bad_trace_usage() {
        let err = sim(&parse(&["--scenario", "nope"])).unwrap_err();
        assert!(err.contains("drain-block"), "{err}");
        // --trace without a pinned seed is ambiguous.
        assert!(sim(&parse(&["--scenario", "flap", "--trace"])).is_err());
        assert!(sim(&parse(&["--trace", "--seed", "1"])).is_err());
    }

    #[test]
    fn svg_writes_file() {
        let dir = std::env::temp_dir().join("concentrator_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("layout.svg");
        let args_vec = vec![
            "--design".to_string(),
            "columnsort:8x4:18".to_string(),
            "--out".to_string(),
            path.to_string_lossy().to_string(),
        ];
        let args = Parsed::parse(&args_vec).unwrap();
        let msg = svg(&args).unwrap();
        assert!(msg.contains("wrote"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("<svg"));
    }
}
