//! End-to-end and per-layer benchmark of the HipMer assembly pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload human-diploid --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` re-drives the
//! assembly layer by layer and reports the per-layer metrics. The last
//! stdout line is the result object; the line before it holds context
//! (quartiles, sample counts, the host-interference probe). See
//! `perfbench/README.md` for every metric's definition.

mod heap;
mod host;
mod layers;
mod workload;

use hipmer::{PipelineConfig, RunOptions};
use hipmer_pgas::Team;
use hipmer_seqio::SeqRecord;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{WorkDir, Workload, THREADS};

#[global_allocator]
static GLOBAL: heap::PeakAlloc = heap::PeakAlloc;

/// Fewest measured iterations per run, whatever `--seconds` says.
const MIN_ITERS: usize = 3;
/// Set-ups per run: at least [`SETUP_MIN_REPS`], and more until
/// [`SETUP_SECONDS`] have passed. `setup_s` is their median; a plain
/// workload's set-up takes about 0.1 s, and one run's median of five
/// spread 0.4 of its median across runs, of twenty 0.08.
const SETUP_MIN_REPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?}; want one of {}",
            names.join(", ")
        )
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A prepared workload: the FASTQ on disk and how to assemble it.
pub struct Input {
    pub workload: Workload,
    /// The team the measured (W = 2) assemblies run on.
    pub team: Team,
    pub fastq: PathBuf,
    pub checkpoint: PathBuf,
    pub cfg: PipelineConfig,
    pub opts: RunOptions,
    pub references: Vec<Vec<u8>>,
    /// FNV-1a of the FASTA every iteration must produce, when another
    /// workload fixes it (the resumed run must equal the plain one).
    pub expected_fnv: Option<u64>,
}

/// Scaffolds rendered exactly as `hipmer assemble -o` writes them.
pub fn fasta_bytes(scaffolds: &[Vec<u8>]) -> Result<Vec<u8>, String> {
    let records: Vec<SeqRecord> = scaffolds
        .iter()
        .enumerate()
        .map(|(i, s)| SeqRecord::new(format!("scaffold_{i}"), s.clone()))
        .collect();
    let mut buf = Vec::new();
    hipmer_seqio::write_fasta(&mut buf, &records, 80).map_err(|e| e.to_string())?;
    Ok(buf)
}

/// Set the run up: generate the reads from `seed` and write the FASTQ,
/// build the team and the pipeline configuration, and for a resuming
/// workload write the checkpoint it starts from (`--halt-after
/// kmer-analysis`).
fn set_up(workload: Workload, seed: u64, dir: &WorkDir) -> Result<Input, String> {
    let (reads, references) = workload.inputs(seed);
    let mut fastq = Vec::new();
    hipmer_seqio::write_fastq(&mut fastq, &reads).map_err(|e| e.to_string())?;
    std::fs::write(dir.fastq(), &fastq).map_err(|e| format!("writing reads: {e}"))?;
    let input = Input {
        workload,
        team: workload::team(THREADS),
        fastq: dir.fastq(),
        checkpoint: dir.checkpoint(),
        cfg: workload.config(),
        opts: workload.options(&dir.checkpoint()),
        references,
        expected_fnv: None,
    };
    if input.opts.resume {
        let halt = RunOptions {
            checkpoint_dir: Some(input.checkpoint.clone()),
            halt_after: Some("kmer-analysis".into()),
            ..RunOptions::default()
        };
        match hipmer::run_assembly_fastq(&input.team, &input.fastq, &input.cfg, &halt) {
            Err(hipmer::PipelineError::Halted { .. }) => {}
            Err(e) => return Err(format!("writing the k-mer checkpoint: {e}")),
            Ok(_) => return Err("--halt-after kmer-analysis did not halt".into()),
        }
    }
    Ok(input)
}

/// Set the run up from scratch repeatedly (see [`SETUP_MIN_REPS`]),
/// keeping the last input, and return it with the seconds each set-up
/// took. Then, untimed, assemble the workload that fixes this one's FASTA
/// once for the expected hash.
fn prepare(workload: Workload, seed: u64, dir: &WorkDir) -> Result<(Input, Vec<f64>), String> {
    let mut set_up_s = Vec::new();
    let mut input = None;
    let start = Instant::now();
    while set_up_s.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(input.take());
        if dir.checkpoint().exists() {
            std::fs::remove_dir_all(dir.checkpoint())
                .map_err(|e| format!("removing the last checkpoint: {e}"))?;
        }
        let t0 = Instant::now();
        input = Some(set_up(workload, seed, dir)?);
        set_up_s.push(t0.elapsed().as_secs_f64());
    }
    let mut input = input.expect("at least one set-up ran");
    if let Some(plain) = workload.reference_workload() {
        let full = hipmer::run_assembly_fastq(
            &input.team,
            &input.fastq,
            &plain.config(),
            &RunOptions::default(),
        )
        .map_err(|e| format!("{} reference run: {e}", plain.name()))?;
        let fasta = fasta_bytes(&full.scaffolds.sequences)?;
        input.expected_fnv = Some(hipmer::checkpoint::fnv1a(&fasta));
    }
    Ok((input, set_up_s))
}

/// One measured assembly.
struct Measured {
    fasta: Vec<u8>,
    wall_s: f64,
    cpu_s: f64,
    heap_mb: f64,
}

/// Assemble once: FASTQ on disk to FASTA bytes in memory.
fn assemble(input: &Input) -> Result<Measured, String> {
    let baseline = heap::restart_peak();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let assembly = hipmer::run_assembly_fastq(&input.team, &input.fastq, &input.cfg, &input.opts)
        .map_err(|e| e.to_string())?;
    let fasta = fasta_bytes(&assembly.scaffolds.sequences)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let heap_mb = heap::peak_above(baseline) as f64 / 1e6;
    drop(assembly);
    Ok(Measured {
        fasta,
        wall_s,
        cpu_s,
        heap_mb,
    })
}

/// Every measured iteration of a run, and the correctness tally.
struct Iterations {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    heap_mb: Vec<f64>,
    probe_ns: Vec<f64>,
    /// Wall seconds of the untimed warm-up assembly.
    warm_up_s: f64,
    attempted: u64,
    failed: u64,
    /// The FASTA of the run's first iteration (the untimed warm-up).
    fasta: Option<Vec<u8>>,
}

impl Iterations {
    /// Count one attempt; it fails unless its FASTA hashes like the first
    /// iteration's (and like `expected_fnv`, the workload's fixed FASTA,
    /// if it has one).
    fn check(&mut self, outcome: &Result<Vec<u8>, String>, expected_fnv: Option<u64>) -> bool {
        self.attempted += 1;
        let ok = match outcome {
            Ok(fasta) => {
                let fnv = hipmer::checkpoint::fnv1a(fasta);
                if self.fasta.is_none() {
                    self.fasta = Some(fasta.clone());
                }
                let first = hipmer::checkpoint::fnv1a(self.fasta.as_deref().unwrap_or(&[]));
                if fnv != first {
                    eprintln!("iteration {} differs from the first FASTA", self.attempted);
                }
                if expected_fnv.is_some_and(|e| e != fnv) {
                    eprintln!(
                        "iteration {} differs from the expected FASTA",
                        self.attempted
                    );
                }
                fnv == first && expected_fnv.is_none_or(|e| e == fnv)
            }
            Err(e) => {
                eprintln!("iteration {} failed: {e}", self.attempted);
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// More than half of the attempts failed: measuring on is pointless.
    fn failing(&self) -> bool {
        self.failed * 2 > self.attempted
    }
}

/// An untimed warm-up, then back-to-back calls of `assemble` until
/// `seconds` have passed and at least [`MIN_ITERS`] of them passed their
/// check, with `probe` sampled before every iteration. Stops early once
/// more than half of the attempts have failed.
fn measure(
    seconds: f64,
    expected_fnv: Option<u64>,
    mut probe: impl FnMut() -> f64,
    mut assemble: impl FnMut() -> Result<Measured, String>,
) -> Iterations {
    let mut it = Iterations {
        wall_s: Vec::new(),
        cpu_s: Vec::new(),
        heap_mb: Vec::new(),
        probe_ns: Vec::new(),
        warm_up_s: 0.0,
        attempted: 0,
        failed: 0,
        fasta: None,
    };
    let warm = assemble();
    it.warm_up_s = warm.as_ref().map_or(0.0, |m| m.wall_s);
    it.check(&warm.map(|m| m.fasta), expected_fnv);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while !it.failing() && (it.wall_s.len() < MIN_ITERS || Instant::now() < deadline) {
        let probe_ns = probe();
        let outcome = assemble();
        let timings = outcome
            .as_ref()
            .ok()
            .map(|m| (m.wall_s, m.cpu_s, m.heap_mb));
        if it.check(&outcome.map(|m| m.fasta), expected_fnv) {
            let (wall_s, cpu_s, heap_mb) = timings.expect("a passing iteration has timings");
            it.probe_ns.push(probe_ns);
            it.wall_s.push(wall_s);
            it.cpu_s.push(cpu_s);
            it.heap_mb.push(heap_mb);
        }
    }
    it
}

fn median(v: &mut [f64]) -> f64 {
    quartiles(v).1
}

/// (q1, median, q3) by the exclusive method Python's
/// `statistics.quantiles(v, n=4)` uses; a single value is all three.
fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |p: f64| {
                let m = (n + 1) as f64 * p;
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(0.25), at(0.5), at(0.75))
        }
    }
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    if n < 3 {
        return 0.0;
    }
    let mx = x[..n].iter().sum::<f64>() / n as f64;
    let my = y[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for i in 0..n {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx).powi(2);
        syy += (y[i] - my).powi(2);
    }
    if sxx > 0.0 && syy > 0.0 {
        sxy / (sxx * syy).sqrt()
    } else {
        0.0
    }
}

/// Quality of one FASTA against the workload's references: the FASTA
/// bytes that were hashed are parsed back, so quality and the
/// correctness gate see the same output.
fn quality(input: &Input, fasta: &[u8]) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let scaffolds: Vec<Vec<u8>> = hipmer_seqio::parse_fasta(fasta)?
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let refs: Vec<&[u8]> = input.references.iter().map(Vec::as_slice).collect();
    let r = hipmer::evaluate(&refs, &scaffolds, workload::EVAL_K);
    let misassembled = if r.scaffolds_evaluated == 0 {
        1.0
    } else {
        r.misassembled_scaffolds as f64 / r.scaffolds_evaluated as f64
    };
    Ok(vec![
        ("genome_fraction", r.genome_fraction, "fraction"),
        ("ng50_kb", r.ng50 as f64 / 1000.0, "kb"),
        ("misassembly_free_fraction", 1.0 - misassembled, "fraction"),
    ])
}

/// Render `(name, value, unit)` triples as the result's `metrics` object.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    for (name, value, unit) in metrics {
        eprintln!("  {name:<32} {:>14.6} {unit}", value + 0.0);
    }
    eprintln!("  attempted {attempted}, failed {failed}, correct {correct}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    );
}

/// `--trace 0`: the end-to-end metrics.
fn run_end_to_end(args: &Args, input: &Input, mut set_up_s: Vec<f64>) -> Result<(), String> {
    let probe = host::MemProbe::new();
    let mut it = measure(
        args.seconds,
        input.expected_fnv,
        || probe.sample(),
        || assemble(input),
    );
    let fasta = it.fasta.clone().ok_or("no iteration produced a FASTA")?;
    let (q1, assemble_s, q3) = quartiles(&mut it.wall_s.clone());
    let corr = pearson(&it.probe_ns, &it.wall_s);
    let (p_lo, p_med, p_hi) = quartiles(&mut it.probe_ns.clone());
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"threads\": {THREADS}, \
         \"ranks\": {}, \"ranks_per_node\": {}, \"host_parallelism\": {}, \
         \"iterations\": {}, \"assemble_s_quartiles\": [{q1:?}, {assemble_s:?}, {q3:?}], \
         \"assemble_s_all\": {:?}, \"probe_ns_per_step_quartiles\": [{p_lo:?}, {p_med:?}, {p_hi:?}], \
         \"probe_vs_assemble_correlation\": {corr:?}, \"set_up_s\": {set_up_s:?}, \
         \"warm_up_s\": {:?}, \"fasta_fnv\": \"{:016x}\"}}}}",
        args.workload.name(),
        args.seed,
        workload::RANKS,
        workload::RANKS_PER_NODE,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        it.wall_s.len(),
        it.wall_s,
        it.warm_up_s,
        hipmer::checkpoint::fnv1a(&fasta),
    );
    let mut metrics = vec![
        ("setup_s", median(&mut set_up_s), "s"),
        ("assemble_s", assemble_s, "s"),
        ("cpu_s", median(&mut it.cpu_s), "s"),
        ("peak_heap_mb", median(&mut it.heap_mb), "MB"),
    ];
    metrics.extend(quality(input, &fasta)?);
    print_result(it.failed == 0, it.attempted, it.failed, &metrics);
    Ok(())
}

/// `--trace 1`: untraced iterations for the reference FASTA and the
/// untraced median, then traced assemblies at W = 1 (twice, for the
/// determinism check) and W = 2.
fn run_traced(args: &Args, input: &Input) -> Result<(), String> {
    let probe = host::MemProbe::new();
    let mut it = measure(
        args.seconds,
        input.expected_fnv,
        || probe.sample(),
        || assemble(input),
    );
    let fasta = it.fasta.clone().ok_or("no iteration produced a FASTA")?;
    let untraced_s = median(&mut it.wall_s);

    hipmer_pgas::metrics::enable();
    let mut tracer = layers::Tracer::new();
    let mut traced = Vec::new();
    for (id, threads) in [1usize, 1, THREADS].into_iter().enumerate() {
        let t0 = Instant::now();
        let outcome = layers::traced_assembly(threads, input, &mut tracer, id as u32);
        let outer_s = t0.elapsed().as_secs_f64();
        let fasta_outcome = outcome
            .as_ref()
            .map(|r| r.fasta.clone())
            .map_err(Clone::clone);
        if !it.check(&fasta_outcome, input.expected_fnv) {
            eprintln!("traced assembly at W = {threads} differs from the untraced FASTA");
        }
        traced.push((outcome?, outer_s));
    }
    hipmer_pgas::metrics::disable();

    // The ledger of each traced assembly: layer-call spans disjoint and
    // inside the assembly span, which an outer timer brackets.
    let mut layer_sum = 0.0;
    for (id, (run, outer_s)) in traced.iter().enumerate() {
        it.attempted += 1;
        match tracer.ledger(id as u32) {
            Ok((root_s, sum_s)) if root_s <= *outer_s => layer_sum = sum_s,
            Ok((root_s, _)) => {
                it.failed += 1;
                eprintln!(
                    "assembly {id} (W = {}): span {root_s} s exceeds its outer timer {outer_s} s",
                    run.threads
                );
            }
            Err(e) => {
                it.failed += 1;
                eprintln!("assembly {id} (W = {}): {e}", run.threads);
            }
        }
    }
    let (w1, w1_again, w2) = (&traced[0].0, &traced[1].0, &traced[2].0);

    // The benchmark's own determinism check: W = 1 counts repeat exactly.
    it.attempted += 1;
    let (a, b) = (w1.counts(), w1_again.counts());
    let diffs: Vec<&String> = a
        .keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .collect();
    if !diffs.is_empty() {
        it.failed += 1;
        eprintln!("W = 1 counts differ between two traced runs: {diffs:?}");
    }
    let c2 = w2.counts();
    let w2_differing = a.keys().filter(|k| a.get(*k) != c2.get(*k)).count();

    let metrics = layers::layer_metrics(w1, w2, untraced_s);

    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let spans_path = out_dir.join(format!(
        "{}-seed{}-spans.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, tracer.to_json()).map_err(|e| e.to_string())?;
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"threads\": [1, {THREADS}], \
         \"host_parallelism\": {}, \"untraced_iterations\": {}, \"untraced_s\": {untraced_s:?}, \
         \"traced_elapsed_s\": {:?}, \"layer_sum_s\": {layer_sum:?}, \
         \"counts\": \"W=1: {} of {} counts differ between two traced runs\", \
         \"w2_counts\": \"schedule-dependent: {w2_differing} of {} differ from W=1\", \
         \"fasta_fnv\": \"{:016x}\", \"spans\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        it.wall_s.len(),
        w2.elapsed_s,
        diffs.len(),
        a.len(),
        a.len(),
        hipmer::checkpoint::fnv1a(&fasta),
        spans_path.display(),
    );
    print_result(it.failed == 0, it.attempted, it.failed, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hipmer-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = WorkDir::create(args.workload, args.seed)
        .map_err(|e| format!("creating the work directory: {e}"))
        .and_then(|dir| {
            let (input, set_up_s) = prepare(args.workload, args.seed, &dir)?;
            if args.trace {
                run_traced(&args, &input)
            } else {
                run_end_to_end(&args, &input, set_up_s)
            }
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(fasta: &[u8]) -> Result<Measured, String> {
        Ok(Measured {
            fasta: fasta.to_vec(),
            wall_s: 1.0,
            cpu_s: 2.0,
            heap_mb: 3.0,
        })
    }

    #[test]
    fn passing_iterations_are_timed() {
        let it = measure(0.0, None, || 0.0, || fake(b">s\nACGT\n"));
        assert_eq!((it.attempted, it.failed), (MIN_ITERS as u64 + 1, 0));
        assert_eq!(it.wall_s, vec![1.0; MIN_ITERS]);
    }

    #[test]
    fn a_fasta_unlike_the_first_is_counted_and_ends_the_run() {
        let mut n = 0;
        let it = measure(
            0.0,
            None,
            || 0.0,
            || {
                n += 1;
                fake(if n == 1 { b">s\nACGT\n" } else { b">s\nACGA\n" })
            },
        );
        assert_eq!((it.attempted, it.failed), (3, 2));
        assert!(it.wall_s.is_empty());
    }

    #[test]
    fn a_fasta_unlike_the_expected_one_fails_the_warm_up() {
        let it = measure(0.0, Some(0), || 0.0, || fake(b">s\nACGT\n"));
        assert_eq!((it.attempted, it.failed), (1, 1));
        assert!(it.fasta.is_some());
    }

    #[test]
    fn errors_are_counted_and_end_the_run() {
        let it = measure(0.0, None, || 0.0, || Err("boom".to_string()));
        assert_eq!((it.attempted, it.failed), (1, 1));
        assert!(it.fasta.is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
    }
}
