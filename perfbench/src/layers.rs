//! The traced run: one assembly re-driven through the public stage
//! functions, with a span around every call into a layer, the
//! `PhaseReport`s each call returns, and the metrics-registry counters
//! each call moved.
//!
//! The stage sequence mirrors `hipmer::run_assembly_fastq` (multi-k rounds
//! included, pseudo-reads rebuilt the same way). The traced FASTA must
//! equal the untraced one, which is what keeps this copy of the sequence
//! honest.

use crate::workload::{self, Workload};
use crate::{fasta_bytes, Input};
use hipmer::checkpoint::{self, CheckpointStore, Fingerprint};
use hipmer_align::align_reads;
use hipmer_contig::{generate_contigs, ContigSet};
use hipmer_kanalysis::{analyze_kmers, KmerSpectrum};
use hipmer_pgas::metrics::{self, MetricSnapshot};
use hipmer_pgas::{CommStats, PhaseReport, Team};
use hipmer_scaffold::{prepare_contigs, scaffold_rounds};
use hipmer_seqio::{read_fastq_parallel, SeqRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer each traced call belongs to, as `layer.call`. The layer is
/// the part before the dot.
const READ: &str = "seqio.read";
const WRITE_FASTA: &str = "seqio.write_fasta";
const KANALYSIS: &str = "kanalysis.analyze_kmers";
const CONTIG: &str = "contig.generate_contigs";
const CHECKPOINT: &str = "checkpoint.load";
const PREP: &str = "scaffold.prepare_contigs";
const ALIGN: &str = "align.align_reads";
const ROUNDS: &str = "scaffold.scaffold_rounds";
const CALLS: [&str; 8] = [
    READ,
    WRITE_FASTA,
    KANALYSIS,
    CONTIG,
    CHECKPOINT,
    PREP,
    ALIGN,
    ROUNDS,
];

/// One recorded span: a call into a layer, or a grouping span (the
/// assembly, a multi-k round) that is not itself a layer.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub assembly: u32,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    assembly: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            assembly: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: String) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            assembly: self.assembly,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its seconds.
    fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Check the ledger of assembly `id` from its recorded spans: every
    /// layer-call span lies inside the assembly span and no two overlap,
    /// so no second is counted twice and the unattributed rest is never
    /// negative. Returns the assembly span's seconds and the layer-call
    /// spans' sum.
    pub fn ledger(&self, id: u32) -> Result<(f64, f64), String> {
        let spans: Vec<&Span> = self.spans.iter().filter(|s| s.assembly == id).collect();
        let root = spans
            .iter()
            .find(|s| s.name == "assembly" && s.parent.is_none())
            .ok_or_else(|| format!("assembly {id} has no root span"))?;
        let mut calls: Vec<&Span> = spans
            .iter()
            .filter(|s| CALLS.contains(&s.name.as_str()))
            .copied()
            .collect();
        calls.sort_by_key(|s| s.start_ns);
        let mut prev_end = root.start_ns;
        for s in &calls {
            if s.start_ns < prev_end || s.end_ns > root.end_ns {
                return Err(format!(
                    "span {} [{}, {}] ns overlaps another call or leaves the assembly",
                    s.name, s.start_ns, s.end_ns
                ));
            }
            prev_end = s.end_ns;
        }
        let ns = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
        Ok((ns(root), calls.iter().map(|s| ns(s)).sum()))
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"assembly\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.assembly
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Everything one traced assembly recorded.
pub struct LayerRun {
    pub threads: usize,
    pub fasta: Vec<u8>,
    /// Seconds of the whole traced assembly.
    pub elapsed_s: f64,
    /// Seconds spent inside each call kind, summed over its calls.
    calls_s: BTreeMap<&'static str, f64>,
    /// Every phase report, tagged with the call that returned it.
    phases: Vec<(&'static str, PhaseReport)>,
    /// Metrics-registry movement per call kind: counters by value,
    /// histograms by their sum.
    registry: BTreeMap<(&'static str, String), u64>,
    read_bytes: u64,
    checkpoint_bytes: u64,
    reads: u64,
    distinct_kmers: u64,
    contigs: u64,
    alignments: u64,
    gaps_closed: u64,
    gaps_total: u64,
}

/// Counters and histogram sums of the registry. Gauges and time
/// histograms (`*nanos*`) are left out: only counts belong here.
fn registry_counts() -> BTreeMap<String, u64> {
    metrics::snapshot()
        .into_iter()
        .filter_map(|m| match m {
            MetricSnapshot::Counter(name, v) => Some((name, v)),
            MetricSnapshot::Histogram(h) if !h.name.contains("nanos") => Some((h.name, h.sum)),
            _ => None,
        })
        .collect()
}

impl LayerRun {
    fn new(threads: usize) -> LayerRun {
        LayerRun {
            threads,
            fasta: Vec::new(),
            elapsed_s: 0.0,
            calls_s: BTreeMap::new(),
            phases: Vec::new(),
            registry: BTreeMap::new(),
            read_bytes: 0,
            checkpoint_bytes: 0,
            reads: 0,
            distinct_kmers: 0,
            contigs: 0,
            alignments: 0,
            gaps_closed: 0,
            gaps_total: 0,
        }
    }

    /// Run one call into a layer inside a span, keeping its phase reports
    /// and the registry counters it moved.
    fn call<T>(
        &mut self,
        tracer: &mut Tracer,
        call: &'static str,
        f: impl FnOnce() -> (T, Vec<PhaseReport>),
    ) -> T {
        let before = registry_counts();
        let span = tracer.open(call.to_string());
        let (out, phases) = f();
        let secs = tracer.close(span);
        let after = registry_counts();
        *self.calls_s.entry(call).or_default() += secs;
        self.phases.extend(phases.into_iter().map(|p| (call, p)));
        for (name, v) in after {
            let delta = v - before.get(&name).copied().unwrap_or(0);
            if delta != 0 {
                *self.registry.entry((call, name)).or_default() += delta;
            }
        }
        out
    }

    /// Seconds spent in every call of `layer`.
    fn layer_s(&self, layer: &str) -> f64 {
        self.calls_s
            .iter()
            .filter(|(call, _)| layer_of(call) == layer)
            .map(|(_, s)| s)
            .sum()
    }

    fn call_s(&self, call: &str) -> f64 {
        self.calls_s.get(call).copied().unwrap_or(0.0)
    }

    /// Σ layer-call seconds: the attributed part of `elapsed_s`.
    pub fn attributed_s(&self) -> f64 {
        self.calls_s.values().sum()
    }

    /// Rank-seconds (Σ per-rank `exec_nanos`) of phases whose name starts
    /// with `prefix`.
    fn rank_s(&self, prefix: &str) -> f64 {
        self.phases
            .iter()
            .filter(|(_, p)| p.name.starts_with(prefix))
            .flat_map(|(_, p)| &p.stats)
            .map(|s| s.exec_nanos as f64 * 1e-9)
            .sum()
    }

    /// Counters of every phase `layer`'s calls returned, merged.
    fn totals(&self, layer: &str) -> CommStats {
        let mut acc = CommStats::new();
        for (call, p) in &self.phases {
            if layer.is_empty() || layer_of(call) == layer {
                acc.merge(&p.totals());
            }
        }
        acc
    }

    fn phase_totals(&self, prefix: &str) -> CommStats {
        let mut acc = CommStats::new();
        for (_, p) in self
            .phases
            .iter()
            .filter(|(_, p)| p.name.starts_with(prefix))
        {
            acc.merge(&p.totals());
        }
        acc
    }

    /// Registry movement of `name` during `layer`'s calls (every call
    /// when `layer` is empty).
    fn registry(&self, layer: &str, name: &str) -> u64 {
        self.registry
            .iter()
            .filter(|((call, n), _)| n == name && (layer.is_empty() || layer_of(call) == layer))
            .map(|(_, v)| v)
            .sum()
    }

    /// Every count this run recorded, by name: what two W = 1 runs must
    /// agree on exactly.
    pub fn counts(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let mut by_phase: BTreeMap<&str, CommStats> = BTreeMap::new();
        for (_, p) in &self.phases {
            by_phase.entry(&p.name).or_default().merge(&p.totals());
        }
        for (phase, s) in by_phase {
            for (field, v) in [
                ("compute_ops", s.compute_ops),
                ("local_ops", s.local_ops),
                ("onnode_msgs", s.onnode_msgs),
                ("offnode_msgs", s.offnode_msgs),
                ("onnode_bytes", s.onnode_bytes),
                ("offnode_bytes", s.offnode_bytes),
                ("service_ops", s.service_ops),
                ("lookup_batches", s.lookup_batches),
                ("cache_hits", s.cache_hits),
                ("cache_misses", s.cache_misses),
                ("steal_ops", s.steal_ops),
                ("barriers", s.barriers),
            ] {
                out.insert(format!("{phase}:{field}"), v);
            }
        }
        for ((call, name), v) in &self.registry {
            out.insert(format!("{call}:{name}"), *v);
        }
        for (name, v) in [
            ("reads", self.reads),
            ("distinct_kmers", self.distinct_kmers),
            ("contigs", self.contigs),
            ("alignments", self.alignments),
            ("gaps_closed", self.gaps_closed),
            ("gaps_total", self.gaps_total),
        ] {
            out.insert(name.to_string(), v);
        }
        out
    }
}

fn layer_of(call: &str) -> &str {
    call.split('.').next().unwrap_or(call)
}

/// One traced assembly of `input` at `threads` OS threads, recorded as
/// assembly `id`.
pub fn traced_assembly(
    threads: usize,
    input: &Input,
    tracer: &mut Tracer,
    id: u32,
) -> Result<LayerRun, String> {
    let team = &workload::team(threads);
    let cfg = &input.cfg;
    let topo = *team.topo();
    let mut run = LayerRun::new(threads);
    tracer.assembly = id;
    metrics::reset();
    let root = tracer.open("assembly".to_string());

    let reads: Vec<SeqRecord> = run
        .call(tracer, READ, || {
            match read_fastq_parallel(team, &input.fastq) {
                Ok((per_rank, stats)) => (
                    Ok(per_rank.into_iter().flatten().collect()),
                    vec![PhaseReport::new("io/fastq", topo, stats)],
                ),
                Err(e) => (Err(e), Vec::new()),
            }
        })
        .map_err(|e| format!("reading {}: {e}", input.fastq.display()))?;
    run.read_bytes = std::fs::metadata(&input.fastq)
        .map_err(|e| e.to_string())?
        .len();
    run.reads = reads.len() as u64;

    let scaffolds: Vec<Vec<u8>> = if let Some(ks) = cfg.multi_k_rounds() {
        // MetaHipMer rounds, as run_assembly drives them: each non-final
        // round feeds its contigs forward as doubled Q40 pseudo-reads.
        let mut round_reads: Vec<SeqRecord> = Vec::new();
        let mut last: Option<ContigSet> = None;
        for (ri, &k) in ks.iter().enumerate() {
            let round = ri + 1;
            let is_final = round == ks.len();
            let span = tracer.open(format!("round{round}"));
            let (ka_cfg, contig_cfg) = if is_final {
                (cfg.kanalysis.clone(), cfg.contig.clone())
            } else {
                cfg.round_stage_configs(k)
            };
            let input_reads: &[SeqRecord] = if round == 1 { &reads } else { &round_reads };
            let spectrum = run.call(tracer, KANALYSIS, || {
                analyze_kmers(team, input_reads, &ka_cfg)
            });
            run.distinct_kmers += spectrum.distinct() as u64;
            let contigs = run.call(tracer, CONTIG, || {
                generate_contigs(team, &spectrum, &contig_cfg)
            });
            run.contigs += contigs.len() as u64;
            if !is_final {
                let pseudo = tracer.open("pseudo-reads".to_string());
                round_reads = reads.to_vec();
                for c in &contigs.contigs {
                    let rec = SeqRecord::with_uniform_quality(
                        format!("pseudo{round}:{}", c.id),
                        c.seq.clone(),
                        40,
                    );
                    round_reads.push(rec.clone());
                    round_reads.push(rec);
                }
                tracer.close(pseudo);
            }
            tracer.close(span);
            last = Some(contigs);
        }
        let contigs = last.ok_or("multi-k mode plans at least two rounds")?;
        contigs.contigs.into_iter().map(|c| c.seq).collect()
    } else {
        let spectrum = match input.workload {
            Workload::HumanResume => {
                let fingerprint = Fingerprint {
                    k: cfg.k,
                    ranks: topo.ranks(),
                    ranks_per_node: topo.ranks_per_node(),
                    n_reads: reads.len(),
                    read_bases: reads.iter().map(|r| r.len()).sum(),
                    rounds: cfg.scaffold.rounds,
                    multi_k: cfg.multi_k.clone(),
                };
                let (spectrum, bytes) = run
                    .call(tracer, CHECKPOINT, || {
                        (load_spectrum(input, fingerprint, team), Vec::new())
                    })
                    .map_err(|e| format!("loading the k-mer checkpoint: {e}"))?;
                run.checkpoint_bytes = bytes;
                spectrum
            }
            _ => {
                let spectrum = run.call(tracer, KANALYSIS, || {
                    analyze_kmers(team, &reads, &cfg.kanalysis)
                });
                run.distinct_kmers += spectrum.distinct() as u64;
                spectrum
            }
        };
        let contigs = run.call(tracer, CONTIG, || {
            generate_contigs(team, &spectrum, &cfg.contig)
        });
        run.contigs += contigs.len() as u64;
        let prepared = run.call(tracer, PREP, || {
            prepare_contigs(team, &spectrum, &contigs, cfg.scaffold.schedule)
        });
        let alignments = run.call(tracer, ALIGN, || {
            align_reads(team, &prepared, &reads, &cfg.scaffold.align)
        });
        run.alignments = alignments.len() as u64;
        let lib_range = 0..reads.len();
        let out = run.call(tracer, ROUNDS, || {
            let mut out = scaffold_rounds(
                team,
                &spectrum,
                prepared,
                &reads,
                std::slice::from_ref(&lib_range),
                &cfg.scaffold,
                Some(alignments),
            );
            let reports = std::mem::take(&mut out.reports);
            (out, reports)
        });
        run.gaps_closed = out.gap_stats.closed() as u64;
        run.gaps_total = out.gap_stats.total() as u64;
        out.scaffolds.sequences
    };

    run.fasta = run.call(tracer, WRITE_FASTA, || {
        (fasta_bytes(&scaffolds), Vec::new())
    })?;
    run.elapsed_s = tracer.close(root);
    Ok(run)
}

/// The checkpoint layer: validate the store, load the k-mer analysis
/// artifact and decode it into the distributed spectrum.
fn load_spectrum(
    input: &Input,
    fingerprint: Fingerprint,
    team: &Team,
) -> std::io::Result<(KmerSpectrum, u64)> {
    let store = CheckpointStore::open_for_resume(&input.checkpoint, fingerprint)?;
    let (payload, bytes, _) = store.load("kmer-analysis")?;
    let spectrum = checkpoint::decode_spectrum(&payload, *team.topo(), input.cfg.partition())?;
    Ok((spectrum, bytes))
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics. Wall times and rank-seconds come from the
/// W = 2 run (the measured configuration), `*_w1_s` from the W = 1 run,
/// and counts from the W = 1 run, where they repeat exactly. The
/// contention counters only exist at W > 1 and come from the W = 2 run.
pub fn layer_metrics(w1: &LayerRun, w2: &LayerRun, untraced_s: f64) -> Vec<Metric> {
    const MB: f64 = 1e6;
    let read_s = w2.call_s(READ);
    let bloom_count =
        |r: &LayerRun| r.rank_s("kmer-analysis/bloom") + r.rank_s("kmer-analysis/count");
    let ka = w1.totals("kanalysis");
    let wire = [
        "pgas/outbox/wire_bytes",
        "pgas/agg/wire_bytes",
        "pgas/lookup/wire_bytes",
    ]
    .iter()
    .map(|n| w1.registry("kanalysis", n))
    .sum::<u64>();
    let al = w1.totals("align");
    let all1 = w1.totals("");
    let reuse = w2.registry("", "pgas/arena/reuse") as f64;
    let fresh = w2.registry("", "pgas/arena/alloc") as f64;
    let rank_s_w2 = w2.rank_s("");
    vec![
        ("seqio.read_s", read_s, "s"),
        (
            "seqio.read_mb_per_s",
            ratio(w2.read_bytes as f64 / MB, read_s),
            "MB/s",
        ),
        ("seqio.write_fasta_s", w2.call_s(WRITE_FASTA), "s"),
        ("kanalysis.elapsed_s", w2.layer_s("kanalysis"), "s"),
        ("kanalysis.elapsed_w1_s", w1.layer_s("kanalysis"), "s"),
        (
            "kanalysis.w2_slowdown",
            ratio(bloom_count(w2), bloom_count(w1)),
            "x",
        ),
        (
            "kanalysis.sketch_rank_s",
            w2.rank_s("kmer-analysis/sketch"),
            "s",
        ),
        (
            "kanalysis.bloom_rank_s",
            w2.rank_s("kmer-analysis/bloom"),
            "s",
        ),
        (
            "kanalysis.count_rank_s",
            w2.rank_s("kmer-analysis/count"),
            "s",
        ),
        (
            "kanalysis.finalize_rank_s",
            w2.rank_s("kmer-analysis/finalize"),
            "s",
        ),
        ("kanalysis.remote_msgs", ka.remote_msgs() as f64, "count"),
        ("kanalysis.wire_mb", wire as f64 / MB, "MB"),
        ("kanalysis.service_ops", ka.service_ops as f64, "count"),
        (
            "kanalysis.distinct_kmers",
            w1.distinct_kmers as f64,
            "count",
        ),
        ("contig.elapsed_s", w2.layer_s("contig"), "s"),
        ("contig.elapsed_w1_s", w1.layer_s("contig"), "s"),
        (
            "contig.graph_build_rank_s",
            w2.rank_s("contig/graph-build"),
            "s",
        ),
        (
            "contig.traversal_rank_s",
            w2.rank_s("contig/traversal"),
            "s",
        ),
        (
            "contig.traversal_offnode_msgs",
            w1.phase_totals("contig/traversal").offnode_msgs as f64,
            "count",
        ),
        (
            "contig.steal_ops",
            w1.totals("contig").steal_ops as f64,
            "count",
        ),
        ("contig.contigs", w1.contigs as f64, "count"),
        ("align.elapsed_s", w2.layer_s("align"), "s"),
        ("align.elapsed_w1_s", w1.layer_s("align"), "s"),
        (
            "align.index_rank_s",
            w2.rank_s("scaffold/meraligner-index"),
            "s",
        ),
        (
            "align.align_rank_s",
            w2.rank_s("scaffold/meraligner-align"),
            "s",
        ),
        (
            "align.cache_hit_ratio",
            ratio(
                al.cache_hits as f64,
                (al.cache_hits + al.cache_misses) as f64,
            ),
            "fraction",
        ),
        ("align.lookup_batches", al.lookup_batches as f64, "count"),
        ("align.remote_msgs", al.remote_msgs() as f64, "count"),
        (
            "align.alignments_per_read",
            ratio(w1.alignments as f64, w1.reads as f64),
            "ratio",
        ),
        ("scaffold.prep_s", w2.call_s(PREP), "s"),
        ("scaffold.rounds_s", w2.call_s(ROUNDS), "s"),
        (
            "scaffold.gapclose_rank_s",
            w2.rank_s("scaffold/gap-closing"),
            "s",
        ),
        (
            "scaffold.gaps_closed_ratio",
            ratio(w1.gaps_closed as f64, w1.gaps_total as f64),
            "fraction",
        ),
        ("checkpoint.load_s", w2.layer_s("checkpoint"), "s"),
        ("checkpoint.load_mb", w1.checkpoint_bytes as f64 / MB, "MB"),
        ("pgas.rank_s", rank_s_w2, "s"),
        (
            "pgas.thread_utilization",
            ratio(rank_s_w2, w2.threads as f64 * w2.elapsed_s),
            "fraction",
        ),
        (
            "pgas.lock_contention",
            w2.registry("", "pgas/dht/lock_contention") as f64,
            "count",
        ),
        (
            "pgas.deferred_sends",
            w2.registry("", "pgas/comp/deferred_sends") as f64,
            "count",
        ),
        (
            "pgas.arena_reuse_ratio",
            ratio(reuse, reuse + fresh),
            "fraction",
        ),
        ("pgas.barriers", all1.barriers as f64, "count"),
        (
            "pgas.offnode_fraction",
            all1.offnode_fraction().unwrap_or(0.0),
            "fraction",
        ),
        ("pipeline.elapsed_s", w2.elapsed_s, "s"),
        ("pipeline.elapsed_w1_s", w1.elapsed_s, "s"),
        (
            "pipeline.unattributed_s",
            w2.elapsed_s - w2.attributed_s(),
            "s",
        ),
        ("pipeline.trace_overhead_s", w2.elapsed_s - untraced_s, "s"),
    ]
}
