//! Criterion microbenchmarks of the single-node kernels: real wall-clock
//! numbers for the primitives the cost model abstracts (packed k-mer ops,
//! hashing, Bloom/Misra–Gries streaming, the Smith–Waterman extension,
//! and distributed-hash-table operations).
//!
//! Besides the plain criterion benches, the `before_after` target measures
//! every optimized kernel of the hot-kernel performance pass against the
//! in-tree reference implementation it replaced (which the differential
//! property tests pin it result-identical to) and writes the ns/op pairs
//! to `BENCH_kernels.json` — the perf baseline every future PR is compared
//! against (CI fails on >25% regression). `HIPMER_BENCH_FAST=1` shortens
//! the sampling for CI.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hipmer_align::{
    banded_sw_reference, banded_sw_with, ungapped_matches, ungapped_matches_reference, SwParams,
    SwWorkspace,
};
use hipmer_dna::{mix128, Kmer, KmerCodec};
use hipmer_pgas::{json::Value, DistHashMap, RankCtx, Team, Topology, DEFAULT_MINIMIZER_LEN};
use hipmer_seqio::fastq::parse_fastq_reference;
use hipmer_seqio::{parse_fastq, write_fastq, SeqRecord};
use hipmer_sketch::{BloomFilter, HyperLogLog, MisraGries};
use std::time::{Duration, Instant};

fn lcg_seq(len: usize, mut x: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            b"ACGT"[(x >> 60) as usize % 4]
        })
        .collect()
}

// ---------------------------------------------------------------------
// Before/after measurement of the optimized kernels vs their references.
// ---------------------------------------------------------------------

/// Best-of-samples ns per call of `f` (min is robust against scheduler
/// noise, which is what a regression gate wants).
fn measure_ns<T>(f: &mut dyn FnMut() -> T) -> f64 {
    let (warm, samples, budget) = if hipmer_bench::fast() {
        (Duration::from_millis(30), 3usize, Duration::from_millis(90))
    } else {
        (
            Duration::from_millis(300),
            10usize,
            Duration::from_millis(1500),
        )
    };
    let warm_start = Instant::now();
    let mut batch = 1u64;
    let mut per = loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let t = start.elapsed();
        if warm_start.elapsed() >= warm {
            break t.as_secs_f64() / batch as f64;
        }
        if t < Duration::from_millis(1) {
            batch = batch.saturating_mul(2);
        }
    };
    if per <= 0.0 {
        per = 1e-9;
    }
    let iters = ((budget.as_secs_f64() / samples as f64 / per).ceil() as u64).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best * 1e9
}

struct Pair {
    name: &'static str,
    unit: &'static str,
    before_ns: f64,
    after_ns: f64,
}

fn run_pair<T: PartialEq + std::fmt::Debug>(
    name: &'static str,
    unit: &'static str,
    mut before: impl FnMut() -> T,
    mut after: impl FnMut() -> T,
) -> Pair {
    assert_eq!(
        before(),
        after(),
        "{name}: optimized kernel diverged from reference"
    );
    let before_ns = measure_ns(&mut before);
    let after_ns = measure_ns(&mut after);
    println!(
        "kernel {name:<28} before {before_ns:>12.1} ns/{unit}, after {after_ns:>12.1} ns/{unit}, speedup {:>5.2}x",
        before_ns / after_ns
    );
    Pair {
        name,
        unit,
        before_ns,
        after_ns,
    }
}

fn fastq_corpus(records: usize) -> Vec<u8> {
    let recs: Vec<SeqRecord> = (0..records)
        .map(|i| {
            let len = 80 + (i * 17) % 70;
            SeqRecord::with_uniform_quality(
                format!("read{i}/1 lib=A pos={}", i * 31),
                lcg_seq(len, i as u64 + 7),
                35,
            )
        })
        .collect();
    let mut buf = Vec::new();
    write_fastq(&mut buf, &recs).unwrap();
    buf
}

fn bench_before_after(_c: &mut Criterion) {
    // Fast mode shrinks only the sampling windows (see `measure_ns`), not
    // the inputs: CI compares quick-mode speedups against the checked-in
    // full-mode baseline, so the per-iteration work must be identical.
    let fast = hipmer_bench::fast();
    let mut pairs = Vec::new();

    // Banded Smith–Waterman, 200 bp read-vs-contig with two substitutions
    // and one indel: the general banded path (dense matrix vs two rolling
    // rows + banded traceback).
    {
        let a = lcg_seq(200, 3);
        let mut b = a.clone();
        b[50] = match b[50] {
            b'A' => b'C',
            _ => b'A',
        };
        b[150] = match b[150] {
            b'G' => b'T',
            _ => b'G',
        };
        b.remove(100);
        let p = SwParams::default();
        let mut ws = SwWorkspace::new();
        pairs.push(run_pair(
            "banded_sw_200bp",
            "call",
            || banded_sw_reference(&a, &b, &p),
            || banded_sw_with(&mut ws, &a, &b, &p),
        ));

        // Perfect overlap: the bit-parallel diagonal fast path.
        let mut ws = SwWorkspace::new();
        pairs.push(run_pair(
            "banded_sw_200bp_perfect",
            "call",
            || banded_sw_reference(&a, &a, &p),
            || banded_sw_with(&mut ws, &a, &a, &p),
        ));
    }

    // Canonical k-mer iteration over 100 kb: full reverse complement per
    // window vs the rolling canonical orientation.
    {
        let seq = lcg_seq(100_000, 1);
        let codec = KmerCodec::new(31);
        pairs.push(run_pair(
            "kmer_canonical_iter",
            "seq",
            || {
                let mut acc = 0u64;
                for (_, km) in codec.kmers(&seq) {
                    acc ^= codec.canonical(km).bits() as u64;
                }
                acc
            },
            || {
                let mut acc = 0u64;
                for (_, _, canon) in codec.canonical_kmers(&seq) {
                    acc ^= canon.bits() as u64;
                }
                acc
            },
        ));
    }

    // FASTQ parse of an in-memory corpus: byte-loop line scan vs the SWAR
    // scanner.
    {
        let buf = fastq_corpus(2_000);
        pairs.push(run_pair(
            "fastq_parse",
            "buffer",
            || parse_fastq_reference(&buf).unwrap().1,
            || parse_fastq(&buf).unwrap().1,
        ));
    }

    // Ungapped extension over 200 bp: byte loop vs SWAR mismatch count.
    {
        let a = lcg_seq(200, 11);
        let mut b = a.clone();
        b[33] = match b[33] {
            b'A' => b'G',
            _ => b'A',
        };
        pairs.push(run_pair(
            "ungapped_matches_200bp",
            "call",
            || ungapped_matches_reference(&a, &b),
            || ungapped_matches(&a, &b),
        ));
    }

    // Minimizer hash of every k = 55 k-mer of a 1 kb sequence at the
    // placement default m: per-window u128 extract + reverse complement vs
    // the scalar rolled over the k-mer's bases. This is the per-key cost of
    // every random-access owner() under minimizer placement.
    {
        let seq = lcg_seq(1_000, 5);
        let codec = KmerCodec::new(55);
        let m = DEFAULT_MINIMIZER_LEN;
        let kmers: Vec<Kmer> = codec.kmers(&seq).map(|(_, km)| km).collect();
        pairs.push(run_pair(
            "minimizer_hash_k55",
            "seq",
            || {
                kmers
                    .iter()
                    .fold(0u64, |acc, &km| acc ^ codec.minimizer_hash_reference(km, m))
            },
            || {
                kmers
                    .iter()
                    .fold(0u64, |acc, &km| acc ^ codec.minimizer_hash(km, m))
            },
        ));
    }

    // Bloom filter: 10k inserts (a third of them repeats) into a fresh
    // filter at design load, collecting each key's probes into a Vec vs
    // stepping them in place.
    {
        let keys: Vec<u64> = (0..10_000u64)
            .map(|i| hipmer_dna::mix64(i % 6_700))
            .collect();
        let fill = |insert: fn(&mut BloomFilter, u64) -> bool| {
            let mut f = BloomFilter::with_rate(6_700, 0.01);
            keys.iter().filter(|&&h| insert(&mut f, h)).count()
        };
        pairs.push(run_pair(
            "bloom_insert",
            "batch",
            || fill(BloomFilter::insert_reference),
            || fill(BloomFilter::insert),
        ));
    }

    // BENCH_kernels.json: machine-readable before/after baseline. CWD of a
    // cargo bench target is the package root, so this lands at
    // crates/bench/BENCH_kernels.json (checked in).
    let mut doc = Value::obj();
    doc.set("schema_version", 1u64);
    doc.set("bench", "kernels");
    doc.set("fast_mode", fast);
    let entries: Vec<Value> = pairs
        .iter()
        .map(|p| {
            let mut e = Value::obj();
            e.set("name", p.name);
            e.set("unit", p.unit);
            e.set("before_ns_per_op", p.before_ns);
            e.set("after_ns_per_op", p.after_ns);
            e.set("speedup", p.before_ns / p.after_ns);
            e
        })
        .collect();
    doc.set("kernels", entries);
    std::fs::write("BENCH_kernels.json", doc.to_json()).unwrap();
    println!("wrote BENCH_kernels.json ({} kernels)", pairs.len());
}

// ---------------------------------------------------------------------
// Plain criterion benches of the production kernels.
// ---------------------------------------------------------------------

fn bench_kmers(c: &mut Criterion) {
    let codec = KmerCodec::new(31);
    let seq = lcg_seq(100_000, 1);
    let mut g = c.benchmark_group("kmer");
    g.throughput(Throughput::Elements((seq.len() - 30) as u64));
    g.bench_function("pack_iterate_100k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (_, km) in codec.kmers(&seq) {
                acc ^= km.bits() as u64;
            }
            black_box(acc)
        })
    });
    g.bench_function("canonicalize_100k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (_, _, canon) in codec.canonical_kmers(&seq) {
                acc ^= canon.bits() as u64;
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_hash_and_sketches(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("mix128_100k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..100_000u128 {
                acc ^= mix128(black_box(i));
            }
            black_box(acc)
        })
    });
    g.bench_function("bloom_insert_100k", |b| {
        b.iter(|| {
            let mut f = BloomFilter::with_rate(100_000, 0.05);
            for i in 0..100_000u64 {
                f.insert(hipmer_dna::mix64(i));
            }
            black_box(f.inserted())
        })
    });
    g.bench_function("hll_observe_100k", |b| {
        b.iter(|| {
            let mut h = HyperLogLog::new(14);
            for i in 0..100_000u64 {
                h.observe(hipmer_dna::mix64(i));
            }
            black_box(h.estimate())
        })
    });
    g.bench_function("misra_gries_100k_theta1k", |b| {
        b.iter(|| {
            let mut mg: MisraGries<u64> = MisraGries::new(1_000);
            for i in 0..100_000u64 {
                mg.observe(i % 7_919);
            }
            black_box(mg.stream_len())
        })
    });
    g.finish();
}

fn bench_sw(c: &mut Criterion) {
    let a = lcg_seq(200, 3);
    let mut b2 = a.clone();
    b2[50] = b'A';
    b2[150] = b'C';
    let mut ws = SwWorkspace::new();
    let mut g = c.benchmark_group("align");
    g.bench_function("banded_sw_200bp", |b| {
        b.iter(|| black_box(banded_sw_with(&mut ws, &a, &b2, &SwParams::default())))
    });
    g.finish();
}

fn bench_dht(c: &mut Criterion) {
    let topo = Topology::new(16, 8);
    let _team = Team::new(topo);
    let mut g = c.benchmark_group("dht");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("update_10k", |b| {
        b.iter(|| {
            let dht: DistHashMap<Kmer, u32> = DistHashMap::new(topo);
            let mut ctx = RankCtx::new(0, topo);
            for i in 0..10_000u128 {
                dht.update(&mut ctx, Kmer(i), || 0, |v| *v += 1);
            }
            black_box(dht.len())
        })
    });
    g.bench_function("get_10k", |b| {
        let dht: DistHashMap<Kmer, u32> = DistHashMap::new(topo);
        let mut ctx = RankCtx::new(0, topo);
        for i in 0..10_000u128 {
            dht.insert(&mut ctx, Kmer(i), i as u32);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u128 {
                acc += dht.get(&mut ctx, &Kmer(i)).unwrap_or(0) as u64;
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn config() -> Criterion {
    let (samples, time, warmup) = if hipmer_bench::fast() {
        (3, Duration::from_millis(200), Duration::from_millis(50))
    } else {
        (10, Duration::from_secs(2), Duration::from_millis(500))
    };
    Criterion::default()
        .sample_size(samples)
        .measurement_time(time)
        .warm_up_time(warmup)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_before_after, bench_kmers, bench_hash_and_sketches, bench_sw, bench_dht
}
criterion_main!(benches);
