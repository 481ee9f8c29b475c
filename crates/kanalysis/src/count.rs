//! Passes 2–3: Bloom-filtered table construction and exact counting with
//! extension votes, plus the heavy-hitter local-accumulation path.

use crate::config::KmerAnalysisConfig;
use crate::pass1::{sketch_reads, SketchResult};
use crate::spectrum::{KmerEntry, KmerSpectrum};
use hipmer_dna::{ExtVotes, Kmer, KmerCodec, KmerHashMap};
use hipmer_pgas::{DistHashMap, Outbox, Partitioner, PhaseReport, Team};
use hipmer_seqio::SeqRecord;
use hipmer_sketch::BloomFilter;
use parking_lot::Mutex;

/// The left/right extension bases of one k-mer occurrence, re-oriented to
/// the k-mer's canonical form. `left`/`right` are 2-bit codes of the
/// neighboring bases that passed the quality filter.
fn canonical_votes(
    km: Kmer,
    canon: Kmer,
    left: Option<u8>,
    right: Option<u8>,
) -> (Option<u8>, Option<u8>) {
    if km == canon {
        (left, right)
    } else {
        // Occurrence is the reverse complement of the canonical form: sides
        // swap and bases complement.
        (right.map(|c| 3 - c), left.map(|c| 3 - c))
    }
}

/// Visit every k-mer occurrence of a read with its quality-filtered
/// neighbor bases (already re-oriented to canonical form).
///
/// Under minimizer placement the occurrence also carries the minimizer hash
/// rolled along the read (amortized O(1) per k-mer), which [`owner_of`]
/// turns into the owner without rescanning the k-mer's windows. The
/// iterator is picked from the pass's partitioner, once per read.
fn for_each_occurrence<F>(
    codec: &KmerCodec,
    cfg: &KmerAnalysisConfig,
    part: Partitioner,
    read: &SeqRecord,
    mut f: F,
) where
    F: FnMut(Kmer, Option<u64>, Option<u8>, Option<u8>),
{
    let k = codec.k();
    let neighbor = |i: usize| match read.phred(i) {
        Some(q) if q >= cfg.min_qual => hipmer_dna::encode_base(read.seq[i]),
        None => hipmer_dna::encode_base(read.seq[i]),
        _ => None,
    };
    let mut visit = |off: usize, km: Kmer, canon: Kmer, rolled: Option<u64>| {
        let left = if off > 0 { neighbor(off - 1) } else { None };
        let right = if off + k < read.seq.len() {
            neighbor(off + k)
        } else {
            None
        };
        let (l, r) = canonical_votes(km, canon, left, right);
        f(canon, rolled, l, r);
    };
    match part {
        Partitioner::Uniform => {
            for (off, km, canon) in codec.canonical_kmers(&read.seq) {
                visit(off, km, canon, None);
            }
        }
        Partitioner::Minimizer { m, .. } => {
            for (off, km, canon, h) in codec.minimizer_kmers(&read.seq, m) {
                visit(off, km, canon, Some(h));
            }
        }
    }
}

/// The owner of one occurrence: from the minimizer hash rolled along the
/// read when there is one, else from the canonical k-mer itself.
#[inline]
fn owner_of<V: Send>(table: &DistHashMap<Kmer, V>, canon: &Kmer, rolled: Option<u64>) -> usize {
    let dest = match rolled {
        Some(h) => table.owner_of_hash(h),
        None => table.owner(canon),
    };
    debug_assert_eq!(dest, table.owner(canon), "rolled owner disagrees");
    dest
}

/// Pass 2: route every (non-heavy) k-mer occurrence to its owner, which
/// inserts it into its Bloom filter and creates a table entry the second
/// time it sees the key.
fn bloom_pass(
    team: &Team,
    reads: &[SeqRecord],
    cfg: &KmerAnalysisConfig,
    sketch: &SketchResult,
    part: Partitioner,
    table: &DistHashMap<Kmer, ExtVotes>,
) -> PhaseReport {
    let codec = KmerCodec::new(cfg.k);
    let ranks = team.ranks();
    // Per-owner Bloom filters sized from the cardinality estimate.
    let per_rank_items = ((sketch.cardinality / ranks as f64).ceil() as usize).max(1024);
    let blooms: Vec<Mutex<BloomFilter>> = (0..ranks)
        .map(|_| Mutex::new(BloomFilter::with_rate(per_rank_items, cfg.bloom_fp_rate)))
        .collect();

    let (_, mut stats) = team.run_named("kmer-analysis/bloom", |ctx| {
        // Wire bytes: the packed 2k bits of the k-mer, not the in-memory
        // 16-byte `u128`.
        let mut outbox: Outbox<Kmer> =
            Outbox::new(*ctx.topo(), cfg.agg_batch).with_item_bytes(codec.wire_bytes());
        // Blocking service path: waits for the owner's Bloom filter, then
        // upserts the repeated keys. Used by the completion drain.
        let mut apply = |dest: usize, kmers: Vec<Kmer>| {
            let mut bloom = blooms[dest].lock();
            let mut repeated: Vec<(Kmer, ExtVotes)> = Vec::new();
            for km in kmers {
                if bloom.insert(hipmer_dna::mix128(km.bits())) {
                    repeated.push((km, ExtVotes::new()));
                }
            }
            drop(bloom);
            if !repeated.is_empty() {
                // Keep the existing entry if the key already landed.
                table.merge_batch(dest, repeated, |_existing, _new| {});
            }
        };
        // Non-blocking attempt: if the owner's Bloom filter is busy, park
        // the batch untouched and keep producing. The Bloom membership
        // test is stateful (second sighting creates the entry), so a batch
        // either fully lands here or is retried whole at the drain.
        let mut try_apply = |dest: usize, mut kmers: Vec<Kmer>| {
            let Some(mut bloom) = blooms[dest].try_lock() else {
                return Err(kmers);
            };
            let mut repeated: Vec<(Kmer, ExtVotes)> = Vec::new();
            for km in kmers.drain(..) {
                if bloom.insert(hipmer_dna::mix128(km.bits())) {
                    repeated.push((km, ExtVotes::new()));
                }
            }
            drop(bloom);
            if !repeated.is_empty() {
                table.merge_batch(dest, repeated, |_existing, _new| {});
            }
            Ok(kmers)
        };
        let chunk = ctx.chunk(reads.len());
        for read in &reads[chunk] {
            for_each_occurrence(&codec, cfg, part, read, |canon, rolled, _, _| {
                ctx.stats.compute(1);
                if !sketch.heavy_hitters.contains(&canon) {
                    let dest = owner_of(table, &canon, rolled);
                    outbox.push_async(ctx, dest, canon, &mut try_apply);
                }
            });
        }
        // Drains parked batches and hard-asserts nothing is left pending.
        outbox.finish_async(ctx, &mut try_apply, &mut apply);
    });
    table.drain_service_into(&mut stats);
    PhaseReport::new("kmer-analysis/bloom", *team.topo(), stats)
}

/// Pass 3: exact counting with extension votes. Heavy hitters accumulate
/// locally and reduce at the end; everything else ships via aggregating
/// stores and merges into *existing* entries only (Bloom semantics).
fn count_pass(
    team: &Team,
    reads: &[SeqRecord],
    cfg: &KmerAnalysisConfig,
    sketch: &SketchResult,
    part: Partitioner,
    table: &DistHashMap<Kmer, ExtVotes>,
) -> PhaseReport {
    let codec = KmerCodec::new(cfg.k);
    let merge = |a: &mut ExtVotes, b: ExtVotes| a.merge(&b);

    // Wire bytes of one (k-mer, votes) record: packed k-mer bits plus the
    // nine vote counters. The in-memory tuple is padded to the `u128`
    // alignment, which must not be billed as network traffic.
    let entry_wire_bytes = codec.wire_bytes() + ExtVotes::WIRE_BYTES;

    let (_, mut stats) = team.run_named("kmer-analysis/count", |ctx| {
        let mut outbox: Outbox<(Kmer, ExtVotes)> =
            Outbox::new(*ctx.topo(), cfg.agg_batch).with_item_bytes(entry_wire_bytes);
        // Blocking merge for the completion drain; vote merges commute, so
        // deferred batches may land in any order.
        let mut apply = |dest: usize, entries: Vec<(Kmer, ExtVotes)>| {
            if cfg.use_bloom {
                table.merge_batch_existing(dest, entries, merge);
            } else {
                table.merge_batch(dest, entries, merge);
            }
        };
        // Non-blocking merge: contended sub-shards return their entries,
        // which the outbox parks until the drain.
        let mut try_apply = |dest: usize, entries: Vec<(Kmer, ExtVotes)>| {
            if cfg.use_bloom {
                table.try_merge_batch_existing(dest, entries, merge)
            } else {
                table.try_merge_batch(dest, entries, merge)
            }
        };
        let mut hh_local: KmerHashMap<Kmer, ExtVotes> = KmerHashMap::default();

        let chunk = ctx.chunk(reads.len());
        for read in &reads[chunk] {
            for_each_occurrence(&codec, cfg, part, read, |canon, rolled, l, r| {
                ctx.stats.compute(1);
                if sketch.heavy_hitters.contains(&canon) {
                    // Local accumulation: no communication per occurrence.
                    hh_local.entry(canon).or_default().record(l, r);
                } else {
                    let mut votes = ExtVotes::new();
                    votes.record(l, r);
                    let dest = owner_of(table, &canon, rolled);
                    outbox.push_async(ctx, dest, (canon, votes), &mut try_apply);
                }
            });
        }
        outbox.finish_async(ctx, &mut try_apply, &mut apply);

        // Global reduction of heavy-hitter partials: one grouped message
        // per owner holding this rank's partial counts (O(p) messages per
        // heavy k-mer across the team instead of O(count)).
        if !hh_local.is_empty() {
            let mut hh_outbox: Outbox<(Kmer, ExtVotes)> =
                Outbox::new(*ctx.topo(), usize::MAX >> 1).with_item_bytes(entry_wire_bytes);
            let mut hh_apply = |dest: usize, entries: Vec<(Kmer, ExtVotes)>| {
                table.merge_batch(dest, entries, merge);
            };
            for (km, votes) in hh_local {
                let dest = table.owner(&km);
                hh_outbox.push(ctx, dest, (km, votes), &mut hh_apply);
            }
            hh_outbox.flush_all(ctx, &mut hh_apply);
        }
    });
    table.drain_service_into(&mut stats);
    // Surface the most-hit keys of the vote table (only populated when
    // hot-key tracking is enabled, e.g. under `--trace`).
    PhaseReport::new("kmer-analysis/count", *team.topo(), stats).with_hot_keys(table.hot_keys(16))
}

/// Finalize: drop below-threshold k-mers, decide extensions, and build the
/// final spectrum (purely shard-local work).
fn finalize(
    team: &Team,
    cfg: &KmerAnalysisConfig,
    table: DistHashMap<Kmer, ExtVotes>,
    final_table: &DistHashMap<Kmer, KmerEntry>,
) -> PhaseReport {
    let (_, mut stats) = team.run_named("kmer-analysis/finalize", |ctx| {
        let entries = table.drain_local(ctx);
        let mut keep: Vec<(Kmer, KmerEntry)> = Vec::with_capacity(entries.len());
        for (km, votes) in entries {
            ctx.stats.compute(1);
            if votes.count >= cfg.min_count {
                keep.push((
                    km,
                    KmerEntry {
                        count: votes.count,
                        exts: votes.decide(cfg.min_votes),
                    },
                ));
            }
        }
        // Same key, same placement: the batch lands in this rank's shard.
        final_table.merge_batch(ctx.rank, keep, |_a, _b| {});
    });
    final_table.drain_service_into(&mut stats);
    PhaseReport::new("kmer-analysis/finalize", *team.topo(), stats)
}

/// Run complete k-mer analysis over `reads`: sketch pass, Bloom pass,
/// count pass, finalize. Returns the spectrum and one report per phase.
pub fn analyze_kmers(
    team: &Team,
    reads: &[SeqRecord],
    cfg: &KmerAnalysisConfig,
) -> (KmerSpectrum, Vec<PhaseReport>) {
    let (sketch, sketch_report) = sketch_reads(team, reads, cfg);
    let mut reports = vec![sketch_report];

    // One partitioner for the whole table family: `finalize` moves entries
    // from the votes table into the final spectrum with a shard-local
    // merge, which is only correct when both tables agree on every key's
    // owner.
    let codec = KmerCodec::new(cfg.k);
    let part = Partitioner::new(cfg.partition, cfg.k);
    let votes_table: DistHashMap<Kmer, ExtVotes> = part.table(*team.topo(), codec);
    if cfg.use_bloom {
        reports.push(
            bloom_pass(team, reads, cfg, &sketch, part, &votes_table).with_placement(part.label()),
        );
    }
    reports.push(
        count_pass(team, reads, cfg, &sketch, part, &votes_table).with_placement(part.label()),
    );

    let final_table: DistHashMap<Kmer, KmerEntry> = part.table(*team.topo(), codec);
    reports.push(finalize(team, cfg, votes_table, &final_table).with_placement(part.label()));

    (
        KmerSpectrum {
            codec,
            table: final_table,
        },
        reports,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_dna::ExtChoice;
    use hipmer_pgas::{RankCtx, Topology};

    /// Reads tiling `genome` perfectly with `depth` copies.
    fn perfect_reads(genome: &[u8], read_len: usize, depth: usize) -> Vec<SeqRecord> {
        let mut out = Vec::new();
        let stride = (read_len / depth.max(1)).max(1);
        for d in 0..depth {
            let offset = d * stride / depth.max(1);
            let mut pos = offset;
            while pos + read_len <= genome.len() {
                out.push(SeqRecord::with_uniform_quality(
                    format!("r{d}_{pos}"),
                    genome[pos..pos + read_len].to_vec(),
                    35,
                ));
                pos += stride;
            }
        }
        out
    }

    fn lcg_genome(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn exact_counts_match_brute_force() {
        let genome = lcg_genome(2000, 7);
        let reads = perfect_reads(&genome, 80, 4);
        let team = Team::new(Topology::new(4, 2));
        let mut cfg = KmerAnalysisConfig::new(21);
        cfg.min_count = 2;

        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);

        // Brute force.
        let codec = KmerCodec::new(21);
        let mut truth: KmerHashMap<Kmer, u32> = KmerHashMap::default();
        for r in &reads {
            for (_, km) in codec.kmers(&r.seq) {
                *truth.entry(codec.canonical(km)).or_insert(0) += 1;
            }
        }
        truth.retain(|_, c| *c >= 2);

        assert_eq!(spectrum.distinct(), truth.len());
        let mut ctx = RankCtx::new(0, *team.topo());
        for (km, &count) in truth.iter() {
            let entry = spectrum.table.get(&mut ctx, km).unwrap();
            assert_eq!(entry.count, count, "kmer {}", codec.to_string(*km));
        }
    }

    #[test]
    fn singletons_are_dropped() {
        let genome = lcg_genome(3000, 11);
        let mut reads = perfect_reads(&genome, 90, 3);
        // One read from elsewhere: its interior k-mers appear once.
        let stray = lcg_genome(90, 999);
        reads.push(SeqRecord::with_uniform_quality("stray", stray.clone(), 35));
        let team = Team::new(Topology::new(3, 3));
        let cfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);

        let codec = KmerCodec::new(21);
        let mut ctx = RankCtx::new(0, *team.topo());
        // The stray's middle k-mer must be absent.
        let mid = codec.canonical(codec.pack(&stray[30..51]).unwrap());
        assert!(spectrum.table.get(&mut ctx, &mid).is_none());
    }

    #[test]
    fn extensions_are_unique_in_clean_sequence() {
        let genome = lcg_genome(1500, 13);
        let reads = perfect_reads(&genome, 100, 4);
        let team = Team::new(Topology::new(2, 2));
        let cfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);

        let mut ctx = RankCtx::new(0, *team.topo());
        let mut uu = 0usize;
        let mut total = 0usize;
        for rank in 0..2 {
            let mut c = RankCtx::new(rank, *team.topo());
            let (u, t) = spectrum
                .table
                .fold_local(&mut c, (0usize, 0usize), |(u, t), _, e| {
                    (u + usize::from(e.exts.is_uu()), t + 1)
                });
            uu += u;
            total += t;
        }
        let _ = &mut ctx;
        assert!(total > 1000);
        // Interior k-mers of a non-repetitive genome are UU.
        assert!(
            uu as f64 / total as f64 > 0.95,
            "uu fraction {}",
            uu as f64 / total as f64
        );
    }

    #[test]
    fn low_quality_extensions_do_not_vote() {
        // Same sequence, depth 3, but the base after the first k-mer has
        // low quality in every copy -> right extension gets no votes at the
        // first k-mer... construct directly:
        let seq = b"ACGTTGCAAGGCTTAGCGTACGATCC".to_vec();
        let mut reads = Vec::new();
        for i in 0..3 {
            let mut r = SeqRecord::with_uniform_quality(format!("r{i}"), seq.clone(), 35);
            // Degrade quality of base at index 21 (right neighbor of the
            // k-mer at offset 0 with k=21).
            r.qual.as_mut().unwrap()[21] = 33 + 5;
            reads.push(r);
        }
        let team = Team::new(Topology::new(1, 1));
        let mut cfg = KmerAnalysisConfig::new(21);
        cfg.min_qual = 20;
        let (spectrum, _) = analyze_kmers(&team, &reads, &cfg);
        let codec = KmerCodec::new(21);
        let mut ctx = RankCtx::new(0, *team.topo());
        let first = codec.pack(&seq[..21]).unwrap();
        let entry = spectrum.get(&mut ctx, first).unwrap();
        assert_eq!(entry.count, 3);
        // Orient the check to the packed (forward) k-mer.
        let canon = codec.canonical(first);
        let exts = if canon == first {
            entry.exts
        } else {
            entry.exts.flip()
        };
        assert_eq!(
            exts.right,
            ExtChoice::None,
            "low-quality base must not vote"
        );
        assert_eq!(exts.left, ExtChoice::None, "no left neighbor at read start");
    }

    #[test]
    fn heavy_hitter_path_gives_identical_counts() {
        // A genome with a massive tandem repeat; run with and without the
        // heavy-hitter optimization and compare tables exactly.
        let unit = lcg_genome(60, 3);
        let mut genome = lcg_genome(1000, 5);
        for _ in 0..200 {
            genome.extend_from_slice(&unit);
        }
        genome.extend(lcg_genome(1000, 6));
        let reads = perfect_reads(&genome, 100, 3);
        let team = Team::new(Topology::new(4, 2));

        let mut cfg_on = KmerAnalysisConfig::new(21);
        cfg_on.theta = 256;
        cfg_on.hh_min_reported = 50;
        let mut cfg_off = cfg_on.clone();
        cfg_off.use_heavy_hitters = false;

        let (spec_on, _) = analyze_kmers(&team, &reads, &cfg_on);
        let (spec_off, _) = analyze_kmers(&team, &reads, &cfg_off);

        let mut on: Vec<(Kmer, u32)> = spec_on
            .table
            .into_entries()
            .into_iter()
            .map(|(k, e)| (k, e.count))
            .collect();
        let mut off: Vec<(Kmer, u32)> = spec_off
            .table
            .into_entries()
            .into_iter()
            .map(|(k, e)| (k, e.count))
            .collect();
        on.sort();
        off.sort();
        assert_eq!(on, off, "HH optimization must not change results");
    }

    #[test]
    fn heavy_hitters_rebalance_service_load() {
        // Service ops at the hottest rank must drop when the optimization
        // is on (Fig. 6's load-imbalance mechanism).
        let unit = lcg_genome(60, 3);
        let mut genome = Vec::new();
        for _ in 0..400 {
            genome.extend_from_slice(&unit);
        }
        genome.extend(lcg_genome(2000, 6));
        let reads = perfect_reads(&genome, 100, 4);
        let team = Team::new(Topology::new(8, 4));

        let hottest_service = |use_hh: bool| -> u64 {
            let mut cfg = KmerAnalysisConfig::new(21);
            cfg.theta = 256;
            cfg.hh_min_reported = 50;
            cfg.use_heavy_hitters = use_hh;
            let (_, reports) = analyze_kmers(&team, &reads, &cfg);
            reports
                .iter()
                .filter(|r| r.name.contains("count"))
                .flat_map(|r| r.stats.iter().map(|s| s.service_ops))
                .max()
                .unwrap_or(0)
        };
        let with_hh = hottest_service(true);
        let without = hottest_service(false);
        assert!(
            with_hh * 2 < without,
            "HH must cut the hottest rank's service load: {with_hh} vs {without}"
        );
    }

    #[test]
    fn minimizer_partition_gives_identical_spectrum() {
        // Placement must be invisible to results: the exported spectrum
        // (canonical order) is byte-for-byte the same under uniform hashing
        // and minimizer bucketing, across heavy-hitter and Bloom settings.
        let unit = lcg_genome(60, 3);
        let mut genome = lcg_genome(1500, 19);
        for _ in 0..100 {
            genome.extend_from_slice(&unit);
        }
        let reads = perfect_reads(&genome, 90, 3);
        let team = Team::new(Topology::new(8, 4));
        // k = 33 and 55 pack into two machine words, so the owners rolled
        // along each read (checked against `table.owner` by the pass's
        // debug assertion) cross the u128 word boundary.
        for k in [21, 33, 55] {
            for use_bloom in [false, true] {
                let mut cfg = KmerAnalysisConfig::new(k);
                cfg.theta = 256;
                cfg.hh_min_reported = 50;
                cfg.use_bloom = use_bloom;
                cfg.partition = hipmer_pgas::PartitionScheme::Uniform;
                let (spec_u, _) = analyze_kmers(&team, &reads, &cfg);
                cfg.partition = hipmer_pgas::PartitionScheme::Minimizer;
                let (spec_m, _) = analyze_kmers(&team, &reads, &cfg);
                assert!(spec_m.table.has_locality_hash());
                assert!(spec_u.distinct() > 1000, "k={k}: fixture too small");
                assert_eq!(
                    spec_u.export_entries(),
                    spec_m.export_entries(),
                    "k={k} use_bloom={use_bloom}"
                );
            }
        }
    }

    #[test]
    fn bloom_ablation_matches_counts_but_uses_more_entries() {
        let genome = lcg_genome(2000, 17);
        let mut reads = perfect_reads(&genome, 80, 3);
        reads.push(SeqRecord::with_uniform_quality(
            "stray",
            lcg_genome(80, 1234),
            35,
        ));
        let team = Team::new(Topology::new(2, 2));
        let mut cfg = KmerAnalysisConfig::new(21);
        cfg.use_bloom = false;
        let (spec_nb, _) = analyze_kmers(&team, &reads, &cfg);
        cfg.use_bloom = true;
        let (spec_b, _) = analyze_kmers(&team, &reads, &cfg);
        // Final spectra agree (both threshold at min_count)...
        let mut a: Vec<(Kmer, u32)> = spec_nb
            .table
            .into_entries()
            .into_iter()
            .map(|(k, e)| (k, e.count))
            .collect();
        let mut b: Vec<(Kmer, u32)> = spec_b
            .table
            .into_entries()
            .into_iter()
            .map(|(k, e)| (k, e.count))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
