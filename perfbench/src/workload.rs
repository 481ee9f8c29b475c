//! The three workloads: how each input is generated from the seed, and
//! the pipeline configuration and run options each one assembles with.

use hipmer::{PipelineConfig, RunOptions};
use hipmer_pgas::{PartitionScheme, Team, Topology};
use hipmer_readsim::{human_like, metagenome, simulate_library, ErrorModel, Library};
use hipmer_seqio::SeqRecord;
use std::path::{Path, PathBuf};

/// Virtual ranks of every assembly, and ranks per virtual node.
pub const RANKS: usize = 16;
pub const RANKS_PER_NODE: usize = 8;
/// OS threads of the measured (end-to-end) configuration.
pub const THREADS: usize = 2;

/// Human-like diploid genome length (bases per haplotype) and coverage.
const HUMAN_LEN: usize = 200_000;
const HUMAN_COV: f64 = 16.0;
/// Metagenome: total community length, species count and mean coverage.
const META_LEN: usize = 100_000;
const META_SPECIES: usize = 50;
const META_COV: f64 = 30.0;
/// The multi-k round schedule of the metagenome workload.
const META_KS: [usize; 3] = [21, 33, 55];

/// Seed of the simulated organisms and their sequencing runs. Scaffold
/// NG50 of the human workload depends on which breaks the reads happen to
/// bridge: across seeds it spread 0.7 of its median with a new genome per
/// seed and 0.38 with new reads of one genome, more than any bound allows.
/// So the reads are fixed and `--seed` only orders them.
const GENOME_SEED: u64 = 2015;

/// k used to evaluate every assembly against its references.
pub const EVAL_K: usize = 31;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Human-like diploid genome, short- and long-insert libraries, k = 31,
    /// one scaffolding round, uniform k-mer placement.
    HumanDiploid,
    /// 50-species lognormal metagenome, multi-k 21,33,55, no scaffolding,
    /// minimizer k-mer placement.
    MetaMultiK,
    /// The human-diploid input, resumed from a checkpoint written after
    /// k-mer analysis.
    HumanResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HumanDiploid,
        Workload::MetaMultiK,
        Workload::HumanResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HumanDiploid => "human-diploid",
            Workload::MetaMultiK => "meta-multik",
            Workload::HumanResume => "human-resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reads for `seed`, in FASTQ order, and the reference sequences
    /// they are evaluated against. The organism and its sequencing run are
    /// fixed ([`GENOME_SEED`]); `seed` shuffles the order of the read pairs
    /// in the file, which hands every read to a different rank. Same seed,
    /// same file.
    ///
    /// The human reference is the genome's first haplotype (NG50 against
    /// one genome copy, as QUAST does with a haploid reference); the
    /// metagenome's is every species of the community.
    pub fn inputs(self, seed: u64) -> (Vec<SeqRecord>, Vec<Vec<u8>>) {
        let err = ErrorModel::illumina();
        let stream = |i: usize| GENOME_SEED.wrapping_add(1000 + i as u64);
        let (reads, refs) = match self {
            Workload::HumanDiploid | Workload::HumanResume => {
                // The library mix of `hipmer_readsim::human_like_dataset`.
                let genome = human_like(HUMAN_LEN, GENOME_SEED);
                let libs = [
                    Library::short_insert(HUMAN_COV * 0.8),
                    Library::long_insert(1000, HUMAN_COV * 0.2),
                ];
                let reads: Vec<SeqRecord> = libs
                    .iter()
                    .enumerate()
                    .flat_map(|(i, lib)| simulate_library(&genome, lib, &err, stream(i)))
                    .collect();
                (reads, vec![genome.reference().to_vec()])
            }
            Workload::MetaMultiK => {
                // The sampling model of `hipmer_readsim::metagenome_dataset`:
                // coverage proportional to abundance, averaging META_COV.
                let community = metagenome(META_LEN, META_SPECIES, GENOME_SEED);
                let lib = Library::short_insert(META_COV);
                let mut reads = Vec::new();
                for (i, (genome, abundance)) in community.iter().enumerate() {
                    let species_lib = Library {
                        coverage: META_COV * abundance * META_SPECIES as f64,
                        ..lib.clone()
                    };
                    let bases = species_lib.coverage * genome.reference_len() as f64;
                    if bases >= 2.0 * lib.read_len as f64 {
                        reads.extend(simulate_library(genome, &species_lib, &err, stream(i)));
                    }
                }
                let refs = community
                    .iter()
                    .map(|(g, _)| g.reference().to_vec())
                    .collect();
                (reads, refs)
            }
        };
        (shuffle_pairs(reads, seed), refs)
    }

    /// The pipeline configuration, built the way `hipmer assemble` builds
    /// it from the equivalent flags.
    pub fn config(self) -> PipelineConfig {
        match self {
            Workload::HumanDiploid | Workload::HumanResume => {
                PipelineConfig::new(31).with_partition(PartitionScheme::Uniform)
            }
            Workload::MetaMultiK => {
                let mut cfg = PipelineConfig::new(*META_KS.last().expect("non-empty k list"))
                    .with_partition(PartitionScheme::Minimizer);
                cfg.scaffold.rounds = 0;
                cfg.try_multi_k(&META_KS)
                    .expect("the metagenome k schedule is strictly increasing")
            }
        }
    }

    /// Run options of one measured assembly. The resume workload resumes
    /// from `ckpt` and saves nothing further (an interval no stage index
    /// reaches), so every iteration starts from the same checkpoint state.
    pub fn options(self, ckpt: &Path) -> RunOptions {
        match self {
            Workload::HumanResume => RunOptions {
                checkpoint_dir: Some(ckpt.to_path_buf()),
                resume: true,
                checkpoint_interval: usize::MAX,
                ..RunOptions::default()
            },
            _ => RunOptions::default(),
        }
    }

    /// The workload whose FASTA this one must reproduce byte for byte.
    pub fn reference_workload(self) -> Option<Workload> {
        match self {
            Workload::HumanResume => Some(Workload::HumanDiploid),
            _ => None,
        }
    }
}

/// Shuffle mate pairs (records `2i`, `2i + 1`) as units, keeping each pair
/// adjacent as the scaffolder expects (Fisher-Yates over a splitmix64
/// stream of `seed`).
fn shuffle_pairs(reads: Vec<SeqRecord>, seed: u64) -> Vec<SeqRecord> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut pairs: Vec<[SeqRecord; 2]> = Vec::with_capacity(reads.len() / 2);
    let mut it = reads.into_iter();
    while let (Some(a), Some(b)) = (it.next(), it.next()) {
        pairs.push([a, b]);
    }
    for i in (1..pairs.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        pairs.swap(i, j);
    }
    pairs.into_iter().flatten().collect()
}

/// The team every assembly runs on.
pub fn team(threads: usize) -> Team {
    Team::new(Topology::new(RANKS, RANKS_PER_NODE)).with_os_threads(threads)
}

/// Parent of every run's scratch directory, relative to the checkout root.
const WORK_ROOT: &str = ".bench_work";

/// Scratch files of one run, removed when the run ends.
pub struct WorkDir {
    pub root: PathBuf,
}

impl WorkDir {
    pub fn create(workload: Workload, seed: u64) -> std::io::Result<WorkDir> {
        let root = PathBuf::from(WORK_ROOT).join(format!(
            "{}-seed{seed}-pid{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    pub fn fastq(&self) -> PathBuf {
        self.root.join("reads.fastq")
    }

    pub fn checkpoint(&self) -> PathBuf {
        self.root.join("ckpt")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Only succeeds once no other run's directory is left in it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}
