//! Input generation (the `rdg_data` layer). Runs before any timing starts;
//! the measured program only ever sees the finished feed lists.

use rdg_data::{Dataset, DatasetConfig, Split, Tree, TreeNode, TreeShape};
use rdg_tensor::Tensor;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Leaf-count range of every generated sentence.
const MIN_LEAVES: usize = 4;
const MAX_LEAVES: usize = 48;
/// The plan specializer keys an `i32` feed of at most this many elements
/// by its values, so a tree of at most this many nodes can only reuse a
/// promoted plan if the same tree recurs.
const SMALL_TREE_NODES: usize = 64;
/// Trees generated per `Dataset::generate` call; each chunk has its own
/// seed derived from the workload seed.
const CHUNK: usize = 1024;

/// Measured shape of one generated tree.
#[derive(Clone, Copy)]
pub struct TreeProps {
    pub leaves: usize,
    pub nodes: usize,
    pub height: usize,
    /// Structural hash (words and child links): equal trees hash equal.
    pub hash: u64,
}

/// A pre-generated pool of per-instance feed lists (`batch = 1` modules).
pub struct Corpus {
    pub feeds: Vec<Vec<Tensor>>,
    pub props: Vec<TreeProps>,
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tree_hash(tree: &Tree) -> u64 {
    let mut h = DefaultHasher::new();
    for node in &tree.nodes {
        match *node {
            TreeNode::Leaf { word } => (0u8, word as i64, 0usize).hash(&mut h),
            TreeNode::Internal { left, right } => (1u8, left as i64, right).hash(&mut h),
        }
    }
    h.finish()
}

/// Generates `count` fresh Moderate-shape sentences of 4–48 leaves from
/// `seed`. The same seed always yields the same pool.
pub fn generate(seed: u64, count: usize, vocab: usize) -> Corpus {
    let mut feeds = Vec::with_capacity(count);
    let mut props = Vec::with_capacity(count);
    let mut chunk = 0u64;
    while feeds.len() < count {
        let n = CHUNK.min(count - feeds.len());
        let data = Dataset::generate(DatasetConfig {
            vocab,
            n_train: n,
            n_valid: 0,
            min_len: MIN_LEAVES,
            max_len: MAX_LEAVES,
            shape: TreeShape::Moderate,
            seed: mix(seed, chunk),
        });
        let instances = data.split(Split::Train);
        feeds.extend(Dataset::feeds_per_instance(instances));
        props.extend(instances.iter().map(|inst| TreeProps {
            leaves: inst.tree.n_leaves(),
            nodes: inst.tree.len(),
            height: inst.tree.height(),
            hash: tree_hash(&inst.tree),
        }));
        chunk += 1;
    }
    Corpus { feeds, props }
}

/// Summary of the inputs a run actually consumed.
pub struct InputSummary {
    pub count: usize,
    pub leaves_mean: f64,
    pub leaves_max: usize,
    pub height_mean: f64,
    pub small_tree_frac: f64,
    pub repeat_frac: f64,
}

impl InputSummary {
    pub fn of(props: &[TreeProps]) -> Self {
        let n = props.len().max(1) as f64;
        let mut seen = HashSet::with_capacity(props.len());
        let repeats = props.iter().filter(|p| !seen.insert(p.hash)).count();
        InputSummary {
            count: props.len(),
            leaves_mean: props.iter().map(|p| p.leaves).sum::<usize>() as f64 / n,
            leaves_max: props.iter().map(|p| p.leaves).max().unwrap_or(0),
            height_mean: props.iter().map(|p| p.height).sum::<usize>() as f64 / n,
            small_tree_frac: props.iter().filter(|p| p.nodes <= SMALL_TREE_NODES).count() as f64
                / n,
            repeat_frac: repeats as f64 / n,
        }
    }

    /// One JSON object, printed next to every run's metrics.
    pub fn json(&self) -> String {
        format!(
            "{{\"inputs\": {{\"count\": {}, \"leaves_mean\": {}, \"leaves_max\": {}, \
             \"height_mean\": {}, \"small_tree_frac\": {}, \"repeat_frac\": {}}}}}",
            self.count,
            self.leaves_mean,
            self.leaves_max,
            self.height_mean,
            self.small_tree_frac,
            self.repeat_frac
        )
    }
}
