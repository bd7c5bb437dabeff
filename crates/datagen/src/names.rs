//! Name pools with Zipf-distributed usage.
//!
//! Real name frequencies are heavy-tailed: a few first names ("Wei",
//! "John") are very common, most are rare. DISTINCT's automatic training
//! set construction depends on that tail — a name whose first *and* last
//! parts are rare is assumed unique (§3) — so the generator must reproduce
//! it. Names are synthesized deterministically from indexed syllables and
//! drawn with a hand-rolled Zipf sampler.

use rand::Rng;

/// A discrete Zipf sampler over ranks `0..n` with exponent `s`:
/// `P(k) ∝ 1 / (k + 1)^s`, via an inverse-CDF table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks (n ≥ 1) with exponent `s` (≥ 0).
    ///
    /// # Panics
    /// Panics on `n == 0` or a negative/non-finite exponent.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there is exactly one rank (degenerate but allowed).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw a rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability of rank `k`.
    pub fn prob(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// Deterministic synthetic name for an index: pronounceable-ish, unique
/// per index, stable across runs.
fn synth_name(index: usize, starts: &[&str], mids: &[&str], ends: &[&str]) -> String {
    let s = starts[index % starts.len()];
    let m = mids[(index / starts.len()) % mids.len()];
    let e = ends[(index / (starts.len() * mids.len())) % ends.len()];
    let mut name = format!("{s}{m}{e}");
    // Disambiguate overflow indexes beyond the syllable product space.
    let space = starts.len() * mids.len() * ends.len();
    if index >= space {
        name.push_str(&format!("{}", index / space + 1));
    }
    // Capitalize.
    let mut chars = name.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => name,
    }
}

/// A pool of first names with Zipf-distributed sampling.
#[derive(Debug, Clone)]
pub struct NamePool {
    names: Vec<String>,
    zipf: Zipf,
}

const FIRST_STARTS: &[&str] = &[
    "wei", "jo", "mi", "an", "li", "ra", "da", "su", "ke", "ta", "ni", "pa", "ha", "mo", "el",
];
const FIRST_MIDS: &[&str] = &["n", "r", "v", "l", "s", "m", "d", "th"];
const FIRST_ENDS: &[&str] = &["a", "en", "iel", "ong", "ia", "o", "us", "ik"];

const LAST_STARTS: &[&str] = &[
    "wang", "smi", "gar", "mul", "pet", "kov", "tan", "rossi", "yama", "lee", "nov", "fer", "hor",
    "bla", "qui",
];
const LAST_MIDS: &[&str] = &["th", "ne", "ll", "rs", "ck", "mp", "nd", "st"];
const LAST_ENDS: &[&str] = &["son", "ez", "ov", "aki", "er", "ini", "sen", "u"];

impl NamePool {
    /// A pool of `n` first names.
    pub fn first_names(n: usize, zipf_exponent: f64) -> Self {
        let names = (0..n)
            .map(|i| synth_name(i, FIRST_STARTS, FIRST_MIDS, FIRST_ENDS))
            .collect();
        NamePool {
            names,
            zipf: Zipf::new(n, zipf_exponent),
        }
    }

    /// A pool of `n` last names.
    pub fn last_names(n: usize, zipf_exponent: f64) -> Self {
        let names = (0..n)
            .map(|i| synth_name(i, LAST_STARTS, LAST_MIDS, LAST_ENDS))
            .collect();
        NamePool {
            names,
            zipf: Zipf::new(n, zipf_exponent),
        }
    }

    /// Number of names in the pool.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Draw a name index (Zipf over popularity rank).
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.zipf.sample(rng)
    }

    /// The name at an index.
    pub fn name(&self, index: usize) -> &str {
        &self.names[index]
    }

    /// Draw a name.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &str {
        let i = self.sample_index(rng);
        self.name(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_cdf_is_normalized_and_monotone() {
        let z = Zipf::new(50, 1.0);
        assert_eq!(z.len(), 50);
        let mut total = 0.0;
        for k in 0..50 {
            let p = z.prob(k);
            assert!(p > 0.0);
            if k > 0 {
                // Probabilities are non-increasing in rank.
                assert!(p <= z.prob(k - 1) + 1e-15);
            }
            total += p;
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 should be sampled far more than rank 50.
        assert!(counts[0] > 10 * counts[50].max(1));
        // Empirical frequency of rank 0 ≈ its probability.
        let emp = counts[0] as f64 / 20_000.0;
        assert!((emp - z.prob(0)).abs() < 0.02, "emp {emp} vs {}", z.prob(0));
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.prob(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn names_are_unique_and_capitalized() {
        let pool = NamePool::first_names(500, 1.0);
        assert_eq!(pool.len(), 500);
        let set: std::collections::HashSet<&str> = (0..pool.len()).map(|i| pool.name(i)).collect();
        assert_eq!(set.len(), 500, "names must be unique");
        for i in 0..pool.len() {
            let n = pool.name(i);
            assert!(n.chars().next().unwrap().is_uppercase(), "{n}");
        }
    }

    #[test]
    fn first_and_last_pools_do_not_collide() {
        let f = NamePool::first_names(100, 1.0);
        let l = NamePool::last_names(100, 1.0);
        let fs: std::collections::HashSet<&str> = (0..100).map(|i| f.name(i)).collect();
        for i in 0..100 {
            assert!(!fs.contains(l.name(i)), "collision: {}", l.name(i));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let pool = NamePool::last_names(80, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10)
                .map(|_| pool.sample(&mut rng).to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn tail_names_exist() {
        // With a Zipf pool, high-rank (rare) names should be sampled at
        // least occasionally across many draws — the training-set builder
        // depends on the tail being populated.
        let pool = NamePool::first_names(60, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            seen.insert(pool.sample_index(&mut rng));
        }
        assert!(
            seen.len() > 40,
            "only {} distinct ranks sampled",
            seen.len()
        );
    }
}
