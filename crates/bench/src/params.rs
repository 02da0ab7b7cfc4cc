//! Harness parameters (environment-variable driven).

/// Sweep sizes: "quick" for the default CI-friendly runs, "full" for runs
/// closer to the paper's parameter ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepSizes {
    /// Small sweeps that finish in minutes on a laptop.
    Quick,
    /// Paper-sized sweeps (hours).
    Full,
}

/// All knobs shared by the repro targets and the ablation binaries.
#[derive(Clone, Debug)]
pub struct HarnessParams {
    /// Scale factor for the small datasets.
    pub scale_small: f64,
    /// Scale factor for the large datasets (`None` = dataset default).
    pub scale_large: Option<f64>,
    /// Number of query sources averaged per dataset.
    pub queries: usize,
    /// Per-query walk-pair budget applied to the sampled methods.
    pub walk_budget: u64,
    /// Quick or full sweeps.
    pub sizes: SweepSizes,
    /// Seed for source selection and all randomized components.
    pub seed: u64,
}

impl Default for HarnessParams {
    fn default() -> Self {
        HarnessParams {
            scale_small: 0.2,
            scale_large: None,
            queries: 3,
            walk_budget: 5_000_000,
            sizes: SweepSizes::Quick,
            seed: 2020,
        }
    }
}

impl HarnessParams {
    /// The CI-sized preset used by `simrank-repro --quick`: stand-ins scaled
    /// far enough down that every figure's ground truth is computable in
    /// seconds, one query source per dataset, and a small walk budget. The
    /// point of the quick run is to prove the *pipeline* end to end (every
    /// sweep executes, every artifact is written), not to reproduce the
    /// paper's absolute numbers.
    pub fn quick_repro() -> Self {
        HarnessParams {
            scale_small: 0.06,
            scale_large: Some(0.002),
            queries: 1,
            walk_budget: 300_000,
            sizes: SweepSizes::Quick,
            seed: 2020,
        }
    }

    /// The paper-faithful preset used by `simrank-repro --full`: small
    /// stand-ins at the paper's node counts, large stand-ins at their
    /// registry default scales, the paper's 50 query sources, and the full
    /// parameter sweeps. Expect hours, as the paper's own evaluation did.
    pub fn full_repro() -> Self {
        HarnessParams {
            scale_small: 1.0,
            scale_large: None,
            queries: 50,
            walk_budget: 20_000_000,
            sizes: SweepSizes::Full,
            seed: 2020,
        }
    }

    /// Reads the parameters from the environment (see the crate docs).
    pub fn from_env() -> Self {
        let mut p = HarnessParams::default();
        if let Some(v) = env_f64("EXACTSIM_SCALE_SMALL") {
            p.scale_small = v;
        }
        if std::env::var("EXACTSIM_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            p.scale_small = 1.0;
        }
        if let Some(v) = env_f64("EXACTSIM_SCALE_LARGE") {
            p.scale_large = Some(v);
        }
        if let Some(v) = env_u64("EXACTSIM_QUERIES") {
            p.queries = v as usize;
        }
        if let Some(v) = env_u64("EXACTSIM_WALK_BUDGET") {
            p.walk_budget = v;
        }
        if std::env::var("EXACTSIM_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            p.sizes = SweepSizes::Full;
            p.queries = p.queries.max(50);
        }
        if let Some(v) = env_u64("EXACTSIM_SEED") {
            p.seed = v;
        }
        p
    }

    /// ε sweep for ExactSim (the paper varies 1e-1 … 1e-7).
    pub fn exactsim_epsilons(&self) -> Vec<f64> {
        match self.sizes {
            SweepSizes::Quick => vec![1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
            SweepSizes::Full => vec![1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
        }
    }

    /// ε sweep for Linearization / PRSim (the paper stops where the method
    /// exceeds its time/memory limit; the quick sweep stops earlier).
    pub fn index_method_epsilons(&self) -> Vec<f64> {
        match self.sizes {
            SweepSizes::Quick => vec![1e-1, 3e-2, 1e-2, 3e-3],
            SweepSizes::Full => vec![1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4],
        }
    }

    /// (walk count, walk length) sweep for MC.
    pub fn mc_walk_counts(&self) -> Vec<(usize, usize)> {
        match self.sizes {
            SweepSizes::Quick => vec![(50, 10), (200, 10), (800, 15), (3200, 15)],
            SweepSizes::Full => vec![
                (50, 10),
                (200, 10),
                (800, 15),
                (3200, 15),
                (12_800, 20),
                (50_000, 20),
            ],
        }
    }

    /// Iteration sweep for ParSim.
    pub fn parsim_iterations(&self) -> Vec<usize> {
        match self.sizes {
            SweepSizes::Quick => vec![5, 10, 20, 50, 100],
            SweepSizes::Full => vec![10, 50, 100, 500, 1000, 5000],
        }
    }
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.parse().ok()
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_quick_and_sane() {
        let p = HarnessParams::default();
        assert_eq!(p.sizes, SweepSizes::Quick);
        assert!(p.scale_small > 0.0 && p.scale_small <= 1.0);
        assert!(p.queries >= 1);
        assert!(!p.exactsim_epsilons().is_empty());
        assert!(!p.mc_walk_counts().is_empty());
        assert!(!p.parsim_iterations().is_empty());
        assert!(!p.index_method_epsilons().is_empty());
    }

    #[test]
    fn full_sweeps_are_supersets() {
        let quick = HarnessParams::default();
        let full = HarnessParams {
            sizes: SweepSizes::Full,
            ..Default::default()
        };
        assert!(full.mc_walk_counts().len() >= quick.mc_walk_counts().len());
        assert!(full.parsim_iterations().len() >= quick.parsim_iterations().len());
        assert!(full.index_method_epsilons().len() >= quick.index_method_epsilons().len());
    }

    #[test]
    fn repro_presets_bracket_the_default() {
        let quick = HarnessParams::quick_repro();
        let full = HarnessParams::full_repro();
        assert!(quick.scale_small < HarnessParams::default().scale_small);
        assert!(quick.queries <= full.queries);
        assert_eq!(quick.sizes, SweepSizes::Quick);
        assert_eq!(full.sizes, SweepSizes::Full);
        assert_eq!(full.scale_small, 1.0);
        // Both presets pin the same seed so runs are comparable.
        assert_eq!(quick.seed, full.seed);
    }

    #[test]
    fn epsilon_sweeps_reach_the_exactness_level() {
        let p = HarnessParams::default();
        let min = p
            .exactsim_epsilons()
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        assert!(min <= 1e-7);
    }
}
