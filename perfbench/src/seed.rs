//! Seeded workloads: the benchmark's `--seed` rewrites the seed and
//! replica fields of the catalogue's public [`SimSpec`]s, and nothing
//! else. Seed 0 is the canonical catalogue, exactly as `repro` runs it.
//!
//! The rewrite is a bijection on each family's seed space (a fixed
//! offset per benchmark seed), so two specs collide after the rewrite
//! exactly when they collided before: dedup, subscriptions and the
//! family mix are unchanged, only the sample paths move.

use ebrc_experiments::{Experiment, Scale, SimSpec, SpecOutput, Table};

/// Spec families, as the per-layer metrics name them.
pub const FAMILIES: [&str; 6] = ["dumbbell", "manyflow", "audio", "mc", "claim4", "other"];

/// Index into [`FAMILIES`] of a spec's family.
pub fn family(spec: &SimSpec) -> usize {
    match spec {
        SimSpec::Ns2Dumbbell { .. }
        | SimSpec::LabDumbbell { .. }
        | SimSpec::SiteDumbbell { .. }
        | SimSpec::CableModem { .. }
        | SimSpec::BufferSweep { .. } => 0,
        SimSpec::ManyFlowDumbbell { .. } => 1,
        SimSpec::Audio { .. } => 2,
        SimSpec::Mc { .. } | SimSpec::PhaseMc { .. } => 3,
        SimSpec::Claim4Iso { .. } | SimSpec::Claim4Shared { .. } => 4,
        _ => 5,
    }
}

/// SplitMix64 finalizer: spreads consecutive benchmark seeds far apart.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `spec` with its seed and replica fields moved by the benchmark
/// seed. Seed 0 returns the spec unchanged; specs without a seed
/// (analytic tabulations, the claim-4 fixed points) never change.
pub fn reseed(spec: SimSpec, seed: u64) -> SimSpec {
    if seed == 0 {
        return spec;
    }
    let offset = mix(seed);
    // Replica indices stay small so `replica_seed` arithmetic keeps
    // its shape; the +1 keeps every non-zero seed off the canonical run.
    let rep_offset = (offset % 1_000_003) as usize + 1;
    let s = |v: u64| v.wrapping_add(offset);
    match spec {
        SimSpec::Ns2Dumbbell {
            n,
            l,
            rep,
            probe,
            warmup,
            span,
        } => SimSpec::Ns2Dumbbell {
            n,
            l,
            rep: rep + rep_offset,
            probe,
            warmup,
            span,
        },
        SimSpec::ManyFlowDumbbell {
            n,
            rep,
            warmup,
            span,
        } => SimSpec::ManyFlowDumbbell {
            n,
            rep: rep + rep_offset,
            warmup,
            span,
        },
        SimSpec::LabDumbbell {
            queue,
            n,
            seed,
            warmup,
            span,
        } => SimSpec::LabDumbbell {
            queue,
            n,
            seed: s(seed),
            warmup,
            span,
        },
        SimSpec::SiteDumbbell {
            site,
            n,
            seed,
            quick,
            warmup,
            span,
        } => SimSpec::SiteDumbbell {
            site,
            n,
            seed: s(seed),
            quick,
            warmup,
            span,
        },
        SimSpec::CableModem { seed, warmup, span } => SimSpec::CableModem {
            seed: s(seed),
            warmup,
            span,
        },
        SimSpec::BufferSweep {
            mode,
            buffer,
            seed,
            warmup,
            span,
        } => SimSpec::BufferSweep {
            mode,
            buffer,
            seed: s(seed),
            warmup,
            span,
        },
        SimSpec::Audio {
            p_drop,
            formula,
            window,
            duration,
            seed,
        } => SimSpec::Audio {
            p_drop,
            formula,
            window,
            duration,
            seed: s(seed),
        },
        SimSpec::Mc {
            control,
            formula,
            weights,
            window,
            p,
            cv,
            events,
            seed,
        } => SimSpec::Mc {
            control,
            formula,
            weights,
            window,
            p,
            cv,
            events,
            seed: s(seed),
        },
        SimSpec::PhaseMc {
            sojourn,
            events,
            seed,
        } => SimSpec::PhaseMc {
            sojourn,
            events,
            seed: s(seed),
        },
        other => other,
    }
}

/// A catalogue experiment whose specs are reseeded; reduce, ids and
/// titles are the inner experiment's own.
pub struct Seeded {
    pub inner: Box<dyn Experiment>,
    pub seed: u64,
}

impl Experiment for Seeded {
    fn id(&self) -> &'static str {
        self.inner.id()
    }

    fn title(&self) -> &'static str {
        self.inner.title()
    }

    fn paper_ref(&self) -> &'static str {
        self.inner.paper_ref()
    }

    fn specs(&self, scale: Scale) -> Vec<SimSpec> {
        self.inner
            .specs(scale)
            .into_iter()
            .map(|s| reseed(s, self.seed))
            .collect()
    }

    fn reduce(&self, scale: Scale, outputs: &[&SpecOutput]) -> Vec<Table> {
        self.inner.reduce(scale, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebrc_experiments::{all_experiments, global_plan, Plan};

    fn plan_at(seed: u64) -> Plan {
        let seeded: Vec<Seeded> = all_experiments()
            .into_iter()
            .map(|inner| Seeded { inner, seed })
            .collect();
        let refs: Vec<&dyn Experiment> = seeded.iter().map(|e| e as &dyn Experiment).collect();
        global_plan(&refs, Scale::quick())
    }

    fn family_mix(plan: &Plan) -> [usize; 6] {
        let mut mix = [0; 6];
        for spec in plan.specs() {
            mix[family(spec)] += 1;
        }
        mix
    }

    #[test]
    fn seed_zero_is_the_canonical_catalogue() {
        let catalogue = all_experiments();
        let refs: Vec<&dyn Experiment> = catalogue.iter().map(|e| e.as_ref()).collect();
        let canonical = global_plan(&refs, Scale::quick());
        assert_eq!(plan_at(0).spec_hashes(), canonical.spec_hashes());
        assert_eq!(plan_at(0).fingerprint(), canonical.fingerprint());
    }

    #[test]
    fn same_seed_same_hashes() {
        assert_eq!(plan_at(7).spec_hashes(), plan_at(7).spec_hashes());
    }

    #[test]
    fn other_seed_moves_every_seeded_spec_and_keeps_the_mix() {
        let (a, b) = (plan_at(0), plan_at(1));
        assert_eq!(a.unique_len(), b.unique_len(), "dedup unchanged");
        assert_eq!(a.subscribed_len(), b.subscribed_len());
        assert_eq!(family_mix(&a), family_mix(&b));
        let moved = a
            .spec_hashes()
            .iter()
            .zip(b.spec_hashes())
            .filter(|(x, y)| x != y)
            .count();
        let seeded = a
            .specs()
            .iter()
            .filter(|s| reseed((*s).clone(), 1) != **s)
            .count();
        assert_eq!(moved, seeded, "exactly the seeded specs change hash");
        assert!(seeded * 10 > a.unique_len() * 9, "most specs are seeded");
    }
}
