//! Dataset presets mirroring the four JD.com datasets of Table 1.
//!
//! Each profile preserves the *shape* of its paper counterpart — the ratio
//! of scenes to categories and typical scene sizes vary strongly across the
//! four datasets (Electronics has few large scenes, Fashion has many small
//! ones) — at three scales:
//!
//! * [`Scale::Tiny`] — unit tests, milliseconds;
//! * [`Scale::Laptop`] — the default for the Table 2 harness, seconds per
//!   model;
//! * [`Scale::Paper`] — full Table 1 magnitudes (50k+ items); generation
//!   alone takes minutes and training hours, provided for completeness.

use crate::config::GeneratorConfig;
use serde::{Deserialize, Serialize};

/// Which of the paper's four datasets to mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetProfile {
    /// "Baby & Toy": 103 categories, 323 scenes (many mid-sized scenes).
    BabyToy,
    /// "Electronics": 78 categories, only 54 scenes (few, large scenes).
    Electronics,
    /// "Fashion": 91 categories, 438 scenes (many small scenes).
    Fashion,
    /// "Food & Drink": 105 categories, 136 scenes.
    FoodDrink,
}

impl DatasetProfile {
    /// All four profiles in the paper's column order.
    pub const ALL: [DatasetProfile; 4] = [
        DatasetProfile::BabyToy,
        DatasetProfile::Electronics,
        DatasetProfile::Fashion,
        DatasetProfile::FoodDrink,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetProfile::BabyToy => "Baby & Toy",
            DatasetProfile::Electronics => "Electronics",
            DatasetProfile::Fashion => "Fashion",
            DatasetProfile::FoodDrink => "Food & Drink",
        }
    }

    /// `(categories, scenes, scene_size_min, scene_size_max)` at paper
    /// scale, read off Table 1 (scene sizes chosen so that expected
    /// membership counts match the Scene-Category column).
    fn shape(self) -> (u32, u32, u32, u32) {
        match self {
            DatasetProfile::BabyToy => (103, 323, 2, 7),
            DatasetProfile::Electronics => (78, 54, 3, 8),
            DatasetProfile::Fashion => (91, 438, 2, 6),
            DatasetProfile::FoodDrink => (105, 136, 2, 8),
        }
    }

    /// Generator configuration at the given scale. `seed` controls every
    /// random choice downstream.
    pub fn config(self, scale: Scale, seed: u64) -> GeneratorConfig {
        let (cats, scenes, smin, smax) = self.shape();
        let (users, items, cat_div, scene_div, inter) = match scale {
            Scale::Tiny => (40, 150, 8, 8, (6, 14)),
            Scale::Laptop => (300, 1500, 2, 4, (15, 40)),
            Scale::Paper => (4000, 50_000, 1, 1, (80, 140)),
        };
        let num_categories = (cats / cat_div).max(6);
        let num_scenes = (scenes / scene_div).max(4);
        let scene_size_max = smax.min(num_categories);
        let scene_size_min = smin.min(scene_size_max);
        GeneratorConfig {
            name: self.name().to_owned(),
            seed,
            num_users: users,
            num_items: items,
            num_categories,
            num_scenes,
            scene_size_min,
            scene_size_max,
            interactions_min: inter.0,
            interactions_max: inter.1,
            scenes_per_user: 2,
            tastes_per_user: 3,
            p_scene: 0.5,
            p_taste: 0.35,
            p_noise: 0.15,
            popularity_exponent: 1.0,
            session_length: 8,
            extra_sessions_per_user: 2,
            item_top_k: match scale {
                Scale::Tiny => 15,
                Scale::Laptop => 50,
                Scale::Paper => 300,
            },
            category_top_k: match scale {
                Scale::Tiny => 6,
                Scale::Laptop => 20,
                Scale::Paper => 100,
            },
            eval_negatives: match scale {
                Scale::Tiny => 20,
                _ => 100,
            },
        }
    }
}

/// Shape of a frozen-only synthetic model: the `paper_scale_plus`
/// preset family.
///
/// At a million users the interaction/graph pipeline (and even the
/// per-user seen lists) stops fitting CI-adjacent memory; what sharded
/// serving needs is only the frozen entity matrices. This spec carries
/// the plain numbers — `scenerec-core`'s `FrozenModel::synthetic` turns
/// them into a deterministic dense snapshot (core depends on data, so
/// the constructor cannot live here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrozenSynthesisSpec {
    /// Rows in the frozen user matrix.
    pub num_users: usize,
    /// Rows in the frozen item matrix.
    pub num_items: usize,
    /// Embedding dimension (columns of both matrices).
    pub dim: usize,
    /// Seeds the splitmix64 fill; same seed, same bits.
    pub seed: u64,
}

impl FrozenSynthesisSpec {
    /// The `paper_scale_plus` preset: 20× the paper's largest Table-1
    /// user count and 20× its item count — 1M users x 1M items at dim 32
    /// is a 128 MiB matrix per entity side at f32, large enough that the
    /// item catalog cannot stay cache-resident.
    pub fn paper_scale_plus(seed: u64) -> FrozenSynthesisSpec {
        FrozenSynthesisSpec {
            num_users: 1_000_000,
            num_items: 1_000_000,
            dim: 32,
            seed,
        }
    }

    /// A CI-sized reduction with the same shape ratios, for the shard
    /// bench's A/B perf gate where the full preset would dominate runner
    /// time.
    pub fn reduced(self) -> FrozenSynthesisSpec {
        FrozenSynthesisSpec {
            num_users: (self.num_users / 100).max(1),
            num_items: (self.num_items / 100).max(1),
            dim: self.dim,
            seed: self.seed,
        }
    }

    /// f32 bytes of one entity side — sizing hint for bench manifests.
    pub fn f32_bytes_per_side(self) -> usize {
        self.num_items.max(self.num_users) * self.dim * 4
    }
}

/// Dataset magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Unit-test size.
    Tiny,
    /// Seconds-per-model size (default for the experiment harness).
    Laptop,
    /// Full Table-1 magnitudes.
    Paper,
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "laptop" => Ok(Scale::Laptop),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale `{other}` (tiny|laptop|paper)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn all_profiles_produce_valid_configs() {
        for p in DatasetProfile::ALL {
            for scale in [Scale::Tiny, Scale::Laptop, Scale::Paper] {
                let cfg = p.config(scale, 1);
                cfg.validate()
                    .unwrap_or_else(|e| panic!("{} {:?}: {e}", p.name(), scale));
            }
        }
    }

    #[test]
    fn tiny_profiles_generate() {
        for p in DatasetProfile::ALL {
            let d = generate(&p.config(Scale::Tiny, 7)).unwrap();
            assert_eq!(d.name, p.name());
            assert!(d.split.num_eval_users() > 0);
        }
    }

    #[test]
    fn profiles_differ_in_scene_shape() {
        let e = DatasetProfile::Electronics.config(Scale::Laptop, 0);
        let f = DatasetProfile::Fashion.config(Scale::Laptop, 0);
        // Fashion has many small scenes; Electronics few large ones.
        assert!(f.num_scenes > e.num_scenes);
        assert!(e.scene_size_max > f.scene_size_max);
    }

    #[test]
    fn paper_scale_matches_table1_magnitudes() {
        let cfg = DatasetProfile::Electronics.config(Scale::Paper, 0);
        assert_eq!(cfg.num_items, 50_000);
        assert_eq!(cfg.num_categories, 78);
        assert_eq!(cfg.num_scenes, 54);
        assert_eq!(cfg.item_top_k, 300);
        assert_eq!(cfg.category_top_k, 100);
        assert_eq!(cfg.eval_negatives, 100);
    }

    #[test]
    fn scale_parses() {
        assert_eq!("laptop".parse::<Scale>().unwrap(), Scale::Laptop);
        assert_eq!("PAPER".parse::<Scale>().unwrap(), Scale::Paper);
        assert!("huge".parse::<Scale>().is_err());
    }

    #[test]
    fn paper_scale_plus_meets_roadmap_floor() {
        let spec = FrozenSynthesisSpec::paper_scale_plus(7);
        assert!(spec.num_users >= 1_000_000, "preset promises >=1M users");
        assert!(spec.num_items >= 500_000, "preset promises >=500k items");
        let small = spec.reduced();
        assert!(small.num_users >= 1 && small.num_users < spec.num_users);
        assert_eq!(small.dim, spec.dim);
        assert_eq!(small.seed, spec.seed);
        assert_eq!(
            spec.f32_bytes_per_side(),
            spec.num_items * spec.dim * 4,
            "1M x 32 f32 is 128 MiB per side"
        );
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(DatasetProfile::BabyToy.name(), "Baby & Toy");
        assert_eq!(DatasetProfile::FoodDrink.name(), "Food & Drink");
    }
}
