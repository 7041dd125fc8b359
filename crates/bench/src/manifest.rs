//! Shared manifest plumbing for the experiment binaries.
//!
//! Every binary finishes by writing a [`RunManifest`] — configuration,
//! git revision, span timings and the final results payload, whose
//! per-model `phases` hold each training's wall-time breakdown — under
//! `results/` (or next to `--out` when one was given), so any printed
//! table can be traced back to the run that produced it.

use crate::harness::HarnessConfig;
use scenerec_obs::RunManifest;
use serde::Serialize;
use std::path::PathBuf;

/// Starts a manifest for `binary`, pre-filled from the harness
/// configuration (seed, scale, full config dump).
pub fn manifest_for(binary: &str, hc: &HarnessConfig) -> RunManifest {
    RunManifest::new(binary)
        .with_config(hc)
        .with_seed(hc.data_seed)
        .with_scale(format!("{:?}", hc.scale).to_ascii_lowercase())
}

/// Attaches `results` and an empty span-timing table (these binaries
/// trace nothing), and writes the manifest: as `<out>`'s sibling
/// `<stem>.manifest.json` when `--out` was given, else
/// `results/<binary>.manifest.json`. Returns the path.
///
/// # Panics
/// Panics when the manifest cannot be written (a bench run without its
/// provenance record is treated as failed).
pub fn write_manifest<T: Serialize>(m: RunManifest, results: &T, out: Option<&str>) -> PathBuf {
    let binary = m.binary.clone();
    let m = m.with_results(results).capture_telemetry(&[]);
    match out {
        Some(out) => m
            .write_next_to(out)
            .unwrap_or_else(|e| panic!("write manifest next to {out}: {e}")),
        None => {
            let p = PathBuf::from("results").join(format!("{binary}.manifest.json"));
            m.write_json(&p)
                .unwrap_or_else(|e| panic!("write manifest {}: {e}", p.display()));
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_prefills_from_config() {
        let hc = HarnessConfig::default();
        let m = manifest_for("unit", &hc);
        assert_eq!(m.binary, "unit");
        assert_eq!(m.seed, Some(hc.data_seed));
        assert_eq!(m.scale.as_deref(), Some("laptop"));
        let json = m.to_json();
        assert!(
            json.contains("\"learning_rate\""),
            "config dump missing:\n{json}"
        );
    }

    #[test]
    fn write_manifest_places_file_next_to_out() {
        let dir = std::env::temp_dir().join(format!("bench-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("run.json");
        let hc = HarnessConfig::default();
        let path = write_manifest(
            manifest_for("unit", &hc),
            &vec![1u32, 2, 3],
            Some(out.to_str().unwrap()),
        );
        assert_eq!(path, dir.join("run.manifest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let v = serde_json::parse_value(&text).unwrap();
        assert_eq!(v.get("binary").and_then(|b| b.as_str()), Some("unit"));
        assert!(v.get("results").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
