//! One registry of every versioned artifact schema the harness emits.
//!
//! Each artifact family (run manifest, attribution report, cycle audit,
//! host profile, events stream, …) stamps its documents with a
//! `"schema"` name and an integer `"version"`. Those pairs used to live
//! as string literals scattered across the emitting modules; this
//! module is now the single source of truth. Emitters keep their local
//! `*_SCHEMA` constants for doc-comment discoverability, but each one
//! is defined *from* the registry entry, so a rename or version bump
//! happens in exactly one place and `validate_json --list-schemas`
//! can enumerate everything the toolchain understands.
//!
//! Adding a new artifact family is a one-line registration here plus a
//! `check` arm in `validate_json`.

use crate::json::Json;

/// A versioned artifact schema: the `"schema"` / `"version"` pair every
/// document of that family carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schema {
    /// The `"schema"` member (e.g. `"gvf.run-manifest"`).
    pub id: &'static str,
    /// The `"version"` member.
    pub version: u32,
}

impl Schema {
    /// A fresh document carrying this schema's two header members —
    /// the standard opening every emitter builds on.
    pub fn header(&self) -> Json {
        Json::obj()
            .with("schema", Json::str(self.id))
            .with("version", Json::num_u64(self.version as u64))
    }

    /// Whether `doc` claims this schema (by its top-level `"schema"`
    /// member).
    pub fn matches(&self, doc: &Json) -> bool {
        doc.get("schema").and_then(Json::as_str) == Some(self.id)
    }
}

/// The per-run manifest: config, per-cell [`gvf_sim::Stats`], hostPerf.
pub const RUN_MANIFEST: Schema = Schema {
    id: "gvf.run-manifest",
    version: 2,
};
/// Per-epoch metrics series for the probed cell.
pub const METRICS: Schema = Schema {
    id: "gvf.metrics",
    version: 1,
};
/// Mechanism attribution: per-(PC, AccessTag) load accounting.
pub const ATTRIBUTION: Schema = Schema {
    id: "gvf.attribution",
    version: 1,
};
/// Deterministic cycle audit: six-way cycle classification per cell.
pub const CYCLEAUDIT: Schema = Schema {
    id: "gvf.cycleaudit",
    version: 1,
};
/// Host profile: the host-time collector's per-layer kernel time
/// (wall-clock; excluded from determinism).
pub const HOSTPROFILE: Schema = Schema {
    id: "gvf.hostprofile",
    version: 2,
};
/// Chrome trace-event timeline of the probed cell.
pub const TIMELINE: Schema = Schema {
    id: gvf_sim::TIMELINE_SCHEMA,
    version: gvf_sim::TIMELINE_SCHEMA_VERSION,
};
/// Host performance section embedded in the manifest.
pub const HOSTPERF: Schema = Schema {
    id: "gvf.hostperf",
    version: 2,
};
/// Append-only benchmark trajectory (`BENCH_gvf.json`).
pub const TRAJECTORY: Schema = Schema {
    id: "gvf.bench-trajectory",
    version: 2,
};
/// Content-addressed cell-cache entries.
pub const CELLCACHE: Schema = Schema {
    id: "gvf.cellcache",
    version: 3,
};
/// Live JSONL telemetry stream.
/// v3: no `resource` samples; `stall` carries no stacks or engine
/// counters; `runStart` carries no `stallFactor`.
pub const EVENTS: Schema = Schema {
    id: "gvf.events",
    version: 3,
};

/// Every schema the toolchain understands, in the order
/// `validate_json --list-schemas` prints them.
pub const ALL: &[Schema] = &[
    RUN_MANIFEST,
    METRICS,
    ATTRIBUTION,
    CYCLEAUDIT,
    HOSTPROFILE,
    TIMELINE,
    HOSTPERF,
    TRAJECTORY,
    CELLCACHE,
    EVENTS,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_gvf_prefixed() {
        for (i, s) in ALL.iter().enumerate() {
            assert!(s.id.starts_with("gvf."), "{} lacks the gvf. prefix", s.id);
            assert!(s.version >= 1);
            for other in &ALL[i + 1..] {
                assert_ne!(s.id, other.id, "duplicate schema id");
            }
        }
    }

    #[test]
    fn header_stamps_both_members() {
        let doc = CYCLEAUDIT.header();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("gvf.cycleaudit")
        );
        assert_eq!(doc.get("version").and_then(Json::as_num), Some(1.0));
        assert!(CYCLEAUDIT.matches(&doc));
        assert!(!RUN_MANIFEST.matches(&doc));
    }

    #[test]
    fn registry_matches_the_emitters() {
        // The emitting modules define their local constants *from* the
        // registry; this pins the linkage in both directions.
        assert_eq!(crate::manifest::MANIFEST_SCHEMA, RUN_MANIFEST.id);
        assert_eq!(
            crate::manifest::MANIFEST_SCHEMA_VERSION,
            RUN_MANIFEST.version
        );
        assert_eq!(crate::manifest::ATTRIB_SCHEMA, ATTRIBUTION.id);
        assert_eq!(crate::manifest::CYCLEAUDIT_SCHEMA, CYCLEAUDIT.id);
        assert_eq!(crate::manifest::HOSTPROFILE_SCHEMA, HOSTPROFILE.id);
        assert_eq!(crate::manifest::METRICS_SCHEMA, METRICS.id);
        assert_eq!(crate::hostperf::HOSTPERF_SCHEMA, HOSTPERF.id);
        assert_eq!(crate::cellcache::CELLCACHE_SCHEMA, CELLCACHE.id);
        assert_eq!(crate::events::EVENTS_SCHEMA, EVENTS.id);
        assert_eq!(crate::bench_history::TRAJECTORY_SCHEMA, TRAJECTORY.id);
        assert_eq!(gvf_sim::TIMELINE_SCHEMA, TIMELINE.id);
    }
}
