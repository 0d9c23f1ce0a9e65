//! Multi-universe tenancy: the table mapping universe ids to serving
//! [`SessionManager`]s.
//!
//! One gateway process hosts many universes — each with its own
//! immutable instance, session fleet, and (optionally) its own
//! durability directory. The registry is the routing table: request
//! paths carry a universe id (`/v1/universes/{uid}/…`), and the gateway
//! resolves it here before touching any session.
//!
//! A universe whose startup recovery **failed** is not silently absent —
//! it is registered as [`UniverseEntry::Failed`] with the recovery error
//! preserved, so requests against it answer `503` with the real cause
//! (e.g. a WAL stamped by a different universe fingerprint) instead of a
//! misleading `404`. Failing loudly over the wire is the whole point of
//! the fingerprint checks; swallowing them at the routing layer would
//! undo it.

use crate::durability::{DurabilityConfig, DurabilityError, RecoveryReport};
use crate::manager::{ServerConfig, SessionManager};
use jqi_core::Universe;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// What the registry knows about one universe id.
#[derive(Clone)]
pub enum UniverseEntry {
    /// Healthy: requests route to this manager.
    Serving(Arc<SessionManager>),
    /// Startup recovery failed; the error is served as `503` until an
    /// operator re-registers the universe.
    Failed {
        /// The preserved recovery error, verbatim.
        error: String,
    },
}

impl std::fmt::Debug for UniverseEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UniverseEntry::Serving(m) => f
                .debug_struct("Serving")
                .field(
                    "fingerprint",
                    &format_args!("{:016x}", m.universe_fingerprint()),
                )
                .finish(),
            UniverseEntry::Failed { error } => {
                f.debug_struct("Failed").field("error", error).finish()
            }
        }
    }
}

/// A universe id was rejected or collided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The id is already registered (serving or failed).
    Duplicate(String),
    /// The id is empty, too long, or contains characters outside
    /// `[A-Za-z0-9_-]` — ids are path segments and directory names, so
    /// the alphabet is restricted up front.
    InvalidId(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(uid) => write!(f, "universe {uid:?} is already registered"),
            RegistryError::InvalidId(uid) => write!(
                f,
                "invalid universe id {uid:?}: 1-64 characters of [A-Za-z0-9_-]"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Validates a universe id (also used by the gateway to pre-screen path
/// segments).
pub fn valid_universe_id(uid: &str) -> bool {
    !uid.is_empty()
        && uid.len() <= 64
        && uid
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// The id → universe routing table. Cheap to clone behind an `Arc`;
/// reads are lock-free in spirit (a short `RwLock` read).
#[derive(Debug, Default)]
pub struct UniverseRegistry {
    entries: RwLock<HashMap<String, UniverseEntry>>,
}

impl UniverseRegistry {
    /// An empty registry.
    pub fn new() -> UniverseRegistry {
        UniverseRegistry::default()
    }

    /// Registers an in-memory (non-durable) universe under `uid`.
    pub fn register(&self, uid: &str, manager: Arc<SessionManager>) -> Result<(), RegistryError> {
        self.insert(uid, UniverseEntry::Serving(manager))
    }

    /// Opens (or recovers) a **durable** universe under `uid`, with its
    /// WAL and spill segments rooted at `dir`.
    ///
    /// Pass the universe the directory was **created with**: on a fresh
    /// directory this creates an empty durable fleet on it; on an
    /// existing one it replays the WAL from it, re-applying every logged
    /// delta (see [`SessionManager::recover`]). Either way the storage
    /// headers are checked against `universe.fingerprint()` — a
    /// directory created by a *different* universe makes recovery fail,
    /// and the failure is **registered**: the uid resolves to
    /// [`UniverseEntry::Failed`] and every request against it answers
    /// `503` carrying this error.
    pub fn open_durable(
        &self,
        uid: &str,
        universe: Arc<Universe>,
        config: ServerConfig,
        durability: DurabilityConfig,
        dir: &Path,
    ) -> Result<(Arc<SessionManager>, RecoveryReport), DurabilityError> {
        // Reserve the slot first so a concurrent open of the same uid
        // cannot race two recoveries of one directory.
        if let Err(e) = self.insert(
            uid,
            UniverseEntry::Failed {
                error: "recovery in progress".into(),
            },
        ) {
            return Err(DurabilityError::Io(e.to_string()));
        }
        match SessionManager::recover(universe, config, durability, dir) {
            Ok((manager, report)) => {
                let manager = Arc::new(manager);
                self.entries.write().insert(
                    uid.to_string(),
                    UniverseEntry::Serving(Arc::clone(&manager)),
                );
                Ok((manager, report))
            }
            Err(error) => {
                self.entries.write().insert(
                    uid.to_string(),
                    UniverseEntry::Failed {
                        error: error.to_string(),
                    },
                );
                Err(error)
            }
        }
    }

    fn insert(&self, uid: &str, entry: UniverseEntry) -> Result<(), RegistryError> {
        if !valid_universe_id(uid) {
            return Err(RegistryError::InvalidId(uid.to_string()));
        }
        let mut entries = self.entries.write();
        if entries.contains_key(uid) {
            return Err(RegistryError::Duplicate(uid.to_string()));
        }
        entries.insert(uid.to_string(), entry);
        Ok(())
    }

    /// Resolves a universe id.
    pub fn lookup(&self, uid: &str) -> Option<UniverseEntry> {
        self.entries.read().get(uid).cloned()
    }

    /// Drops a universe from the table (its sessions die with the
    /// manager's last `Arc`). Returns whether the uid existed.
    pub fn remove(&self, uid: &str) -> bool {
        self.entries.write().remove(uid).is_some()
    }

    /// All registered ids, sorted (for deterministic stats output).
    pub fn uids(&self) -> Vec<String> {
        let mut uids: Vec<String> = self.entries.read().keys().cloned().collect();
        uids.sort();
        uids
    }

    /// Number of registered universes (serving + failed).
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_core::paper::flight_hotel;

    fn manager() -> Arc<SessionManager> {
        let universe = Arc::new(Universe::build(flight_hotel()));
        Arc::new(SessionManager::new(universe, ServerConfig::default()))
    }

    #[test]
    fn register_lookup_remove_round_trip() {
        let registry = UniverseRegistry::new();
        registry.register("flights", manager()).unwrap();
        assert!(matches!(
            registry.lookup("flights"),
            Some(UniverseEntry::Serving(_))
        ));
        assert!(registry.lookup("hotels").is_none());
        assert_eq!(registry.uids(), vec!["flights".to_string()]);
        assert!(registry.remove("flights"));
        assert!(!registry.remove("flights"));
        assert!(registry.is_empty());
    }

    #[test]
    fn duplicate_and_invalid_ids_are_rejected() {
        let registry = UniverseRegistry::new();
        registry.register("u1", manager()).unwrap();
        assert_eq!(
            registry.register("u1", manager()),
            Err(RegistryError::Duplicate("u1".into()))
        );
        for bad in ["", "has space", "a/b", "x".repeat(65).as_str()] {
            assert_eq!(
                registry.register(bad, manager()),
                Err(RegistryError::InvalidId(bad.into()))
            );
        }
    }

    #[test]
    fn failed_recovery_is_registered_not_forgotten() {
        use crate::durability::DurabilityConfig;
        use jqi_core::paper::example_2_1;

        let dir = std::env::temp_dir().join(format!("jqi-registry-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Write a durable directory under universe A…
        let registry = UniverseRegistry::new();
        let a = Arc::new(Universe::build(flight_hotel()));
        let (m, _) = registry
            .open_durable(
                "tenant",
                Arc::clone(&a),
                ServerConfig::default(),
                DurabilityConfig::default(),
                &dir,
            )
            .unwrap();
        m.create_session(jqi_core::StrategyConfig::Bu).unwrap();
        m.flush_wal().unwrap();
        drop(m);

        // …then try to serve the same directory as universe B.
        let registry2 = UniverseRegistry::new();
        let b = Arc::new(Universe::build(example_2_1()));
        let err = registry2
            .open_durable(
                "tenant",
                b,
                ServerConfig::default(),
                DurabilityConfig::default(),
                &dir,
            )
            .unwrap_err();
        assert!(
            matches!(err, DurabilityError::FingerprintMismatch { .. }),
            "got {err}"
        );
        match registry2.lookup("tenant") {
            Some(UniverseEntry::Failed { error }) => {
                assert!(error.contains("fingerprint mismatch"), "got {error:?}")
            }
            other => panic!("expected Failed entry, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
