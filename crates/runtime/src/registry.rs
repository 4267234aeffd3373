//! The versioned converter registry: on-disk artifact store plus
//! admission gating for hot-swaps.
//!
//! A [`ConverterRegistry`] is bound to one *service contract* (the
//! unchanged top-level [`Spec`]) and hands out monotonically numbered
//! converter versions. Admission of candidate bytes is the runtime's
//! refinement check, in three layers:
//!
//! 1. **Integrity** — [`CompiledArtifact::decode`]: magic, format,
//!    content hash, strict bounds on every field.
//! 2. **Self-agreement** — [`CompiledArtifact::instantiate`]: the
//!    guard rebuilt from the embedded specs must hash to the stored
//!    tables digest, and carry the stored event-table hash.
//! 3. **Contract** — the embedded service spec must equal the
//!    registry's, and the full product check
//!    ([`protoquot_spec::CompiledSystem::verify`]) must re-prove that
//!    the parts satisfy it. It runs on the system `instantiate` compiled
//!    for the guard, so admission compiles `B ‖ C` once. A converter
//!    that would convict honest traffic can never go live, no matter
//!    what its artifact claims.
//!
//! Only then is the artifact persisted (content-addressed as
//! `<content-hash>.pqca` under the registry directory, written to a
//! temporary name and renamed into place) and assigned
//! the next version number. The returned [`AdmittedVersion`] carries
//! the compiled [`GuardProgram`] ready for [`Gateway::swap`]; the
//! gateway — not the registry — owns the active/draining version
//! slots and the per-version session accounting.
//!
//! [`Gateway::swap`]: crate::gateway::Gateway::swap

use crate::artifact::{ArtifactError, CompiledArtifact};
use crate::guard::GuardProgram;
use protoquot_spec::Spec;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a candidate artifact was refused admission (or the store
/// misbehaved).
#[derive(Debug)]
pub enum RegistryError {
    /// Reading or writing the on-disk store failed.
    Io(io::Error),
    /// The bytes failed integrity or self-agreement checks.
    Artifact(ArtifactError),
    /// The artifact was derived against a different service contract
    /// than the one this registry serves.
    ServiceMismatch {
        /// Name of the service the registry is bound to.
        expected: String,
        /// Name of the service embedded in the artifact.
        got: String,
    },
    /// The rebuilt system failed the contract check: it does not
    /// satisfy the service.
    Refused(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry store: {e}"),
            RegistryError::Artifact(e) => write!(f, "{e}"),
            RegistryError::ServiceMismatch { expected, got } => write!(
                f,
                "artifact serves contract `{got}`, registry is bound to `{expected}`"
            ),
            RegistryError::Refused(m) => write!(f, "admission refused: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> RegistryError {
        RegistryError::Io(e)
    }
}

impl From<ArtifactError> for RegistryError {
    fn from(e: ArtifactError) -> RegistryError {
        RegistryError::Artifact(e)
    }
}

/// One admitted converter version, ready to go live.
pub struct AdmittedVersion {
    /// The version number assigned by the registry (monotonic).
    pub version: u32,
    /// Content hash of the artifact — its identity in the store.
    pub content_hash: u64,
    /// Event-table hash — the wire identity it negotiates.
    pub table_hash: u64,
    /// The compiled guard, ready for `Gateway::swap`.
    pub program: Arc<GuardProgram>,
    /// Where the artifact was persisted.
    pub path: PathBuf,
}

/// A directory of verified converter artifacts for one service
/// contract, handing out monotonically numbered versions.
pub struct ConverterRegistry {
    dir: PathBuf,
    service: Spec,
    next_version: u32,
}

impl ConverterRegistry {
    /// Opens (creating if needed) the registry directory `dir`, bound
    /// to `service`. The first admitted artifact becomes version
    /// `base_version + 1` — pass the gateway's current active version
    /// so swaps are always strictly newer.
    pub fn open<P: AsRef<Path>>(
        dir: P,
        service: &Spec,
        base_version: u32,
    ) -> io::Result<ConverterRegistry> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ConverterRegistry {
            dir,
            service: service.clone(),
            next_version: base_version.saturating_add(1),
        })
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The version the next admitted artifact will receive.
    pub fn next_version(&self) -> u32 {
        self.next_version
    }

    /// Content hashes of every artifact currently persisted in the
    /// store (files named `<hash>.pqca`), sorted.
    pub fn stored(&self) -> io::Result<Vec<u64>> {
        let mut hashes = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().and_then(|e| e.to_str()) != Some("pqca") {
                continue;
            }
            if let Ok(h) = u64::from_str_radix(stem, 16) {
                hashes.push(h);
            }
        }
        hashes.sort_unstable();
        Ok(hashes)
    }

    /// Runs the full admission gate on candidate bytes; on success the
    /// artifact is persisted and the next version number assigned.
    ///
    /// The admitted program is *not* installed anywhere — pass
    /// `AdmittedVersion::program` to `Gateway::swap` to take it live.
    pub fn admit(&mut self, bytes: &[u8]) -> Result<AdmittedVersion, RegistryError> {
        let artifact = CompiledArtifact::decode(bytes)?;
        let (_, service, prog) = artifact.instantiate()?;
        if service != self.service {
            return Err(RegistryError::ServiceMismatch {
                expected: self.service.name().to_string(),
                got: service.name().to_string(),
            });
        }
        // The refinement re-check: the embedded system must still
        // satisfy the unchanged contract, proven by the same engine
        // that admitted the original derivation — on the system
        // `instantiate` just compiled for the guard, not a second
        // compile of the same parts.
        let verdict = prog.system().verify();
        if let Err(violation) = &verdict.verdict {
            return Err(RegistryError::Refused(format!(
                "system does not satisfy `{}`: {violation}",
                self.service.name()
            )));
        }
        let path = self.store(artifact.content_hash, bytes)?;
        let version = self.next_version;
        self.next_version += 1;
        Ok(AdmittedVersion {
            version,
            content_hash: artifact.content_hash,
            table_hash: artifact.table_hash,
            program: Arc::new(prog),
            path,
        })
    }

    /// Persists `bytes` as `<hash>.pqca`. The file is content-addressed,
    /// so one of the right length is kept; any other (a write torn by a
    /// crash) is replaced. The bytes go to a temporary name in the same
    /// directory first and are renamed into place, so the final name
    /// never holds a partial write.
    fn store(&self, hash: u64, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = self.dir.join(format!("{hash:016x}.pqca"));
        if fs::metadata(&path).is_ok_and(|m| m.len() == bytes.len() as u64) {
            return Ok(path);
        }
        let tmp = self
            .dir
            .join(format!("{hash:016x}.pqca.{}.tmp", std::process::id()));
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, &path).inspect_err(|_| drop(fs::remove_file(&tmp)))?;
        Ok(path)
    }

    /// [`ConverterRegistry::admit`] on a file.
    pub fn admit_file<P: AsRef<Path>>(
        &mut self,
        path: P,
    ) -> Result<AdmittedVersion, RegistryError> {
        let bytes = fs::read(path)?;
        self.admit(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::encode;
    use protoquot_core::{converter_verdict, solve};
    use protoquot_protocols::{
        at_least_once, colocated_configuration, exactly_once, symmetric_configuration,
    };
    use protoquot_sim::redirect_transition;
    use protoquot_spec::verify_system;

    fn derived() -> (Vec<Spec>, Spec) {
        let system = colocated_configuration();
        let service = exactly_once();
        let q = solve(&system.b, &service, &system.int).expect("converter derives");
        (vec![system.b.clone(), q.converter], service)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("protoquot-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn admits_verified_artifacts_with_monotonic_versions() {
        let (parts, service) = derived();
        let refs: Vec<&Spec> = parts.iter().collect();
        let bytes = encode(&refs, &service).unwrap();
        let dir = tempdir("admit");
        let mut reg = ConverterRegistry::open(&dir, &service, 1).unwrap();
        let v2 = reg.admit(&bytes).expect("verified artifact admits");
        assert_eq!(v2.version, 2);
        assert!(v2.path.exists());
        assert_eq!(reg.stored().unwrap(), vec![v2.content_hash]);
        // Re-admitting the same bytes assigns a fresh version but
        // reuses the content-addressed file.
        let v3 = reg.admit(&bytes).unwrap();
        assert_eq!(v3.version, 3);
        assert_eq!(v3.content_hash, v2.content_hash);
        assert_eq!(reg.stored().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `<hash>.pqca` torn by a crash mid-write is replaced with the
    /// full bytes when the same artifact is admitted again.
    #[test]
    fn a_truncated_store_file_is_replaced() {
        let (parts, service) = derived();
        let refs: Vec<&Spec> = parts.iter().collect();
        let bytes = encode(&refs, &service).unwrap();
        let hash = CompiledArtifact::decode(&bytes).unwrap().content_hash;
        let dir = tempdir("torn");
        let mut reg = ConverterRegistry::open(&dir, &service, 1).unwrap();
        let path = dir.join(format!("{hash:016x}.pqca"));
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let v2 = reg.admit(&bytes).expect("verified artifact admits");
        assert_eq!(v2.path, path);
        assert_eq!(fs::read(&path).unwrap(), bytes);
        assert_eq!(reg.stored().unwrap(), vec![hash]);
        let names = fs::read_dir(&dir).unwrap().count();
        assert_eq!(names, 1, "no temporary file is left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A format 1 artifact, which stores the guard tables in place of
    /// their digest, still admits.
    #[test]
    fn admits_a_format_1_artifact() {
        let dir = tempdir("format1");
        let mut reg = ConverterRegistry::open(&dir, &exactly_once(), 1).unwrap();
        let v2 = reg
            .admit(crate::fuzz::COLOCATED_V1)
            .expect("the v1 fixture admits");
        assert_eq!(v2.content_hash, 0xfaf8_7c19_818a_d985);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A mutant converter — a transition redirected so the system no
    /// longer satisfies the service — is refused at admission even
    /// though its artifact is internally consistent (encoded from the
    /// mutant itself, so hash and tables all agree).
    #[test]
    fn mutant_converter_is_refused_at_admission() {
        let (parts, service) = derived();
        let dir = tempdir("mutant");
        let mut refused = false;
        for k in 0..16 {
            let Some(mutant) = redirect_transition(&parts[1], k) else {
                break;
            };
            let mutated: Vec<&Spec> = vec![&parts[0], &mutant];
            let Ok(bytes) = encode(&mutated, &service) else {
                // A mutant that cannot even compile a guard never
                // reaches admission; try the next one.
                continue;
            };
            let mut reg = ConverterRegistry::open(&dir, &service, 1).unwrap();
            if let Err(RegistryError::Refused(msg)) = reg.admit(&bytes) {
                // The refusal names exactly the violation a standalone
                // `verify_system` finds on the same parts.
                let violation = verify_system(&mutated, &service)
                    .unwrap()
                    .verdict
                    .expect_err("a refused mutant fails verification");
                assert_eq!(
                    msg,
                    format!("system does not satisfy `{}`: {violation}", service.name())
                );
                // Nothing was persisted and no version was burned.
                assert_eq!(reg.stored().unwrap(), Vec::<u64>::new());
                assert_eq!(reg.next_version(), 2);
                refused = true;
                break;
            }
            let _ = fs::remove_dir_all(&dir);
        }
        assert!(
            refused,
            "some redirected-transition mutant must be refused at admission"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Admission runs the product check on the minimized system; its
    /// verdict is the literal system's on every single-transition mutant
    /// of the colocated (Fig. 13) and weakened symmetric (Fig. 9, §5)
    /// converters.
    #[test]
    fn admission_agrees_with_the_literal_verdict_on_every_mutant() {
        let systems = [
            (colocated_configuration(), exactly_once()),
            (symmetric_configuration(), at_least_once()),
        ];
        let dir = tempdir("verdicts");
        for (cfg, service) in &systems {
            let c = solve(&cfg.b, service, &cfg.int).unwrap().converter;
            let mut reg = ConverterRegistry::open(&dir, service, 0).unwrap();
            for (k, mutant) in (0..).map_while(|k| Some((k, redirect_transition(&c, k)?))) {
                let literal = converter_verdict(&cfg.b, service, &mutant).unwrap();
                let bytes = encode(&[&cfg.b, &mutant], service).unwrap();
                match reg.admit(&bytes) {
                    Ok(_) => assert!(literal.is_ok(), "{}/mut{k} admitted", service.name()),
                    Err(RegistryError::Refused(_)) => {
                        assert!(literal.is_err(), "{}/mut{k} refused", service.name())
                    }
                    Err(e) => panic!("{}/mut{k}: {e}", service.name()),
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_service_contract_is_refused() {
        let (parts, service) = derived();
        let refs: Vec<&Spec> = parts.iter().collect();
        let bytes = encode(&refs, &service).unwrap();
        let mut b = protoquot_spec::SpecBuilder::new("other-contract");
        let s0 = b.state("s0");
        for e in ["a", "b"] {
            b.ext(s0, e, s0);
        }
        let other = b.build().unwrap();
        let dir = tempdir("contract");
        let mut reg = ConverterRegistry::open(&dir, &other, 1).unwrap();
        assert!(matches!(
            reg.admit(&bytes),
            Err(RegistryError::ServiceMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_bytes_are_an_artifact_error() {
        let (_, service) = derived();
        let dir = tempdir("corrupt");
        let mut reg = ConverterRegistry::open(&dir, &service, 0).unwrap();
        assert!(matches!(
            reg.admit(b"not an artifact"),
            Err(RegistryError::Artifact(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
