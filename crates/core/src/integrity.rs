//! Artifact integrity: content checksums for build products.
//!
//! Every artifact the build writes (`boot.bin`, `rootfs.img`, `bin.mexe`)
//! gets a `<name>.fp` sidecar holding the fingerprint of its bytes.
//! [`read_verified`] checks the sidecar on load, so corruption between
//! build and launch (bit-rot, torn writes, stray edits) is reported as an
//! actionable [`MarshalError::Corrupt`] instead of surfacing later as a
//! mysterious boot failure or — worse — a silently wrong simulation.
//!
//! The sidecar is a declared task output, so a build whose sidecar went
//! missing reruns the task that writes it; [`read_verified`] rejects an
//! artifact without one.

use std::path::{Path, PathBuf};

use marshal_depgraph::Fingerprint;

use crate::error::MarshalError;

/// The checksum sidecar for an artifact path (`boot.bin` → `boot.bin.fp`).
pub fn sidecar_path(artifact: &Path) -> PathBuf {
    let mut name = artifact.file_name().unwrap_or_default().to_os_string();
    name.push(".fp");
    artifact.with_file_name(name)
}

/// Writes an artifact and its checksum sidecar. Task-action flavour:
/// errors are plain strings, matching the depgraph `Action` signature.
///
/// # Errors
///
/// Describes the failing path on I/O errors.
pub fn write_artifact(path: &Path, bytes: &[u8]) -> Result<(), String> {
    marshal_depgraph::assert_claimed(path);
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    let sidecar = sidecar_path(path);
    marshal_depgraph::assert_claimed(&sidecar);
    std::fs::write(&sidecar, format!("{}\n", Fingerprint::of(bytes)))
        .map_err(|e| format!("write {}: {e}", sidecar.display()))
}

/// Reads an artifact, verifying it against its checksum sidecar.
///
/// # Errors
///
/// [`MarshalError::Io`] when the artifact is unreadable,
/// [`MarshalError::Corrupt`] when its sidecar is missing or its bytes no
/// longer match the recorded checksum (the message points at
/// `marshal build` to rebuild).
pub fn read_verified(path: &Path) -> Result<Vec<u8>, MarshalError> {
    let bytes = std::fs::read(path)
        .map_err(|e| MarshalError::Io(format!("read {}: {e}", path.display())))?;
    let sidecar = sidecar_path(path);
    let Ok(expected) = std::fs::read_to_string(&sidecar) else {
        return Err(MarshalError::Corrupt(format!(
            "{} has no checksum sidecar ({}); rerun `marshal build` to rebuild it",
            path.display(),
            sidecar.display()
        )));
    };
    let expected = expected.trim();
    let actual = Fingerprint::of(&bytes).to_string();
    if expected != actual {
        return Err(MarshalError::Corrupt(format!(
            "{} does not match its recorded checksum (expected {expected}, found {actual}); \
             the artifact was damaged after it was built — rerun `marshal build --force` \
             to rebuild it",
            path.display()
        )));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("marshal-integrity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_verifies() {
        let dir = tmpdir("roundtrip");
        let p = dir.join("boot.bin");
        write_artifact(&p, b"payload").unwrap();
        assert!(sidecar_path(&p).exists());
        assert_eq!(read_verified(&p).unwrap(), b"payload");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let dir = tmpdir("corrupt");
        let p = dir.join("rootfs.img");
        write_artifact(&p, b"good bytes").unwrap();
        std::fs::write(&p, b"bad bytes!").unwrap();
        let err = read_verified(&p).unwrap_err();
        let MarshalError::Corrupt(msg) = err else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(msg.contains("rootfs.img"), "{msg}");
        assert!(msg.contains("--force"), "actionable: {msg}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_sidecar_is_rejected() {
        let dir = tmpdir("no-sidecar");
        let p = dir.join("bin.mexe");
        std::fs::write(&p, b"unverifiable").unwrap();
        let err = read_verified(&p).unwrap_err();
        let MarshalError::Corrupt(msg) = err else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(msg.contains("bin.mexe.fp"), "{msg}");
        assert!(msg.contains("marshal build"), "actionable: {msg}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
