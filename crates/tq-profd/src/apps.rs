//! Workload construction and content addressing.
//!
//! A [`Workload`] is everything a capture run needs: the compiled program
//! and its staged input file. Its [`Workload::digest`] is the capture
//! cache's content address — a 128-bit digest over the program's
//! instruction encodings, symbol tables, initialised data, entry point and
//! the input bytes. Two `(app, scale)` pairs that compile to the identical
//! program and input share one capture; any change to kernels, compiler
//! output or input synthesis changes the address and transparently forces
//! a fresh recording.

use tq_imgproc::{ImgApp, ImgConfig};
use tq_isa::Program;
use tq_trace::{digest_program, Digest128};
use tq_wfs::{WfsApp, WfsConfig};

/// Which case-study application a job profiles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AppId {
    /// The hArtes wfs audio application (the paper's case study).
    Wfs,
    /// The image-processing second application.
    Img,
}

impl AppId {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            AppId::Wfs => "wfs",
            AppId::Img => "img",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Result<AppId, String> {
        match s {
            "wfs" => Ok(AppId::Wfs),
            "img" | "imgproc" => Ok(AppId::Img),
            other => Err(format!("unknown app `{other}` (wfs|img)")),
        }
    }
}

/// Workload scale.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scale {
    /// Smallest (sub-second capture; tests and smoke runs).
    Tiny,
    /// Mid-size.
    Small,
    /// Paper-scaled.
    Paper,
}

impl Scale {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale `{other}` (tiny|small|paper)")),
        }
    }

    /// The wfs configuration at this scale.
    pub fn wfs_config(self) -> WfsConfig {
        match self {
            Scale::Tiny => WfsConfig::tiny(),
            Scale::Small => WfsConfig::small(),
            Scale::Paper => WfsConfig::paper_scaled(),
        }
    }

    /// The image-pipeline configuration at this scale.
    pub fn img_config(self) -> ImgConfig {
        match self {
            Scale::Tiny => ImgConfig::tiny(),
            Scale::Small => ImgConfig::small(),
            Scale::Paper => ImgConfig::scaled(),
        }
    }
}

/// A buildable capture workload: program plus staged input.
pub struct Workload {
    /// The compiled program.
    pub program: Program,
    /// Input file name staged into the VM's host filesystem.
    pub input_name: String,
    /// Input file bytes.
    pub input_bytes: Vec<u8>,
}

impl Workload {
    /// Build the workload for an `(app, scale)` pair. Construction is
    /// deterministic (fixed synthesis seeds), so the digest is stable
    /// across processes and sessions.
    pub fn build(app: AppId, scale: Scale) -> Workload {
        match app {
            AppId::Wfs => {
                let a = WfsApp::build(scale.wfs_config());
                Workload {
                    program: a.compiled.program.clone(),
                    input_name: tq_wfs::INPUT_WAV.into(),
                    input_bytes: a.input_wav,
                }
            }
            AppId::Img => {
                let a = ImgApp::build(scale.img_config());
                Workload {
                    program: a.compiled.program.clone(),
                    input_name: tq_imgproc::INPUT_PGM.into(),
                    input_bytes: a.input_pgm,
                }
            }
        }
    }

    /// The content address: program + input, as 32 hex chars.
    pub fn digest(&self) -> String {
        let mut d = Digest128::new();
        digest_program(&mut d, &self.program);
        d.update_str(&self.input_name);
        d.update_u64(self.input_bytes.len() as u64);
        d.update(&self.input_bytes);
        d.finish_hex()
    }

    /// A fresh VM with the input staged.
    pub fn make_vm(&self) -> Result<tq_vm::Vm, String> {
        let mut vm = tq_vm::Vm::new(self.program.clone()).map_err(|e| e.to_string())?;
        vm.fs_mut()
            .add_file(&self.input_name, self.input_bytes.clone());
        Ok(vm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_roundtrip() {
        for app in [AppId::Wfs, AppId::Img] {
            assert_eq!(AppId::parse(app.as_str()).unwrap(), app);
        }
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(Scale::parse(scale.as_str()).unwrap(), scale);
        }
        assert!(AppId::parse("x").is_err());
        assert!(Scale::parse("x").is_err());
    }

    #[test]
    fn digest_is_stable_and_discriminates() {
        let a1 = Workload::build(AppId::Wfs, Scale::Tiny).digest();
        let a2 = Workload::build(AppId::Wfs, Scale::Tiny).digest();
        assert_eq!(a1, a2, "deterministic builds give a stable address");
        let b = Workload::build(AppId::Img, Scale::Tiny).digest();
        assert_ne!(a1, b, "different apps have different addresses");
    }
}
