//! # mcpart-workloads — synthetic Mediabench / DSP-kernel workloads
//!
//! Deterministic IR generators modeled on the benchmarks of the paper's
//! evaluation (Mediabench applications plus DSP kernels). Each workload
//! is a runnable program — its [`mcpart_ir::Profile`] is gathered by
//! actually executing it in the functional simulator — with the data
//! object mix (lookup tables, state scalars, heap buffers) and access
//! structure that make data partitioning matter.
//!
//! ```
//! let w = mcpart_workloads::by_name("rawcaudio").expect("known benchmark");
//! assert!(w.num_objects() >= 5);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

mod adpcm;
mod epic;
mod g721;
mod gen;
mod gsm;
mod jpeg;
mod kernels;
mod kernels2;
mod mpeg2;
mod pegwit;
#[cfg(test)]
mod tests_structure;

pub use gen::{
    clamp_const, counted_loop, init_table4, load_elem4, load_ptr4, store_elem4, store_ptr4, Loop,
    Suite, SynthSpec, SynthSpecError, Workload, WorkloadError,
};

/// Builds one bundled workload (verifies and profiles its program).
type Constructor = fn() -> Workload;

/// The bundled benchmarks: name, suite and constructor, Mediabench
/// first, then the DSP kernels. [`all`], [`by_name`] and [`names`] all
/// read this one table, so a single lookup builds a single program.
const REGISTRY: &[(&str, Suite, Constructor)] = &[
    ("cjpeg", Suite::Mediabench, jpeg::cjpeg),
    ("djpeg", Suite::Mediabench, jpeg::djpeg),
    ("epic", Suite::Mediabench, epic::epic),
    ("unepic", Suite::Mediabench, epic::unepic),
    ("g721encode", Suite::Mediabench, g721::g721encode),
    ("g721decode", Suite::Mediabench, g721::g721decode),
    ("gsmencode", Suite::Mediabench, gsm::gsmencode),
    ("gsmdecode", Suite::Mediabench, gsm::gsmdecode),
    ("mpeg2dec", Suite::Mediabench, mpeg2::mpeg2dec),
    ("mpeg2enc", Suite::Mediabench, mpeg2::mpeg2enc),
    ("pegwit", Suite::Mediabench, pegwit::pegwit),
    ("rawcaudio", Suite::Mediabench, adpcm::rawcaudio),
    ("rawdaudio", Suite::Mediabench, adpcm::rawdaudio),
    ("fir", Suite::Dsp, kernels::fir),
    ("fft", Suite::Dsp, kernels::fft),
    ("fsed", Suite::Dsp, kernels::fsed),
    ("sobel", Suite::Dsp, kernels::sobel),
    ("latnrm", Suite::Dsp, kernels::latnrm),
    ("matmul", Suite::Dsp, kernels::matmul),
    ("viterbi", Suite::Dsp, kernels2::viterbi),
    ("autcor", Suite::Dsp, kernels2::autcor),
    ("histogram", Suite::Dsp, kernels2::histogram),
];

/// All workloads, Mediabench first, then the DSP kernels.
pub fn all() -> Vec<Workload> {
    REGISTRY.iter().map(|&(_, _, build)| build()).collect()
}

/// The bundled benchmark names with their suites, in [`all`] order,
/// without building any program.
pub fn names() -> impl Iterator<Item = (&'static str, Suite)> {
    REGISTRY.iter().map(|&(name, suite, _)| (name, suite))
}

/// Looks up one workload by its benchmark name, building only that
/// program. Synthetic preset names (`synth_10k`, `synth_100k`,
/// `synth_1m`) resolve too; arbitrary synthetic specs go through
/// [`synth`].
pub fn by_name(name: &str) -> Option<Workload> {
    if name.starts_with("synth_") {
        return synth(name);
    }
    REGISTRY.iter().find(|&&(n, _, _)| n == name).map(|&(_, _, build)| build())
}

/// Why [`synth_result`] failed: the spec string itself, or
/// (pathologically — a generator bug) the generated program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// The spec string failed to parse ([`SynthSpec::parse`]).
    Spec(SynthSpecError),
    /// The generated program failed workload construction.
    Workload(WorkloadError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Spec(e) => e.fmt(f),
            SynthError::Workload(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SynthError {}

/// Generates a synthetic workload from a preset name (`synth_10k`,
/// `synth_100k`, `synth_1m`) or a `key=value,...` spec string
/// ([`SynthSpec::parse`]). Returns `None` when the string parses as
/// neither; [`synth_result`] keeps the diagnostic.
pub fn synth(spec: &str) -> Option<Workload> {
    synth_result(spec).ok()
}

/// Like [`synth`], but surfaces *why* a spec was rejected — column
/// diagnostics from the parser, verifier output from generation.
///
/// # Errors
///
/// Returns [`SynthError`] when the spec fails to parse or the
/// generated program fails construction.
pub fn synth_result(spec: &str) -> Result<Workload, SynthError> {
    let parsed = SynthSpec::parse(spec).map_err(SynthError::Spec)?;
    parsed.try_generate(spec).map_err(SynthError::Workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark order `results/` and the experiments depend on.
    const ORDER: [&str; 22] = [
        "cjpeg",
        "djpeg",
        "epic",
        "unepic",
        "g721encode",
        "g721decode",
        "gsmencode",
        "gsmdecode",
        "mpeg2dec",
        "mpeg2enc",
        "pegwit",
        "rawcaudio",
        "rawdaudio",
        "fir",
        "fft",
        "fsed",
        "sobel",
        "latnrm",
        "matmul",
        "viterbi",
        "autcor",
        "histogram",
    ];

    #[test]
    fn all_keeps_the_pinned_order() {
        let built: Vec<String> = all().into_iter().map(|w| w.name).collect();
        assert_eq!(built, ORDER);
        let listed: Vec<&str> = names().map(|(n, _)| n).collect();
        assert_eq!(listed, ORDER);
    }

    #[test]
    fn by_name_builds_the_same_program_as_all() {
        for w in all() {
            let one = by_name(&w.name).unwrap_or_else(|| panic!("{} not found", w.name));
            assert_eq!(
                mcpart_ir::program_to_string(&one.program),
                mcpart_ir::program_to_string(&w.program),
                "{}: printed IR differs",
                w.name
            );
            assert_eq!(one.profile, w.profile, "{}: profile differs", w.name);
            assert_eq!((one.name, one.suite), (w.name, w.suite));
        }
    }

    #[test]
    fn constructors_match_their_table_keys() {
        for &(name, suite, build) in REGISTRY {
            let w = build();
            assert_eq!((w.name.as_str(), w.suite), (name, suite));
        }
        assert!(names().all(|(_, s)| s != Suite::Synthetic));
    }

    #[test]
    fn unknown_names_resolve_to_none() {
        for name in ["nonexistent", "", "CJPEG", "fir ", "synth_bogus"] {
            assert!(by_name(name).is_none(), "{name:?} resolved");
        }
        assert_eq!(by_name("synth_10k").map(|w| w.suite), Some(Suite::Synthetic));
    }

    #[test]
    fn synth_presets_resolve_through_by_name() {
        let w = by_name("synth_10k").expect("preset");
        assert_eq!(w.suite, Suite::Synthetic);
        assert_eq!(w.name, "synth_10k");
        // Sized to the target within a generous tolerance.
        let ops = w.num_ops();
        assert!((8_000..14_000).contains(&ops), "ops = {ops}");
        assert!(synth("ops=3000,trips=8,seed=3").is_some());
        assert!(synth("bogus=1").is_none());
    }

    #[test]
    fn synth_result_keeps_the_diagnostic() {
        let e = synth_result("trips=0").expect_err("rejected");
        assert!(e.to_string().contains("spec column"), "{e}");
        assert!(synth_result("ops=3000,trips=8,seed=3").is_ok());
    }
}
