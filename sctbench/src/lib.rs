//! The repository's benchmark: three workloads (`serve-warm`,
//! `serve-edit`, `vm-run`), end-to-end metrics measured with tracing off,
//! and a traced run that splits each operation into the layers named
//! after the repository's modules. See `sctbench/README.md`.

pub mod compare;
pub mod cpu;
pub mod gen;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod trace;
pub mod vm;
