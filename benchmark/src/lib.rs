//! The repository's benchmark: see `README.md` beside this package.

pub mod boot;
pub mod host;
pub mod jobs;
pub mod layers;
pub mod olap;
pub mod oltp;
pub mod opgen;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
