//! # acceptable-ads — reproducing *Measuring the Impact and Perception
//! of Acceptable Advertisements* (IMC 2015)
//!
//! This crate is the paper: each module implements one of its analyses,
//! measured against the synthetic-but-calibrated substrate crates
//! (`corpus`, `websim`, `crawler`, `sitekey`, …). Every table and
//! figure of the evaluation has a regeneration entry point here; the
//! `repro` binary and the examples drive them.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`scope`] | Fig 4 — filter-type hierarchy, explicit domains |
//! | [`partitions`] | Table 2 — whitelisted domains by Alexa partition |
//! | [`history`] | Fig 3 + Table 1 — whitelist growth and yearly churn |
//! | [`parked`] | Table 3 — parked domains per sitekey service |
//! | [`survey_exp`] | §5: Fig 6, Fig 7, Fig 8, Table 4 — the site survey |
//! | [`perception`] | §6 / Fig 9 — the user-perception survey |
//! | [`undocumented`] | §7 / Fig 11 — A-filters and provenance anomalies |
//! | [`hygiene`] | §8 — duplicates, malformed and obsolete filters |
//! | [`exploit`] | Fig 5 + §4.2.3 — the sitekey factoring attack |
//! | [`report`] | rendering: paper-vs-measured tables |
//!
//! ## Quick start
//!
//! ```no_run
//! use acceptable_ads::prelude::*;
//!
//! let corpus = corpus::Corpus::generate(2015);
//! let scope = acceptable_ads::scope::classify_whitelist(&corpus.whitelist);
//! println!("restricted share: {:.1}%", 100.0 * scope.restricted_share());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exploit;
pub mod history;
pub mod hygiene;
pub mod impact;
pub mod parked;
pub mod partitions;
pub mod perception;
pub mod privacy;
pub mod report;
pub mod scope;
pub mod survey_exp;
pub mod transparency;
pub mod undocumented;

/// Common imports for the examples.
pub mod prelude {
    pub use crate::history::{mine_history, HistoryReport};
    pub use crate::parked::{scan_table3, Table3Report};
    pub use crate::partitions::{partition_table, Table2Report};
    pub use crate::scope::{classify_whitelist, ScopeReport};
    pub use crate::survey_exp::{run_site_survey, SiteSurveyConfig, SiteSurveyReport};
    pub use abp::{Engine, FilterList, ListSource};
    pub use corpus::Corpus;
    pub use websim::{Scale, Web, WebConfig};
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::OnceLock;

    /// The shared seed used across the reproduction.
    pub const SEED: u64 = 2015;

    /// A lazily built, shared corpus (expensive to generate).
    pub fn corpus() -> &'static corpus::Corpus {
        static CACHE: OnceLock<corpus::Corpus> = OnceLock::new();
        CACHE.get_or_init(|| corpus::Corpus::generate(SEED))
    }

    /// A lazily built smoke-scale web.
    pub fn web() -> &'static websim::Web {
        static CACHE: OnceLock<websim::Web> = OnceLock::new();
        CACHE.get_or_init(|| {
            websim::Web::build(websim::WebConfig {
                seed: SEED,
                scale: websim::Scale::Smoke,
            })
        })
    }
}
