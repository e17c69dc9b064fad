//! The whole whitelist history as deltas, without sockets: every one of
//! the 988 consecutive revision pairs must patch exactly, and shipping
//! the history as `ReloadDelta` lines must cost a small fraction of the
//! full-body `Reload` lines it replaces. Fleet *convergence* under
//! deltas is `tests/fleet.rs`'s job; this is the codec over real data.

use abpd::protocol::{ReloadDeltaList, ReloadList};
use abpd::wire;

/// Delta bytes over full-body bytes for the whole history. Measured:
/// about 1.5%.
const MAX_DELTA_RATIO: f64 = 0.2;

#[test]
fn every_history_revision_patches_exactly_and_ships_small() {
    let corpus = corpus::Corpus::generate(2015);
    let store = corpus::build_history(2015, &corpus.final_whitelist);
    assert_eq!(store.len(), 989, "the paper's 989-revision history");

    let (mut delta_bytes, mut full_bytes) = (0usize, 0usize);
    let mut line = Vec::new();
    for (old, new) in store.iter().zip(store.since(0)) {
        let delta = abpdelta::encode(&old.content, &new.content);
        assert_eq!(
            abpdelta::apply(&old.content, &delta).as_deref(),
            Ok(new.content.as_str()),
            "rev {} -> {} did not patch to the target body",
            old.id,
            new.id
        );

        line.clear();
        wire::write_reload_delta(
            &[ReloadDeltaList {
                source: abp::ListSource::AcceptableAds,
                delta,
            }],
            &mut line,
        );
        delta_bytes += line.len();
        line.clear();
        wire::write_reload(
            &[ReloadList {
                source: abp::ListSource::AcceptableAds,
                content: new.content.clone(),
            }],
            &mut line,
        );
        full_bytes += line.len();
    }

    let ratio = delta_bytes as f64 / full_bytes as f64;
    assert!(
        ratio <= MAX_DELTA_RATIO,
        "deltas shipped {delta_bytes} bytes against {full_bytes} full-body bytes ({ratio:.3})"
    );
}
