//! Output check: served streams against an offline `Session` over
//! `RuntimeEngine::parallel()` in exact KV. The determinism invariant
//! says a stream is a function of model, prompt, seed, temperature and
//! KV mode only, so any batching, chunking or prefix reuse the server
//! chose must reproduce the offline tokens bit for bit.

use crate::drive::Obs;
use crate::stats::{fnv, FNV_OFFSET};
use crate::workload::Spec;
use microscopiq_fm::PackedTinyFm;
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::{GenRequest, RuntimeEngine, Session};
use std::collections::HashMap;

pub struct CheckReport {
    /// Requests recomputed offline.
    pub checked: usize,
    /// Of those, how many were drawn at random (the rest are the digest
    /// requests).
    pub sampled: usize,
    /// Indices whose served tokens differ from the offline ones, or that
    /// the digest needed but did not complete.
    pub mismatched: Vec<usize>,
    /// FNV-1a over the tokens of the first `digest_requests` requests.
    pub digest: u64,
}

/// Recomputes the digest requests plus a seeded sample of the other
/// completed requests offline and compares tokens.
pub fn check_outputs(
    model: &PackedTinyFm,
    spec: &Spec,
    seed: u64,
    issued: &[GenRequest],
    obs: &[Obs],
) -> CheckReport {
    let by_idx: HashMap<usize, &Obs> = obs.iter().map(|o| (o.idx, o)).collect();
    let mut mismatched = Vec::new();
    let mut picks: Vec<usize> = Vec::new();
    for idx in 0..spec.digest_requests {
        match by_idx.get(&idx) {
            Some(o) if o.ok() => picks.push(idx),
            _ => mismatched.push(idx),
        }
    }
    let rest: Vec<usize> = {
        let mut v: Vec<usize> = obs
            .iter()
            .filter(|o| o.ok() && o.idx >= spec.digest_requests)
            .map(|o| o.idx)
            .collect();
        v.sort_unstable();
        v
    };
    let take = spec.sampled_checks.min(rest.len());
    let mut rng = SeededRng::new(seed ^ 0xc4ec_4ed5);
    let sampled: Vec<usize> = rng
        .choose_distinct(rest.len(), take)
        .into_iter()
        .map(|i| rest[i])
        .collect();
    picks.extend(&sampled);

    let mut session = Session::new(model.clone(), RuntimeEngine::parallel(), 32);
    let ids: Vec<(usize, usize)> = picks
        .iter()
        .map(|&idx| (session.submit(issued[idx].clone()), idx))
        .collect();
    let mut reference: HashMap<usize, Vec<usize>> = session
        .run_to_completion()
        .into_iter()
        .map(|r| (r.id, r.tokens))
        .collect();
    for (id, idx) in ids {
        let full = reference.remove(&id).expect("offline result");
        let generated = &full[issued[idx].prompt.len()..];
        if by_idx[&idx].tokens != generated {
            mismatched.push(idx);
        }
    }
    mismatched.sort_unstable();
    let digest = (0..spec.digest_requests)
        .filter_map(|idx| by_idx.get(&idx))
        .fold(FNV_OFFSET, |h, o| fnv(h, &o.tokens));
    CheckReport {
        checked: picks.len(),
        sampled: sampled.len(),
        mismatched,
        digest,
    }
}

/// Indices served by both runs whose tokens differ (the traced run must
/// not change a bit).
pub fn compare_runs(a: &[Obs], b: &[Obs]) -> (usize, Vec<usize>) {
    let b_by: HashMap<usize, &Obs> = b.iter().filter(|o| o.ok()).map(|o| (o.idx, o)).collect();
    let mut common = 0;
    let mut differ = Vec::new();
    for o in a.iter().filter(|o| o.ok()) {
        if let Some(other) = b_by.get(&o.idx) {
            common += 1;
            if other.tokens != o.tokens {
                differ.push(o.idx);
            }
        }
    }
    differ.sort_unstable();
    (common, differ)
}
