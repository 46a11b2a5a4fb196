//! The three traffic mixes. Every request is a pure function of the
//! workload seed and its index in submission order, so two runs with one
//! seed send the same requests and their outputs can be compared token
//! for token; the program under test only ever sees the generated
//! requests.

use microscopiq_linalg::SeededRng;
use microscopiq_runtime::GenRequest;
use std::collections::HashSet;

/// The server has no argmax mode and requires a positive temperature;
/// at this temperature sampling picks the top logit in practice.
pub const GREEDY_T: f64 = 1e-3;
pub const SAMPLED_T: f64 = 0.8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    ChatHttp,
    BatchDecode,
    RagLong,
}

/// Per-workload constants: traffic shape and SLO limits.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub mix: Mix,
    pub name: &'static str,
    pub prompt_min: usize,
    pub prompt_max: usize,
    pub max_new: usize,
    /// Closed-loop concurrency (connections or outstanding requests);
    /// 0 for the open loop.
    pub clients: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// SLO: time to first token from when the request was due.
    pub slo_ttft_ms: f64,
    /// SLO: the request's own p99 inter-token gap.
    pub slo_itl_ms: f64,
    /// Requests (in index order) whose tokens form the run's digest and
    /// are always checked against the offline reference.
    pub digest_requests: usize,
    /// Further completed requests, drawn with the seed, that the output
    /// check also recomputes.
    pub sampled_checks: usize,
}

pub const RAG_DOC_TOKENS: usize = 384;
pub const RAG_SHARED_DOCS: usize = 4;
/// One rag-long request in each consecutive group of this many carries
/// a unique document (at a seeded position); the rest draw one of the
/// shared documents.
pub const RAG_GROUP: usize = 4;
/// Open-loop gaps come in blocks of this many: the exponential
/// distribution's quantiles at `(i + ½) / n`, scaled to mean `1 / rate`
/// and shuffled with the seed. Each block of requests spans exactly
/// `n / rate` seconds and, with `n = RAG_GROUP`, carries exactly one
/// unique document, so every second of `rag-long` sees the same offered
/// work in a seeded order. Gaps still range from ~1/7 to ~2× the mean,
/// so bursts queue within a block, but runs no longer differ by where
/// the seed happened to cluster the long prefills.
pub const ARRIVAL_BLOCK: usize = RAG_GROUP;

impl Mix {
    pub fn parse(name: &str) -> Option<Mix> {
        match name {
            "chat-http" => Some(Mix::ChatHttp),
            "batch-decode" => Some(Mix::BatchDecode),
            "rag-long" => Some(Mix::RagLong),
            _ => None,
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Mix::ChatHttp => Spec {
                mix: self,
                name: "chat-http",
                prompt_min: 8,
                prompt_max: 32,
                max_new: 64,
                clients: 2,
                rate: 0.0,
                slo_ttft_ms: 40.0,
                slo_itl_ms: 15.0,
                digest_requests: 16,
                sampled_checks: 16,
            },
            Mix::BatchDecode => Spec {
                mix: self,
                name: "batch-decode",
                prompt_min: 8,
                prompt_max: 32,
                max_new: 96,
                clients: 32,
                rate: 0.0,
                slo_ttft_ms: 125.0,
                slo_itl_ms: 50.0,
                digest_requests: 32,
                sampled_checks: 16,
            },
            Mix::RagLong => Spec {
                mix: self,
                name: "rag-long",
                prompt_min: 16,
                prompt_max: 48,
                max_new: 32,
                clients: 0,
                rate: 4.0,
                slo_ttft_ms: 750.0,
                slo_itl_ms: 100.0,
                digest_requests: 16,
                sampled_checks: 16,
            },
        }
    }
}

/// Seed of independent stream `k` of a run (splitmix64 finalizer), so
/// document, request and arrival draws never share a sequence.
fn stream(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic request source for one run.
pub struct Traffic {
    spec: Spec,
    seed: u64,
    rng: SeededRng,
    arrivals: SeededRng,
    gaps: Vec<f64>,
    next_due_s: f64,
    /// Position of the unique-document request in the current group.
    unique_slot: usize,
    vocab: usize,
    /// First-two-token pairs already handed out: unshared mixes never
    /// repeat one, so no prompt can share more than one leading token
    /// with any other.
    used_heads: HashSet<(usize, usize)>,
    docs: Vec<Vec<usize>>,
    issued: Vec<GenRequest>,
}

impl Traffic {
    pub fn new(spec: Spec, seed: u64, vocab: usize) -> Self {
        let mut docs_rng = SeededRng::new(stream(seed, 1));
        let docs = (0..RAG_SHARED_DOCS)
            .map(|_| (0..RAG_DOC_TOKENS).map(|_| docs_rng.below(vocab)).collect())
            .collect();
        Self {
            spec,
            seed,
            rng: SeededRng::new(stream(seed, 2)),
            arrivals: SeededRng::new(stream(seed, 3)),
            gaps: Vec::new(),
            next_due_s: 0.0,
            unique_slot: 0,
            vocab,
            used_heads: HashSet::new(),
            docs,
            issued: Vec::new(),
        }
    }

    /// Every request handed out so far, by index.
    pub fn issued(&self) -> &[GenRequest] {
        &self.issued
    }

    /// Seconds after the schedule origin at which the next open-loop
    /// request is due (exponential gaps at `spec.rate`, see
    /// [`ARRIVAL_BLOCK`]).
    pub fn next_due_s(&mut self) -> f64 {
        if self.gaps.is_empty() {
            let n = ARRIVAL_BLOCK;
            let mut gaps: Vec<f64> = (0..n)
                .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
                .collect();
            let scale = n as f64 / (self.spec.rate * gaps.iter().sum::<f64>());
            for i in (1..n).rev() {
                gaps.swap(i, self.arrivals.below(i + 1));
            }
            self.gaps = gaps.into_iter().map(|g| g * scale).collect();
        }
        self.next_due_s += self.gaps.pop().expect("refilled above");
        self.next_due_s
    }

    fn tokens(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.rng.below(self.vocab)).collect()
    }

    fn len_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.rng.below(hi - lo + 1)
    }

    /// An unshared prompt: its first two tokens differ, as a pair, from
    /// every earlier prompt of the run.
    fn unshared_prompt(&mut self) -> Vec<usize> {
        let n = self.len_in(self.spec.prompt_min, self.spec.prompt_max);
        assert!(
            self.used_heads.len() < self.vocab * self.vocab,
            "every leading token pair is taken"
        );
        loop {
            let p = self.tokens(n);
            if self.used_heads.insert((p[0], p[1])) {
                return p;
            }
        }
    }

    /// The next request, in index order.
    pub fn next_request(&mut self) -> (usize, GenRequest) {
        let idx = self.issued.len();
        // The wire protocol carries seeds as JSON numbers, exact only
        // below 2^53.
        let req_seed = stream(self.seed, 1000 + idx as u64) >> 11;
        let req = match self.spec.mix {
            Mix::ChatHttp => GenRequest {
                prompt: self.unshared_prompt(),
                max_new_tokens: self.spec.max_new,
                temperature: if idx.is_multiple_of(2) {
                    GREEDY_T
                } else {
                    SAMPLED_T
                },
                seed: req_seed,
                ..GenRequest::default()
            },
            Mix::BatchDecode => GenRequest {
                prompt: self.unshared_prompt(),
                max_new_tokens: self.spec.max_new,
                temperature: SAMPLED_T,
                seed: req_seed,
                ..GenRequest::default()
            },
            Mix::RagLong => {
                if idx.is_multiple_of(RAG_GROUP) {
                    self.unique_slot = self.rng.below(RAG_GROUP);
                }
                let mut prompt = if idx % RAG_GROUP == self.unique_slot {
                    self.tokens(RAG_DOC_TOKENS)
                } else {
                    self.docs[self.rng.below(RAG_SHARED_DOCS)].clone()
                };
                let q = self.len_in(self.spec.prompt_min, self.spec.prompt_max);
                let question = self.tokens(q);
                prompt.extend(question);
                GenRequest {
                    prompt,
                    max_new_tokens: self.spec.max_new,
                    temperature: GREEDY_T,
                    seed: req_seed,
                    ..GenRequest::default()
                }
            }
        };
        self.issued.push(req.clone());
        (idx, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for mix in [Mix::ChatHttp, Mix::BatchDecode, Mix::RagLong] {
            let mut a = Traffic::new(mix.spec(), 7, 128);
            let mut b = Traffic::new(mix.spec(), 7, 128);
            for _ in 0..50 {
                let (ia, ra) = a.next_request();
                let (ib, rb) = b.next_request();
                assert_eq!(ia, ib);
                assert_eq!(ra.prompt, rb.prompt);
                assert_eq!(ra.seed, rb.seed);
            }
        }
    }

    #[test]
    fn seeds_change_requests() {
        let (_, a) = Traffic::new(Mix::ChatHttp.spec(), 1, 128).next_request();
        let (_, b) = Traffic::new(Mix::ChatHttp.spec(), 2, 128).next_request();
        assert_ne!(a.prompt, b.prompt);
    }

    #[test]
    fn unshared_prompts_never_repeat_a_leading_pair() {
        let mut t = Traffic::new(Mix::BatchDecode.spec(), 3, 128);
        let heads: HashSet<(usize, usize)> = (0..2000)
            .map(|_| {
                let (_, r) = t.next_request();
                (r.prompt[0], r.prompt[1])
            })
            .collect();
        assert_eq!(heads.len(), 2000);
    }
}
