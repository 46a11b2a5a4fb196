//! The traced engine and the step analysis built on its spans.
//!
//! [`TracedEngine`] is the `mk_engine` the traced deployment hands to
//! `HttpServer::bind`: it delegates every `PackedGemm` and
//! `EngineTelemetry` call to `RuntimeEngine::parallel()` and records one
//! span per linear call — which `LinearId` (found by pointer identity
//! against `PackedTinyFm::layer_arc`, whose `Arc`s every fleet clone
//! shares), the activation width `m`, and the kernel
//! `RuntimeEngine::kernel_for` names. Spans stay in memory; the analysis
//! runs after the window.
//!
//! A scheduler step is one forward pass, so its boundaries fall out of
//! the call sequence: a step starts at its `Wq(0)` call and ends where
//! the next step's `Wq(0)` starts. Between calls the engine is idle and
//! the model is doing something else, which the call order pins down:
//! `Wv(l)` end → `Wo(l)` start is KV append plus attention; the gaps
//! around `WUp`/`WDown` and into the next block's `Wq` are residual adds,
//! RMS norms and the activation; and `WDown(last)` end → next `Wq(0)`
//! start is everything outside the forward pass (final norm, LM head,
//! sampling, scheduling, stream fan-out, embedding).

use crate::stats::now_ns;
use microscopiq_core::packed::PackedLayer;
use microscopiq_fm::tinyfm::LinearId;
use microscopiq_fm::{PackedGemm, PackedTinyFm};
use microscopiq_linalg::Matrix;
use microscopiq_runtime::kernels::{
    BUCKETED_KERNEL, BUCKETED_LANE_KERNEL, LANE_KERNEL, SCALAR_KERNEL, SIMD_KERNEL,
};
use microscopiq_runtime::{EngineTelemetry, MetricsRegistry, RuntimeEngine};
use std::sync::{Arc, Mutex};

/// Linear kinds in forward order within a block.
pub const KINDS: [&str; 6] = ["wq", "wk", "wv", "wo", "w_up", "w_down"];

/// Every kernel the registry can dispatch to.
pub const KERNELS: [&str; 5] = [
    SCALAR_KERNEL,
    LANE_KERNEL,
    SIMD_KERNEL,
    BUCKETED_LANE_KERNEL,
    BUCKETED_KERNEL,
];

/// Static facts about one packed linear, computed once at deployment.
#[derive(Debug, Clone)]
pub struct LayerInfo {
    ptr: usize,
    pub block: usize,
    pub kind: usize,
    pub d_row: usize,
    pub d_col: usize,
    pub packed_bytes: usize,
}

pub fn layer_table(model: &PackedTinyFm) -> Vec<LayerInfo> {
    model
        .linear_ids()
        .into_iter()
        .map(|id| {
            let (block, kind) = match id {
                LinearId::Wq(n) => (n, 0),
                LinearId::Wk(n) => (n, 1),
                LinearId::Wv(n) => (n, 2),
                LinearId::Wo(n) => (n, 3),
                LinearId::WUp(n) => (n, 4),
                LinearId::WDown(n) => (n, 5),
            };
            let layer = model.layer_arc(id);
            LayerInfo {
                ptr: Arc::as_ptr(layer) as usize,
                block,
                kind,
                d_row: layer.d_row(),
                d_col: layer.d_col(),
                packed_bytes: layer.to_bytes().len(),
            }
        })
        .collect()
}

/// One engine call. `layer` indexes the layer table (`u8::MAX` when the
/// pointer matched no model layer); `kernel` indexes [`KERNELS`].
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: u64,
    pub end: u64,
    pub layer: u8,
    pub kernel: u8,
    pub m: u32,
}

pub const UNKNOWN: u8 = u8::MAX;

pub struct TracedEngine {
    inner: RuntimeEngine,
    layers: Arc<Vec<LayerInfo>>,
    log: Arc<Mutex<Vec<Call>>>,
}

impl TracedEngine {
    pub fn new(layers: Arc<Vec<LayerInfo>>, log: Arc<Mutex<Vec<Call>>>) -> Self {
        Self {
            inner: RuntimeEngine::parallel(),
            layers,
            log,
        }
    }

    fn record(&self, layer: &PackedLayer, m: usize, start: u64) {
        let end = now_ns();
        let ptr = layer as *const PackedLayer as usize;
        let idx = self.layers.iter().position(|l| l.ptr == ptr);
        let name = self.inner.kernel_for(layer, m);
        let call = Call {
            start,
            end,
            layer: idx.map_or(UNKNOWN, |i| i as u8),
            kernel: KERNELS
                .iter()
                .position(|&k| k == name)
                .map_or(UNKNOWN, |i| i as u8),
            m: m as u32,
        };
        self.log.lock().expect("call log poisoned").push(call);
    }
}

impl PackedGemm for TracedEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn matmul(&self, layer: &PackedLayer, acts: &Matrix) -> Matrix {
        let start = now_ns();
        let out = self.inner.matmul(layer, acts);
        self.record(layer, acts.cols(), start);
        out
    }

    fn gemv(&self, layer: &PackedLayer, x: &[f64]) -> Vec<f64> {
        let start = now_ns();
        let out = PackedGemm::gemv(&self.inner, layer, x);
        self.record(layer, 1, start);
        out
    }

    fn prefetch(&self, layer: &Arc<PackedLayer>) {
        self.inner.prefetch(layer);
    }
}

impl EngineTelemetry for TracedEngine {
    fn register_telemetry(&self, registry: &MetricsRegistry) {
        self.inner.register_telemetry(registry);
    }
}

/// Time attributed inside the analysed steps, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct StepProfile {
    /// Steps starting inside the window.
    pub steps: usize,
    /// Of those, steps followed by a busy gap (the next step started
    /// without the server going idle); only these enter the per-step
    /// figures, since an idle gap is not part of any step.
    pub complete: usize,
    /// Steps whose calls did not follow the expected forward order.
    pub malformed: usize,
    pub wall: u64,
    /// Wall time of every step inside the window, idle-terminated ones
    /// cut at their last linear.
    pub busy: u64,
    pub per_kind: [u64; 6],
    pub attention: u64,
    pub norm_act: u64,
    pub outside: u64,
    pub step_ms: Vec<f64>,
}

impl StepProfile {
    pub fn linear(&self) -> u64 {
        self.per_kind.iter().sum()
    }

    /// Share of step wall time the six linears plus the three gap
    /// classes account for.
    pub fn coverage(&self) -> f64 {
        let covered = self.linear() + self.attention + self.norm_act + self.outside;
        covered as f64 / self.wall.max(1) as f64
    }
}

/// Splits the call sequence into steps and attributes their time.
/// `busy(a, b)` says whether the server had work outstanding for the
/// whole interval `[a, b]`; steps are those whose `Wq(0)` starts in
/// `[w0, w1)`.
pub fn profile_steps(
    calls: &[Call],
    layers: &[LayerInfo],
    n_layers: usize,
    w0: u64,
    w1: u64,
    busy: impl Fn(u64, u64) -> bool,
) -> StepProfile {
    let per_step = n_layers * KINDS.len();
    let is_step_start = |c: &Call| {
        c.layer != UNKNOWN && {
            let l = &layers[c.layer as usize];
            l.block == 0 && l.kind == 0
        }
    };
    let starts: Vec<usize> = (0..calls.len())
        .filter(|&i| is_step_start(&calls[i]))
        .collect();
    let mut p = StepProfile::default();
    for (si, &s) in starts.iter().enumerate() {
        if calls[s].start < w0 || calls[s].start >= w1 {
            continue;
        }
        let Some(&next) = starts.get(si + 1) else {
            continue;
        };
        p.steps += 1;
        let step = &calls[s..next];
        let well_formed = step.len() == per_step
            && step.iter().enumerate().all(|(i, c)| {
                c.layer != UNKNOWN && {
                    let l = &layers[c.layer as usize];
                    l.block == i / KINDS.len() && l.kind == i % KINDS.len()
                }
            });
        let last_end = step[step.len() - 1].end;
        let gap_busy = busy(last_end, calls[next].start);
        let end = if gap_busy {
            calls[next].start
        } else {
            last_end
        };
        p.busy += end.min(w1) - calls[s].start;
        if !well_formed {
            p.malformed += 1;
        }
        if !gap_busy {
            continue;
        }
        p.complete += 1;
        p.wall += end - calls[s].start;
        p.step_ms.push((end - calls[s].start) as f64 / 1e6);
        if !well_formed {
            continue;
        }
        for (i, c) in step.iter().enumerate() {
            p.per_kind[i % KINDS.len()] += c.end - c.start;
            let gap_to = step.get(i + 1).map_or(end, |n| n.start);
            let gap = gap_to.saturating_sub(c.end);
            match (i % KINDS.len(), i + 1 == step.len()) {
                (_, true) => p.outside += gap,
                // Wv → Wo: KV append and attention.
                (2, _) => p.attention += gap,
                // Wo → WUp (residual + RMS norm), WUp → WDown (SiLU),
                // WDown → next block's Wq (residual + RMS norm).
                (3..=5, _) => p.norm_act += gap,
                // Wq → Wk → Wv: back-to-back projections, unattributed.
                _ => {}
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n_layers: usize) -> Vec<LayerInfo> {
        (0..n_layers * 6)
            .map(|i| LayerInfo {
                ptr: i,
                block: i / 6,
                kind: i % 6,
                d_row: 4,
                d_col: 4,
                packed_bytes: 8,
            })
            .collect()
    }

    /// Three forward passes of a 1-block model (two whole steps in the
    /// window): each linear takes 10 ns, Wv → Wo takes 30, the other
    /// gaps 1, and WDown → next Wq takes 5.
    #[test]
    fn gaps_are_attributed_by_call_order() {
        let layers = table(1);
        let mut calls = Vec::new();
        let mut t = 100;
        for _ in 0..3 {
            for (i, layer) in (0..6u8).enumerate() {
                calls.push(Call {
                    start: t,
                    end: t + 10,
                    layer,
                    kernel: 0,
                    m: 1,
                });
                t += 10 + if i == 2 { 30 } else { 1 };
            }
            t += 4;
        }
        let p = profile_steps(&calls, &layers, 1, 0, 200, |_, _| true);
        assert_eq!(p.steps, 2);
        assert_eq!(p.complete, 2);
        assert_eq!(p.malformed, 0);
        assert_eq!(p.linear(), 120);
        assert_eq!(p.attention, 60);
        assert_eq!(p.norm_act, 4);
        assert_eq!(p.outside, 10);
        assert_eq!(p.wall, 198);
        assert!(p.coverage() < 1.0 && p.coverage() > 0.95);

        let idle = profile_steps(&calls, &layers, 1, 0, 200, |_, _| false);
        assert_eq!(idle.complete, 0);
        assert_eq!(idle.steps, 2);
    }
}
