//! The program under test, deployed the same way for every workload: a
//! quantized TinyFM behind `HttpServer::bind` with one fleet worker.

use crate::stats::now_ns;
use microscopiq_core::{MicroScopiQ, QuantConfig};
use microscopiq_fm::{PackedGemm, PackedTinyFm, TinyFm, TinyFmConfig};
use microscopiq_linalg::SeededRng;
use microscopiq_runtime::net::HttpClient;
use microscopiq_runtime::{
    EngineTelemetry, FleetConfig, HttpConfig, HttpServer, KvMode, PrefixCacheConfig, ServerConfig,
};
use std::time::{Duration, Instant};

/// The served model's shape: d_model 128, 4 heads, d_ff 512, 2 blocks,
/// vocabulary 128.
pub const MODEL: TinyFmConfig = TinyFmConfig {
    d_model: 128,
    n_heads: 4,
    d_ff: 512,
    n_layers: 2,
    vocab: 128,
};
/// Fixed, so every run serves the same weights whatever the workload
/// seed.
const MODEL_SEED: u64 = 2025;
/// MicroScopiQ W4 with 64-wide macro and row blocks.
const BLOCK: usize = 64;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        max_batch: 32,
        prefill_chunk: 32,
        token_budget: 64,
        kv_mode: KvMode::Exact,
        prefix_cache: Some(PrefixCacheConfig::default()),
        ..ServerConfig::default()
    }
}

/// Builds the teacher and quantizes it into packed form.
pub fn build_model() -> PackedTinyFm {
    let fm = TinyFm::teacher(MODEL, MODEL_SEED);
    let mut rng = SeededRng::new(MODEL_SEED + 1);
    let calib: Vec<Vec<usize>> = (0..4).map(|_| fm.generate(16, 0.9, &mut rng)).collect();
    let q = MicroScopiQ::new(
        QuantConfig::w4()
            .macro_block(BLOCK)
            .row_block(BLOCK)
            .build()
            .expect("valid W4 config"),
    );
    PackedTinyFm::quantize_from(&fm, &q, &calib).expect("quantize TinyFM")
}

pub struct Deployment {
    pub server: HttpServer,
    pub model: PackedTinyFm,
    /// Model build plus quantization, seconds.
    pub quantize_s: f64,
    /// `bind` through the first healthy `GET /healthz`, seconds.
    pub bind_s: f64,
}

impl Deployment {
    pub fn setup_s(&self) -> f64 {
        self.quantize_s + self.bind_s
    }
}

/// Builds, quantizes and serves the model; returns once `/healthz`
/// answers 200. `make_engines` sees the model so a traced engine can map
/// its layers.
pub fn deploy<E, F>(make_engines: impl FnOnce(&PackedTinyFm) -> F) -> Deployment
where
    E: PackedGemm + EngineTelemetry + Send + 'static,
    F: Fn(usize) -> E + Send + Sync + 'static,
{
    let t0 = now_ns();
    let model = build_model();
    let t1 = now_ns();
    let cfg = HttpConfig {
        fleet: FleetConfig {
            workers: 1,
            server: server_config(),
            supervision: None,
        },
        ..HttpConfig::default()
    };
    let mk_engine = make_engines(&model);
    let server = HttpServer::bind("127.0.0.1:0", model.clone(), mk_engine, cfg).expect("bind");
    wait_healthy(&server);
    let t2 = now_ns();
    Deployment {
        server,
        model,
        quantize_s: (t1 - t0) as f64 / 1e9,
        bind_s: (t2 - t1) as f64 / 1e9,
    }
}

fn wait_healthy(server: &HttpServer) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Ok(mut client) = HttpClient::connect(server.addr()) {
            if client.get("/healthz").is_ok_and(|r| r.status == 200) {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("server never became healthy");
}
