//! The load generators. One process drives each run: `chat-http` from
//! two keep-alive connection threads, `batch-decode` and `rag-long` from
//! one thread each through the fleet's in-process submit surface. Every
//! request leaves an [`Obs`] with client-side timestamps on the shared
//! [`now_ns`] clock.
//!
//! Sending stops at the window's end only once every request counted in
//! the window has finished, so counted requests see the same load to
//! their last token; everything still in flight then drains to
//! completion, which keeps the client's token count comparable with the
//! server's own counter.

use crate::stats::{current_tid, now_ns};
use crate::workload::{Mix, Spec, Traffic};
use microscopiq_runtime::net::{FleetHandle, HttpClient, HttpClientConfig};
use microscopiq_runtime::{GenRequest, ResponseStream, StreamEvent};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A counted request still unfinished this long after the window
/// closes is failed and abandoned.
const DRAIN_LIMIT_NS: u64 = 60_000_000_000;
/// Sleep between polls when no stream had an event.
const POLL_NS: u64 = 100_000;

/// What the client saw of one request.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    pub idx: usize,
    /// When the request was due: its scheduled time in the open loop,
    /// its send time in a closed loop.
    pub due: u64,
    pub sent: u64,
    /// Duration of the `FleetHandle::submit` call, ns (in-process mixes).
    pub submit_ns: u64,
    /// When `HttpClient::generate` returned with the response head
    /// (`chat-http`).
    pub head: u64,
    pub token_at: Vec<u64>,
    pub tokens: Vec<usize>,
    pub done: u64,
    pub error: Option<String>,
    /// Refused at submission (queue full, shed, 503).
    pub refused: bool,
}

impl Obs {
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    pub fn counted(&self, w: Window) -> bool {
        self.due >= w.w0 && self.due < w.w1
    }

    fn fail(&mut self, why: String) {
        self.error.get_or_insert(why);
        self.done = now_ns();
    }

    /// Checks the terminal full sequence against prompt + streamed
    /// tokens.
    fn finish(&mut self, req: &GenRequest, full: &[usize]) {
        self.done = now_ns();
        let expect_len = req.prompt.len() + req.max_new_tokens;
        if full.len() != expect_len
            || full[..req.prompt.len()] != req.prompt[..]
            || full[req.prompt.len()..] != self.tokens[..]
        {
            self.error = Some("terminal sequence disagrees with streamed tokens".into());
        }
    }
}

/// The measured window on the [`now_ns`] clock.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub w0: u64,
    pub w1: u64,
}

/// Everything a generator shares with the run's coordinator.
pub struct Shared<'a> {
    pub spec: Spec,
    pub traffic: &'a Mutex<Traffic>,
    pub window: Window,
    /// When the run started: the open-loop schedule's origin.
    pub origin: u64,
    pub results: &'a Mutex<Vec<Obs>>,
    /// Kernel thread ids of the generator threads, for CPU accounting.
    pub tids: &'a Mutex<Vec<u32>>,
    /// Set once the coordinator has sampled the window's closing edge;
    /// generator threads stay alive until then so their CPU time can be
    /// read.
    pub released: &'a AtomicBool,
    /// `chat-http` requests counted in the window and still in flight,
    /// over both connections.
    pub counted_live: AtomicUsize,
}

impl Shared<'_> {
    fn next(&self) -> (usize, GenRequest) {
        self.traffic.lock().expect("traffic").next_request()
    }

    fn register_thread(&self) {
        self.tids.lock().expect("tids").push(current_tid());
    }

    fn push(&self, obs: Obs) {
        self.results.lock().expect("results").push(obs);
    }

    fn wait_released(&self) {
        while !self.released.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Runs the workload's generator threads to completion.
pub fn run(shared: &Shared<'_>, addr: SocketAddr, fleet: &FleetHandle) {
    std::thread::scope(|s| match shared.spec.mix {
        Mix::ChatHttp => {
            for _ in 0..shared.spec.clients {
                s.spawn(|| chat_connection(shared, addr));
            }
        }
        Mix::BatchDecode | Mix::RagLong => {
            s.spawn(|| fleet_generator(shared, fleet));
        }
    });
}

fn request_body(req: &GenRequest) -> String {
    let prompt: Vec<String> = req.prompt.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\"prompt\":[{}],\"max_new_tokens\":{},\"temperature\":{},\"seed\":{}}}",
        prompt.join(","),
        req.max_new_tokens,
        req.temperature,
        req.seed
    )
}

/// One keep-alive connection, closed loop with zero think time.
fn chat_connection(shared: &Shared<'_>, addr: SocketAddr) {
    shared.register_thread();
    // A server silent this long fails the request instead of hanging
    // the run.
    let cfg = HttpClientConfig {
        read_timeout: Some(Duration::from_nanos(DRAIN_LIMIT_NS)),
        ..HttpClientConfig::default()
    };
    let connect = || HttpClient::connect_with(addr, cfg).expect("connect");
    let mut client = connect();
    let w = shared.window;
    // Past the window's end a connection keeps sending while the other
    // one still has a counted request in flight, so that request sees
    // the same load to its last token.
    while now_ns() < w.w1 || shared.counted_live.load(Ordering::SeqCst) > 0 {
        let (idx, req) = shared.next();
        let body = request_body(&req);
        let sent = now_ns();
        let mut obs = Obs {
            idx,
            due: sent,
            sent,
            ..Obs::default()
        };
        let counted = obs.counted(w);
        if counted {
            shared.counted_live.fetch_add(1, Ordering::SeqCst);
        }
        if let Err(e) = http_exchange(&mut client, &body, &req, &mut obs) {
            obs.fail(format!("http: {e}"));
            // The connection state is unknown after an error.
            client = connect();
        }
        if counted {
            shared.counted_live.fetch_sub(1, Ordering::SeqCst);
        }
        shared.push(obs);
    }
    shared.wait_released();
}

fn http_exchange(
    client: &mut HttpClient,
    body: &str,
    req: &GenRequest,
    obs: &mut Obs,
) -> std::io::Result<()> {
    let mut stream = client.generate(body)?;
    obs.head = now_ns();
    if stream.status != 200 {
        obs.refused = stream.status == 503;
        obs.fail(format!("status {}", stream.status));
        return Ok(());
    }
    while let Some(ev) = stream.next_event()? {
        if let Some(tok) = ev.get("token").and_then(|t| t.as_usize()) {
            obs.token_at.push(now_ns());
            obs.tokens.push(tok);
        } else if ev.get("done").is_some() {
            let full: Vec<usize> = ev
                .get("tokens")
                .and_then(|t| t.as_arr())
                .map(|a| a.iter().filter_map(|t| t.as_usize()).collect())
                .unwrap_or_default();
            obs.finish(req, &full);
        } else {
            obs.fail(format!("unexpected event {}", ev.render()));
        }
    }
    if obs.done == 0 {
        obs.fail("stream ended without a terminal event".into());
    }
    Ok(())
}

/// One generator thread over `FleetHandle::submit`: a closed loop with
/// `clients` requests outstanding (`batch-decode`) or an open loop on a
/// Poisson-like schedule (`rag-long`, see `workload::ARRIVAL_BLOCK`).
/// Streams are polled with `try_next`.
fn fleet_generator(shared: &Shared<'_>, fleet: &FleetHandle) {
    shared.register_thread();
    let w = shared.window;
    let open_loop = shared.spec.rate > 0.0;
    let next_due = |traffic: &Mutex<Traffic>| {
        let s = traffic.lock().expect("traffic").next_due_s();
        shared.origin + (s * 1e9) as u64
    };
    let mut due = if open_loop {
        next_due(shared.traffic)
    } else {
        u64::MAX
    };
    let mut live: Vec<(Obs, GenRequest, ResponseStream)> = Vec::new();
    loop {
        let now = now_ns();
        let sending = now < w.w1 || live.iter().any(|(o, _, _)| o.counted(w));
        if sending {
            loop {
                let ready = if open_loop {
                    due <= now_ns()
                } else {
                    live.len() < shared.spec.clients
                };
                if !ready {
                    break;
                }
                let (idx, req) = shared.next();
                let sent = now_ns();
                let mut obs = Obs {
                    idx,
                    due: if open_loop { due } else { sent },
                    sent,
                    ..Obs::default()
                };
                if open_loop {
                    due = next_due(shared.traffic);
                }
                match fleet.submit(req.clone()) {
                    Ok((_, stream)) => {
                        obs.submit_ns = now_ns() - sent;
                        live.push((obs, req, stream));
                    }
                    Err(e) => {
                        obs.refused = true;
                        obs.fail(format!("submit refused: {e:?}"));
                        shared.push(obs);
                    }
                }
            }
        } else if live.is_empty() {
            break;
        }
        let mut progressed = false;
        let mut i = 0;
        while i < live.len() {
            let (obs, req, stream) = &mut live[i];
            let mut finished = false;
            while let Some(ev) = stream.try_next() {
                progressed = true;
                match ev {
                    StreamEvent::Token(tok) => {
                        obs.token_at.push(now_ns());
                        obs.tokens.push(tok);
                    }
                    StreamEvent::Finished(res) => {
                        obs.finish(req, &res.tokens);
                        finished = true;
                    }
                    StreamEvent::Error(e) => {
                        obs.fail(format!("stream error: {e}"));
                        finished = true;
                    }
                    StreamEvent::Sample { .. } => {
                        obs.fail("unexpected extra sample".into());
                        finished = true;
                    }
                }
            }
            if finished {
                let (obs, _, _) = live.swap_remove(i);
                shared.push(obs);
            } else {
                i += 1;
            }
        }
        if now_ns() > w.w1 + DRAIN_LIMIT_NS {
            for (mut obs, _, _) in live.drain(..) {
                obs.fail("unfinished at the drain limit".into());
                shared.push(obs);
            }
            break;
        }
        if !progressed {
            let wait = if open_loop && sending {
                due.saturating_sub(now_ns()).min(POLL_NS)
            } else {
                POLL_NS
            };
            std::thread::sleep(Duration::from_nanos(wait));
        }
    }
    shared.wait_released();
}
