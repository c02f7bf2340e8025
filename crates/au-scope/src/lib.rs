//! au-scope: the live observability plane.
//!
//! A zero-dependency HTTP server over the [`au_telemetry`] recorder (and,
//! when one is attached, an [`au_core::EngineHandle`]) that
//! turns the in-process telemetry the runtime already collects into
//! something an operator can point a browser or a Prometheus scraper at
//! *while the program runs*:
//!
//! | endpoint         | what it serves                                        |
//! |------------------|-------------------------------------------------------|
//! | `/`              | bundled single-file dashboard (live charts over SSE)  |
//! | `/metrics`       | Prometheus text exposition of every counter/gauge/histogram |
//! | `/health`        | engine mode, degraded models, registry shard occupancy |
//! | `/snapshot.json` | one-shot JSON dump of the full recorder state          |
//! | `/events`        | Server-Sent Events stream: spans, alerts, metric ticks |
//! | `/profile.json`  | au-prof self-time attribution: per-name inclusive/exclusive, collapsed stacks, per-trace totals |
//! | `/flamegraph`    | self-contained SVG flamegraph over the same profile   |
//!
//! The server is deliberately austere: a [`std::net::TcpListener`] accept
//! loop plus one short-lived thread per connection, sharing nothing heavier
//! than an `Arc` around the plane state. There is no TLS, no keep-alive,
//! no request body handling — it serves GETs to trusted operators on a
//! loopback or cluster-internal port, and everything it reads from the
//! recorder goes through the same lock-free handles the hot path uses, so
//! scraping never blocks serving.
//!
//! ```no_run
//! au_telemetry::enable();
//! let scope = au_scope::ScopeServer::builder()
//!     .bind("127.0.0.1:0")
//!     .start()
//!     .unwrap();
//! println!("observability plane on http://{}", scope.local_addr());
//! # scope.shutdown();
//! ```

mod http;
mod json;
mod profile;
mod prometheus;
mod sse;
mod status;

use au_telemetry::Recorder;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use au_core::EngineHandle;

/// The dashboard page served at `/`, bundled into the binary so the plane
/// has no runtime file dependencies.
const DASHBOARD_HTML: &str = include_str!("../assets/dashboard.html");

/// Default per-connection socket timeout: a stalled or half-open client
/// must not pin a handler thread (SSE writers poll the stop flag
/// instead). Override per server with [`ScopeBuilder::io_timeout`].
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Everything a handler thread needs, shared behind one `Arc`.
pub(crate) struct Plane {
    pub recorder: &'static Recorder,
    pub engine: Option<EngineHandle>,
    pub started: Instant,
    pub stop: AtomicBool,
    /// Folds the recorder's span stream into self-time attribution.
    /// Polled only while serving `/profile.json` or `/flamegraph`, so an
    /// attached-but-unqueried profiler costs the hot path nothing.
    pub profiler: Mutex<au_prof::Profiler>,
    pub io_timeout: Duration,
}

impl Plane {
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Builder for [`ScopeServer`]; start with [`ScopeServer::builder`].
pub struct ScopeBuilder {
    recorder: &'static Recorder,
    engine: Option<EngineHandle>,
    addr: String,
    io_timeout: Duration,
}

impl ScopeBuilder {
    /// Serve a specific recorder instead of [`au_telemetry::global`] —
    /// mainly for tests that keep a private leaked recorder.
    #[must_use]
    pub fn recorder(mut self, recorder: &'static Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach the engine runtime, enabling the engine-aware parts of
    /// `/health` and `/snapshot.json` (mode, models, monitor state,
    /// registry shard occupancy).
    #[must_use]
    pub fn engine(mut self, handle: EngineHandle) -> Self {
        self.engine = Some(handle);
        self
    }

    /// Address to bind; defaults to `127.0.0.1:0` (loopback, ephemeral
    /// port — read the chosen port back via [`ScopeServer::local_addr`]).
    #[must_use]
    pub fn bind(mut self, addr: &str) -> Self {
        self.addr = addr.to_owned();
        self
    }

    /// Per-connection socket read/write timeout (default 5 s): how long a
    /// handler thread may block on one stalled client before the
    /// connection is abandoned. Mainly for tests that exercise the
    /// slow-client path without waiting out the default.
    #[must_use]
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Binds the listener and spawns the accept loop.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the address.
    pub fn start(self) -> io::Result<ScopeServer> {
        let listener = TcpListener::bind(self.addr.as_str())?;
        let addr = listener.local_addr()?;
        let plane = Arc::new(Plane {
            recorder: self.recorder,
            engine: self.engine,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            profiler: Mutex::new(au_prof::Profiler::new()),
            io_timeout: self.io_timeout,
        });
        let accept_plane = Arc::clone(&plane);
        let accept = thread::Builder::new()
            .name("au-scope-accept".into())
            .spawn(move || accept_loop(&listener, &accept_plane))?;
        Ok(ScopeServer {
            plane,
            addr,
            accept: Some(accept),
        })
    }
}

/// A running observability-plane server; shuts down on [`ScopeServer::shutdown`]
/// or drop.
pub struct ScopeServer {
    plane: Arc<Plane>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl ScopeServer {
    /// New builder serving the global recorder on `127.0.0.1:0`.
    pub fn builder() -> ScopeBuilder {
        ScopeBuilder {
            recorder: au_telemetry::global(),
            engine: None,
            addr: "127.0.0.1:0".to_owned(),
            io_timeout: IO_TIMEOUT,
        }
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and asks in-flight SSE streams to finish.
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        if self.plane.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `accept`; poke it awake so it observes
        // the stop flag without waiting for a real client.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ScopeServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, plane: &Arc<Plane>) {
    for conn in listener.incoming() {
        if plane.stopping() {
            break;
        }
        let Ok(stream) = conn else { continue };
        let plane = Arc::clone(plane);
        // One short-lived thread per connection. Handler panics are
        // confined to their thread; the builder only fails under resource
        // exhaustion, in which case the connection is simply dropped.
        let _ = thread::Builder::new()
            .name("au-scope-conn".into())
            .spawn(move || handle_connection(stream, &plane));
    }
}

fn handle_connection(mut stream: TcpStream, plane: &Arc<Plane>) {
    let _ = stream.set_read_timeout(Some(plane.io_timeout));
    let _ = stream.set_write_timeout(Some(plane.io_timeout));
    let Ok(req) = http::read_request(&mut stream) else {
        return;
    };
    if req.method != "GET" {
        let _ = http::respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            b"only GET is served here\n",
        );
        return;
    }
    let result = match req.path.as_str() {
        "/" | "/index.html" => http::respond(
            &mut stream,
            200,
            "OK",
            "text/html; charset=utf-8",
            DASHBOARD_HTML.as_bytes(),
        ),
        "/metrics" => http::respond(
            &mut stream,
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus::render(plane).as_bytes(),
        ),
        "/health" => http::respond(
            &mut stream,
            200,
            "OK",
            "application/json",
            status::health_json(plane).as_bytes(),
        ),
        "/snapshot.json" => http::respond(
            &mut stream,
            200,
            "OK",
            "application/json",
            status::snapshot_json(plane).as_bytes(),
        ),
        "/events" => sse::stream_events(&mut stream, plane),
        "/profile.json" => http::respond(
            &mut stream,
            200,
            "OK",
            "application/json",
            profile::profile_json(plane).as_bytes(),
        ),
        "/flamegraph" => http::respond(
            &mut stream,
            200,
            "OK",
            "image/svg+xml; charset=utf-8",
            profile::flamegraph_svg(plane).as_bytes(),
        ),
        _ => http::respond(
            &mut stream,
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            b"unknown endpoint; try /, /metrics, /health, /snapshot.json, /events, /profile.json, /flamegraph\n",
        ),
    };
    let _ = result;
}
