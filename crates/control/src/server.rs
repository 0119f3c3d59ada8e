//! The control server: route table, accept loop and graceful shutdown.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use genealog_metrics::MetricsRegistry;

use crate::http::{read_request, write_response, Request, Response};

/// Resolves provenance queries against a running (or completed) query.
///
/// Implementors map a sink tuple id (`origin#seq`, also accepted as
/// `origin-seq`) to the JSON rendering of that tuple's GeneaLog contribution
/// set; `None` means the sink tuple is unknown (yet).
///
/// Any `Fn(&str) -> Option<String>` closure is a service, so collectors can be
/// plugged in without depending on this crate's types.
pub trait ProvenanceQuery: Send + Sync + 'static {
    /// The contribution set of `sink_id` as a JSON document, or `None` if no
    /// sink tuple with that id has been observed.
    fn contribution_set(&self, sink_id: &str) -> Option<String>;
}

impl<F> ProvenanceQuery for F
where
    F: Fn(&str) -> Option<String> + Send + Sync + 'static,
{
    fn contribution_set(&self, sink_id: &str) -> Option<String> {
        self(sink_id)
    }
}

/// The observable surface of one query, ready to be served.
///
/// Build with the query's registry, optionally attach the topology rendering
/// and a provenance service, then [`serve`](ControlPlane::serve).
pub struct ControlPlane {
    registry: Arc<MetricsRegistry>,
    topology: Option<String>,
    provenance: Option<Arc<dyn ProvenanceQuery>>,
    analysis: Option<String>,
    store_status: Option<Arc<dyn Fn() -> String + Send + Sync>>,
    read_timeout: Duration,
    write_timeout: Duration,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("topology", &self.topology.is_some())
            .field("provenance", &self.provenance.is_some())
            .field("analysis", &self.analysis.is_some())
            .field("store_status", &self.store_status.is_some())
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .finish()
    }
}

impl ControlPlane {
    /// A control plane serving `registry` (normally `Query::registry()`).
    ///
    /// Per-connection socket timeouts default to 2 s reads and 5 s writes; a
    /// client that stalls either direction only ties up its own handler
    /// thread, and only for that long.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        ControlPlane {
            registry,
            topology: None,
            provenance: None,
            analysis: None,
            store_status: None,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
        }
    }

    /// Sets the per-connection read timeout (`Duration::ZERO` = block forever).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the per-connection write timeout (`Duration::ZERO` = block forever).
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Attaches the DOT rendering served at `/topology.dot` (render it with
    /// `genealog_analysis::dot::physical(&query.plan_facts())` before deploying —
    /// deployment consumes the query).
    pub fn with_topology(mut self, dot: impl Into<String>) -> Self {
        self.topology = Some(dot.into());
        self
    }

    /// Attaches the provenance service behind `/provenance/{sink_tuple_id}`.
    pub fn with_provenance(mut self, service: impl ProvenanceQuery) -> Self {
        self.provenance = Some(Arc::new(service));
        self
    }

    /// Attaches the deploy-time analysis report served at `/analyze` (the JSON
    /// rendering of the deployed plan's diagnostics — normally
    /// `Analyzed::report.to_json()` from `LogicalPlan::analyze`).
    pub fn with_analysis(mut self, json: impl Into<String>) -> Self {
        self.analysis = Some(json.into());
        self
    }

    /// Attaches the live checkpoint-store status served at `/store`. The
    /// closure is called per request, so the JSON reflects the stores as they
    /// are *now* (segment counts, bytes written, latest complete epoch), not
    /// as they were at attach time.
    pub fn with_store_status(
        mut self,
        status: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        self.store_status = Some(Arc::new(status));
        self
    }

    /// Binds a loopback listener on an ephemeral port and starts serving.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn serve(self) -> io::Result<ControlServer> {
        self.serve_on("127.0.0.1:0")
    }

    /// Binds `addr` and starts serving.
    ///
    /// # Errors
    /// Propagates bind/local-addr failures.
    pub fn serve_on(self, addr: impl ToSocketAddrs) -> io::Result<ControlServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_in_loop = Arc::clone(&stop);
        let plane = Arc::new(self);
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop_in_loop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let plane = Arc::clone(&plane);
                // One short-lived thread per connection: a slow client must not
                // stall the accept loop (or the shutdown self-connect).
                std::thread::spawn(move || handle_connection(stream, &plane));
            }
        });
        Ok(ControlServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(mut stream: TcpStream, plane: &ControlPlane) {
    let read = plane.read_timeout;
    let write = plane.write_timeout;
    let _ = stream.set_read_timeout((read > Duration::ZERO).then_some(read));
    let _ = stream.set_write_timeout((write > Duration::ZERO).then_some(write));
    let Some(request) = read_request(&mut stream) else {
        return;
    };
    let response = route(plane, &request);
    let _ = write_response(&mut stream, &response);
}

/// The route table.
fn route(plane: &ControlPlane, request: &Request) -> Response {
    if request.method != "GET" {
        return Response::text(405, "only GET is supported\n");
    }
    match request.path.as_str() {
        "/healthz" => Response::text(200, "ok\n"),
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: plane.registry.render_prometheus().into_bytes(),
        },
        "/topology.dot" => match &plane.topology {
            Some(dot) => Response {
                status: 200,
                content_type: "text/vnd.graphviz; charset=utf-8",
                body: dot.clone().into_bytes(),
            },
            None => Response::not_found("no topology attached"),
        },
        "/analyze" => match &plane.analysis {
            Some(json) => Response {
                status: 200,
                content_type: "application/json",
                body: json.clone().into_bytes(),
            },
            None => Response::not_found("no analysis attached"),
        },
        "/store" => match &plane.store_status {
            Some(status) => Response {
                status: 200,
                content_type: "application/json",
                body: status().into_bytes(),
            },
            None => Response::not_found("no checkpoint store attached"),
        },
        path => match path.strip_prefix("/provenance/") {
            Some(sink_id) => match &plane.provenance {
                Some(service) => match service.contribution_set(sink_id) {
                    Some(json) => Response {
                        status: 200,
                        content_type: "application/json",
                        body: json.into_bytes(),
                    },
                    None => Response::not_found(&format!("no sink tuple {sink_id}")),
                },
                None => Response::not_found("no provenance service attached"),
            },
            None => Response::not_found(path),
        },
    }
}

/// A running control server; dropping it shuts the accept loop down.
#[derive(Debug)]
pub struct ControlServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ControlServer {
    /// The bound address (useful with the default ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A full URL for `path`, e.g. `server.url("/metrics")`.
    pub fn url(&self, path: &str) -> String {
        format!("http://{}{}", self.addr, path)
    }

    /// Stops the accept loop and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop; the connection is dropped unserved.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ControlServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A hand-rolled HTTP GET (the test suite has no HTTP client dependency).
    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: control\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let content_type = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or("")
            .to_string();
        (status, content_type, body.to_string())
    }

    fn plane_with_all_routes() -> ControlPlane {
        let registry = MetricsRegistry::new();
        registry
            .counter("genealog_test_total", &[("operator", "op")])
            .add(7);
        ControlPlane::new(registry)
            .with_topology("digraph G {}\n")
            .with_provenance(|sink_id: &str| {
                (sink_id == "3#0").then(|| r#"{"sink":"3#0"}"#.to_string())
            })
            .with_analysis(r#"{"errors":0,"warnings":1,"diagnostics":[]}"#)
            .with_store_status(|| r#"[{"dir":"/tmp/s","latest_complete_epoch":4}]"#.to_string())
    }

    #[test]
    fn serves_health_metrics_topology_and_provenance() {
        let server = plane_with_all_routes().serve().unwrap();

        let (status, _, body) = get(server.addr(), "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, content_type, body) = get(server.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(content_type.starts_with("text/plain; version=0.0.4"));
        assert!(body.contains("# TYPE genealog_test_total counter"));
        assert!(body.contains(r#"genealog_test_total{operator="op"} 7"#));

        let (status, content_type, body) = get(server.addr(), "/topology.dot");
        assert_eq!(status, 200);
        assert!(content_type.starts_with("text/vnd.graphviz"));
        assert_eq!(body, "digraph G {}\n");

        let (status, content_type, body) = get(server.addr(), "/analyze");
        assert_eq!(status, 200);
        assert_eq!(content_type, "application/json");
        assert_eq!(body, r#"{"errors":0,"warnings":1,"diagnostics":[]}"#);

        let (status, content_type, body) = get(server.addr(), "/store");
        assert_eq!(status, 200);
        assert_eq!(content_type, "application/json");
        assert_eq!(body, r#"[{"dir":"/tmp/s","latest_complete_epoch":4}]"#);

        // The '#' of a sink id arrives percent-encoded.
        let (status, content_type, body) = get(server.addr(), "/provenance/3%230");
        assert_eq!(status, 200);
        assert_eq!(content_type, "application/json");
        assert_eq!(body, r#"{"sink":"3#0"}"#);

        let (status, _, _) = get(server.addr(), "/provenance/9#9");
        assert_eq!(status, 404);
        let (status, _, _) = get(server.addr(), "/nope");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn missing_services_yield_404_and_post_is_rejected() {
        let server = ControlPlane::new(MetricsRegistry::new()).serve().unwrap();
        let (status, _, _) = get(server.addr(), "/topology.dot");
        assert_eq!(status, 404);
        let (status, _, _) = get(server.addr(), "/provenance/1#1");
        assert_eq!(status, 404);
        let (status, _, _) = get(server.addr(), "/analyze");
        assert_eq!(status, 404);
        let (status, _, _) = get(server.addr(), "/store");
        assert_eq!(status, 404);

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn socket_timeouts_are_configurable_and_cut_stalled_readers_loose() {
        // A tight read timeout: a client that connects and never sends sees its
        // connection dropped in roughly that time instead of the former
        // hardcoded 2 s (and the write timeout is applied symmetrically).
        let server = ControlPlane::new(MetricsRegistry::new())
            .with_read_timeout(Duration::from_millis(50))
            .with_write_timeout(Duration::from_millis(50))
            .serve()
            .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let started = std::time::Instant::now();
        let mut buf = [0u8; 1];
        // The handler times out reading the request and closes; the client
        // observes EOF (0 bytes) or a reset — well before the old 2 s floor.
        let outcome = stream.read(&mut buf);
        assert!(matches!(outcome, Ok(0) | Err(_)), "got {outcome:?}");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a stalled client must be cut loose by the configured timeout, took {:?}",
            started.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent_via_drop() {
        let server = ControlPlane::new(MetricsRegistry::new()).serve().unwrap();
        let addr = server.addr();
        drop(server);
        // The port is released: a fresh bind to the same address succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "accept loop still holds {addr}");
    }
}
