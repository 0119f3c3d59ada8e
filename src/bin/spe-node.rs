//! `spe-node`: the worker process of a real (multi-process) GeneaLog
//! deployment.
//!
//! A node binds a TCP listener and serves shard deployments: each connection
//! starts with one serialised `NodeDeployment` frame, is acknowledged, and then
//! becomes the multiplexed data/provenance/metrics link for every shard the
//! node hosts (see `genealog_distributed::node`). The origin side is
//! `connect_gl_node_group`, which returns the same shard-group handle the
//! in-process builder produces.
//!
//! ```text
//! spe-node --listen ADDR [--control ADDR] [--once] [--ready-file PATH]
//!          [--state-dir PATH]
//! ```
//!
//! * `--listen ADDR` — deployment listener address (e.g. `127.0.0.1:7401`,
//!   port `0` for ephemeral). Required.
//! * `--control ADDR` — also serve the node's control endpoint (`/metrics`,
//!   `/healthz`, `/store`) there; the hosted shards' registries are mirrored
//!   into it while they run.
//! * `--once` — serve exactly one deployment connection, then exit. Without
//!   it the node accepts deployments forever.
//! * `--ready-file PATH` — after binding, write the resolved listener address
//!   (line 1) and control address (line 2, empty when `--control` is absent)
//!   to `PATH`. Lets scripts and CI wait for startup without racing the bind.
//!   A leftover file from a crashed predecessor is detected and overwritten.
//! * `--state-dir PATH` — root directory for durable checkpoint stores. Each
//!   checkpointed deployment group gets a log-structured store under
//!   `PATH/<group>`; a node killed mid-epoch and restarted with the same
//!   `--state-dir` recovers its shard state from its own disk.
//!
//! On SIGTERM/SIGINT the node flushes every open store manifest (marking a
//! clean shutdown), removes its ready file and exits 0. Exit code 0 on a
//! clean `--once` run, 1 on argument or socket errors.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use genealog_control::ControlPlane;
use genealog_distributed::{run_node, NetworkConfig, NodeStores};
use genealog_metrics::MetricsRegistry;

/// Minimal libc-free POSIX signal binding: `signal(2)` with a plain handler.
/// The handler only flips an atomic; all real work (flushing store manifests,
/// removing the ready file) happens on a watcher thread in safe code.
mod sig {
    use super::AtomicBool;
    use std::sync::atomic::Ordering;

    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    #[allow(unsafe_code)]
    pub fn install(signum: i32) {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(signum, on_signal);
        }
    }
}

struct Args {
    listen: String,
    control: Option<String>,
    once: bool,
    ready_file: Option<String>,
    state_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut listen = None;
    let mut control = None;
    let mut once = false;
    let mut ready_file = None;
    let mut state_dir = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(args.next().ok_or("--listen needs an address")?),
            "--control" => control = Some(args.next().ok_or("--control needs an address")?),
            "--once" => once = true,
            "--ready-file" => {
                ready_file = Some(args.next().ok_or("--ready-file needs a path")?);
            }
            "--state-dir" => {
                state_dir = Some(PathBuf::from(
                    args.next().ok_or("--state-dir needs a path")?,
                ));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        listen: listen.ok_or("--listen is required")?,
        control,
        once,
        ready_file,
        state_dir,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let listener = TcpListener::bind(&args.listen)
        .map_err(|err| format!("cannot bind deployment listener on {}: {err}", args.listen))?;
    let listen_addr = listener
        .local_addr()
        .map_err(|err| format!("listener has no local address: {err}"))?;
    println!("spe-node: deployments on {listen_addr}");

    let stores = NodeStores::new();
    if let Some(dir) = &args.state_dir {
        std::fs::create_dir_all(dir)
            .map_err(|err| format!("cannot create state dir {}: {err}", dir.display()))?;
        println!("spe-node: durable state under {}", dir.display());
    }

    let registry = MetricsRegistry::new();
    let control = match &args.control {
        Some(addr) => {
            let status_stores = stores.clone();
            let server = ControlPlane::new(registry.clone())
                .with_store_status(move || status_stores.status_json())
                .serve_on(addr)
                .map_err(|err| format!("cannot serve control endpoint on {addr}: {err}"))?;
            println!("spe-node: control endpoint on {}", server.url(""));
            Some(server)
        }
        None => None,
    };

    if let Some(path) = &args.ready_file {
        if std::path::Path::new(path).exists() {
            println!(
                "spe-node: stale ready file {path} (unclean predecessor shutdown?), overwriting"
            );
        }
        let control_line = control
            .as_ref()
            .map_or(String::new(), |s| s.addr().to_string());
        std::fs::write(path, format!("{listen_addr}\n{control_line}\n"))
            .map_err(|err| format!("cannot write ready file {path}: {err}"))?;
    }

    // SIGTERM/SIGINT: a watcher thread flushes store manifests and removes the
    // ready file, so a supervised `kill` leaves a clean-shutdown marker behind
    // while `kill -9` (the crash the recovery tests exercise) leaves none.
    sig::install(sig::SIGTERM);
    sig::install(sig::SIGINT);
    {
        let stores = stores.clone();
        let ready_file = args.ready_file.clone();
        std::thread::spawn(move || loop {
            if sig::REQUESTED.load(Ordering::SeqCst) {
                let flushed = stores.flush_all();
                println!("spe-node: shutdown signal, flushed {flushed} store(s)");
                if let Some(path) = &ready_file {
                    let _ = std::fs::remove_file(path);
                }
                std::process::exit(0);
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    let max = args.once.then_some(1);
    let result = run_node(
        listener,
        &registry,
        NetworkConfig::unlimited(),
        max,
        args.state_dir.as_deref(),
        &stores,
    )
    .map_err(|err| format!("deployment listener failed: {err}"));
    stores.flush_all();
    if let Some(path) = &args.ready_file {
        let _ = std::fs::remove_file(path);
    }
    if let Some(server) = control {
        server.shutdown();
    }
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            println!("spe-node: {reason}");
            println!(
                "usage: spe-node --listen ADDR [--control ADDR] [--once] [--ready-file PATH] [--state-dir PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            println!("spe-node failed: {reason}");
            ExitCode::FAILURE
        }
    }
}
