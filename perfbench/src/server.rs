//! `simrank-serve` processes started, probed and stopped by the benchmark.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use exactsim_service::net::LineClient;

/// How long a server may take to print its listening address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained server may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// The out-of-range probe whose error reply names the graph's node count.
const NODE_COUNT_PROBE: &str = "topk 4294967295 1";

/// Builds `simrank-serve` from the repository's workspace (a no-op once it
/// is up to date) and returns the path of the binary.
pub fn build_server(repo_root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "exactsim-router", "--bin", "simrank-serve"])
        .arg("--manifest-path")
        .arg(repo_root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building simrank-serve failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => repo_root.join("target"),
    };
    let bin = target.join("release").join("simrank-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// One running server process. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    /// Forwards the server's stdout until it exits; joined after the exit.
    reader: Option<std::thread::JoinHandle<()>>,
    /// The `host:port` it listens on.
    pub addr: String,
}

impl Server {
    /// Starts `bin --listen 127.0.0.1:0 <args>` and waits until it reports
    /// its address. Its stderr goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // The reader thread ends at the server's EOF, i.e. when it exits.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = crate::wire::str_field(&line, "listening") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut server = Server {
            child: Some(child),
            reader: Some(reader),
            addr: String::new(),
        };
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => Err(format!(
                "server {args:?} never reported its address (see {})",
                log.display()
            )),
        }
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = LineClient::connect(&self.addr)
            .and_then(|mut c| c.round_trip("shutdown"))
            .map_err(|e| format!("shutdown of {}: {e}", self.addr));
        let mut child = self.child.take().expect("server still owned");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break asked.map(|_| ()),
                Ok(Some(status)) => break Err(format!("server {} exited {status}", self.addr)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(format!("server {} did not exit after shutdown", self.addr));
                }
            }
        };
        self.join_reader();
        exited
    }

    fn join_reader(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.join_reader();
    }
}

/// The node count the server at `addr` serves, read from the error reply
/// to an out-of-range `topk`.
pub fn probe_num_nodes(client: &mut LineClient) -> Result<usize, String> {
    let reply = client
        .round_trip(NODE_COUNT_PROBE)
        .map_err(|e| format!("node-count probe: {e}"))?;
    parse_num_nodes(&reply).ok_or_else(|| format!("unexpected node-count probe reply {reply}"))
}

fn parse_num_nodes(reply: &str) -> Option<usize> {
    if crate::wire::error_code(reply) != Some("out_of_range") {
        return None;
    }
    let rest = &reply[reply.find("graph with ")? + "graph with ".len()..];
    rest.split(' ').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_comes_from_the_out_of_range_reply() {
        let reply = "{\"error\":\"algorithm error: source node 4294967295 out of range for graph with 5242 nodes\",\"code\":\"out_of_range\"}";
        assert_eq!(parse_num_nodes(reply), Some(5242));
        assert_eq!(parse_num_nodes("{\"op\":\"ping\",\"epoch\":0}"), None);
    }
}
