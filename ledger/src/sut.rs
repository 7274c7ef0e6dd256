//! The system under test: `mergeable serve` child processes on loopback.
//!
//! Every node keeps its stdin piped from this process. `serve` stops when
//! its stdin closes, so even if the ledger dies without running a
//! destructor no orphan keeps a port.

use crate::host;
use crate::spec::Workload;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

struct Node {
    child: Child,
    // Held open: `serve` stops when its stdin closes.
    _stdin: Option<ChildStdin>,
    // Kept open so a late `println!` in the server cannot fail on a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Node {
    /// Spawn `bin args… --addr 127.0.0.1:0` and wait for the line that
    /// names the bound address (`listening on A …` / `coordinating … on A;`).
    fn spawn(bin: &Path, args: &[String]) -> io::Result<Node> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "{} {args:?} exited before listening",
                    bin.display()
                )));
            }
            if let Some(at) = line.find(" on 127.0.0.1:") {
                let rest = &line[at + 4..];
                let end = rest
                    .find(|c: char| c.is_whitespace() || c == ';')
                    .unwrap_or(rest.len());
                break rest[..end].to_string();
            }
        };
        Ok(Node {
            child,
            _stdin: stdin,
            _stdout: stdout,
            addr,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A temporary `--data-dir` under `ledger/out/`, removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn create(out_dir: &Path) -> io::Result<DataDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir.join(format!(
            "data-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(DataDir(path))
    }
}

/// Remove what a ledger process that was killed outright left under
/// `out_dir`: scratch directories are named `<kind>-<pid>[-n]`, and one
/// whose process is gone has no owner to remove it.
pub fn sweep_stale(out_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(out_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let owner = name
            .to_str()
            .and_then(|n| n.strip_prefix("data-").or(n.strip_prefix("replay-")))
            .and_then(|rest| rest.split('-').next())
            .and_then(|pid| pid.parse::<u32>().ok());
        if owner.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// All server-side processes of one workload.
pub struct Sut {
    bin: PathBuf,
    /// Backend nodes first, the coordinator (if any) last.
    nodes: Vec<Node>,
    node_args: Vec<String>,
    data_dir: Option<DataDir>,
    /// Address the clients connect to.
    pub front: String,
}

impl Sut {
    pub fn start(bin: &Path, out_dir: &Path, w: &Workload) -> io::Result<Sut> {
        let data_dir = w.wal.then(|| DataDir::create(out_dir)).transpose()?;
        let dir = data_dir
            .as_ref()
            .map(|d| d.0.to_string_lossy().into_owned());
        let mut sut = Sut {
            bin: bin.to_path_buf(),
            nodes: Vec::new(),
            node_args: w.node_args(dir.as_deref()),
            data_dir,
            front: String::new(),
        };
        sut.spawn_nodes(w.cluster_nodes)?;
        Ok(sut)
    }

    fn spawn_nodes(&mut self, cluster_nodes: usize) -> io::Result<()> {
        for _ in 0..cluster_nodes.max(1) {
            self.nodes.push(Node::spawn(&self.bin, &self.node_args)?);
        }
        if cluster_nodes > 0 {
            let backends: Vec<&str> = self.nodes.iter().map(|n| n.addr.as_str()).collect();
            let args = ["serve", "--coordinator", "--nodes", &backends.join(",")].map(String::from);
            self.nodes.push(Node::spawn(&self.bin, &args)?);
        }
        self.front = self.nodes.last().expect("at least one node").addr.clone();
        Ok(())
    }

    /// The command lines, for the result file.
    pub fn describe(&self) -> Vec<String> {
        let mut lines = vec![self.node_args.join(" ")];
        if self.nodes.len() > 1 {
            lines.push(format!(
                "{} backend nodes + serve --coordinator",
                self.nodes.len() - 1
            ));
        }
        lines
    }

    /// Σ `utime + stime` over the server-side children, in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| host::cpu_seconds(n.pid()))
            .sum()
    }

    /// Σ `VmHWM` over the server-side children, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| host::peak_rss_mib(n.pid()))
            .sum()
    }

    /// SIGKILL every node, then start a fresh single node on the same
    /// `--data-dir` (the crash-recovery check of the durable workloads).
    pub fn kill_and_restart(&mut self) -> io::Result<()> {
        assert!(self.data_dir.is_some(), "restart needs a --data-dir");
        for node in &mut self.nodes {
            node.kill();
        }
        self.nodes.clear();
        self.spawn_nodes(0)
    }
}
