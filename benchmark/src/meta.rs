//! Provenance printed with every run: what ran, on what, and how busy the
//! host was meanwhile.

use crate::lap::steal_ms;
use std::fmt::Write as _;
use std::process::Command;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default().trim().to_string()
}

/// Commit of the checkout, when it is a git repository (the acceptance
/// driver's checkouts are not).
fn git_sha() -> String {
    let head = read(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")),
        None => head,
    }
}

pub struct Meta {
    steal0: f64,
}

impl Meta {
    pub fn begin() -> Meta {
        Meta { steal0: steal_ms() }
    }

    /// A JSON object. Every value is a string or a number.
    pub fn finish(&self, seed: u64) -> String {
        let rustc = Command::new("rustc").arg("-V").output();
        let rustc = rustc.map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        let load = read("/proc/loadavg");
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"git\": {:?}, \"rustc\": {:?}, \"threads\": {threads}, \"kernel\": {:?}, \
             \"seed\": {seed}, \"loadavg\": {:?}, \"steal_ms\": {}}}",
            git_sha(),
            rustc.unwrap_or_default(),
            read("/proc/sys/kernel/osrelease"),
            load.split_whitespace().take(3).collect::<Vec<_>>().join(" "),
            steal_ms() - self.steal0,
        );
        s
    }
}
