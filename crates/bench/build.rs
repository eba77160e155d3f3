//! Captures the compiler identity at build time.
//!
//! Wall-clock throughput numbers (`condspec perf`) are only comparable
//! when the code was produced by the same compiler on the same class of
//! machine; the `host` block of the perf report records
//! `rustc -V` so `--compare` can refuse cross-toolchain comparisons
//! with a named reason instead of a silent skip.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string());
    println!("cargo:rustc-env=CONDSPEC_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
