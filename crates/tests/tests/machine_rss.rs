//! Regression guard: instantiating a machine does not make its heap resident.
//!
//! A machine's memory is the program's globals plus `heap_words` of heap —
//! 32 MiB on the Table 1 CMP. It is built as a zeroed allocation the OS
//! backs with demand-zero pages, so a page becomes resident only when a
//! workload touches it. Copying a prepared image instead would fault in
//! every page of every machine: about 256 MiB for the eight below.
#![cfg(target_os = "linux")]

use spice_core::prepared::PreparedProgram;
use spice_sim::MachineConfig;
use spice_workloads::paper_benchmarks;

/// Resident set size of this process in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS value in kB")
}

#[test]
fn eight_machines_stay_below_one_heap_of_resident_memory() {
    let config = MachineConfig::itanium2_cmp();
    let heap_bytes = config.heap_words as u64 * 8;
    let mut workload = paper_benchmarks().swap_remove(0);
    let prepared = PreparedProgram::sequential(config, workload.build().program);

    let before = vm_rss_kib();
    let machines: Vec<_> = (0..8).map(|_| prepared.machine()).collect();
    let grown = vm_rss_kib().saturating_sub(before) * 1024;

    assert_eq!(machines.len(), 8);
    assert!(
        grown < heap_bytes,
        "8 machines grew VmRSS by {grown} bytes, at least one {heap_bytes}-byte heap"
    );
}
