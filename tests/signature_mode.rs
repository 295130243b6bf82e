//! Signature-based conflict detection ablation: Bloom signatures must
//! preserve correctness (no false negatives => still serializable) while
//! adding alias-induced conflicts when undersized.

use puno_repro::htm::SignatureConfig;
use puno_repro::prelude::*;
use puno_repro::sim::LineAddr;

fn config_with_sigs(bits: u32) -> SystemConfig {
    let mut c = SystemConfig::paper(Mechanism::Baseline);
    c.signatures = Some(SignatureConfig { bits, hashes: 2 });
    c
}

#[test]
fn signatures_preserve_serializability() {
    let params = micro::counter(4, 12);
    let mut sys = System::new(config_with_sigs(2048), &params, 3);
    let metrics = sys.try_run_recycled().unwrap();
    let memory = sys.memory();
    assert_eq!(metrics.committed, 16 * 12);
    let total: u64 = (0..4).map(|i| memory.read(LineAddr(i))).sum();
    assert_eq!(total, 16 * 12);
}

#[test]
fn generous_signatures_behave_like_exact_sets() {
    // 2 Kbit signatures vs footprints of a few lines: aliasing ~ 0, so the
    // run should be metrically indistinguishable from the precise baseline.
    let params = micro::hotspot(15);
    let exact = run_workload(Mechanism::Baseline, &params, 5);
    let sig = puno_repro::harness::run::run_with_config(config_with_sigs(2048), &params, 5);
    assert_eq!(sig.committed, exact.committed);
    assert_eq!(
        sig.htm.sig_alias_conflicts.get(),
        0,
        "tiny footprints must not alias in 2 Kbit"
    );
    assert_eq!(sig.htm.aborts.get(), exact.htm.aborts.get());
    assert_eq!(sig.cycles, exact.cycles);
}

#[test]
fn undersized_signatures_manufacture_conflicts() {
    // Big read sets (bayes) into 64-bit signatures: heavy aliasing. The
    // run must remain correct, but alias conflicts appear and aborts and/or
    // nacks go up relative to exact tracking.
    let params = WorkloadId::Bayes.params().scaled(0.1);
    let exact = run_workload(Mechanism::Baseline, &params, 5);
    let sig = puno_repro::harness::run::run_with_config(config_with_sigs(64), &params, 5);
    assert_eq!(
        sig.committed, exact.committed,
        "correctness is unconditional"
    );
    assert!(
        sig.htm.sig_alias_conflicts.get() > 0,
        "64-bit signatures must alias on bayes footprints"
    );
    let exact_pressure = exact.htm.aborts.get() + exact.htm.nacks_received.get();
    let sig_pressure = sig.htm.aborts.get() + sig.htm.nacks_received.get();
    assert!(
        sig_pressure > exact_pressure,
        "aliasing should raise conflict pressure ({sig_pressure} vs {exact_pressure})"
    );
}

#[test]
fn signature_mode_is_deterministic() {
    let params = micro::hotspot(10);
    let a = puno_repro::harness::run::run_with_config(config_with_sigs(256), &params, 7);
    let b = puno_repro::harness::run::run_with_config(config_with_sigs(256), &params, 7);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(
        a.htm.sig_alias_conflicts.get(),
        b.htm.sig_alias_conflicts.get()
    );
}
