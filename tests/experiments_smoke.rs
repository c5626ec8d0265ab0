//! Smoke-runs every experiment runner of the harness: each table/figure of
//! the paper regenerates without panicking and with plausible shape.

use mnn_bench::experiments as e;
use mnn_bench::Scale;

#[test]
fn table1_renders() {
    let t = e::table1();
    assert!(t.to_string().contains("Embedding dimension"));
}

#[test]
fn fig03_smoke() {
    let t = e::motivation::fig03(Scale::Smoke);
    assert_eq!(t.rows.len(), 20);
}

#[test]
fn fig04_smoke() {
    let t = e::motivation::fig04(Scale::Smoke);
    assert_eq!(t.rows.len(), 3);
}

#[test]
fn fig06_and_fig07_smoke() {
    let t6 = e::accuracy::fig06(Scale::Smoke);
    assert!(!t6.rows.is_empty());
    let t7 = e::accuracy::fig07(Scale::Smoke);
    assert_eq!(t7.rows.len(), 7);
}

#[test]
fn fig09_smoke() {
    let a = e::cpu::fig09_native(Scale::Smoke);
    assert_eq!(a.rows.len(), 3); // baseline, column, MnnFast
    let b = e::cpu::fig09_modelled(Scale::Smoke);
    assert_eq!(b.rows.len(), 7);
}

#[test]
fn fig10_and_fig11_smoke() {
    let t10 = e::cpu::fig10(Scale::Smoke);
    assert_eq!(t10.rows.len(), 9);
    let t11 = e::cpu::fig11(Scale::Smoke);
    assert_eq!(t11.rows.len(), 4);
}

#[test]
fn accelerator_figs_smoke() {
    let t12 = e::accelerators::fig12(Scale::Smoke);
    assert_eq!(t12.rows.len(), 13); // 3 stream rows + 8 gpu rows + 2 multi-node rows
    let t13 = e::accelerators::fig13(Scale::Smoke);
    assert_eq!(t13.rows.len(), 4);
    let t14 = e::accelerators::fig14(Scale::Smoke);
    assert_eq!(t14.rows.len(), 4);
    let t55 = e::accelerators::sec55(Scale::Smoke);
    assert_eq!(t55.rows.len(), 3); // CPU, FPGA, GPU (extension)
}
