//! Test-registration guard: each test in a binary is registered once.
//!
//! The offline `proptest!` stand-in once added its own `#[test]` on top of
//! the one every property writes, so each property ran twice, in parallel,
//! racing itself on shared scratch files. This binary defines a property
//! the way every suite in the workspace does and asks the test harness for
//! its own test list.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::process::Command;

proptest! {
    #[test]
    fn a_property_written_like_every_suite(x in 0u8..4) {
        prop_assert!(x < 4);
    }
}

/// Names printed by `<this binary> --list`, with their multiplicity.
fn listed_tests() -> BTreeMap<String, usize> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--list", "--format", "terse"])
        .output()
        .expect("run the test binary with --list");
    assert!(out.status.success(), "--list failed: {out:?}");
    let mut names = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some(name) = line.strip_suffix(": test") {
            *names.entry(name.to_string()).or_insert(0) += 1;
        }
    }
    names
}

#[test]
fn no_test_name_is_listed_twice() {
    let names = listed_tests();
    let twice: Vec<_> = names.iter().filter(|(_, &n)| n > 1).collect();
    assert!(twice.is_empty(), "registered more than once: {twice:?}");
    assert_eq!(names.get("a_property_written_like_every_suite"), Some(&1));
    assert_eq!(names.get("no_test_name_is_listed_twice"), Some(&1));
}
