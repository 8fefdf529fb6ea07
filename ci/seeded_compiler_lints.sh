#!/usr/bin/env bash
# Seeds one violation of each compiler-enforced contract into a real crate
# and requires `cargo clippy -D warnings` to reject it, naming the lint:
#
#   * a wall-clock read (`Instant::now()`) in dram-power -> disallowed_types
#   * an `unsafe {}` block in sim-harness                 -> unsafe_code
#   * a bare-statement drop of `RunSpec::validate`'s
#     `Result` in pra-core                                -> unused_must_use
#
# The contracts live in the root manifest's `[workspace.lints]` and in
# clippy.toml. The script edits tracked files and restores them with
# `git checkout -- .` when it exits, so run it on a clean checkout.
#
# Usage: bash ci/seeded_compiler_lints.sh
set -euo pipefail

trap 'git checkout -- .' EXIT

log=$(mktemp)

# seed PACKAGE FILE LINT CODE: append CODE to FILE, expect LINT to fail it.
seed() {
    local package=$1 file=$2 lint=$3 code=$4
    printf '\n%s\n' "$code" >> "$file"
    if cargo clippy -p "$package" --offline -- -D warnings 2> "$log"; then
        echo "FAIL: seeded $lint violation in $file was accepted"
        exit 1
    fi
    # rustc spells the lint with hyphens in its "requested on the command
    # line" note and with underscores elsewhere.
    if ! grep -Eq "${lint//_/[-_]}" "$log"; then
        cat "$log"
        echo "FAIL: $file was rejected, but not by $lint"
        exit 1
    fi
    echo "ok: $lint rejects the seeded violation in $file"
    git checkout -- "$file"
}

seed dram-power crates/dram-power/src/lib.rs disallowed_types \
    'pub fn seeded_clock() -> u128 { std::time::Instant::now().elapsed().as_nanos() }'
seed sim-harness crates/sim-harness/src/lib.rs unsafe_code \
    'pub fn seeded_unsafe() { unsafe {} }'
seed pra-core crates/core/src/lib.rs unused_must_use \
    'pub fn seeded_drop(spec: &crate::RunSpec) { spec.validate(); }'
