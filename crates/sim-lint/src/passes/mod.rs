//! The lint passes. Each pass walks the workspace and appends
//! [`Diagnostic`]s; suppression is applied afterwards by the driver.

pub mod cycle_arith;
pub mod discarded_result;
pub mod metrics;
pub mod no_panic;
pub mod parity;

use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// A pass: walks the workspace and appends its diagnostics.
pub type PassFn = fn(&Workspace, &mut Vec<Diagnostic>);

/// Every shipped pass, in reporting order, with the lint name its
/// diagnostics carry and its `allow(...)` pragmas name.
pub const PASSES: &[(&str, PassFn)] = &[
    (no_panic::LINT, no_panic::run),
    (parity::LINT, parity::run),
    (metrics::LINT, metrics::run),
    (discarded_result::LINT, discarded_result::run),
    (cycle_arith::LINT, cycle_arith::run),
];

/// Always-on checks of the pragmas themselves: `pragma` (ill-formed or
/// naming an unknown lint) and `dead-pragma` (suppresses nothing). Neither
/// can be suppressed.
pub const META_LINTS: &[&str] = &["pragma", "dead-pragma"];

/// The lint names a pragma may reference, in reporting order.
pub fn lint_names() -> impl Iterator<Item = &'static str> {
    PASSES.iter().map(|(name, _)| *name)
}
