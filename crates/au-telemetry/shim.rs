//! Feature-gated telemetry shims.
//!
//! Instrumentation sites use these `t_*` macros so the exact same code
//! compiles with and without the `telemetry` feature: when the feature is
//! off every macro expands to nothing (argument expressions stay
//! type-checked inside `if false` but are never evaluated), keeping the
//! recorder entirely out of the hot path.
//!
//! This file is not part of the `au-telemetry` crate. Each instrumented
//! crate (`au-core`, `au-nn`, `au-trace`, `au-lang`) includes it as its
//! own module:
//!
//! ```ignore
//! #[macro_use]
//! #[path = "../../au-telemetry/shim.rs"]
//! mod telem;
//! ```
//!
//! so `cfg(feature = "telemetry")` below is that crate's feature, and a
//! build with the feature off never links `au-telemetry`.

// Not every crate uses every shim; keep the set uniform.
#![allow(unused_macros)]

/// Adds to a named global counter (`t_count!("name", n)` or `t_count!("name")`).
#[cfg(feature = "telemetry")]
macro_rules! t_count {
    ($($t:tt)*) => { ::au_telemetry::count!($($t)*) };
}
#[cfg(not(feature = "telemetry"))]
macro_rules! t_count {
    ($name:expr) => {};
    ($name:expr, $n:expr) => {
        if false {
            let _ = $n;
        }
    };
}

/// Starts a latency-histogram timer; bind the guard:
/// `let _t = t_time!("au_core.au_extract");`
#[cfg(feature = "telemetry")]
macro_rules! t_time {
    ($name:expr) => {
        ::au_telemetry::time!($name)
    };
}
#[cfg(not(feature = "telemetry"))]
macro_rules! t_time {
    // Expands to a trivially-droppable non-unit dummy so call sites can
    // bind it like the real guard without tripping let_unit_value.
    ($name:expr) => {
        0u8
    };
}

/// Opens a structured span; bind the guard:
/// `let _s = t_span!("au_nn", model = name);`
#[cfg(feature = "telemetry")]
macro_rules! t_span {
    ($($t:tt)*) => { ::au_telemetry::span!($($t)*) };
}
#[cfg(not(feature = "telemetry"))]
macro_rules! t_span {
    // Same dummy-guard trick as `t_time!`; the arg expressions stay
    // type-checked inside `if false` but are never evaluated.
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        if false {
            $( let _ = &$val; )*
        }
        0u8
    }};
}

/// Sets a named gauge to a value.
#[cfg(feature = "telemetry")]
macro_rules! t_gauge {
    ($($t:tt)*) => { ::au_telemetry::gauge_set!($($t)*) };
}
#[cfg(not(feature = "telemetry"))]
macro_rules! t_gauge {
    ($name:expr, $v:expr) => {
        if false {
            let _ = $v;
        }
    };
}
