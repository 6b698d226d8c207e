//! Shard dispatcher for the EBRC reproduction: split one sweep into `k`
//! shard worker *processes*, supervise them with per-shard timeouts
//! and bounded exponential-backoff retries, then fingerprint-check and
//! auto-merge their artifacts ([`dispatch::supervise`]). Crash
//! isolation for long paper sweeps — a killed or hung worker costs one
//! shard retry, not the sweep.
//!
//! Concurrent sweeps need no service: processes sharing a cache
//! directory dedup their work through the cache's claim files (see
//! `ebrc_runner::cache`).
//!
//! Everything here is `std`-only and experiment-agnostic: the caller
//! supplies the closures that launch a shard and accept its artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;

pub use dispatch::{supervise, DispatchConfig, DispatchEvent, FaultKill, ShardReport};
