//! # dahlia
//!
//! A full-system Rust reproduction of *“Predictable Accelerator Design
//! with Time-Sensitive Affine Types”* (Nigam et al., PLDI 2020).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the Dahlia language: parser, time-sensitive affine type
//!   checker, memory views, checked interpreter, desugarings;
//! * [`filament`] — the §4 core calculus with executable big-step /
//!   small-step semantics and a property-tested soundness theorem;
//! * [`backend`] — Dahlia → Vivado-HLS-style C++, and Dahlia → kernel IR;
//! * [`hls`] — the traditional-HLS toolchain simulator (partitioning,
//!   port-constrained scheduling, area/latency models);
//! * [`spatial`] — the Spatial banking-inference comparator;
//! * [`dse`] — design spaces, sweep planning, the Pareto front,
//!   reports;
//! * [`kernels`] — the 16 MachSuite benchmark ports;
//! * [`obs`] — observability primitives shared by the serving stack:
//!   lock-free log-bucketed histograms, request trace spans, the
//!   bounded trace journal, Prometheus text exposition;
//! * [`gateway`] — the sharded, fault-tolerant cluster front-end:
//!   rendezvous routing by source digest, pooled pipelined shard
//!   clients, health checks, never compiling itself (`dahliac gateway`);
//! * [`server`] — the concurrent, content-addressed compilation service
//!   (staged artifact cache, single-flight batch executor, JSON-lines
//!   protocol, `dahliac serve` / `dahliac batch`).
//!
//! ## Quickstart: the language
//!
//! ```
//! use dahlia::core::{parse, typecheck, TypeErrorKind, Error};
//!
//! // The affine checker rejects conflicting accesses within a logical
//! // time step…
//! let p = parse("let A: float[10]; let x = A[0]; A[1] := 1.0;").unwrap();
//! match typecheck(&p) {
//!     Err(Error::Type(t)) => assert_eq!(t.kind, TypeErrorKind::AlreadyConsumed),
//!     other => panic!("expected a type error, got {other:?}"),
//! }
//!
//! // …and ordered composition (`---`) restores the capabilities.
//! let p = parse("let A: float[10]; let x = A[0] --- A[1] := 1.0;").unwrap();
//! assert!(typecheck(&p).is_ok());
//! ```
//!
//! ## Quickstart: the compilation service
//!
//! The whole pipeline is deterministic, so the server content-addresses
//! every stage artifact and dedups concurrent identical requests
//! (single-flight). Batches of near-identical programs — DSE sweeps,
//! repeated CI runs — are served from cache:
//!
//! ```
//! use dahlia::server::{Request, Server, Stage};
//!
//! let server = Server::with_threads(4);
//! let src = "let A: float[16 bank 4];
//!            for (let i = 0..16) unroll 4 { A[i] := 1.0; }";
//! let batch: Vec<Request> =
//!     (0..32).map(|i| Request::new(format!("r{i}"), Stage::Estimate, src, "scale")).collect();
//!
//! let responses = server.submit_batch(batch);
//! assert!(responses.iter().all(|r| r.ok()));
//!
//! // 32 requests, but parse/check/lower/estimate each ran only once.
//! let stats = server.stats();
//! assert_eq!(stats.requests, 32);
//! assert_eq!(stats.store.total_executions(), 4);
//! assert_eq!(responses.iter().filter(|r| r.cached).count(), 31);
//! ```
//!
//! The same cache accelerates design-space exploration: submit every
//! point of a sweep to one [`server::Server`] and a re-run costs nothing
//! (this is how the `fig7`/`fig8` drivers run the paper's sweeps):
//!
//! ```
//! use dahlia::dse::ParamSpace;
//! use dahlia::server::{Request, Server, Stage};
//!
//! let space = ParamSpace::new().param("bank", [1, 2, 4]).param("unroll", [1, 2, 4]);
//! let server = Server::with_threads(2);
//! let accepted = || {
//!     space
//!         .iter()
//!         .filter(|cfg| {
//!             let src = format!(
//!                 "let A: float[8 bank {}];
//!                  for (let i = 0..8) unroll {} {{ A[i] := 1.0; }}",
//!                 cfg["bank"], cfg["unroll"],
//!             );
//!             server.submit(Request::new("dse", Stage::Estimate, src, "k")).ok()
//!         })
//!         .count()
//! };
//!
//! assert_eq!(accepted(), 5);
//! let cold = server.stats().store.misses;
//! assert_eq!(accepted(), 5);
//! assert_eq!(server.stats().store.misses, cold, "second sweep is all cache hits");
//! ```

pub use dahlia_backend as backend;
pub use dahlia_core as core;
pub use dahlia_dse as dse;
pub use dahlia_gateway as gateway;
pub use dahlia_kernels as kernels;
pub use dahlia_obs as obs;
pub use dahlia_server as server;
pub use filament;
pub use hls_sim as hls;
pub use spatial_sim as spatial;
