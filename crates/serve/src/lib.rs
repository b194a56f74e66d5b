//! # tce-serve — a concurrent compile-and-execute service
//!
//! A dependency-free (std-only) TCP service that keeps one process warm
//! across many tensor-contraction compilations, so the sharded GETT plan
//! cache and the compiled-[`Synthesis`] cache amortize: the second request
//! for the same expression skips the whole Fig. 5 pipeline.
//!
//! The crate is deliberately **core-agnostic**: it knows the line protocol
//! ([`protocol`]), the generic sharded LRU it re-exports from `tce-par`
//! ([`ShardedLru`]), and the threaded server loop ([`server`]) — what a `run` request *means* is injected as
//! a [`Handler`].  `tce-core` wires its `synthesize` pipeline in (see
//! `tce_core::serve`), and the `tce serve` subcommand exposes it on the
//! command line.  This direction keeps the dependency graph acyclic:
//! `core → serve`, never back.
//!
//! Protocol: one line per request, one line per response (newlines and
//! spaces inside values are backslash-escaped).  Robustness: a bounded
//! admission queue sheds load with a `busy` reply, a request line over
//! 1 MiB is refused, every `run` is bounded by a wall-clock timeout and
//! isolated by `catch_unwind` on its worker's runner thread, and
//! `shutdown` (or SIGTERM) drains the queue before the listener exits.
//!
//! [`Synthesis`]: ../tce_core/struct.Synthesis.html
//! [`Handler`]: server::Handler
//!
//! ```
//! use std::sync::Arc;
//! use tce_serve::{Handler, Server, ServeConfig};
//!
//! struct Echo;
//! impl Handler for Echo {
//!     fn run(&self, program: &str, _opts: &[(String, String)]) -> Result<String, String> {
//!         Ok(format!("echo {program}"))
//!     }
//! }
//! let server = Server::bind(&ServeConfig::default(), Arc::new(Echo)).unwrap();
//! let addr = server.local_addr();
//! let handle = server.spawn();
//! let reply = tce_serve::client::request(&addr.to_string(), "ping").unwrap();
//! assert_eq!(reply, "ok pong");
//! handle.shutdown();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use protocol::{escape, parse_request, unescape, Request};
pub use server::{Handler, ServeConfig, Server, ServerHandle, ServerStats};
pub use tce_par::{CacheStats, ShardedLru};
