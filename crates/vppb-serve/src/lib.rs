//! # vppb-serve — prediction as a service
//!
//! An std-only HTTP/1.1 front end over the record → salvage → analyze →
//! simulate pipeline: upload a (possibly damaged) log once, then ask for
//! predictions and what-if sweeps against it by content id. The expensive
//! middle of the pipeline is shared across queries through the
//! content-addressed [`vppb_sim::PlanCache`] plus a whole-response memo,
//! both keyed by stable content hashes ([`vppb_model::ContentId`],
//! [`vppb_model::hash`]), so repeated queries are answered orders of
//! magnitude faster — and, because the simulator is deterministic,
//! byte-identically.
//!
//! Endpoints: `POST /logs`, `POST /logs/{id}/append`, `POST /predict`,
//! `GET /predict?follow=1`, `POST /sweep`, `GET /metrics`,
//! `GET /healthz`, `POST /shutdown`. See DESIGN.md §6d for the serving
//! architecture (bounded queue, backpressure, unwind isolation, graceful
//! drain) and §6f for streaming ingestion: appends grow a
//! [`vppb_sim::StreamSession`] whose engine checkpoints survive re-keying,
//! so a follow prediction resumes replay instead of starting over — and
//! stays bit-identical to a cold prediction of the same content.

//!
//! With `--store DIR` the service is **crash-only** (DESIGN.md §6g): raw
//! uploads live in a disk-backed content store, append chunks are
//! write-ahead journaled before acknowledgement, memoized predictions
//! spill to disk and rewarm after a restart, and a failed durable write
//! flips the server into read-only degradation instead of panicking.

pub mod dispatch;
mod event_loop;
pub mod http;
pub mod persist;
pub mod server;
pub mod service;

pub use persist::{Durability, DurabilityStats, StartupReport};
pub use server::{rlimit, signals, start, ServeOptions, Server};
pub use service::{
    AppendResponse, CacheHit, PredictRequest, PredictResponse, PredictionService, ResultCacheStats,
    ServeError, ServiceMetrics, SweepRequest, SweepResponse, UploadResponse,
};
