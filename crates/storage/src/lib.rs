//! In-memory multi-version storage engine (paper §V-A1).
//!
//! Each data site owns one [`Store`]: a catalog of row-oriented in-memory
//! tables indexed by primary key. Records are multi-versioned — by default
//! four versions are retained, as in the paper — and reads are executed
//! against a snapshot expressed as a begin version vector, so concurrent
//! writes never block reads. Write–write conflicts are prevented (not
//! aborted) with per-record exclusive locks provided by [`lock::LockManager`].
//!
//! Version visibility: every version carries `(origin site, sequence)` where
//! `sequence` is the committing transaction's position in the origin site's
//! commit order (`tvv[origin]`). A version is visible to a snapshot with
//! begin vector `b` iff `b[origin] ≥ sequence`. Versions are appended in the
//! site's apply order, which the update application rule (Eq. 1) keeps
//! consistent with transaction dependencies, so the newest visible version in
//! chain order is the correct snapshot read.

pub mod lock;
pub mod schema;
pub mod store;
pub mod table;

pub use lock::{LockGuard, LockManager};
pub use schema::{Catalog, TableSchema};
pub use store::Store;
pub use table::{ImageRecord, ReadAt, Table, VersionStamp, Visit};
