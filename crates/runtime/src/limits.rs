//! Central home for the runtime's channel and timeout constants.
//!
//! These numbers used to be scattered as magic literals across the
//! executors. They live here so the
//! static capacity-deadlock lint in `ramiel-analyze` and the executors
//! provably agree on the values being analyzed: the lint imports these
//! constants instead of guessing.

/// Capacity of the bounded data-plane channels carrying cross-cluster
/// tensors (worker inboxes in `parallel`). A full inbox applies
/// backpressure to producers; `ramiel-analyze` RA0401 flags
/// schedules whose worst-case in-flight message count can reach this bound
/// inside a cluster cycle, which is the shape that can deadlock. Sized far
/// above any real schedule (the largest model ships a few hundred
/// cross-cluster messages per batch) so backpressure never engages in
/// practice.
pub const DATA_CHANNEL_CAPACITY: usize = 4096;

/// Default worker recv timeout (and steal-job deadline), overridable via
/// [`RECV_TIMEOUT_ENV`].
pub const DEFAULT_RECV_TIMEOUT_MS: u64 = 30_000;

/// Environment variable overriding [`DEFAULT_RECV_TIMEOUT_MS`].
pub const RECV_TIMEOUT_ENV: &str = "RAMIEL_RECV_TIMEOUT_MS";
