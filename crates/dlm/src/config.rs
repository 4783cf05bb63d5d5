//! The lock mode, and the one argument `DesignKind::build` no longer reads.

/// The argument [`DesignKind::build`](crate::DesignKind::build) still
/// takes, though every lock-manager cost is a constant of the module that
/// reads it (`manager.rs`, [`srsl`](crate::srsl),
/// [`cas_spin`](crate::cas_spin), [`lease`](crate::lease)): fieldless,
/// kept only while the host benchmark passes it, and deleted with the
/// benchmark change that stops doing so.
#[derive(Debug, Clone, Copy, Default)]
pub struct DlmConfig;

/// Requested lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Multiple concurrent holders.
    Shared,
    /// Single holder.
    Exclusive,
}
