//! Selection of which induced first-accesses count as input.

/// Which induced first-accesses contribute to the threaded read memory size.
///
/// A read is an *induced first-access* when the latest write to the cell was
/// performed by another thread or by the kernel and the reading activation
/// has not accessed the cell since (Definition 2). The paper distinguishes
/// **thread-induced** input (writer was another thread) from **external**
/// input (writer was the kernel, i.e. I/O); Fig. 7 plots the same routine
/// under rms, trms with external input only, and full trms. This policy
/// reproduces those variants from a single engine: an induced access whose
/// source is disabled falls back to the plain first-access rule, so with
/// both sources disabled the trms degenerates exactly to the rms.
///
/// # Example
///
/// ```
/// use aprof_core::InputPolicy;
/// let full = InputPolicy::full();
/// assert!(full.thread_induced && full.external);
/// assert_eq!(InputPolicy::default(), full);
/// assert!(!InputPolicy::rms_only().thread_induced);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputPolicy {
    /// Count induced first-accesses caused by writes of other threads.
    pub thread_induced: bool,
    /// Count induced first-accesses caused by kernel writes (external I/O).
    pub external: bool,
}

impl InputPolicy {
    /// Full trms: both thread-induced and external input count (Fig. 7c).
    pub const fn full() -> Self {
        InputPolicy { thread_induced: true, external: true }
    }

    /// External input only (Fig. 7b).
    pub const fn external_only() -> Self {
        InputPolicy { thread_induced: false, external: true }
    }

    /// Thread-induced input only.
    pub const fn thread_only() -> Self {
        InputPolicy { thread_induced: true, external: false }
    }

    /// No induced input: the trms degenerates to the rms (Fig. 7a).
    pub const fn rms_only() -> Self {
        InputPolicy { thread_induced: false, external: false }
    }

    /// Whether an induced access from the given source counts.
    pub const fn counts(&self, kernel_writer: bool) -> bool {
        if kernel_writer {
            self.external
        } else {
            self.thread_induced
        }
    }
}

impl Default for InputPolicy {
    fn default() -> Self {
        InputPolicy::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(InputPolicy::full(), InputPolicy { thread_induced: true, external: true });
        assert_eq!(InputPolicy::external_only(), InputPolicy { thread_induced: false, external: true });
        assert_eq!(InputPolicy::thread_only(), InputPolicy { thread_induced: true, external: false });
        assert_eq!(InputPolicy::rms_only(), InputPolicy { thread_induced: false, external: false });
    }

    #[test]
    fn counts_by_source() {
        assert!(InputPolicy::full().counts(true));
        assert!(InputPolicy::full().counts(false));
        assert!(InputPolicy::external_only().counts(true));
        assert!(!InputPolicy::external_only().counts(false));
        assert!(!InputPolicy::rms_only().counts(true));
        assert!(!InputPolicy::rms_only().counts(false));
    }
}
