//! The logical memory image.
//!
//! The protocol guarantees a single writable copy of each line; the
//! simulator therefore keeps one logical 64-bit value per line (enough for
//! the serializability oracle — transactions increment counters and the
//! committed sums must add up) instead of moving byte payloads through the
//! network. Eager version management writes in place at store time; aborts
//! restore values from the undo log.

use puno_sim::{LineAddr, LineMap};

#[derive(Clone, Debug, Default)]
pub struct MemoryImage {
    values: LineMap<LineAddr, u64>,
}

impl MemoryImage {
    pub fn new() -> Self {
        Self {
            values: LineMap::with_capacity(4096),
        }
    }

    /// Read a line's current value (zero-initialized).
    pub fn read(&self, addr: LineAddr) -> u64 {
        self.values.get(addr).copied().unwrap_or(0)
    }

    /// Write a line in place (eager versioning).
    pub fn write(&mut self, addr: LineAddr, value: u64) {
        self.values.insert(addr, value);
    }

    /// Apply an undo-log rollback.
    pub fn rollback(&mut self, entries: impl IntoIterator<Item = puno_htm::log::LogEntry>) {
        for e in entries {
            self.write(e.addr, e.old_value);
        }
    }

    pub fn touched_lines(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puno_htm::log::LogEntry;

    #[test]
    fn zero_initialized() {
        let m = MemoryImage::new();
        assert_eq!(m.read(LineAddr(42)), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = MemoryImage::new();
        m.write(LineAddr(1), 7);
        assert_eq!(m.read(LineAddr(1)), 7);
    }

    #[test]
    fn rollback_restores() {
        let mut m = MemoryImage::new();
        m.write(LineAddr(1), 5);
        // tx: 5 -> 6 -> 7, logged oldest-first, rolled back newest-first.
        let log = vec![
            LogEntry {
                addr: LineAddr(1),
                old_value: 6,
            },
            LogEntry {
                addr: LineAddr(1),
                old_value: 5,
            },
        ];
        m.write(LineAddr(1), 7);
        m.rollback(log);
        assert_eq!(m.read(LineAddr(1)), 5);
    }
}
