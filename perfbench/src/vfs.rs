//! A [`Vfs`] that counts and times the filesystem calls the durable
//! run manager makes, so the traced run can split a durable call into
//! storage time and everything else. Used only by the traced run; the
//! untimed runs pass [`StdVfs`] straight through.

use relstore::{StdVfs, Vfs};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Counters of one [`TimedVfs`].
#[derive(Debug, Default, Clone, Copy)]
pub struct VfsStats {
    /// `write` calls.
    pub writes: u64,
    /// Bytes handed to `write`.
    pub write_bytes: u64,
    /// Time inside `write`.
    pub write: Duration,
    /// Time inside `rename`.
    pub rename: Duration,
    /// Time inside `read` (including misses on files not written yet).
    pub read: Duration,
    /// Time inside `create_dir_all`.
    pub mkdir: Duration,
    /// Time the caller spent between a `read` returning and the next
    /// `write` starting: the work it did after probing for a file and
    /// before writing one. In an update stream call that is applying the
    /// chunk, re-resolving the affected names, and encoding the manifest
    /// and the chunk.
    pub read_to_write: Duration,
}

impl VfsStats {
    /// Every moment spent inside the filesystem.
    pub fn total(&self) -> Duration {
        self.write + self.rename + self.read + self.mkdir
    }
}

/// [`StdVfs`] with counters.
#[derive(Debug, Default)]
pub struct TimedVfs {
    /// What has been counted so far.
    pub stats: VfsStats,
    /// When the last `read` returned, if no `write` has started since.
    last_read: Option<Instant>,
}

impl Vfs for TimedVfs {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        if let Some(read) = self.last_read.take() {
            self.stats.read_to_write += t - read;
        }
        let r = StdVfs.write(path, bytes);
        self.stats.write += t.elapsed();
        self.stats.writes += 1;
        self.stats.write_bytes += bytes.len() as u64;
        r
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let r = StdVfs.read(path);
        self.stats.read += t.elapsed();
        self.last_read = Some(Instant::now());
        r
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = StdVfs.rename(from, to);
        self.stats.rename += t.elapsed();
        r
    }

    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = StdVfs.create_dir_all(path);
        self.stats.mkdir += t.elapsed();
        r
    }
}
