//! Container byte sources: where raw SAPK/SDEX bytes live before decode.
//!
//! The zero-copy decoders ([`Dex::decode_bytes`](crate::Dex::decode_bytes),
//! [`Sapk::decode_bytes`](crate::Sapk::decode_bytes)) only need a [`Bytes`]
//! handle; this module abstracts over *how that handle is backed* so the
//! corpus pipeline can stream multi-gigabyte shard files straight out of
//! the page cache instead of copying every container into a per-app
//! `Vec<u8>`:
//!
//! * [`ContainerSource::in_memory`] — bytes already on the heap (the
//!   generator path, and the buffered fallback);
//! * [`ContainerSource::open_read`] — read a whole file into one shared
//!   heap buffer (portable fallback);
//! * [`ContainerSource::open_mmap`] — `mmap(2)` the file read-only and
//!   hand out [`Bytes`] views that alias the mapping. Slices taken from
//!   the source (per-entry container windows, dex sections inside them)
//!   all share one refcounted region; the kernel pages data in on demand
//!   and can evict it under pressure, so resident memory is bounded by
//!   the working set, not the corpus size.
//!
//! This is the same split dexrs draws between `InMemoryDexContainer` and
//! `FileDexContainer`. On non-Unix targets [`ContainerSource::open_mmap`]
//! silently degrades to the buffered read — callers can check
//! [`ContainerSource::is_mapped`] when the distinction matters (the
//! pipeline's `bytes_mapped` counters do).

use bytes::Bytes;
use std::fs::File;
use std::io::{self, Read as _};
use std::path::Path;

/// A read-only `mmap(2)` of an entire file, unmapped on drop.
///
/// The mapping is private and read-only; the backing pages live in the
/// page cache, so two regions over the same file share physical memory.
#[cfg(unix)]
pub struct MmapRegion {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    // std already links libc on every Unix target, so binding the two
    // calls directly keeps the workspace dependency-free.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

#[cfg(unix)]
impl MmapRegion {
    /// Map `file` (its full current length) read-only.
    ///
    /// Zero-length files cannot be mapped on most kernels; they come back
    /// as an empty region with no mapping, which behaves identically.
    pub fn map(file: &File) -> io::Result<MmapRegion> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map on this platform",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(MmapRegion {
                ptr: std::ptr::NonNull::dangling(),
                len: 0,
            });
        }
        // SAFETY: fd is valid for the duration of the call; we request a
        // fresh private read-only mapping and check for MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapRegion {
            ptr: std::ptr::NonNull::new(ptr as *mut u8)
                .expect("mmap returned null without MAP_FAILED"),
            len,
        })
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(unix)]
impl AsRef<[u8]> for MmapRegion {
    fn as_ref(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: the mapping is valid for `len` bytes until munmap in
        // Drop, and read-only, so no aliasing mutation can occur.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: ptr/len came from a successful mmap of this length.
            unsafe {
                sys::munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

// SAFETY: the mapping is immutable after construction; concurrent reads
// from multiple threads are fine, and munmap happens exactly once in Drop.
#[cfg(unix)]
unsafe impl Send for MmapRegion {}
#[cfg(unix)]
unsafe impl Sync for MmapRegion {}

/// A refcounted, possibly memory-mapped container byte source.
///
/// Cloning is cheap (refcount bump); every [`Bytes`] view handed out
/// shares the backing storage, so the zero-copy decode path reads shard
/// bytes straight from the page cache.
#[derive(Debug, Clone)]
pub struct ContainerSource {
    bytes: Bytes,
    mapped: bool,
}

impl ContainerSource {
    /// Wrap bytes already in memory.
    pub fn in_memory(bytes: impl Into<Bytes>) -> ContainerSource {
        ContainerSource {
            bytes: bytes.into(),
            mapped: false,
        }
    }

    /// Read the whole file into one shared heap buffer (portable path).
    pub fn open_read(path: &Path) -> io::Result<ContainerSource> {
        let mut file = File::open(path)?;
        let mut buf = Vec::new();
        if let Ok(meta) = file.metadata() {
            buf.reserve(meta.len() as usize);
        }
        file.read_to_end(&mut buf)?;
        Ok(ContainerSource::in_memory(buf))
    }

    /// Memory-map the file read-only. On non-Unix targets this degrades
    /// to [`ContainerSource::open_read`].
    #[cfg(unix)]
    pub fn open_mmap(path: &Path) -> io::Result<ContainerSource> {
        let file = File::open(path)?;
        let region = MmapRegion::map(&file)?;
        Ok(ContainerSource {
            bytes: Bytes::from_owner(region),
            mapped: true,
        })
    }

    /// Memory-map the file read-only. On non-Unix targets this degrades
    /// to [`ContainerSource::open_read`].
    #[cfg(not(unix))]
    pub fn open_mmap(path: &Path) -> io::Result<ContainerSource> {
        ContainerSource::open_read(path)
    }

    /// The full source as a shared view.
    pub fn bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// A sub-view sharing the backing storage.
    ///
    /// # Panics
    /// Panics if the range falls outside the source, like `Bytes::slice`.
    pub fn slice(&self, offset: usize, len: usize) -> Bytes {
        self.bytes.slice(offset..offset + len)
    }

    /// Source length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether the backing storage is a live file mapping (false for heap
    /// buffers and the non-Unix fallback).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }
}

#[cfg(unix)]
impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_file(tag: &str, content: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("wla-source-{tag}-{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(content).unwrap();
        path
    }

    #[test]
    fn mmap_and_read_agree() {
        let content: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("agree", &content);
        let mapped = ContainerSource::open_mmap(&path).unwrap();
        let read = ContainerSource::open_read(&path).unwrap();
        assert_eq!(&mapped.bytes()[..], &content[..]);
        assert_eq!(&read.bytes()[..], &content[..]);
        assert_eq!(mapped.len(), read.len());
        assert!(!read.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn slices_share_storage_and_outlive_the_source() {
        let content = b"0123456789abcdef".to_vec();
        let path = temp_file("slice", &content);
        let src = ContainerSource::open_mmap(&path).unwrap();
        let mid = src.slice(4, 8);
        let base = src.bytes().as_ref().as_ptr() as usize;
        if src.is_mapped() {
            // The slice aliases the mapping — zero bytes copied.
            assert_eq!(mid.as_ref().as_ptr() as usize, base + 4);
        }
        drop(src);
        // The refcounted region stays mapped while any view lives.
        assert_eq!(&mid[..], b"456789ab");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_as_empty() {
        let path = temp_file("empty", b"");
        let src = ContainerSource::open_mmap(&path).unwrap();
        assert!(src.is_empty());
        assert_eq!(src.bytes().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("wla-source-definitely-missing");
        assert!(ContainerSource::open_mmap(&path).is_err());
        assert!(ContainerSource::open_read(&path).is_err());
    }
}
