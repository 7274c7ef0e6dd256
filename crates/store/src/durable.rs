//! The file discipline checkpoint parts and sealed segments share: each
//! file is one durable-framed record, written whole through a tmp file
//! and a rename, so a crash leaves either the old state or the new one
//! plus a `.tmp` leftover that the next open removes; and a file is
//! trusted only when its frame verifies, carries the expected tag, and
//! ends where the file ends.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use ms_core::{Wire, WireError, WireFrame, WireReader};

/// Create `dir` if needed and remove the `.tmp` leftovers of writes a
/// crash interrupted.
pub(crate) fn open_dir(dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|x| x == "tmp") {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Write each `(path, frame)` under `dir` atomically: the durable bytes go
/// to a tmp file, which is fsync'd when `sync` is set and then renamed
/// into place; the directory is fsync'd once after the last rename.
/// Returns the total bytes written.
pub(crate) fn write_files(
    dir: &Path,
    sync: bool,
    files: impl IntoIterator<Item = (PathBuf, WireFrame)>,
) -> io::Result<u64> {
    let mut written = 0u64;
    for (path, frame) in files {
        let bytes = frame.to_durable_bytes();
        let tmp = path.with_extension("tmp");
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&tmp)?;
        file.write_all(&bytes)?;
        if sync {
            file.sync_data()?;
        }
        drop(file);
        fs::rename(&tmp, &path)?;
        written += bytes.len() as u64;
    }
    if sync {
        sync_dir(dir)?;
    }
    Ok(written)
}

/// Read `path` as exactly one verified durable frame tagged `tag` and
/// decode its `T`. Bytes after the frame are `Malformed(trailing)`.
pub(crate) fn read_file<T: Wire>(
    path: &Path,
    tag: u8,
    trailing: &'static str,
) -> Result<T, WireError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|_| WireError::Truncated)?;
    let mut r = WireReader::new(&bytes);
    let frame = WireFrame::read_durable(&mut r)?;
    if frame.tag != tag {
        return Err(WireError::BadTag(frame.tag));
    }
    if r.pos() != bytes.len() {
        return Err(WireError::Malformed(trailing));
    }
    frame.value::<T>()
}

/// fsync a directory so renames and new files within it are durable.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}
