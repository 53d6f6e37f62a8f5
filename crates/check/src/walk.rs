//! The deterministic directory walk behind
//! [`CheckSession::check_paths`](crate::CheckSession::check_paths): it
//! lists the files under a set of roots in a fixed order, which the
//! session then checks on the shared `spex-pool` workers.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One discovered path: a candidate file, or a location the walk could
/// not descend (reported as unreadable rather than aborting the batch).
pub(crate) struct WalkEntry {
    pub(crate) path: PathBuf,
    pub(crate) walk_error: Option<String>,
}

impl WalkEntry {
    fn file(path: PathBuf) -> WalkEntry {
        WalkEntry {
            path,
            walk_error: None,
        }
    }
}

/// Walks every root in order with [`walk_sorted`], sharing one visited
/// set so overlapping roots descend each physical directory once.
pub(crate) fn walk_roots<P: AsRef<Path>>(roots: &[P]) -> std::io::Result<Vec<WalkEntry>> {
    let mut files: Vec<WalkEntry> = Vec::new();
    let mut visited = BTreeSet::new();
    for root in roots {
        walk_sorted(root.as_ref(), &mut files, &mut visited)?;
    }
    Ok(files)
}

/// Depth-first walk collecting regular files, visiting directory entries
/// in sorted name order so the job list — and therefore the report order —
/// is deterministic across platforms and runs. Directory symlinks are
/// followed, but each physical directory in `visited` is descended at most
/// once, so a symlink cycle (`ln -s . loop`) terminates instead of
/// recursing forever. Explicit *file* roots are always pushed, even when a
/// directory root also reaches them. Only a root whose metadata cannot be
/// read at all (typically: it does not exist) is a hard error; everything
/// below a root degrades to a per-path unreadable report.
fn walk_sorted(
    root: &Path,
    out: &mut Vec<WalkEntry>,
    visited: &mut BTreeSet<PathBuf>,
) -> std::io::Result<()> {
    let meta = std::fs::metadata(root)?;
    if meta.is_file() {
        out.push(WalkEntry::file(root.to_path_buf()));
        return Ok(());
    }
    if !meta.is_dir() {
        // A FIFO/socket/device root: report it, don't try to list it.
        out.push(WalkEntry::file(root.to_path_buf()));
        return Ok(());
    }
    if let Ok(canon) = std::fs::canonicalize(root) {
        if !visited.insert(canon) {
            return Ok(());
        }
    }
    let listing = std::fs::read_dir(root).and_then(|rd| {
        rd.map(|e| e.map(|e| e.path()))
            .collect::<std::io::Result<Vec<PathBuf>>>()
    });
    let mut entries = match listing {
        Ok(entries) => entries,
        // An unreadable (e.g. permission-denied) directory inside the
        // tree is one bad location, not a batch abort.
        Err(e) => {
            out.push(WalkEntry {
                path: root.to_path_buf(),
                walk_error: Some(e.to_string()),
            });
            return Ok(());
        }
    };
    entries.sort_unstable();
    for entry in entries {
        // A file deleted between listing and stat is the streaming racer's
        // problem, not a batch abort: record it as unreadable.
        match std::fs::metadata(&entry) {
            Ok(m) if m.is_dir() => {
                // The recursive call's only hard-error path is a re-stat
                // race on this entry; degrade it like everything else.
                if let Err(e) = walk_sorted(&entry, out, visited) {
                    out.push(WalkEntry {
                        path: entry,
                        walk_error: Some(e.to_string()),
                    });
                }
            }
            _ => out.push(WalkEntry::file(entry)),
        }
    }
    Ok(())
}
