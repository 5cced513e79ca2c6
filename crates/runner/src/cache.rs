//! The on-disk result cache.
//!
//! One file per job under the cache directory, named by the job's content
//! hash (`<hash16>.result`). The format is a hand-rolled line-oriented
//! text format (the workspace bans serde):
//!
//! ```text
//! ppsim-cache v2
//! job.bench=gzip
//! job.ifconv=0
//! ...                      # every line of Job::canon, prefixed "job."
//! stat.cycles=123456
//! stat.committed=500000
//! ...                      # every SimStats counter, fixed order
//! stat.stall.fetch_miss=100
//! ...                      # every stall bucket, StallBucket::ALL order
//! pc.17=5000,12
//! ...                      # per-branch (slot, execs, mispredicts) rows
//! static.insns=871
//! static.cond_branches=42
//! time.wall_micros=8120
//! ...                      # capture/compile/sim timing, telemetry-only
//! end
//! ```
//!
//! Loads verify three things: the version header, the *full* canonical
//! job encoding (so a hash collision or a semantics change in any input
//! axis reads as a miss, never as a wrong result), and the `end` sentinel
//! (so a truncated write from a killed process reads as a miss). Stores
//! write to a temp sibling unique to the write (`<hash16>.<pid>-<n>.tmp`)
//! and rename it into place, which is atomic on POSIX — concurrent runs,
//! even ones storing the same entry, never observe half-written entries
//! or clobber each other's temp files.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use ppsim_mem::CacheStats;
use ppsim_obs::StallBucket;
use ppsim_pipeline::SimStats;

use crate::job::{Job, JobResult};

/// Magic first line; bump the version to invalidate every entry.
/// v2 added the stall-attribution buckets and the per-branch rows; v3
/// added the committed-path stage counters (`fetched`, `renamed`) and
/// `early_resolved_mispredicts`; v4 added the `time.*` telemetry lines
/// (wall/compile/capture/sim); v5 added the `sample=` axis to the
/// canonical job encoding, so a sampled window and a full run can never
/// alias; v6 marks the fused-grid era — per-cell keys are unchanged, but
/// the timing-telemetry lines a fused pass stores are per-lane shares,
/// so entries written by pre-fusion binaries are retired wholesale
/// rather than mixed into fused-era telemetry; v7 added the always-
/// emitted `trace=` axis (external trace ingestion) to the canonical
/// job encoding — every canon string changed, so pre-trace entries
/// would all miss on the canon comparison anyway, and the bump retires
/// them instead of leaving dead files behind. Entries from any other
/// version — older or newer — read as misses (the exact-match header
/// check below), never as wrong results.
const HEADER: &str = "ppsim-cache v7";
/// Last line; its absence marks a truncated entry.
const FOOTER: &str = "end";

/// Process-wide sequence number for temp-file names: together with the
/// process id it gives every store, from any handle, its own temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// On-disk cache usage, as reported by [`DiskCache::usage`] and the
/// `ppsim cache stats` subcommand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheUsage {
    /// Result entries currently stored.
    pub entries: u64,
    /// Bytes held by result entries (recency sidecars excluded).
    pub bytes: u64,
}

/// A directory of cached job results.
///
/// Optionally size-capped: when a byte budget is set, every store sweeps
/// the directory and evicts least-recently-used entries until the total
/// fits. Recency is approximated with the filesystem: a store's own
/// mtime marks creation, and every load hit drops a zero-byte
/// `<hash>.touch` sidecar beside the entry (std has no way to bump an
/// mtime directly), so an entry's recency is the newer of the two.
#[derive(Clone, Debug)]
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    evictions: Arc<AtomicU64>,
}

impl DiskCache {
    /// Opens (and creates if needed) an uncapped cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        DiskCache::open_capped(dir, None)
    }

    /// Opens a cache with an optional byte budget. `Some(0)` is treated
    /// as "evict everything on every store" — legal, if eccentric.
    pub fn open_capped(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            max_bytes,
            evictions: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The default cache location: `$PPSIM_CACHE_DIR`, else
    /// `target/ppsim-cache` under the current directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("PPSIM_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target").join("ppsim-cache"))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, job: &Job) -> PathBuf {
        self.dir.join(format!("{}.result", job.hash_hex()))
    }

    /// Loads the result for `job`, or `None` on any kind of miss
    /// (absent, truncated, stale canon, unparseable). Corrupt entries
    /// are treated as misses, not errors — the runner recomputes and
    /// overwrites them. A hit refreshes the entry's recency.
    pub fn load(&self, job: &Job) -> Option<JobResult> {
        let path = self.entry_path(job);
        let text = fs::read_to_string(&path).ok()?;
        let result = parse_entry(&text, job)?;
        // Refresh recency. A failed touch only degrades the eviction
        // order, never correctness.
        let _ = fs::write(path.with_extension("touch"), b"");
        Some(result)
    }

    /// Stores the result for `job` atomically (a temp file of its own,
    /// then rename), then enforces the byte budget if one is set.
    pub fn store(&self, job: &Job, result: &JobResult) -> std::io::Result<()> {
        let path = self.entry_path(job);
        let tmp = self.dir.join(format!(
            "{}.{}-{}.tmp",
            job.hash_hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(render_entry(job, result).as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        if self.max_bytes.is_some() {
            self.sweep();
        }
        Ok(())
    }

    /// Entries evicted by this handle (and its clones) since open.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current cache usage (entry count and byte total).
    pub fn usage(&self) -> CacheUsage {
        let mut usage = CacheUsage::default();
        for (_, len, _) in self.scan() {
            usage.entries += 1;
            usage.bytes += len;
        }
        usage
    }

    /// Removes every entry (results, recency sidecars, stray temp
    /// files), returning how many result entries were deleted.
    pub fn clear(&self) -> std::io::Result<u64> {
        let mut removed = 0;
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("result") => {
                    fs::remove_file(&path)?;
                    removed += 1;
                }
                Some("touch" | "tmp") => {
                    let _ = fs::remove_file(&path);
                }
                _ => {}
            }
        }
        Ok(removed)
    }

    /// Every result entry as `(path, bytes, recency)`, where recency is
    /// the newer of the entry's own mtime and its touch-sidecar's.
    fn scan(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(dirents) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut entries = Vec::new();
        for dirent in dirents.flatten() {
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("result") {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            let mut recency = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            if let Ok(touch) = fs::metadata(path.with_extension("touch")) {
                if let Ok(t) = touch.modified() {
                    recency = recency.max(t);
                }
            }
            entries.push((path, meta.len(), recency));
        }
        entries
    }

    /// Evicts least-recently-used entries until the directory fits the
    /// byte budget. Recency ties break on file name so concurrent
    /// sweepers agree on the victim order.
    fn sweep(&self) {
        let Some(max) = self.max_bytes else { return };
        let mut entries = self.scan();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= max {
            return;
        }
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        for (path, len, _) in entries {
            if total <= max {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                let _ = fs::remove_file(path.with_extension("touch"));
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn render_entry(job: &Job, result: &JobResult) -> String {
    let mut s = String::with_capacity(2048);
    s.push_str(HEADER);
    s.push('\n');
    for line in job.canon().lines() {
        s.push_str("job.");
        s.push_str(line);
        s.push('\n');
    }
    for (key, value) in stat_fields(&result.stats) {
        s.push_str("stat.");
        s.push_str(key);
        s.push('=');
        s.push_str(&value.to_string());
        s.push('\n');
    }
    // branch_pcs is sorted by slot in SimStats, so this section — like
    // everything else in the entry — renders deterministically.
    for &(slot, execs, events) in &result.stats.branch_pcs {
        s.push_str(&format!("pc.{slot}={execs},{events}\n"));
    }
    s.push_str(&format!("static.insns={}\n", result.static_insns));
    s.push_str(&format!(
        "static.cond_branches={}\n",
        result.static_cond_branches
    ));
    // Timing lines record what the original run cost. They are telemetry
    // only: a hit still reports `from_cache` and the runner never counts
    // replayed timings toward wall totals, so report bytes stay
    // independent of cache state.
    s.push_str(&format!("time.wall_micros={}\n", result.wall_micros));
    s.push_str(&format!("time.compile_micros={}\n", result.compile_micros));
    s.push_str(&format!("time.capture_micros={}\n", result.capture_micros));
    s.push_str(&format!("time.sim_micros={}\n", result.sim_micros));
    s.push_str(FOOTER);
    s.push('\n');
    s
}

fn parse_entry(text: &str, job: &Job) -> Option<JobResult> {
    let mut lines = text.lines();
    if lines.next()? != HEADER {
        return None;
    }
    // Verify the stored canon matches this job's, line for line. A
    // mismatch means the hash collided or an input axis changed meaning;
    // either way the entry is stale.
    let canon = job.canon();
    let mut canon_lines = canon.lines();
    let mut rest = lines.peekable();
    while let Some(line) = rest.peek() {
        match line.strip_prefix("job.") {
            Some(stored) => {
                if canon_lines.next() != Some(stored) {
                    return None;
                }
                rest.next();
            }
            None => break,
        }
    }
    if canon_lines.next().is_some() {
        return None; // stored canon is a strict prefix — stale
    }

    let mut stats = SimStats::default();
    let mut static_insns = None;
    let mut static_cond_branches = None;
    let mut times = [0u64; 4];
    let mut saw_footer = false;
    for line in rest {
        if line == FOOTER {
            saw_footer = true;
            break;
        }
        let (key, value) = line.split_once('=')?;
        if let Some(slot) = key.strip_prefix("pc.") {
            let slot: u32 = slot.parse().ok()?;
            let (execs, events) = value.split_once(',')?;
            stats
                .branch_pcs
                .push((slot, execs.parse().ok()?, events.parse().ok()?));
            continue;
        }
        let value: u64 = value.parse().ok()?;
        if let Some(stat) = key.strip_prefix("stat.") {
            set_stat_field(&mut stats, stat, value)?;
        } else if key == "static.insns" {
            static_insns = Some(value);
        } else if key == "static.cond_branches" {
            static_cond_branches = Some(value);
        } else if let Some(phase) = key.strip_prefix("time.") {
            match phase {
                "wall_micros" => times[0] = value,
                "compile_micros" => times[1] = value,
                "capture_micros" => times[2] = value,
                "sim_micros" => times[3] = value,
                _ => return None,
            }
        } else {
            return None;
        }
    }
    if !saw_footer {
        return None; // truncated write
    }
    Some(JobResult {
        stats,
        static_insns: static_insns?,
        static_cond_branches: static_cond_branches?,
        from_cache: true,
        wall_micros: times[0],
        compile_micros: times[1],
        capture_micros: times[2],
        sim_micros: times[3],
        trace_memo_hit: false,
    })
}

/// Every SimStats counter as (key, value), in the fixed serialization
/// order. Adding a field to SimStats without extending this list is
/// caught by the round-trip test below.
fn stat_fields(s: &SimStats) -> Vec<(&'static str, u64)> {
    let mut out = vec![
        ("cycles", s.cycles),
        ("committed", s.committed),
        ("fetched", s.fetched),
        ("renamed", s.renamed),
        ("cond_branches", s.cond_branches),
        ("mispredicts", s.mispredicts),
        ("uncond_branches", s.uncond_branches),
        ("compares", s.compares),
        ("early_resolved", s.early_resolved),
        ("early_resolved_saves", s.early_resolved_saves),
        ("early_resolved_mispredicts", s.early_resolved_mispredicts),
        ("shadow_mispredicts", s.shadow_mispredicts),
        ("overrides", s.overrides),
        ("predicate_predictions", s.predicate_predictions),
        ("predicate_mispredictions", s.predicate_mispredictions),
        ("cancelled_at_rename", s.cancelled_at_rename),
        ("unguarded_at_rename", s.unguarded_at_rename),
        ("predication_flushes", s.predication_flushes),
        ("nullified", s.nullified),
    ];
    for bucket in StallBucket::ALL {
        out.push((stall_key(bucket), s.stall.get(bucket)));
    }
    for (level, c) in [("l1i", &s.mem.l1i), ("l1d", &s.mem.l1d), ("l2", &s.mem.l2)] {
        out.push((cache_key(level, "accesses"), c.accesses));
        out.push((cache_key(level, "hits"), c.hits));
        out.push((cache_key(level, "primary_misses"), c.primary_misses));
        out.push((cache_key(level, "secondary_misses"), c.secondary_misses));
        out.push((cache_key(level, "mshr_stall_cycles"), c.mshr_stall_cycles));
        out.push((cache_key(level, "writebacks"), c.writebacks));
        out.push((
            cache_key(level, "write_buffer_stall_cycles"),
            c.write_buffer_stall_cycles,
        ));
    }
    out.push(("itlb.hits", s.mem.itlb.0));
    out.push(("itlb.misses", s.mem.itlb.1));
    out.push(("dtlb.hits", s.mem.dtlb.0));
    out.push(("dtlb.misses", s.mem.dtlb.1));
    out
}

/// Static `stall.<bucket>` keys (serialization wants `&'static str`).
fn stall_key(bucket: StallBucket) -> &'static str {
    match bucket {
        StallBucket::FetchMiss => "stall.fetch_miss",
        StallBucket::RenameStall => "stall.rename_stall",
        StallBucket::IssueWait => "stall.issue_wait",
        StallBucket::CommitBound => "stall.commit_bound",
        StallBucket::FlushRecovery => "stall.flush_recovery",
        StallBucket::PredicationFlush => "stall.predication_flush",
    }
}

/// Static key strings for the three cache levels × seven counters.
fn cache_key(level: &str, field: &str) -> &'static str {
    // A match table keeps the keys `&'static str` without allocation.
    macro_rules! table {
        ($($lvl:literal, $fld:literal => $key:literal;)*) => {
            match (level, field) {
                $(($lvl, $fld) => $key,)*
                _ => unreachable!("unknown cache stat {level}.{field}"),
            }
        };
    }
    table! {
        "l1i", "accesses" => "l1i.accesses";
        "l1i", "hits" => "l1i.hits";
        "l1i", "primary_misses" => "l1i.primary_misses";
        "l1i", "secondary_misses" => "l1i.secondary_misses";
        "l1i", "mshr_stall_cycles" => "l1i.mshr_stall_cycles";
        "l1i", "writebacks" => "l1i.writebacks";
        "l1i", "write_buffer_stall_cycles" => "l1i.write_buffer_stall_cycles";
        "l1d", "accesses" => "l1d.accesses";
        "l1d", "hits" => "l1d.hits";
        "l1d", "primary_misses" => "l1d.primary_misses";
        "l1d", "secondary_misses" => "l1d.secondary_misses";
        "l1d", "mshr_stall_cycles" => "l1d.mshr_stall_cycles";
        "l1d", "writebacks" => "l1d.writebacks";
        "l1d", "write_buffer_stall_cycles" => "l1d.write_buffer_stall_cycles";
        "l2", "accesses" => "l2.accesses";
        "l2", "hits" => "l2.hits";
        "l2", "primary_misses" => "l2.primary_misses";
        "l2", "secondary_misses" => "l2.secondary_misses";
        "l2", "mshr_stall_cycles" => "l2.mshr_stall_cycles";
        "l2", "writebacks" => "l2.writebacks";
        "l2", "write_buffer_stall_cycles" => "l2.write_buffer_stall_cycles";
    }
}

fn set_stat_field(s: &mut SimStats, key: &str, v: u64) -> Option<()> {
    let cache_field = |c: &mut CacheStats, field: &str, v: u64| -> Option<()> {
        match field {
            "accesses" => c.accesses = v,
            "hits" => c.hits = v,
            "primary_misses" => c.primary_misses = v,
            "secondary_misses" => c.secondary_misses = v,
            "mshr_stall_cycles" => c.mshr_stall_cycles = v,
            "writebacks" => c.writebacks = v,
            "write_buffer_stall_cycles" => c.write_buffer_stall_cycles = v,
            _ => return None,
        }
        Some(())
    };
    if let Some((level, field)) = key.split_once('.') {
        return match level {
            "stall" => {
                let bucket = StallBucket::parse(field)?;
                s.stall.set(bucket, v);
                Some(())
            }
            "l1i" => cache_field(&mut s.mem.l1i, field, v),
            "l1d" => cache_field(&mut s.mem.l1d, field, v),
            "l2" => cache_field(&mut s.mem.l2, field, v),
            "itlb" | "dtlb" => {
                let tlb = if level == "itlb" {
                    &mut s.mem.itlb
                } else {
                    &mut s.mem.dtlb
                };
                match field {
                    "hits" => tlb.0 = v,
                    "misses" => tlb.1 = v,
                    _ => return None,
                }
                Some(())
            }
            _ => None,
        };
    }
    match key {
        "cycles" => s.cycles = v,
        "committed" => s.committed = v,
        "fetched" => s.fetched = v,
        "renamed" => s.renamed = v,
        "cond_branches" => s.cond_branches = v,
        "mispredicts" => s.mispredicts = v,
        "uncond_branches" => s.uncond_branches = v,
        "compares" => s.compares = v,
        "early_resolved" => s.early_resolved = v,
        "early_resolved_saves" => s.early_resolved_saves = v,
        "early_resolved_mispredicts" => s.early_resolved_mispredicts = v,
        "shadow_mispredicts" => s.shadow_mispredicts = v,
        "overrides" => s.overrides = v,
        "predicate_predictions" => s.predicate_predictions = v,
        "predicate_mispredictions" => s.predicate_mispredictions = v,
        "cancelled_at_rename" => s.cancelled_at_rename = v,
        "unguarded_at_rename" => s.unguarded_at_rename = v,
        "predication_flushes" => s.predication_flushes = v,
        "nullified" => s.nullified = v,
        _ => return None,
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim_pipeline::{CoreConfig, PredicationModel, SchemeKind};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ppsim-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn job() -> Job {
        Job::new(
            "gzip",
            true,
            SchemeKind::PepPa,
            PredicationModel::Selective,
            40_000,
            60_000,
            CoreConfig::paper(),
        )
    }

    fn result() -> JobResult {
        let mut r = JobResult {
            static_insns: 871,
            static_cond_branches: 42,
            ..JobResult::default()
        };
        // Fill every counter with a distinct value so a swapped or
        // dropped field breaks the round trip.
        r.stats.cycles = 101;
        r.stats.committed = 102;
        r.stats.cond_branches = 103;
        r.stats.mispredicts = 104;
        r.stats.uncond_branches = 105;
        r.stats.compares = 106;
        r.stats.early_resolved = 107;
        r.stats.early_resolved_saves = 108;
        r.stats.shadow_mispredicts = 109;
        r.stats.overrides = 110;
        r.stats.predicate_predictions = 111;
        r.stats.predicate_mispredictions = 112;
        r.stats.cancelled_at_rename = 113;
        r.stats.unguarded_at_rename = 114;
        r.stats.predication_flushes = 115;
        r.stats.nullified = 116;
        r.stats.mem.l1i.accesses = 201;
        r.stats.mem.l1i.hits = 202;
        r.stats.mem.l1d.primary_misses = 203;
        r.stats.mem.l1d.writebacks = 204;
        r.stats.mem.l2.secondary_misses = 205;
        r.stats.mem.l2.mshr_stall_cycles = 206;
        r.stats.mem.l2.write_buffer_stall_cycles = 207;
        r.stats.mem.itlb = (301, 302);
        r.stats.mem.dtlb = (303, 304);
        for (i, bucket) in StallBucket::ALL.into_iter().enumerate() {
            r.stats.stall.set(bucket, 401 + i as u64);
        }
        r.stats.branch_pcs = vec![(7, 501, 502), (19, 503, 0)];
        r.wall_micros = 601;
        r.compile_micros = 602;
        r.capture_micros = 603;
        r.sim_micros = 604;
        r
    }

    #[test]
    fn concurrent_stores_of_one_entry_never_collide() {
        // Two handles on one directory (as two runners sharing a cache)
        // store the same job over and over from two threads. Each write
        // stages through its own temp file, so no store truncates or
        // renames another's, and the entry stays loadable.
        let dir = temp_dir("race");
        let handles = [
            DiskCache::open(&dir).unwrap(),
            DiskCache::open(&dir).unwrap(),
        ];
        let (j, r) = (job(), result());
        let start = std::sync::Barrier::new(handles.len());
        std::thread::scope(|scope| {
            for cache in &handles {
                let (j, r, start) = (&j, &r, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        cache.store(j, r).expect("every store succeeds");
                    }
                });
            }
        });
        for cache in &handles {
            let loaded = cache.load(&j).expect("the entry loads");
            assert_eq!(loaded.stats, r.stats);
        }
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|d| d.path().extension().and_then(|e| e.to_str()) == Some("tmp"))
            .count();
        assert_eq!(leftovers, 0, "every temp file was renamed into place");
        // A temp file orphaned by a killed writer is still one to clear().
        let stray = dir.join(format!("{}.{}-7.tmp", j.hash_hex(), std::process::id()));
        fs::write(&stray, b"half an entry").unwrap();
        assert_eq!(handles[0].clear().unwrap(), 1, "one result entry");
        assert!(!stray.exists(), "clear() removes stray temp files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_preserves_every_counter() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let r = result();
        assert!(cache.load(&j).is_none(), "cold cache must miss");
        cache.store(&j, &r).unwrap();
        let loaded = cache.load(&j).expect("warm cache must hit");
        assert!(loaded.from_cache);
        assert_eq!(stat_fields(&loaded.stats), stat_fields(&r.stats));
        assert_eq!(loaded.stats.branch_pcs, r.stats.branch_pcs);
        assert_eq!(loaded.static_insns, r.static_insns);
        assert_eq!(loaded.static_cond_branches, r.static_cond_branches);
        assert_eq!(
            (
                loaded.wall_micros,
                loaded.compile_micros,
                loaded.capture_micros,
                loaded.sim_micros
            ),
            (601, 602, 603, 604),
            "v4 entries round-trip the phase timings"
        );
        assert!(!loaded.trace_memo_hit, "a disk hit is not a memo hit");
        assert_eq!(
            loaded.stats.metrics().to_json().to_string(),
            r.stats.metrics().to_json().to_string(),
            "a cache hit must replay the full metric block bit-identically"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_job_misses() {
        let dir = temp_dir("miss");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(&job(), &result()).unwrap();
        let other = Job {
            commits: 99,
            ..job()
        };
        assert!(cache.load(&other).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_canon_under_same_name_misses() {
        // Simulate a hash collision / semantics change: an entry whose
        // file name matches but whose stored canon differs must miss.
        let dir = temp_dir("stale");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let mut text = render_entry(&j, &result());
        text = text.replace("job.bench=gzip", "job.bench=vortex");
        fs::write(cache.dir().join(format!("{}.result", j.hash_hex())), text).unwrap();
        assert!(cache.load(&j).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_format_version_misses() {
        // An entry written by any other format version — the v6 layout
        // that predates the trace axis, an ancient v3, or a future v8 —
        // must read as a miss, never be parsed with today's field
        // semantics.
        let dir = temp_dir("version");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let current = render_entry(&j, &result());
        assert!(current.starts_with("ppsim-cache v7\n"), "{current}");
        for stale in ["ppsim-cache v3", "ppsim-cache v6", "ppsim-cache v8"] {
            let text = current.replacen(HEADER, stale, 1);
            fs::write(cache.dir().join(format!("{}.result", j.hash_hex())), text).unwrap();
            assert!(cache.load(&j).is_none(), "{stale} entry must miss");
        }
        // Restoring the real header makes the same bytes hit again.
        fs::write(
            cache.dir().join(format!("{}.result", j.hash_hex())),
            current,
        )
        .unwrap();
        assert!(cache.load(&j).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_misses() {
        let dir = temp_dir("trunc");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        let full = render_entry(&j, &result());
        let cut = &full[..full.len() - 20];
        fs::write(cache.dir().join(format!("{}.result", j.hash_hex())), cut).unwrap();
        assert!(cache.load(&j).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Distinct jobs for eviction tests (commits is the identity axis).
    fn job_n(commits: u64) -> Job {
        Job { commits, ..job() }
    }

    #[test]
    fn usage_counts_entries_and_clear_empties() {
        let dir = temp_dir("usage");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.usage(), CacheUsage::default());
        cache.store(&job_n(1), &result()).unwrap();
        cache.store(&job_n(2), &result()).unwrap();
        let u = cache.usage();
        assert_eq!(u.entries, 2);
        assert!(u.bytes > 0);
        assert_eq!(cache.clear().unwrap(), 2);
        assert_eq!(cache.usage(), CacheUsage::default());
        assert!(cache.load(&job_n(1)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_cache_evicts_oldest_first() {
        let dir = temp_dir("evict");
        // Budget for roughly two entries: measure one, cap at 2.5×.
        let probe = DiskCache::open(&dir).unwrap();
        probe.store(&job_n(0), &result()).unwrap();
        let one = probe.usage().bytes;
        probe.clear().unwrap();
        let cache = DiskCache::open_capped(&dir, Some(one * 5 / 2)).unwrap();
        for n in 1..=3 {
            cache.store(&job_n(n), &result()).unwrap();
            // Keep mtimes strictly ordered on coarse-grained filesystems.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(cache.evictions(), 1, "third store evicted one entry");
        assert!(cache.load(&job_n(1)).is_none(), "oldest entry evicted");
        assert!(cache.load(&job_n(2)).is_some());
        assert!(cache.load(&job_n(3)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_refreshes_recency() {
        let dir = temp_dir("lru");
        let probe = DiskCache::open(&dir).unwrap();
        probe.store(&job_n(0), &result()).unwrap();
        let one = probe.usage().bytes;
        probe.clear().unwrap();
        let cache = DiskCache::open_capped(&dir, Some(one * 5 / 2)).unwrap();
        cache.store(&job_n(1), &result()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        cache.store(&job_n(2), &result()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(cache.load(&job_n(1)).is_some());
        std::thread::sleep(std::time::Duration::from_millis(5));
        cache.store(&job_n(3), &result()).unwrap();
        assert!(cache.load(&job_n(1)).is_some(), "recently used survives");
        assert!(cache.load(&job_n(2)).is_none(), "LRU entry evicted");
        assert!(cache.load(&job_n(3)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncapped_cache_never_evicts() {
        let dir = temp_dir("uncapped");
        let cache = DiskCache::open(&dir).unwrap();
        for n in 1..=8 {
            cache.store(&job_n(n), &result()).unwrap();
        }
        assert_eq!(cache.usage().entries, 8);
        assert_eq!(cache.evictions(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_entry_misses() {
        let dir = temp_dir("garbage");
        let cache = DiskCache::open(&dir).unwrap();
        let j = job();
        fs::write(
            cache.dir().join(format!("{}.result", j.hash_hex())),
            "not a cache file",
        )
        .unwrap();
        assert!(cache.load(&j).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
