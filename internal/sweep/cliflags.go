package sweep

import (
	"flag"
	"fmt"
	"strconv"

	"mlperf/internal/telemetry"
)

// CLIFlags binds the engine-shaping flags every sweep-driving CLI
// shares: the persistent cache directory and the shard count. Register
// before flag.Parse, Apply after.
type CLIFlags struct {
	// CacheDir is the -cache-dir value ("" = memory-only).
	CacheDir string
	// CacheMaxBytes is the -cache-max-bytes value (0 = unbounded); past
	// it the oldest cached cells are evicted on write-through.
	CacheMaxBytes int64
	// Shards is the -shards value (0/1 = plain worker pool).
	Shards int

	// store is the persistent tier Apply opened; Close closes it.
	store *DiskStore
}

// RegisterCLIFlags declares -cache-dir and -shards on fs (nil = the
// default flag set).
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &CLIFlags{}
	fs.StringVar(&f.CacheDir, "cache-dir", "",
		"persistent content-addressed cell cache directory (created if missing; sharable across runs and processes)")
	fs.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", 0,
		"cap the cache directory's size in bytes, evicting oldest entries on overflow (0 = unbounded)")
	fs.IntVar(&f.Shards, "shards", 0,
		"partition grid cells across N digest-sharded queues with work stealing (0/1 = plain worker pool)")
	return f
}

// Apply configures the engine from the parsed flags: validates the
// shard count, opens (creating if needed) the persistent tier and
// attaches both. Callers should release the store at exit
// (defer f.Close(e)) so a process-shared engine does not outlive the
// flag scope.
func (f *CLIFlags) Apply(e *Engine) error {
	if f.Shards < 0 {
		return fmt.Errorf("sweep: -shards must be >= 0 (0 = unsharded), got %d", f.Shards)
	}
	if f.CacheMaxBytes < 0 {
		return fmt.Errorf("sweep: -cache-max-bytes must be >= 0 (0 = unbounded), got %d", f.CacheMaxBytes)
	}
	if f.CacheMaxBytes > 0 && f.CacheDir == "" {
		return fmt.Errorf("sweep: -cache-max-bytes requires -cache-dir")
	}
	e.SetShards(f.Shards)
	if f.CacheDir != "" {
		ds, err := OpenDiskStore(f.CacheDir)
		if err != nil {
			return fmt.Errorf("sweep: -cache-dir %s: %w", f.CacheDir, err)
		}
		ds.SetMaxBytes(f.CacheMaxBytes)
		e.SetStore(ds)
		f.store = ds
	}
	return nil
}

// Close detaches the persistent tier from e and closes the store Apply
// opened, if any.
func (f *CLIFlags) Close(e *Engine) error {
	e.SetStore(nil)
	if f.store == nil {
		return nil
	}
	return f.store.Close()
}

// Record writes the flags into a telemetry sink's config via set (the
// CLI's sink.Config function); values that equal their defaults are
// recorded too, so a manifest states the cache/shard posture
// explicitly.
func (f *CLIFlags) Record(set func(key, value string)) {
	if f.CacheDir != "" {
		set("cache-dir", f.CacheDir)
	}
	if f.CacheMaxBytes > 0 {
		set("cache-max-bytes", strconv.FormatInt(f.CacheMaxBytes, 10))
	}
	set("shards", strconv.Itoa(f.Shards))
}

// FillManifest copies the cache snapshot into a run manifest — the
// shared tail every sweep-driving CLI runs before flushing telemetry.
func (st CacheStats) FillManifest(m *telemetry.Manifest) {
	m.CacheHits, m.CacheMisses = st.Hits, st.Misses
	m.CacheSchema = st.Schema
	m.DiskCacheHits = st.Disk.Hits
	m.DiskCacheMisses = st.Disk.Misses
	m.DiskCacheEvictions = st.Disk.Evictions
	m.DiskCacheQuarantined = st.Disk.Quarantined
	m.Simulations = st.Simulations
}
