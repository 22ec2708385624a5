package cas

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// The crash tests re-execute the test binary as a writer child, selected
// by crashChildEnv, that puts crashPayload(i) for i = 0, 1, ... into the
// store at crashDirEnv and reports each outcome on stdout as
// "ack <i> <segment>" or "err <i> <error>".
const (
	crashChildEnv = "CAS_CRASH_CHILD"
	crashDirEnv   = "CAS_CRASH_DIR"
)

// crashRecords is how many records the kill -9 child would put if it
// were not killed.
const crashRecords = 20000

// crashPayload is the i'th child record; every one is the same size.
func crashPayload(i int) []byte {
	return []byte(fmt.Sprintf("crash record %06d %s", i, strings.Repeat("x", 64)))
}

// crashChild is the writer child's body: n records, under a file size
// limit when fsizeLimit > 0.
func crashChild(t *testing.T, dir string, n int, fsizeLimit uint64) {
	if fsizeLimit > 0 {
		// The limit binds this child alone. Go ignores SIGXFSZ, so a
		// write crossing it comes back short and the next one fails
		// with EFBIG.
		lim := syscall.Rlimit{Cur: fsizeLimit, Max: fsizeLimit}
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := crashPayload(i)
		if err := s.Put(digestOf(p), p); err != nil {
			fmt.Printf("err %d %v\n", i, err)
			continue
		}
		fmt.Printf("ack %d %s\n", i, s.w.name)
	}
}

// crashOutcome is what the parent read from a child.
type crashOutcome struct {
	acked  map[int]string // record -> segment
	failed map[int]string // record -> error
}

// startCrashChild re-executes test as a writer child over dir.
func startCrashChild(t *testing.T, test, mode, dir string) (*exec.Cmd, *bufio.Scanner) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+mode, crashDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, bufio.NewScanner(out)
}

// read records one child output line.
func (o *crashOutcome) read(line string) {
	f := strings.SplitN(line, " ", 3)
	if len(f) != 3 {
		return
	}
	i, err := strconv.Atoi(f[1])
	if err != nil {
		return
	}
	switch f[0] {
	case "ack":
		o.acked[i] = f[2]
	case "err":
		o.failed[i] = f[2]
	}
}

// verifyAcked checks that every acknowledged record is a verified hit in
// s.
func verifyAcked(t *testing.T, s *Store, o *crashOutcome) {
	t.Helper()
	for i := range o.acked {
		p := crashPayload(i)
		got, ok, err := s.Get(digestOf(p))
		if err != nil || !ok || !bytes.Equal(got, p) {
			t.Fatalf("acknowledged record %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestCrashKill9MidLoop kills a writer with SIGKILL while it is putting
// records: every Put it acknowledged is a verified hit in a fresh
// handle, and its segment reads as sealed.
func TestCrashKill9MidLoop(t *testing.T) {
	if os.Getenv(crashChildEnv) == "kill" {
		crashChild(t, os.Getenv(crashDirEnv), crashRecords, 0)
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()
	cmd, sc := startCrashChild(t, "TestCrashKill9MidLoop", "kill", dir)
	o := &crashOutcome{acked: map[int]string{}, failed: map[int]string{}}
	for sc.Scan() {
		o.read(sc.Text())
		if len(o.acked) == 500 {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	for sc.Scan() { // acknowledgements already written before the kill
		o.read(sc.Text())
	}
	if err := cmd.Wait(); err == nil {
		t.Fatalf("child finished all %d records before the kill", crashRecords)
	}
	if len(o.acked) < 500 || len(o.failed) != 0 {
		t.Fatalf("child acknowledged %d records, failed %v", len(o.acked), o.failed)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	verifyAcked(t, s, o)
	if len(s.segs) != 1 || !s.segs[0].sealed {
		t.Fatalf("dead writer's segments %+v, want one, sealed", s.segs)
	}
	// A record the kill cut short is a torn write: quarantined once, by
	// the first handle to scan it.
	q := s.Stats().Quarantined
	if q > 1 {
		t.Fatalf("%d records quarantined, want at most the one the kill tore", q)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.Stats(); st.Quarantined != 0 {
		t.Fatalf("second handle re-quarantined: %+v", st)
	}
	verifyAcked(t, again, o)
}

// TestCrashShortWrite runs a writer under RLIMIT_FSIZE so that one
// record's write comes back short: that Put fails, later Puts land in a
// new segment, the torn record is quarantined exactly once, and every
// acknowledged record is readable.
func TestCrashShortWrite(t *testing.T) {
	recSize := len(encodeEnvelope(digestOf(crashPayload(0)), crashPayload(0)))
	const full = 10 // records that fit under the limit
	if os.Getenv(crashChildEnv) == "short" {
		crashChild(t, os.Getenv(crashDirEnv), 2*full+1, uint64(full*recSize+recSize/2))
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()
	cmd, sc := startCrashChild(t, "TestCrashShortWrite", "short", dir)
	o := &crashOutcome{acked: map[int]string{}, failed: map[int]string{}}
	for sc.Scan() {
		o.read(sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("writer child: %v", err)
	}
	// The first segment takes full records and tears the next one; the
	// second takes the rest.
	if len(o.acked) != 2*full || len(o.failed) != 1 {
		t.Fatalf("acknowledged %d records and failed %v, want %d and record %d", len(o.acked), o.failed, 2*full, full)
	}
	torn, ok := o.failed[full]
	if !ok {
		t.Fatalf("failed %v, want record %d", o.failed, full)
	}
	if !strings.Contains(torn, syscall.EFBIG.Error()) {
		t.Fatalf("torn Put returned %q, want EFBIG", torn)
	}
	if o.acked[full-1] == o.acked[full+1] {
		t.Fatalf("Put after the short write stayed in segment %s", o.acked[full+1])
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	verifyAcked(t, s, o)
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined %d, want the torn record alone", st.Quarantined)
	}
	tornDigest := digestOf(crashPayload(full))
	if q, _ := filepath.Glob(filepath.Join(dir, quarantineDir, tornDigest+".*")); len(q) != 1 {
		t.Fatalf("quarantine holds %v for the torn record, want one copy", q)
	}
	if _, ok, err := s.Get(tornDigest); ok || err != nil {
		t.Fatalf("torn record: ok=%v err=%v, want a clean miss", ok, err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.Stats(); st.Quarantined != 0 {
		t.Fatalf("second handle re-quarantined: %+v", st)
	}
	verifyAcked(t, again, o)
}
