package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/alive"
	"repro/internal/interp"
	"repro/internal/ir"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreRoundTrip pins the basics: put/get across all kinds, dedup of
// duplicate keys, counters, and persistence across a clean reopen.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if added, err := s.Put(KindFinding, "aa", []byte("v1")); err != nil || !added {
		t.Fatalf("put: added=%v err=%v", added, err)
	}
	if added, err := s.Put(KindFinding, "aa", []byte("v1")); err != nil || added {
		t.Fatalf("duplicate put: added=%v err=%v", added, err)
	}
	// Same key under another kind is a distinct record.
	if added, _ := s.Put(KindRule, "aa", []byte("rule")); !added {
		t.Fatal("kind must partition the key space")
	}
	s.Put(KindVector, "aa/bb", []byte("vec"))
	if v, ok := s.Get(KindFinding, "aa"); !ok || string(v) != "v1" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	if _, ok := s.Get(KindFinding, "zz"); ok {
		t.Fatal("phantom key")
	}
	st := s.Stats()
	if st.Records != 3 || st.Findings != 1 || st.Rules != 1 || st.Vectors != 1 ||
		st.PutNew != 3 || st.PutDup != 1 || st.GetHits != 1 || st.GetMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if v, ok := s2.Get(KindFinding, "aa"); !ok || string(v) != "v1" {
		t.Fatalf("reopened get = %q, %v", v, ok)
	}
	if st := s2.Stats(); st.Records != 3 || st.Recovered != 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
	if keys := s2.Keys(KindFinding); len(keys) != 1 || keys[0] != "aa" {
		t.Fatalf("keys = %v", keys)
	}
}

// TestStoreCrashRecovery is the durability round-trip the ISSUE asks for:
// write records, truncate the log mid-record (a simulated crash during an
// append), and reopen — the intact prefix must be recovered, the torn tail
// dropped, and the store must accept appends again.
func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 10; i++ {
		s.Put(KindFinding, fmt.Sprintf("%016x", i), bytes.Repeat([]byte{byte(i)}, 100))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, LogName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the last record.
	if err := os.Truncate(path, info.Size()-50); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	st := s2.Stats()
	if st.Records != 9 {
		t.Fatalf("recovered %d records, want 9", st.Records)
	}
	if st.Recovered == 0 {
		t.Fatal("recovery did not report truncated bytes")
	}
	for i := 0; i < 9; i++ {
		v, ok := s2.Get(KindFinding, fmt.Sprintf("%016x", i))
		if !ok || len(v) != 100 || v[0] != byte(i) {
			t.Fatalf("record %d corrupted after recovery", i)
		}
	}
	// The store keeps working after recovery, and the re-put of the lost
	// record is a fresh append.
	if added, err := s2.Put(KindFinding, fmt.Sprintf("%016x", 9), []byte("again")); err != nil || !added {
		t.Fatalf("post-recovery put: added=%v err=%v", added, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openT(t, dir)
	defer s3.Close()
	if st := s3.Stats(); st.Records != 10 || st.Recovered != 0 {
		t.Fatalf("stats after clean reopen = %+v", st)
	}
}

// TestStoreCorruptTailCRC flips a byte inside the last record: the CRC must
// reject it and recovery must keep the prefix.
func TestStoreCorruptTailCRC(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(KindFinding, "one", []byte("first"))
	s.Put(KindFinding, "two", []byte("second"))
	s.Close()
	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xFF // inside the last record's value/crc area
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if _, ok := s2.Get(KindFinding, "one"); !ok {
		t.Fatal("intact prefix lost")
	}
	if _, ok := s2.Get(KindFinding, "two"); ok {
		t.Fatal("corrupt record survived its CRC")
	}
	if st := s2.Stats(); st.Recovered == 0 {
		t.Fatal("corruption not reported as recovered bytes")
	}
}

// TestStoreNotAStore rejects files that are not lpod logs, naming the
// offending file: the single log, or the one shard with a bad header.
func TestStoreNotAStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LogName), []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), LogName) {
		t.Fatalf("foreign single log: err = %v, want it rejected naming %s", err, LogName)
	}

	dir = t.TempDir()
	sh, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	bad := shardName(2)
	if err := os.WriteFile(filepath.Join(dir, bad), []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSharded(dir, 4)
	if err == nil || !strings.Contains(err.Error(), bad) || strings.Contains(err.Error(), LogName) {
		t.Fatalf("foreign shard log: err = %v, want it rejected naming %s", err, bad)
	}
}

// TestStoreSnapshotIsolation pins the reader contract: a snapshot observes
// exactly the records present at capture, concurrent appends notwithstanding.
func TestStoreSnapshotIsolation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	s.Put(KindFinding, "before", []byte("b"))
	snap := s.Snapshot()
	s.Put(KindFinding, "after", []byte("a"))
	if !snap.Has(KindFinding, "before") {
		t.Fatal("snapshot lost a pre-capture record")
	}
	if snap.Has(KindFinding, "after") {
		t.Fatal("snapshot observed a post-capture append")
	}
	if s.Snapshot().Len() != 2 || snap.Len() != 1 {
		t.Fatal("snapshot lengths drifted")
	}
	var keys []string
	snap.Scan(KindFinding, func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 1 || keys[0] != "before" {
		t.Fatalf("snapshot scan = %v", keys)
	}
}

// TestStoreConcurrent hammers one store from concurrent writers and
// (snapshot) readers; under -race this is the concurrency guard for the
// submit/dedup path.
func TestStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("%016x", i%20) // heavy key contention
				if _, err := s.Put(KindFinding, key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.Get(KindFinding, key); !ok || string(v) != key {
					t.Error("read-own-write failed")
					return
				}
				snap := s.Snapshot()
				n := 0
				snap.Scan(KindFinding, func(k string, v []byte) bool {
					n++
					return true
				})
				if n > snap.Len() {
					t.Error("snapshot scan exceeded its view")
					return
				}
				if i%10 == 0 {
					if err := s.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.Records != 20 {
		t.Fatalf("recovered %d records, want 20 (dedup by content address)", st.Records)
	}
}

// TestCodecRoundTrip pins the typed payloads: findings and pool vectors
// (including vectors, poison and pointer memory) survive encode/decode, and
// finding encoding is byte-deterministic.
func TestCodecRoundTrip(t *testing.T) {
	f := &Finding{
		Window: WindowKey(0xdeadbeef), Outcome: "found", Round: 2,
		Src: "define ...", Cand: "define ...",
		InstrsBefore: 4, InstrsAfter: 2, CyclesBefore: 7, CyclesAfter: 3,
		RuleHits: map[string]int{"patch:x": 1}, LearnedID: "learned:abc",
	}
	enc1, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc2, _ := f.Encode()
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("finding encoding is not deterministic")
	}
	back, err := DecodeFinding(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Window != f.Window || back.Outcome != f.Outcome || back.Round != f.Round ||
		back.LearnedID != f.LearnedID || back.RuleHits["patch:x"] != 1 {
		t.Fatalf("finding round trip: %+v", back)
	}

	vec := alive.PoolVector{
		Inputs: []interp.RVal{
			interp.Scalar(ir.I32, 0xFFFF_FFFF),
			{Ty: ir.VecT(2, ir.I8), Lanes: []interp.Word{{V: 1}, {Poison: true}}},
			interp.Scalar(ir.Ptr, 0x10000),
		},
		Mem: [][]byte{{1, 2, 3, 4}},
	}
	pv := NewPoolVec(42, vec)
	enc, err := pv.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePoolVec(enc)
	if err != nil {
		t.Fatal(err)
	}
	window, v2, err := got.Vector()
	if err != nil {
		t.Fatal(err)
	}
	if window != 42 || len(v2.Inputs) != 3 || len(v2.Mem) != 1 {
		t.Fatalf("vector round trip: window=%d %+v", window, v2)
	}
	if v2.Inputs[0].Lanes[0].V != 0xFFFF_FFFF || !ir.Equal(v2.Inputs[0].Ty, ir.I32) {
		t.Fatal("scalar lane lost")
	}
	if !v2.Inputs[1].Lanes[1].Poison || !ir.Equal(v2.Inputs[1].Ty, ir.VecT(2, ir.I8)) {
		t.Fatal("vector poison lane lost")
	}
	if !ir.Equal(v2.Inputs[2].Ty, ir.Ptr) || !bytes.Equal(v2.Mem[0], []byte{1, 2, 3, 4}) {
		t.Fatal("pointer/memory lost")
	}
	if VectorKey(42, enc) != VectorKey(42, enc) || VectorKey(42, enc) == VectorKey(42, []byte("x")) {
		t.Fatal("vector key not content-derived")
	}

	if _, err := ParseWindowKey("not-hex"); err == nil {
		t.Fatal("bad window key accepted")
	}
	h, err := ParseWindowKey(WindowKey(0xabc))
	if err != nil || h != 0xabc {
		t.Fatalf("window key round trip: %x, %v", h, err)
	}
}
