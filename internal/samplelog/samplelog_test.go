package samplelog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
)

// appendOne offers one record through the writer's one append path.
func appendOne(w *Writer, rec Record) bool { return w.AppendBatch([]Record{rec}) == 1 }

func testRecord(i int) Record {
	return Record{
		Nanos:        1_700_000_000_000_000_000 + int64(i)*1_000_000,
		Stream:       uint32(i % 7),
		App:          fmt.Sprintf("app-%d", i%3),
		ModelVersion: uint32(1 + i%2),
		Flags:        FlagScored | uint8(i%2), // alternate FlagMalware
		Class:        uint8(i % 5),
		Score:        float64(i) / 97,
		Features:     []float64{float64(i), float64(i) * 0.5, -float64(i), math.Pi},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		testRecord(0),
		testRecord(41),
		{Nanos: -1, Score: math.Inf(1)}, // empty app, no features
		{App: "x", Features: []float64{}, Flags: FlagAlarm}, // zero-width vector
		{App: string(bytes.Repeat([]byte("a"), MaxApp)), Features: make([]float64, MaxFeatures)},
	}
	for i, want := range cases {
		buf, err := AppendRecord(nil, want)
		if err != nil {
			t.Fatalf("case %d: append: %v", i, err)
		}
		got, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if len(want.Features) == 0 {
			want.Features = got.Features // nil vs empty both encode as zero count
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestAppendRecordBounds(t *testing.T) {
	if _, err := AppendRecord(nil, Record{App: string(bytes.Repeat([]byte("a"), MaxApp+1))}); err == nil {
		t.Fatal("oversized app accepted")
	}
	if _, err := AppendRecord(nil, Record{Features: make([]float64, MaxFeatures+1)}); err == nil {
		t.Fatal("oversized feature vector accepted")
	}
}

func TestDecodeRecordTorn(t *testing.T) {
	buf, err := AppendRecord(nil, testRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeRecord(buf[:cut]); !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix of %d/%d bytes: got %v, want ErrTorn", cut, len(buf), err)
		}
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	buf, err := AppendRecord(nil, testRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte and one checksum byte: both must surface as
	// corruption, never as a decoded record.
	for _, pos := range []int{5, len(buf) - 1} {
		mut := append([]byte(nil), buf...)
		mut[pos] ^= 0x40
		if _, _, err := DecodeRecord(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", pos, err)
		}
	}
}

// buildSegment encodes a header plus records and returns the bytes and
// each record's end offset.
func buildSegment(t *testing.T, n int) ([]byte, []int) {
	t.Helper()
	buf := AppendHeader(nil, 42)
	ends := make([]int, 0, n)
	for i := 0; i < n; i++ {
		var err error
		buf, err = AppendRecord(buf, testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(buf))
	}
	return buf, ends
}

func TestDecodeSegment(t *testing.T) {
	seg, ends := buildSegment(t, 3)
	var got []Record
	st, err := DecodeSegment(seg, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.CreatedNanos != 42 || st.Records != 3 || st.TornBytes != 0 || st.Corrupted != 0 {
		t.Fatalf("clean segment stats: %+v", st)
	}
	if st.ValidBytes != int64(len(seg)) {
		t.Fatalf("valid bytes %d, want %d", st.ValidBytes, len(seg))
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, testRecord(i)) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}

	// Torn tail: every truncation inside the last record keeps the first
	// two and reports the tear.
	for cut := ends[1] + 1; cut < ends[2]; cut++ {
		st, err := DecodeSegment(seg[:cut], nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != 2 || st.ValidBytes != int64(ends[1]) || st.TornBytes != int64(cut-ends[1]) || st.Corrupted != 0 {
			t.Fatalf("cut at %d: stats %+v", cut, st)
		}
	}

	// Mid-file corruption: a flipped byte in record 1 ends the scan after
	// record 0 with corruption, not a tear.
	mut := append([]byte(nil), seg...)
	mut[ends[0]+9] ^= 0x01
	st, err = DecodeSegment(mut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Corrupted != 1 || st.TornBytes != 0 {
		t.Fatalf("corrupt segment stats: %+v", st)
	}
}

func TestDecodeHeaderRejects(t *testing.T) {
	hdr := AppendHeader(nil, 1)
	bad := append([]byte(nil), hdr...)
	bad[0] = 'X'
	if _, _, err := DecodeHeader(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), hdr...)
	bad[5] = FormatVersion + 1
	if _, _, err := DecodeHeader(bad); !errors.Is(err, ErrFormat) {
		t.Fatalf("future format: got %v, want ErrFormat", err)
	}
	if _, _, err := DecodeHeader(hdr[:headerLen-1]); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if !appendOne(w, testRecord(i)) {
			t.Fatalf("append %d rejected", i)
		}
	}
	st, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != n || st.Dropped != 0 || st.Segments != 1 {
		t.Fatalf("stats %+v", st)
	}
	var got []Record
	rep, err := ReadDir(dir, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != n || rep.ScoredRecords != n || rep.TornBytes != 0 || rep.Corrupted != 0 {
		t.Fatalf("verify %+v", rep)
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, testRecord(i)) {
			t.Fatalf("record %d read back wrong: %+v", i, r)
		}
	}
	if rep.FirstNanos != testRecord(0).Nanos || rep.LastNanos != testRecord(n-1).Nanos {
		t.Fatalf("window [%d, %d]", rep.FirstNanos, rep.LastNanos)
	}
}

func TestWriterRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(WriterConfig{Dir: dir, SegmentBytes: 512, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Slow-feed the ring in waves so the writer drains many small batches
	// and crosses the 512-byte segment bound over and over.
	for i := 0; i < 200; i++ {
		appendOne(w, testRecord(i))
		if i%5 == 4 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	st, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments < 4 {
		t.Fatalf("expected rotations, stats %+v", st)
	}
	if st.Pruned == 0 {
		t.Fatalf("expected pruning, stats %+v", st)
	}
	paths, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) > 3 {
		t.Fatalf("%d segments on disk, retention bound 3", len(paths))
	}
	if _, err := Verify(dir); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		appendOne(w, testRecord(i))
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail the way a crash mid-write would: chop the last few
	// bytes of the newest segment.
	paths, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := paths[len(paths)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes == 0 || rep.Records != n-1 {
		t.Fatalf("pre-recovery verify %+v", rep)
	}

	// Reopening truncates the tear and starts a fresh segment.
	w, err = OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(w, testRecord(n))
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != 0 || rep.Corrupted != 0 {
		t.Fatalf("post-recovery verify %+v", rep)
	}
	if rep.Records != n {
		t.Fatalf("post-recovery records %d, want %d", rep.Records, n)
	}
}

func TestRecoverKeepsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendOne(w, testRecord(i))
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _ := SegmentFiles(dir)
	path := paths[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+40] ^= 0x01 // mid-file, inside an early record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := recoverSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupted != 1 {
		t.Fatalf("recover stats %+v", st)
	}
	// Corruption is evidence, not a tear: the file must not shrink.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(data)) {
		t.Fatalf("recover truncated a corrupt file: %d -> %d bytes", len(data), info.Size())
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if appendOne(w, testRecord(0)) {
		t.Fatal("append after close accepted")
	}
	if w.AppendBatch([]Record{testRecord(0), testRecord(1)}) != 0 {
		t.Fatal("batch append after close accepted")
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err) // double close is safe
	}
}

// TestWriterCountsRefusedRecordOnce pins the writer's accounting when the
// encoder refuses a record: it is dropped, not appended, so Appended +
// Dropped equals the records offered.
func TestWriterCountsRefusedRecordOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	long := testRecord(0)
	long.App = strings.Repeat("a", MaxApp+1)
	if w.AppendBatch([]Record{long, testRecord(1)}) != 2 {
		t.Fatal("batch not queued whole")
	}
	st, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != 1 || st.Dropped != 1 {
		t.Fatalf("appended %d, dropped %d; want 1 and 1", st.Appended, st.Dropped)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 1 || rep.Corrupted != 0 {
		t.Fatalf("verify %+v, want 1 record", rep)
	}
}

func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	batch := make([]Record, n)
	for i := range batch {
		batch[i] = testRecord(i)
	}
	if got := w.AppendBatch(batch); got != n {
		t.Fatalf("AppendBatch queued %d, want %d", got, n)
	}
	if got := w.AppendBatch(nil); got != 0 {
		t.Fatalf("empty AppendBatch queued %d", got)
	}
	stats, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Appended != n || stats.Dropped != 0 {
		t.Fatalf("stats %+v, want %d appended and no drops", stats, n)
	}
	var i int
	if _, err := ReadDir(dir, func(r Record) error {
		want := testRecord(i)
		if r.Stream != want.Stream || r.App != want.App || !reflect.DeepEqual(r.Features, want.Features) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("read back %d records, want %d", i, n)
	}
}

func TestAppendBatchShedsOldest(t *testing.T) {
	dir := t.TempDir()
	// A batch larger than the ring: the tail of the batch must survive
	// (drop-oldest), with the overflow counted as dropped.
	w, err := OpenWriter(WriterConfig{Dir: dir, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, 20)
	for i := range batch {
		batch[i] = testRecord(i)
	}
	if got := w.AppendBatch(batch); got != 20 {
		t.Fatalf("AppendBatch queued %d, want 20", got)
	}
	stats, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Appended+stats.Dropped != 20 {
		t.Fatalf("stats %+v: appended+dropped != 20", stats)
	}
	if stats.Dropped == 0 {
		t.Fatalf("stats %+v: a 20-record batch through an 8-slot ring must shed", stats)
	}
	// Whatever survived must be a suffix of the batch, in order
	// (testRecord nanos step by 1ms per index).
	var got []int64
	if _, err := ReadDir(dir, func(r Record) error {
		got = append(got, r.Nanos)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(got); k++ {
		if got[k] != got[k-1]+1_000_000 {
			t.Fatalf("surviving records not contiguous: %v", got)
		}
	}
	if len(got) == 0 || got[len(got)-1] != batch[19].Nanos {
		t.Fatalf("newest record lost: %v", got)
	}
}

func TestWriterConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(WriterConfig{Dir: dir, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				appendOne(w, testRecord(g*per+i))
			}
		}(g)
	}
	wg.Wait()
	st, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended+st.Dropped != goroutines*per {
		t.Fatalf("appended %d + dropped %d != %d", st.Appended, st.Dropped, goroutines*per)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(rep.Records) != st.Appended {
		t.Fatalf("disk has %d records, writer appended %d", rep.Records, st.Appended)
	}
}

func TestWriterSurvivesDiskLoss(t *testing.T) {
	dir := t.TempDir()
	logDir := filepath.Join(dir, "log")
	w, err := OpenWriter(WriterConfig{Dir: logDir, SegmentBytes: headerLen + 1})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(w, testRecord(0))
	time.Sleep(10 * time.Millisecond)
	// Take the directory away: the next rotation fails, the failure goes
	// sticky, and AppendBatch keeps returning without ever blocking.
	if err := os.RemoveAll(logDir); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i++ {
		appendOne(w, testRecord(i))
		time.Sleep(time.Millisecond)
	}
	st, err := w.Close()
	if err == nil {
		t.Fatalf("expected sticky disk error, stats %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatalf("expected drops after disk loss, stats %+v", st)
	}
}

var (
	fixOnce sync.Once
	fixErr  error
	fixData *dataset.Dataset
	fixDets [2]*core.Detector
)

func fixtures(t *testing.T) (*core.Detector, *core.Detector, *dataset.Dataset) {
	t.Helper()
	fixOnce.Do(func() {
		data, err := corpus.Collect(corpus.Config{
			Scale:       0.001,
			MinPerClass: 24,
			Budget:      30000,
			Seed:        7,
			Omniscient:  true,
		})
		if err != nil {
			fixErr = err
			return
		}
		fixData, err = data.SelectByName(core.CommonFeatures)
		if err != nil {
			fixErr = err
			return
		}
		for i, seed := range []int64{5, 17} {
			fixDets[i], fixErr = core.Train(fixData, core.TrainConfig{Seed: seed})
			if fixErr != nil {
				return
			}
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDets[0], fixDets[1], fixData
}

// writeScoredLog scores every dataset sample with live and logs it the
// way the serving tier does, returning the record count.
func writeScoredLog(t *testing.T, dir string, live *core.Detector, data *dataset.Dataset) int {
	t.Helper()
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cd := live.Compile()
	for i, ins := range data.Instances {
		v, err := cd.Detect(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		score, err := cd.MalwareScore(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		flags := FlagScored
		if v.Malware {
			flags |= FlagMalware
		}
		appendOne(w, Record{
			Nanos:        1_700_000_000_000_000_000 + int64(i),
			Stream:       uint32(i),
			App:          "backtest-app",
			ModelVersion: 1,
			Flags:        flags,
			Class:        uint8(v.PredictedClass),
			Score:        score,
			Features:     ins.Features,
		})
	}
	st, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 0 {
		t.Fatalf("fixture log dropped %d records", st.Dropped)
	}
	return int(st.Appended)
}

func TestBacktestSelfIsClean(t *testing.T) {
	live, _, data := fixtures(t)
	dir := t.TempDir()
	n := writeScoredLog(t, dir, live, data)
	res, err := Backtest(context.Background(), dir, live, BacktestOptions{Version: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != n || res.Report.Scored != uint64(n) {
		t.Fatalf("replayed %d / scored %d, want %d", res.Replayed, res.Report.Scored, n)
	}
	if res.Report.Disagreements != 0 || res.Report.VerdictDivergence != 0 || res.Report.MaxScoreDelta != 0 {
		t.Fatalf("self backtest diverged: %+v", res.Report)
	}
	if len(res.Report.PerClass) == 0 {
		t.Fatal("per-class stats missing")
	}
}

func TestBacktestCandidate(t *testing.T) {
	live, cand, data := fixtures(t)
	dir := t.TempDir()
	n := writeScoredLog(t, dir, live, data)
	res, err := Backtest(context.Background(), dir, cand, BacktestOptions{Version: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CandidateVersion != 2 || res.Report.Scored != uint64(n) {
		t.Fatalf("report %+v", res.Report)
	}
	// Differently-seeded models almost surely score differently somewhere;
	// what the test pins is that the comparison ran over every record.
	if res.Log.Records != n || res.SkippedUnscored != 0 || res.SkippedFiltered != 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestBacktestFilters(t *testing.T) {
	live, _, data := fixtures(t)
	dir := t.TempDir()
	n := writeScoredLog(t, dir, live, data)

	// Unscored (gateway-tier) records are skipped.
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(w, Record{Nanos: 5, App: "gw", Features: data.Instances[0].Features})
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Backtest(context.Background(), dir, live, BacktestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedUnscored != 1 || res.Replayed != n {
		t.Fatalf("unscored skip: %+v", res)
	}

	// Window and app filters.
	res, err = Backtest(context.Background(), dir, live, BacktestOptions{
		FromNanos: 1_700_000_000_000_000_000,
		ToNanos:   1_700_000_000_000_000_000 + int64(n/2) - 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != n/2 {
		t.Fatalf("window replayed %d, want %d", res.Replayed, n/2)
	}
	if _, err := Backtest(context.Background(), dir, live, BacktestOptions{App: "nope"}); err == nil {
		t.Fatal("empty replay set must error")
	}
}

// TestBacktestMixedWidths pins how a log holding records of another width
// than the candidate's replays: those records count as scoring errors,
// and the rest are scored and cascade-replayed. With no record of the
// candidate's width the backtest fails.
func TestBacktestMixedWidths(t *testing.T) {
	live, _, data := fixtures(t)
	const narrow = 3
	writeNarrow := func(dir string) {
		w, err := OpenWriter(WriterConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < narrow; i++ {
			appendOne(w, Record{Nanos: int64(i + 1), App: "narrow", Flags: FlagScored, Score: 0.5,
				Features: data.Instances[i].Features[:2]})
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	n := writeScoredLog(t, dir, live, data)
	writeNarrow(dir)
	res, err := Backtest(context.Background(), dir, live, BacktestOptions{
		Workers: 2, Envelope: cascadeEnvelope(t, data),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != n+narrow || res.Report.Scored != uint64(n) || res.Report.Errors != narrow {
		t.Fatalf("replayed %d, scored %d, errors %d; want %d, %d, %d",
			res.Replayed, res.Report.Scored, res.Report.Errors, n+narrow, n, narrow)
	}
	if res.Report.Disagreements != 0 {
		t.Fatalf("self backtest diverged: %+v", res.Report)
	}
	if got := res.Cascade.ShortCircuited + res.Cascade.PassedOn; got != uint64(n) {
		t.Fatalf("cascade replayed %d records, want the %d scored", got, n)
	}

	only := t.TempDir()
	writeNarrow(only)
	if _, err := Backtest(context.Background(), only, live, BacktestOptions{}); err == nil ||
		!strings.Contains(err.Error(), "scored none") || !strings.Contains(err.Error(), "feature width mismatch?") {
		t.Fatalf("err %v, want the scored-none width-mismatch error", err)
	}
}
