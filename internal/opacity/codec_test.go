package opacity

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	events := []Event{
		{Index: 0, Kind: KindInit, Word: 3, Value: 7},
		{Index: 1, Kind: KindInit, Word: 1<<63 + 5, Value: ^uint64(0)},
		{Index: 2, Kind: KindBegin, Thread: 1, Attempt: 1},
		{Index: 3, Kind: KindRead, Thread: 1, Attempt: 1, Word: 3, Value: 7},
		{Index: 4, Kind: KindWrite, Thread: 1, Attempt: 1, Word: 0, Value: 0},
		{Index: 5, Kind: KindAbort, Thread: 1, Attempt: 1},
		{Index: 9, Kind: KindBegin, Thread: 4294967295, Attempt: 2147483647},
		{Index: 10, Kind: KindCommit, Thread: 4294967295, Attempt: 2147483647},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("decode of encoded trace failed: %v", err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip lost information:\nwrote %v\nread  %v", events, got)
	}
}

func TestWriteTraceRejectsInvalidKind(t *testing.T) {
	if err := WriteTrace(&bytes.Buffer{}, []Event{{Kind: Kind(99)}}); err == nil {
		t.Fatal("invalid kind encoded without error")
	}
}

func TestReadTraceSkipsBlankLines(t *testing.T) {
	in := "\n{\"i\":0,\"k\":\"B\",\"t\":1,\"n\":1}\n\n  \n{\"i\":1,\"k\":\"C\",\"t\":1,\"n\":1}\n"
	evs, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, line, want string
	}{
		{"not json", "begin 1", "not a trace event"},
		{"trailing data", `{"i":0,"k":"B","t":1,"n":1} {"x":1}`, "trailing data"},
		{"unknown field", `{"i":0,"k":"B","t":1,"n":1,"z":9}`, "not a trace event"},
		{"unknown kind", `{"i":0,"k":"Q","t":1,"n":1}`, "unknown event kind"},
		{"missing index", `{"k":"B","t":1,"n":1}`, `missing index field`},
		{"missing kind", `{"i":0,"t":1,"n":1}`, `missing kind field`},
		{"begin missing thread", `{"i":0,"k":"B","n":1}`, `needs thread`},
		{"thread zero", `{"i":0,"k":"B","t":0,"n":1}`, "thread 0"},
		{"attempt zero", `{"i":0,"k":"B","t":1,"n":0}`, "attempts start at 1"},
		{"read missing value", `{"i":0,"k":"R","t":1,"n":1,"w":3}`, `needs word "w" and value "v"`},
		{"commit with word", `{"i":0,"k":"C","t":1,"n":1,"w":3,"v":4}`, `must not carry word`},
		{"init with thread", `{"i":0,"k":"I","t":1,"n":1,"w":3,"v":4}`, `must not carry thread`},
		{"negative index", `{"i":-1,"k":"B","t":1,"n":1}`, "not a trace event"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.line + "\n"))
			if err == nil {
				t.Fatalf("malformed line accepted: %s", tc.line)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "line 1") {
				t.Fatalf("error %q does not name the offending line", err)
			}
		})
	}
}

func TestReadTraceRejectsNonMonotoneIndexes(t *testing.T) {
	in := "{\"i\":5,\"k\":\"B\",\"t\":1,\"n\":1}\n{\"i\":5,\"k\":\"C\",\"t\":1,\"n\":1}\n"
	if _, err := ReadTrace(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Fatalf("duplicate index accepted or misreported: %v", err)
	}
}

// FuzzTraceRoundTrip proves encode/decode is lossless over structured
// random event streams: whatever the generator produces, writing then
// reading yields the identical events. A second leg feeds the decoder the
// raw fuzz bytes so it must reject or round-trip arbitrary input without
// panicking.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(4), []byte(`{"i":0,"k":"B","t":1,"n":1}`))
	f.Add(uint64(42), uint8(0), []byte("\n\n"))
	f.Add(uint64(7), uint8(32), []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, raw []byte) {
		// Structured leg: n pseudo-random valid events from seed.
		rng := seed
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return mix64(rng)
		}
		events := make([]Event, 0, n)
		idx := uint64(0)
		for i := 0; i < int(n); i++ {
			ev := Event{Index: idx}
			idx += next()%7 + 1
			switch next() % 6 {
			case 0:
				ev.Kind = KindInit
				ev.Word, ev.Value = next(), next()
			case 1:
				ev.Kind, ev.Thread, ev.Attempt = KindBegin, uint32(next())|1, int32(next()%1000)+1
			case 2:
				ev.Kind, ev.Thread, ev.Attempt = KindRead, uint32(next())|1, int32(next()%1000)+1
				ev.Word, ev.Value = next(), next()
			case 3:
				ev.Kind, ev.Thread, ev.Attempt = KindWrite, uint32(next())|1, int32(next()%1000)+1
				ev.Word, ev.Value = next(), next()
			case 4:
				ev.Kind, ev.Thread, ev.Attempt = KindCommit, uint32(next())|1, int32(next()%1000)+1
			default:
				ev.Kind, ev.Thread, ev.Attempt = KindAbort, uint32(next())|1, int32(next()%1000)+1
			}
			events = append(events, ev)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			t.Fatalf("encoding generated events failed: %v", err)
		}
		got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding encoded trace failed: %v\ntrace:\n%s", err, buf.String())
		}
		if len(got) == 0 {
			got = nil
		}
		want := events
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round trip lost information:\nwrote %v\nread  %v", want, got)
		}

		// Adversarial leg: arbitrary bytes must decode cleanly or error,
		// and anything that decodes must re-encode to the same events.
		evs, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteTrace(&re, evs); err != nil {
			t.Fatalf("re-encoding decoded trace failed: %v", err)
		}
		evs2, err := ReadTrace(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded trace failed: %v", err)
		}
		if len(evs) == 0 {
			evs = nil
		}
		if len(evs2) == 0 {
			evs2 = nil
		}
		if !reflect.DeepEqual(evs, evs2) {
			t.Fatalf("re-encode changed events:\nfirst  %v\nsecond %v", evs, evs2)
		}
	})
}

func TestLogAssignsMonotoneIndexes(t *testing.T) {
	l := NewLog()
	l.Init(3, 9)
	l.RecordEvent(Event{Kind: KindBegin, Thread: 1, Attempt: 1})
	l.RecordEvent(Event{Kind: KindCommit, Thread: 1, Attempt: 1})
	evs := l.Events()
	if len(evs) != 3 || l.Len() != 3 {
		t.Fatalf("recorded %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Index != uint64(i) {
			t.Fatalf("event %d has index %d", i, ev.Index)
		}
	}
	var buf bytes.Buffer
	if err := l.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, back) {
		t.Fatalf("log round trip mismatch: %v vs %v", evs, back)
	}

	// DumpFile creates the directory and writes the same bytes.
	dir := filepath.Join(t.TempDir(), "nested", "traces")
	if err := l.DumpFile(dir, "x.trace"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "x.trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if back, err = ReadTrace(f); err != nil || !reflect.DeepEqual(evs, back) {
		t.Fatalf("DumpFile round trip: %v, %v vs %v", err, evs, back)
	}
	if err := l.DumpFile(filepath.Join(dir, "x.trace"), "y.trace"); err == nil {
		t.Fatal("DumpFile into a path that is a file succeeded")
	}
}
