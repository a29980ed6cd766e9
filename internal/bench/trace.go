package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// traceFile gathers the traced children's Perfetto files into the one
// file -trace names. Every child is a process of its own with a tracer
// of its own, so a child's lanes are renumbered and its clock (zero at
// its tracer's creation) is shifted onto the harness's before its events
// are appended. With -trace 0 or 1 there is no file and every method
// does nothing.
type traceFile struct {
	arg   string // the -trace value; a file name when out is set
	epoch time.Time
	out   *os.File
	w     *bufio.Writer
	parts int
	wrote bool
}

// traceEvent is one Chrome trace_event record as obs writes it.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// pidStride keeps the process groups of different children apart.
const pidStride = 100

func newTraceFile(arg string) (*traceFile, error) {
	t := &traceFile{arg: arg, epoch: time.Now()}
	if arg == "0" || arg == "1" {
		return t, nil
	}
	f, err := os.Create(arg)
	if err != nil {
		return nil, err
	}
	t.out, t.w = f, bufio.NewWriter(f)
	_, err = t.w.WriteString(`{"traceEvents":[`)
	return t, err
}

// part is the -trace value a child gets: the switch itself, or the file
// inside its scratch directory it is to write.
func (t *traceFile) part(scratch string) string {
	if t.out == nil {
		return t.arg
	}
	return filepath.Join(scratch, "trace.json")
}

// absorb appends the events of the file a child wrote at part; started
// is when the child was started.
func (t *traceFile) absorb(part string, started time.Time) error {
	if t.out == nil {
		return nil
	}
	f, err := os.Open(part)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	for { // the events are the array under the file's first key
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%s: no traceEvents: %w", part, err)
		}
		if tok == json.Delim('[') {
			break
		}
	}
	shift := started.Sub(t.epoch).Seconds() * 1e6
	for dec.More() {
		var e traceEvent
		if err := dec.Decode(&e); err != nil {
			return fmt.Errorf("%s: %w", part, err)
		}
		e.Pid += t.parts * pidStride
		if e.Ph != "M" {
			e.Ts += shift
		}
		buf, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if t.wrote {
			t.w.WriteByte(',')
		}
		t.w.WriteByte('\n')
		t.w.Write(buf)
		t.wrote = true
	}
	t.parts++
	return nil
}

// close finishes the file; later calls do nothing.
func (t *traceFile) close() error {
	if t.out == nil {
		return nil
	}
	t.w.WriteString("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"wall\",\"tool\":\"gsfl/internal/bench\"}}\n")
	err := t.w.Flush()
	if cerr := t.out.Close(); err == nil {
		err = cerr
	}
	t.out = nil
	return err
}
