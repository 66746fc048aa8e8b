// Package mca models the machine-check architecture's corrected-error
// reporting path: per-structure banks with CMCI-style throttling and a
// bounded event log.
//
// The paper's evaluation platform records "the set and way of
// correctable cache errors reported by the hardware" through firmware
// hooks and uses those logs to characterize each core's error profile
// (§IV-A4). Real hardware throttles corrected-error signalling — a bank
// that fired recently stays silent for a hold-off window — so logs see a
// bounded-rate sample of the underlying event stream, not every event.
//
// The chip routes workload-induced ECC events through a Log; the
// errprofile experiment (`eccspec run errprofile`) reconstructs per-line
// error profiles from it, exactly the way the paper's characterization
// did.
package mca

import (
	"fmt"
	"sort"
)

// Event is one logged corrected-error report.
type Event struct {
	// Time is the simulation timestamp in seconds.
	Time float64
	// Core is the reporting core id.
	Core int
	// Bank names the reporting structure ("L2D", "L2I", "RegFile").
	Bank string
	// Set and Way locate the line within the structure.
	Set, Way int
	// Count is how many events this report aggregates (a throttled
	// bank folds a burst into one report with a count).
	Count int
}

// String renders the event the way the paper's logs would.
func (e Event) String() string {
	return fmt.Sprintf("t=%.3fs core%d %s set=%d way=%d count=%d",
		e.Time, e.Core, e.Bank, e.Set, e.Way, e.Count)
}

// Config tunes the log.
type Config struct {
	// Capacity bounds the retained event ring; older events are
	// discarded first.
	Capacity int
	// HoldoffSeconds is the per-bank minimum spacing between reports
	// (CMCI throttling). Events arriving inside the window are folded
	// into the next report's Count.
	HoldoffSeconds float64
}

// DefaultConfig returns a log sized for multi-minute runs with a 10 ms
// per-bank hold-off.
func DefaultConfig() Config {
	return Config{Capacity: 4096, HoldoffSeconds: 0.010}
}

type bankKey struct {
	core int
	bank string
}

type bankState struct {
	lastReport float64
	pendingN   int
	pending    Event
	havePend   bool
}

// Log is the chip-wide corrected-error log.
type Log struct {
	cfg   Config
	ring  []Event
	next  int
	full  bool
	banks map[bankKey]*bankState

	reported   uint64
	suppressed uint64
}

// NewLog creates a log. Zero-value Config fields take defaults.
func NewLog(cfg Config) *Log {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultConfig().Capacity
	}
	if cfg.HoldoffSeconds < 0 {
		cfg.HoldoffSeconds = 0
	}
	return &Log{
		cfg:   cfg,
		ring:  make([]Event, cfg.Capacity),
		banks: make(map[bankKey]*bankState),
	}
}

// Report offers an event to the bank. Inside the hold-off window the
// event is folded into a pending report (its Count accumulates and its
// coordinates take the latest occurrence); otherwise it is logged
// immediately, flushing any pending fold first. It returns true when
// the event was logged now.
func (l *Log) Report(e Event) bool {
	if e.Count <= 0 {
		e.Count = 1
	}
	key := bankKey{e.Core, e.Bank}
	st := l.banks[key]
	if st == nil {
		st = &bankState{lastReport: -l.cfg.HoldoffSeconds - 1}
		l.banks[key] = st
	}
	if e.Time-st.lastReport < l.cfg.HoldoffSeconds {
		// Throttled: fold into the pending report.
		if st.havePend {
			st.pending.Count += e.Count
			st.pending.Time = e.Time
			st.pending.Set, st.pending.Way = e.Set, e.Way
		} else {
			st.pending = e
			st.havePend = true
		}
		l.suppressed += uint64(e.Count)
		return false
	}
	if st.havePend {
		l.append(st.pending)
		l.reported++
		st.havePend = false
	}
	l.append(e)
	l.reported++
	st.lastReport = e.Time
	return true
}

// append stores an event in the ring.
func (l *Log) append(e Event) {
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l.full {
		return len(l.ring)
	}
	return l.next
}

// Events returns the retained events, oldest first.
func (l *Log) Events() []Event {
	if !l.full {
		return append([]Event(nil), l.ring[:l.next]...)
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Counts returns how many reports were logged and how many raw events
// were folded away by throttling.
func (l *Log) Counts() (reported, suppressed uint64) {
	return l.reported, l.suppressed
}

// BankSnapshot is one bank's throttling state in a LogState.
type BankSnapshot struct {
	Core       int     `json:"core"`
	Bank       string  `json:"bank"`
	LastReport float64 `json:"last_report"`
	HavePend   bool    `json:"have_pend,omitempty"`
	Pending    Event   `json:"pending,omitempty"`
}

// LogState is the log's full mutable state for checkpointing.
type LogState struct {
	Events     []Event        `json:"events,omitempty"`
	Banks      []BankSnapshot `json:"banks,omitempty"`
	Reported   uint64         `json:"reported"`
	Suppressed uint64         `json:"suppressed"`
}

// CaptureState snapshots the retained events, per-bank throttle state,
// and counters. Banks are emitted in deterministic (core, bank) order so
// identical logs capture to identical states.
func (l *Log) CaptureState() LogState {
	st := LogState{Events: l.Events(), Reported: l.reported, Suppressed: l.suppressed}
	keys := make([]bankKey, 0, len(l.banks))
	for k := range l.banks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].core != keys[j].core {
			return keys[i].core < keys[j].core
		}
		return keys[i].bank < keys[j].bank
	})
	for _, k := range keys {
		b := l.banks[k]
		st.Banks = append(st.Banks, BankSnapshot{Core: k.core, Bank: k.bank,
			LastReport: b.lastReport, HavePend: b.havePend, Pending: b.pending})
	}
	return st
}

// RestoreState replaces the log's contents with a captured state. The
// ring keeps its configured capacity; if the state carries more events
// than fit, only the newest are retained (matching what the ring itself
// would have kept).
func (l *Log) RestoreState(st LogState) {
	for i := range l.ring {
		l.ring[i] = Event{}
	}
	l.next, l.full = 0, false
	events := st.Events
	if len(events) > len(l.ring) {
		events = events[len(events)-len(l.ring):]
	}
	for _, e := range events {
		l.append(e)
	}
	l.banks = make(map[bankKey]*bankState)
	for _, b := range st.Banks {
		l.banks[bankKey{b.Core, b.Bank}] = &bankState{
			lastReport: b.LastReport, havePend: b.HavePend, pending: b.Pending}
	}
	l.reported, l.suppressed = st.Reported, st.Suppressed
}

// ProfileEntry aggregates a line's activity in the log.
type ProfileEntry struct {
	Core     int
	Bank     string
	Set, Way int
	Events   int
	Total    int // sum of Counts
}

// Profile reconstructs the per-line error profile from the retained
// events — the §IV-A4 characterization — sorted by descending total.
func (l *Log) Profile() []ProfileEntry {
	agg := make(map[Event]*ProfileEntry)
	for _, e := range l.Events() {
		key := Event{Core: e.Core, Bank: e.Bank, Set: e.Set, Way: e.Way}
		pe := agg[key]
		if pe == nil {
			pe = &ProfileEntry{Core: e.Core, Bank: e.Bank, Set: e.Set, Way: e.Way}
			agg[key] = pe
		}
		pe.Events++
		pe.Total += e.Count
	}
	out := make([]ProfileEntry, 0, len(agg))
	for _, pe := range agg {
		out = append(out, *pe)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Core != out[j].Core {
			return out[i].Core < out[j].Core
		}
		if out[i].Bank != out[j].Bank {
			return out[i].Bank < out[j].Bank
		}
		if out[i].Set != out[j].Set {
			return out[i].Set < out[j].Set
		}
		return out[i].Way < out[j].Way
	})
	return out
}
