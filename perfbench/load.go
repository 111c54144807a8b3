package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"boundedg/internal/graph"
	"boundedg/internal/server"
)

// Status classes tallied for every op class.
const (
	st2xx = iota
	st409
	st422
	st4xx // any other 4xx
	st5xx
	stTransport // transport error or timeout
	nStatus
)

var statusNames = [nStatus]string{"2xx", "409", "422", "other_4xx", "5xx", "transport"}

func statusClass(code int) int {
	switch {
	case code >= 200 && code < 300:
		return st2xx
	case code == http.StatusConflict:
		return st409
	case code == http.StatusUnprocessableEntity:
		return st422
	case code >= 400 && code < 500:
		return st4xx
	case code >= 500:
		return st5xx
	}
	return stTransport
}

// classTally counts one op class (reads or writes) over a run.
type classTally struct {
	Status    [nStatus]uint64
	Attempted uint64
	Failed    uint64
	// Wrong counts answers that arrived but failed a check: a malformed
	// body, a repeated read answered differently, an epoch running
	// backwards. They are included in Failed.
	Wrong uint64
	// byWindow[k] holds the client-observed latencies, in µs, of the ops
	// that started in sub-window k of the measured window and did not
	// fail.
	byWindow [][]float64
}

// window returns the latencies of sub-window k.
func (t *classTally) window(k int) []float64 {
	if k < len(t.byWindow) {
		return t.byWindow[k]
	}
	return nil
}

// latencies returns every latency of the measured window.
func (t *classTally) latencies() []float64 {
	var all []float64
	for _, l := range t.byWindow {
		all = append(all, l...)
	}
	return all
}

func (t *classTally) merge(o *classTally) {
	for i := range t.Status {
		t.Status[i] += o.Status[i]
	}
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Wrong += o.Wrong
	for k, l := range o.byWindow {
		for len(t.byWindow) <= k {
			t.byWindow = append(t.byWindow, nil)
		}
		t.byWindow[k] = append(t.byWindow[k], l...)
	}
}

// acceptedWrite is a write the daemon answered 200, with the epoch (or
// global sequence number) it published and where its WAL record ends.
// Writes that group-commit together share an epoch; their log offsets
// order them as the daemon applied them.
type acceptedWrite struct {
	epoch  uint64
	offset int64 // log offset, or the sum of the shard log offsets
	o      op
}

// loadResult is what the closed-loop clients observed.
type loadResult struct {
	read, write classTally
	accepted    []acceptedWrite
	// answers holds, per pool entry, the answer part of the first 200
	// (the body before its "cached" field) on the read-only workloads,
	// where every later answer for the entry must equal it byte for byte.
	answers map[int][]byte
	// userBytes is the size of the accepted /update bodies sent in the
	// window, the base of the WAL's write amplification.
	userBytes uint64
	// subWindows are the lengths of the measured window's sub-windows.
	subWindows []time.Duration
}

// loadTarget is what a client needs to drive a daemon.
type loadTarget struct {
	url     string
	bodies  [][]byte        // POST /query body per pool entry
	in      *graph.Interner // encodes /update bodies
	repeats bool            // answers must not change between reads (no writes)
}

var cachedField = []byte(`,"cached":`)

// answerPart returns the deterministic part of a /query 200 body (what
// precedes the per-request "cached" and "elapsed_ms" fields), or nil if
// the body is not a query answer.
func answerPart(body []byte) []byte {
	if !bytes.HasPrefix(body, []byte(`{"sem":"`)) {
		return nil
	}
	i := bytes.LastIndex(body, cachedField)
	if i < 0 {
		return nil
	}
	return body[:i]
}

// client is one closed-loop connection.
type client struct {
	t    loadTarget
	http *http.Client
	gen  *opGen
	// sub is the current sub-window of the measured window, -1 before it
	// and after it.
	sub  *atomic.Int32
	stop *atomic.Bool
	res  loadResult

	lastEpoch uint64
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func (c *client) post(path string, body []byte) (int, []byte) {
	resp, err := c.http.Post(c.t.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, raw
}

// do issues one op, checks its answer, and tallies it.
func (c *client) do(o op) {
	sub := int(c.sub.Load())
	inWindow := sub >= 0
	var (
		tally *classTally
		ok    bool
		wrong bool
		code  int
		raw   []byte
		body  []byte
		start time.Time
	)
	if o.kind == opRead {
		tally = &c.res.read
		start = time.Now()
		code, raw = c.post("/query", c.t.bodies[o.entry])
		ok = code == http.StatusOK
		if ok {
			wrong = !c.checkRead(o.entry, raw)
		}
	} else {
		tally = &c.res.write
		var err error
		if body, err = o.updateBody(c.t.in); err != nil {
			panic(err) // an edge delta always encodes
		}
		start = time.Now()
		code, raw = c.post("/update", body)
		ok = code == http.StatusOK || code == http.StatusConflict || code == http.StatusUnprocessableEntity
		if code == http.StatusOK {
			wrong = !c.checkWrite(o, raw)
			if !wrong && inWindow {
				c.res.userBytes += uint64(len(body))
			}
		}
		c.gen.settle(o, code == http.StatusOK)
	}
	elapsed := time.Since(start)
	tally.Attempted++
	tally.Status[statusClass(code)]++
	if wrong {
		tally.Wrong++
	}
	if !ok || wrong {
		tally.Failed++
		return
	}
	if inWindow {
		for len(tally.byWindow) <= sub {
			tally.byWindow = append(tally.byWindow, nil)
		}
		tally.byWindow[sub] = append(tally.byWindow[sub], float64(elapsed.Nanoseconds())/1e3)
	}
}

// checkRead checks that a 200 carries a query answer and, when answers
// must repeat, that it equals the entry's first answer.
func (c *client) checkRead(entry int, raw []byte) bool {
	part := answerPart(raw)
	if part == nil {
		return false
	}
	if !c.t.repeats {
		return true
	}
	first, seen := c.res.answers[entry]
	if !seen {
		c.res.answers[entry] = bytes.Clone(part)
		return true
	}
	return bytes.Equal(first, part)
}

// checkWrite records an accepted write; within one closed-loop client
// the published epochs must never run backwards.
func (c *client) checkWrite(o op, raw []byte) bool {
	var ur server.UpdateResponse
	if err := json.Unmarshal(raw, &ur); err != nil || ur.Epoch < c.lastEpoch {
		return false
	}
	c.lastEpoch = ur.Epoch
	w := acceptedWrite{epoch: ur.Epoch, offset: ur.LogOffset, o: o}
	for _, off := range ur.ShardLogOffsets {
		w.offset += off
	}
	c.res.accepted = append(c.res.accepted, w)
	return true
}

func (c *client) run() {
	for !c.stop.Load() {
		c.do(c.gen.next())
	}
	if o, ok := c.gen.drain(); ok {
		c.do(o)
	}
}

// runLoad drives the target with one client per generator: warm-up
// first, then the measured window, split into subs equal sub-windows.
// mark(k) runs on the calling goroutine at each sub-window boundary
// (k = 0 at the window's start, k = subs at its end), to read the
// daemon's counters at the same instants.
func runLoad(t loadTarget, gens []*opGen, warm, window time.Duration, subs int, mark func(k int) error) (*loadResult, error) {
	var (
		sub  atomic.Int32
		stop atomic.Bool
		wg   sync.WaitGroup
		cs   = make([]*client, len(gens))
	)
	sub.Store(-1)
	for i, g := range gens {
		cs[i] = &client{t: t, http: newHTTPClient(), gen: g, sub: &sub, stop: &stop, res: loadResult{answers: map[int][]byte{}}}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run()
		}(cs[i])
	}
	time.Sleep(warm)
	var durs []time.Duration
	err := mark(0)
	if err == nil {
		sub.Store(0)
		t0 := time.Now()
		for k := 0; k < subs; k++ {
			time.Sleep(window / time.Duration(subs))
			next := int32(k + 1)
			if k == subs-1 {
				next = -1
			}
			sub.Store(next)
			t1 := time.Now()
			durs, t0 = append(durs, t1.Sub(t0)), t1
			if err = mark(k + 1); err != nil {
				break
			}
		}
	}
	sub.Store(-1)
	stop.Store(true)
	wg.Wait()
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
	if err != nil {
		return nil, err
	}

	res := &loadResult{answers: map[int][]byte{}, subWindows: durs}
	for _, c := range cs {
		res.read.merge(&c.res.read)
		res.write.merge(&c.res.write)
		res.accepted = append(res.accepted, c.res.accepted...)
		res.userBytes += c.res.userBytes
		for e, a := range c.res.answers {
			if prev, ok := res.answers[e]; !ok {
				res.answers[e] = a
			} else if !bytes.Equal(prev, a) {
				res.read.Wrong++
				res.read.Failed++
			}
		}
	}
	return res, nil
}

// seconds is the measured window's length.
func (r *loadResult) seconds() float64 {
	var s float64
	for _, d := range r.subWindows {
		s += d.Seconds()
	}
	return s
}

func (r *loadResult) attempted() uint64 { return r.read.Attempted + r.write.Attempted }
func (r *loadResult) failed() uint64    { return r.read.Failed + r.write.Failed }

// getJSON GETs path from url and decodes the JSON answer into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
