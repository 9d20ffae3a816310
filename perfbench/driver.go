package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/gateway"
	"silica/internal/metadata"
)

// conns is the number of concurrent HTTP connections and sender
// goroutines: one per core of the 2-core reference host, so the
// generator never needs more CPU than the host has.
const conns = 2

const account = "bench"

// stack is one gateway served over loopback HTTP.
type stack struct {
	g      *gateway.Gateway
	srv    *http.Server
	client *gateway.Client
	tr     *http.Transport
	dir    string
	served chan error
}

// startStack builds a gateway with silicad's defaults on a fresh
// persistence directory and serves it on a loopback listener.
func startStack(s workloadSpec, dir string) (*stack, error) {
	cfg := gateway.DefaultConfig()
	cfg.Service.PersistDir = dir
	cfg.Backend = s.Backend
	cfg.TwinSpeedup = s.TwinSpeedup
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		return nil, err
	}
	st := &stack{
		g:      g,
		srv:    &http.Server{Handler: g.Handler()},
		tr:     &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	st.client = gateway.NewClient("http://" + ln.Addr().String())
	st.client.HTTP = &http.Client{Timeout: 60 * time.Second, Transport: st.tr}
	if _, err := st.client.Healthz(); err != nil {
		st.close()
		return nil, fmt.Errorf("gateway not serving: %w", err)
	}
	return st, nil
}

// close stops the HTTP server and the gateway and removes the
// persistence directory.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.tr.CloseIdleConnections()
	if gerr := st.g.Close(); gerr != nil && err == nil {
		err = gerr
	}
	if rerr := os.RemoveAll(st.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func (st *stack) isDurable(name string) bool {
	v, err := st.g.Service().Metadata().Get(metadata.FileKey{Account: account, Name: name})
	return err == nil && v.State == metadata.Durable
}

// forEach runs f(i) for i in [0, n) on conns goroutines and returns the
// first error.
func forEach(n int, f func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// preload puts the corpus through HTTP and drains it to glass in
// chunks of at most half a platter of user bytes, each flushed
// explicitly. Every chunk stays under the scheduler's one-platter size
// watermark, so no scheduled flush races the explicit one and each
// set-up burns the same platters in the same order.
func preload(st *stack, p *plan, platterUserBytes int64) error {
	var chunk []object
	var staged int64
	drain := func() error {
		err := forEach(len(chunk), func(i int) error {
			_, err := st.client.Put(account, chunk[i].Name, payload(chunk[i]))
			return err
		})
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if err := st.client.Flush(); err != nil {
			return fmt.Errorf("preload flush: %w", err)
		}
		chunk, staged = chunk[:0], 0
		return nil
	}
	for _, i := range p.Corpus {
		o := p.Objects[i]
		if len(chunk) > 0 && staged+int64(o.Size) > platterUserBytes/2 {
			if err := drain(); err != nil {
				return err
			}
		}
		chunk = append(chunk, o)
		staged += int64(o.Size)
	}
	if err := drain(); err != nil {
		return err
	}
	for _, i := range p.Corpus {
		if !st.isDurable(p.Objects[i].Name) {
			return fmt.Errorf("preload: %s not durable after flush", p.Objects[i].Name)
		}
	}
	return nil
}

// outcome classifies a finished request.
type outcome int

const (
	outOK outcome = iota
	outRefused
	outFailed
	outLost
	outCorrupt
)

// result is one request's timeline, relative to the window start.
type result struct {
	Late    time.Duration // send time minus when it could first have been sent
	Sent    time.Duration
	Latency time.Duration // completion minus scheduled send
	Service time.Duration // completion minus actual send
	Out     outcome
	Bytes   int
}

// durableWatch polls the metadata store for acknowledged puts until
// each is durable, and samples the backend queue depth.
type durableWatch struct {
	st      *stack
	mu      sync.Mutex
	pending map[string]time.Time
	times   []time.Duration
	depth   int
	stop    chan struct{}
	done    chan struct{}
}

func watchDurable(st *stack) *durableWatch {
	w := &durableWatch{st: st, pending: map[string]time.Time{}, stop: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *durableWatch) acked(name string, at time.Time) {
	w.mu.Lock()
	w.pending[name] = at
	w.mu.Unlock()
}

func (w *durableWatch) loop() {
	defer close(w.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		w.mu.Lock()
		for name, at := range w.pending {
			if w.st.isDurable(name) {
				w.times = append(w.times, time.Since(at))
				delete(w.pending, name)
			}
		}
		w.mu.Unlock()
		if n%5 == 0 { // the direct backend reports no queues
			d := 0
			for _, q := range w.st.g.BackendStatus().QueueDepth {
				d += q
			}
			w.mu.Lock()
			w.depth = max(w.depth, d)
			w.mu.Unlock()
		}
	}
}

// drain waits until every acknowledged put is durable or the deadline
// passes, then stops polling.
func (w *durableWatch) drain(deadline time.Duration) (times []time.Duration, notDurable, depth int) {
	t0 := time.Now()
	for time.Since(t0) < deadline {
		w.mu.Lock()
		n := len(w.pending)
		w.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(w.stop)
	<-w.done
	return w.times, len(w.pending), w.depth
}

// runWindow sends ops open-loop: each sender takes the next request
// in schedule order, waits for its due time, and sends it. Latency is
// measured from the due time, so a request that waited for a free
// connection is charged for the wait.
func runWindow(st *stack, p *plan, ops []op, dw *durableWatch, tr *tracer) []result {
	res := make([]result, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				free := time.Since(start)
				if d := o.Due - free; d > 0 {
					time.Sleep(d)
				}
				res[i] = send(st, p, o, start, dw, tr)
				res[i].Late = res[i].Sent - max(o.Due, free)
			}
		}()
	}
	wg.Wait()
	return res
}

// send issues one request and checks its outcome.
func send(st *stack, p *plan, o op, start time.Time, dw *durableWatch, tr *tracer) result {
	obj := p.Objects[o.Obj]
	var body []byte
	if o.Kind == opPut {
		body = payload(obj)
	}
	sp := tr.begin(ref{})
	sent := time.Now()
	var err error
	var got []byte
	switch o.Kind {
	case opPut:
		_, err = st.client.Put(account, obj.Name, body)
	case opGet:
		got, err = st.client.Get(account, obj.Name)
	case opDelete:
		err = st.client.Delete(account, obj.Name)
	}
	done := time.Now()
	tr.end(sp, ref{}, "http."+o.Kind.String(), obj.Size)
	r := result{
		Sent:    sent.Sub(start),
		Latency: done.Sub(start) - o.Due,
		Service: done.Sub(sent),
	}
	switch {
	case errors.Is(err, gateway.ErrOverloaded):
		r.Out = outRefused
	case errors.Is(err, metadata.ErrNotFound):
		r.Out = outLost
	case err != nil:
		r.Out = outFailed
	case o.Kind == opGet && !bytes.Equal(got, payload(obj)):
		r.Out = outCorrupt
		err = fmt.Errorf("body of %d bytes differs from the %d bytes put", len(got), obj.Size)
	}
	if r.Out != outOK {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", o.Kind, obj.Name, err)
	}
	if r.Out == outOK && o.Kind != opDelete {
		r.Bytes = obj.Size
	}
	if r.Out == outOK && o.Kind == opPut {
		dw.acked(obj.Name, done)
	}
	return r
}

// auditReport counts what the post-window audit found.
type auditReport struct {
	Checked, Lost, Corrupt, Failed int
}

func (a auditReport) bad() int { return a.Lost + a.Corrupt + a.Failed }

// audit reads every named object back through HTTP: present objects
// must match want byte for byte, deleted ones must be gone.
func audit(c *gateway.Client, present []string, deleted []string, want func(name string) []byte) auditReport {
	var mu sync.Mutex
	var rep auditReport
	names := append(append([]string(nil), present...), deleted...)
	_ = forEach(len(names), func(i int) error {
		got, err := c.Get(account, names[i])
		gone := i >= len(present)
		mu.Lock()
		defer mu.Unlock()
		rep.Checked++
		bad := rep.bad()
		defer func() {
			if rep.bad() > bad {
				fmt.Fprintf(os.Stderr, "perfbench: audit %s: %v (%d bytes read)\n", names[i], err, len(got))
			}
		}()
		switch {
		case gone && errors.Is(err, metadata.ErrNotFound):
		case gone && err == nil:
			rep.Corrupt++ // a crypto-shredded object must not read back
		case errors.Is(err, metadata.ErrNotFound):
			rep.Lost++
		case err != nil:
			rep.Failed++
		case !bytes.Equal(got, want(names[i])):
			rep.Corrupt++
		}
		return nil
	})
	return rep
}
