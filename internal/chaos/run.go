package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/churn"
	"rtsm/internal/front"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
)

// clients is the HTTP submission concurrency within a script segment
// on the Door target. Steps are barriers regardless.
const clients = 4

// Target picks what a run's arrivals are submitted to.
type Target int

const (
	// Door sends every arrival over real HTTP through a front.Door,
	// clients-way concurrent and closed-loop: a step waits for the
	// response to every arrival before it. A closed loop never offers
	// more than the clients can wait for, so it never sheds.
	Door Target = iota
	// Direct submits every arrival to the stream server in process,
	// open-loop, as fast as Submit returns: a step waits only until every
	// arrival before it was submitted, so faults land while admissions
	// are in flight, and an arrival storm sheds and fills the DLQ.
	Direct
)

// Options configures a chaos run: arrivals from a churn stack travel
// through a stream server, over the target, while the script faults
// the mesh, spikes its latency, drains or kills the incarnation.
type Options struct {
	// Stack shapes the mesh, the backend and the arrival catalogue as in
	// internal/churn. Stack.Apps is the total admission requests across
	// all incarnations; Stack.Journal is required when the script
	// contains crash steps, optional otherwise.
	Stack churn.Options
	// Server tunes the stream stages (Backend is overridden).
	Server stream.Options
	// Target picks the door or the direct path; the zero value is Door.
	Target Target
}

// Report is a chaos run's aggregate accounting across incarnations.
type Report struct {
	// Arrivals is the requests actually issued; Incarnations is 1 + the
	// number of crash steps executed.
	Arrivals     int
	Incarnations int
	// Elapsed is the wall time from the first arrival to the last
	// incarnation's teardown.
	Elapsed time.Duration
	// Drains, Crashes and Spikes count executed steps.
	Drains, Crashes, Spikes int
	// FaultRecoverTotal and FaultRecoverMax aggregate the time-to-recover
	// of the Stats.FaultsInjected faults.
	FaultRecoverTotal, FaultRecoverMax time.Duration
	// Stream is the aggregate ledger: every incarnation's shutdown
	// report summed. The exactly-one-outcome identity is linear, so
	// Stream.LedgerOK checks the whole run, and Stream.ShedByClass's
	// Critical count — the harness's protected invariant — is 0 on a
	// healthy run.
	Stream stream.Report
	// Door is the aggregate HTTP accounting across incarnations (zero on
	// the Direct target).
	Door front.Stats
	// Stats is the manager's counters summed over incarnations: a crash
	// adds the dying manager's before its torn admissions, which recovery
	// discards, and a drain keeps the manager. Its fault and restore
	// counters are the script's steps that took effect; the end-of-run
	// restores come after it is read.
	Stats manager.Stats
	// ReplayChecks counts journal recoveries — one per crash step, and
	// one at the end of every journaled run — whose replayed platform
	// was bit-identical to the live one at its last seal; TornDiscarded
	// sums the unsealed events recovery truncated.
	ReplayChecks  int
	TornDiscarded int
	// Pristine reports that, once every failed tile and link was restored
	// and every resident stopped, the platform's residual equalled a
	// fresh one's; Drift details the difference when it did not.
	// InvariantErr is the manager's reservation-invariant failure at that
	// point, nil on a healthy run.
	Pristine     bool
	Drift        arch.ResidualDiff
	InvariantErr error
}

// incarnation is one server lifetime: spike wrapper, stream server, door
// (nil on the Direct target) and collector over the stack's current
// backend, torn down as a unit on drain or crash.
type incarnation struct {
	spike     *spikeBackend
	srv       *stream.Server
	door      *front.Door
	collected <-chan struct{}
}

// runner carries the state that survives incarnations: the stack (its
// manager outlives a drain; a crash replaces it with the recovered one).
type runner struct {
	o   Options
	st  *churn.Stack
	rep Report
}

// Run executes a script against a fresh mesh and returns the aggregate
// report. After the last arrival it tears the incarnation down, replays
// the journal when there is one, restores every failed tile and link,
// stops every resident and checks the platform returned to pristine. An
// error means the run could not execute (bad script, journal IO, HTTP
// transport failure) — invariant violations are reported in Report, not
// as errors, so callers can print the full accounting.
func Run(script Script, o Options) (Report, error) {
	for _, st := range script.Steps {
		if st.At > o.Stack.Apps {
			return Report{}, fmt.Errorf("chaos: step @%d beyond the %d-arrival run", st.At, o.Stack.Apps)
		}
	}
	if script.Crashes() > 0 && o.Stack.Journal == nil {
		return Report{}, fmt.Errorf("chaos: crash steps need -journal (Stack.Journal)")
	}
	st, err := churn.NewStack(o.Stack)
	if err != nil {
		return Report{}, err
	}
	r := &runner{o: o, st: st}
	r.rep.Incarnations = 1
	inc, err := r.boot()
	if err != nil {
		return r.rep, err
	}

	start := time.Now()
	next := 0
	for _, step := range script.Steps {
		if err := r.submitRange(inc, next, step.At); err != nil {
			return r.rep, err
		}
		next = max(next, step.At)
		if inc, err = r.execute(inc, step); err != nil {
			return r.rep, err
		}
	}
	if err := r.submitRange(inc, next, o.Stack.Apps); err != nil {
		return r.rep, err
	}
	r.teardown(inc)
	r.rep.Elapsed = time.Since(start)
	r.rep.Stats.Add(r.st.Manager.Stats())

	if jw := r.st.Options.Journal; jw != nil {
		// The sequential oracle, on every journaled run whether or not the
		// script crashed: seal the journal as Close would, then recover the
		// files and replay them into a fresh platform, which must equal
		// the one this run leaves behind.
		if err := jw.Writer.Close(); err != nil {
			return r.rep, fmt.Errorf("chaos: journal: %w", err)
		}
		m := r.st.Manager
		if err := r.restart(m.Platform(), churn.ResidentNames(m)); err != nil {
			return r.rep, err
		}
	}
	r.checkPristine()
	if err := r.st.Close(); err != nil {
		return r.rep, fmt.Errorf("chaos: journal: %w", err)
	}
	return r.rep, nil
}

// checkPristine returns the quiesced mesh to full capacity and no
// residents — a still-failed resource reads as exhausted in the residual
// — and records whether the reservation invariants hold and the
// residual equals the fresh platform's.
func (r *runner) checkPristine() {
	m, pristine := r.st.Manager, r.st.Pristine
	for _, t := range m.Platform().Tiles {
		m.RestoreTile(t.ID)
	}
	for i := range m.Platform().Links {
		m.RestoreLink(arch.LinkID(i))
	}
	r.st.Recycler.Drain()
	if r.rep.InvariantErr = m.CheckInvariants(); r.rep.InvariantErr != nil {
		return
	}
	final := m.Residual()
	if r.rep.Pristine = final.Equal(pristine); !r.rep.Pristine {
		r.rep.Drift = pristine.Diff(final)
	}
}

// boot builds one incarnation over the stack's current backend: spike
// wrapper, stream server, door (on the Door target) and collector.
func (r *runner) boot() (*incarnation, error) {
	spike := &spikeBackend{Backend: r.st.Backend}
	sopts := r.o.Server
	sopts.Backend = spike
	srv, err := stream.New(sopts)
	if err != nil {
		return nil, err
	}
	inc := &incarnation{spike: spike, srv: srv}
	if r.o.Target == Door {
		if inc.door, err = front.Listen(front.Options{Server: srv, Decode: r.st.Decode}); err != nil {
			srv.Shutdown()
			return nil, err
		}
	}
	inc.collected = r.st.Collect(srv)
	return inc, nil
}

// submitRange issues arrivals [lo, hi) and returns at the step barrier:
// on the Direct target once each was submitted, on the Door target once
// each HTTP response has arrived, with clients-way concurrency.
func (r *runner) submitRange(inc *incarnation, lo, hi int) error {
	if hi <= lo {
		return nil
	}
	if inc.door == nil {
		for i := lo; i < hi; i++ {
			if err := inc.srv.Submit(r.st.Arrival(i)); err != nil {
				return fmt.Errorf("chaos: submit %d: %w", i, err)
			}
		}
		r.rep.Arrivals += hi - lo
		return nil
	}
	client := &http.Client{}
	url := "http://" + inc.door.Addr() + "/admit"
	idx := make(chan int)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				body, _ := json.Marshal(churn.IndexRequest{Index: i})
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					select {
					case errc <- fmt.Errorf("chaos: POST /admit %d: %w", i, err):
					default:
					}
					continue
				}
				resp.Body.Close()
			}
		}()
	}
	for i := lo; i < hi; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	r.rep.Arrivals += hi - lo
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// execute runs one step, possibly replacing the incarnation.
func (r *runner) execute(inc *incarnation, st Step) (*incarnation, error) {
	m := r.st.Manager
	switch st.Op {
	case OpFailTile, OpRestoreTile:
		// Admissions are in flight; ProcTiles reads only the tiles'
		// immutable description, which needs no lock.
		tiles := churn.ProcTiles(m.Platform())
		if len(tiles) == 0 {
			return inc, fmt.Errorf("chaos: no processing tiles to fail")
		}
		id := tiles[st.N%len(tiles)]
		if st.Op == OpFailTile {
			r.fault(m.FailTile(id))
		} else {
			m.RestoreTile(id)
		}
	case OpFailLink, OpRestoreLink:
		// Link IDs are indices; the count never changes.
		n := len(m.Platform().Links)
		if n == 0 {
			return inc, fmt.Errorf("chaos: no links to fail")
		}
		id := arch.LinkID(st.N % n)
		if st.Op == OpFailLink {
			r.fault(m.FailLink(id))
		} else {
			m.RestoreLink(id)
		}
	case OpSpike:
		inc.spike.arm(st.Dur, st.N)
		r.rep.Spikes++
	case OpDrain:
		r.teardown(inc)
		r.rep.Drains++
		r.st.Reopen()
		return r.boot()
	case OpCrash:
		return r.crash(inc)
	}
	return inc, nil
}

// fault books the time-to-recover of a fault step that took effect.
func (r *runner) fault(rep manager.FaultReport) {
	if rep.Failed {
		r.rep.FaultRecoverTotal += rep.Recover
		r.rep.FaultRecoverMax = max(r.rep.FaultRecoverMax, rep.Recover)
	}
}

// teardown drains one incarnation gracefully — door first (readiness
// flips, in-flight HTTP finishes), then the stream server, which closes
// the stack's backend — and folds its ledger into the aggregate.
func (r *runner) teardown(inc *incarnation) {
	if inc.door != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = inc.door.Drain(ctx)
		addStats(&r.rep.Door, inc.door.Stats())
	}
	rep := inc.srv.Shutdown()
	<-inc.collected
	addReport(&r.rep.Stream, rep)
}

// crash is the kill -9 simulation: quiesce, seal a durable checkpoint,
// commit torn work past the seal, discard the live state, rebuild the
// stack from the journal and verify the replay bit-for-bit, then serve
// the rest of the run from the recovered manager.
func (r *runner) crash(inc *incarnation) (*incarnation, error) {
	// Quiesce: the door and server drain so no pipeline work races the
	// checkpoint. This models the load balancer pulling the instance
	// before the machine dies; the torn phase below is the work that
	// slipped in after the last seal.
	r.teardown(inc)
	r.rep.Crashes++
	m, jw := r.st.Manager, r.st.Options.Journal
	r.rep.Stats.Add(m.Stats())

	// Seal the durable checkpoint and capture it bit-for-bit.
	jw.Flush()
	if err := jw.Err(); err != nil {
		return nil, fmt.Errorf("chaos: journal at crash: %w", err)
	}
	sealed := m.Platform().Clone()
	sealedNames := churn.ResidentNames(m)

	// Torn phase: admissions committed and synced but never sealed —
	// exactly what a crash strands past the last seal.
	torn := 0
	for i := 0; i < 20 && torn < 3; i++ {
		// Churn arrivals from an index range no HTTP arrival uses, so the
		// torn residents' names never collide with recovered ones.
		app, lib := r.st.Arrival(r.o.Stack.Apps + r.rep.Crashes*100 + i)
		app.Name = fmt.Sprintf("torn-%d-%s", r.rep.Crashes, app.Name)
		if out := m.Admit(app, lib); out.Admitted {
			torn++
		}
	}
	jw.Sync()
	if err := jw.Err(); err != nil {
		return nil, fmt.Errorf("chaos: journal at crash: %w", err)
	}

	// The crash: the writer is abandoned (never Closed — no final seal)
	// and every live structure is dropped; only the files survive.
	r.rep.TornDiscarded += torn
	if err := r.restart(sealed, sealedNames); err != nil {
		return nil, err
	}
	r.rep.Incarnations++
	return r.boot()
}

// restart drops the live stack and rebuilds it from the journal files
// alone: recovery truncates the torn tail, verifies the chain and resumes
// it in a fresh segment; the new stack replays the sealed events into a
// pristine platform, which must equal the sealed one bit for bit and
// carry the same residents.
func (r *runner) restart(sealed *arch.Platform, sealedNames []string) error {
	recovered, err := r.st.Options.Journal.Crash()
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	so := r.o.Stack
	so.Journal = recovered
	if r.st, err = churn.NewStack(so); err != nil {
		recovered.Close()
		return fmt.Errorf("chaos: restart: %w", err)
	}
	rm := r.st.Manager
	if err := arch.PlatformsIdentical(sealed, rm.Platform()); err != nil {
		return fmt.Errorf("chaos: replayed platform differs from sealed checkpoint: %w", err)
	}
	if got := churn.ResidentNames(rm); fmt.Sprint(got) != fmt.Sprint(sealedNames) {
		return fmt.Errorf("chaos: replayed resident set differs:\n got %v\nwant %v", got, sealedNames)
	}
	if err := rm.CheckInvariants(); err != nil {
		return fmt.Errorf("chaos: replayed manager invariants: %w", err)
	}
	r.rep.ReplayChecks++
	return nil
}

// spikeBackend wraps a stream.Backend and injects latency into the next
// armed number of outcome waits — a deterministic stand-in for a mesh
// whose mapping rounds suddenly slowed down.
type spikeBackend struct {
	stream.Backend
	mu    sync.Mutex
	delay time.Duration
	left  int
}

func (b *spikeBackend) arm(d time.Duration, n int) {
	b.mu.Lock()
	b.delay, b.left = d, n
	b.mu.Unlock()
}

func (b *spikeBackend) take() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return 0
	}
	b.left--
	return b.delay
}

func (b *spikeBackend) wrap(wait func() manager.Outcome) func() manager.Outcome {
	d := b.take()
	if d <= 0 {
		return wait
	}
	return func() manager.Outcome {
		out := wait()
		time.Sleep(d)
		return out
	}
}

// Submit implements stream.Backend.
func (b *spikeBackend) Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error) {
	wait, err := b.Backend.Submit(app, lib)
	if err != nil {
		return nil, err
	}
	return b.wrap(wait), nil
}

// TrySubmit implements stream.Backend.
func (b *spikeBackend) TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool) {
	wait, ok := b.Backend.TrySubmit(app, lib)
	if !ok {
		return nil, false
	}
	return b.wrap(wait), true
}

// addReport folds one incarnation's ledger into the aggregate. Counter
// fields sum; point-in-time fields (DLQ depth, window) keep the latest
// incarnation's values.
func addReport(dst *stream.Report, r stream.Report) {
	dst.Submitted += r.Submitted
	dst.Admitted += r.Admitted
	dst.Recovered += r.Recovered
	dst.Rejected += r.Rejected
	dst.Expired += r.Expired
	for c := range dst.ShedByClass {
		dst.ShedByClass[c] += r.ShedByClass[c]
		dst.RecoveredByClass[c] += r.RecoveredByClass[c]
		dst.ExpiredByClass[c] += r.ExpiredByClass[c]
	}
	dst.ShedShare += r.ShedShare
	dst.ShedQueue += r.ShedQueue
	dst.ShedDeadline += r.ShedDeadline
	dst.DLQDepth = r.DLQDepth
	dst.DLQDepthByClass = r.DLQDepthByClass
	dst.Window = r.Window
}

// addStats folds one incarnation's door accounting into the aggregate.
func addStats(dst *front.Stats, s front.Stats) {
	dst.Requests += s.Requests
	dst.Admitted += s.Admitted
	dst.Busy += s.Busy
	dst.Rejected += s.Rejected
	dst.Timeout += s.Timeout
	dst.BadRequest += s.BadRequest
	dst.Draining += s.Draining
}
