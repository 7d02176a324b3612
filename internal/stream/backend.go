package stream

import (
	"rtsm/internal/manager"
	"rtsm/internal/model"
)

// Backend is what the server admits into: a mesh behind a manager
// pipeline (PipelineBackend), or a wrapper around one — the chaos
// harness's latency spikes, the benchmark's tracer, a test's fake.
// Submit blocks for backpressure and TrySubmit sheds instead; both
// return a wait closure that delivers the arrival's single outcome.
type Backend interface {
	// Submit enqueues with blocking backpressure; err is non-nil only
	// when the backend cannot take the arrival at all (closed,
	// duplicate name).
	Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error)
	// TrySubmit enqueues without blocking; false sheds the arrival (full
	// queue or a closed backend).
	TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool)
	// Utilization is the backend's reserved-capacity estimate in [0, 1];
	// the DLQ gates retries on it.
	Utilization() float64
	// Stop departs a resident, freeing its reservations.
	Stop(name string) error
	// Close shuts the backend down, draining queued admissions.
	Close()
}

// PipelineBackend adapts a manager + pipeline pair to Backend.
type PipelineBackend struct {
	m    *manager.Manager
	pipe *manager.Pipeline
}

// NewPipelineBackend wraps a manager and its pipeline. The backend owns
// neither until Close, which closes the pipeline (the manager needs no
// teardown).
func NewPipelineBackend(m *manager.Manager, pipe *manager.Pipeline) *PipelineBackend {
	return &PipelineBackend{m: m, pipe: pipe}
}

// Submit implements Backend.
func (b *PipelineBackend) Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error) {
	ch, err := b.pipe.Submit(app, lib)
	if err != nil {
		return nil, err
	}
	return func() manager.Outcome { return <-ch }, nil
}

// TrySubmit implements Backend.
func (b *PipelineBackend) TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool) {
	ch, ok := b.pipe.TrySubmit(app, lib)
	if !ok {
		return nil, false
	}
	return func() manager.Outcome { return <-ch }, true
}

// Utilization implements Backend.
func (b *PipelineBackend) Utilization() float64 { return b.m.LoadEstimate().Utilization() }

// Stop implements Backend.
func (b *PipelineBackend) Stop(name string) error { return b.m.Stop(name) }

// Close implements Backend.
func (b *PipelineBackend) Close() { b.pipe.Close() }
