package main

// Per-layer counters. They come from the layers' own public stats and
// are simulated quantities, so they repeat exactly under a fixed seed; a
// change that only speeds up the simulator must leave them identical.

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kv"
	"repro/internal/probe"
	"repro/internal/sim"
)

// counters are the simulated per-layer counts of one system, or the sum
// over the systems of one rep.
type counters struct {
	Builds uint64
	Ops    uint64
	Events uint64

	HostWrites, FlashPrograms, GCMigrations, Erases uint64
	HostSlots, GCSlots, CacheHits, WriteStalls      uint64

	FlashBusy, FlashSpan sim.Time // Σ die busy time, Σ dies × sim time
	Suspends             uint64

	CPUQueued uint64
	CPUWait   sim.Time

	FSHits, FSMisses, WritebackPages, JournalWrites, Barriers uint64

	WALSyncs, BatchedPuts, Batches, Flushes, Compactions, BlockReads uint64
	CompactBytes, StallBytes                                         int64

	Phases [probe.NumPhases]sim.Time // sim time per phase (traced runs)
}

// collect reads the counters of one built system after its runs.
func collect(g *core.Graph, store *kv.Store, bd *probe.Breakdown) counters {
	c := counters{Builds: 1, Events: g.Engine().Processed}
	now := g.Engine().Now()
	for _, d := range g.Devices() {
		st := d.Stats()
		w := d.WearReport()
		c.HostWrites += st.HostWrites
		c.FlashPrograms += st.FlashPrograms
		c.GCMigrations += st.GCMigrations
		c.CacheHits += st.CacheHits
		c.WriteStalls += st.WriteStalls
		c.Erases += w.Erases.Total
		c.HostSlots += w.HostSlots
		c.GCSlots += w.GCSlots
		u := d.UnitStats()
		c.FlashBusy += u.BusyTime
		c.FlashSpan += sim.Time(d.Config().Units()) * now
		c.Suspends += u.Suspends
	}
	c.CPUQueued, c.CPUWait = coreSched(g.CoreSet())
	for _, s := range g.FSStats() {
		c.FSHits += s.Hits
		c.FSMisses += s.Misses
		c.WritebackPages += s.WritebackPages
		c.JournalWrites += s.JournalWrites
		c.Barriers += s.Barriers
	}
	if store != nil {
		s := store.Stats()
		c.WALSyncs = s.WALSyncs
		c.BatchedPuts = s.BatchedPuts
		c.Batches = s.Batches
		c.Flushes = s.Flushes
		c.Compactions = s.Compactions
		c.BlockReads = s.BlockReads
		c.CompactBytes = s.CompactRead + s.CompactWritten
		c.StallBytes = s.StallBytes
	}
	if bd != nil {
		c.Phases = bd.Sum
	}
	return c
}

// add folds o into c.
func (c *counters) add(o counters) {
	c.Builds += o.Builds
	c.Ops += o.Ops
	c.Events += o.Events
	c.HostWrites += o.HostWrites
	c.FlashPrograms += o.FlashPrograms
	c.GCMigrations += o.GCMigrations
	c.Erases += o.Erases
	c.HostSlots += o.HostSlots
	c.GCSlots += o.GCSlots
	c.CacheHits += o.CacheHits
	c.WriteStalls += o.WriteStalls
	c.FlashBusy += o.FlashBusy
	c.FlashSpan += o.FlashSpan
	c.Suspends += o.Suspends
	c.CPUQueued += o.CPUQueued
	c.CPUWait += o.CPUWait
	c.FSHits += o.FSHits
	c.FSMisses += o.FSMisses
	c.WritebackPages += o.WritebackPages
	c.JournalWrites += o.JournalWrites
	c.Barriers += o.Barriers
	c.WALSyncs += o.WALSyncs
	c.BatchedPuts += o.BatchedPuts
	c.Batches += o.Batches
	c.Flushes += o.Flushes
	c.Compactions += o.Compactions
	c.BlockReads += o.BlockReads
	c.CompactBytes += o.CompactBytes
	c.StallBytes += o.StallBytes
	for i := range c.Phases {
		c.Phases[i] += o.Phases[i]
	}
}

// coreSched sums the arbitration counters of every core.
func coreSched(cs *cpu.CoreSet) (queued uint64, wait sim.Time) {
	for i := 0; i < cs.N(); i++ {
		s := cs.Sched(i)
		queued += s.Queued
		wait += s.QueueWait
	}
	return queued, wait
}
