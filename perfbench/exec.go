package main

import (
	"fmt"
	"maps"
	"strings"

	"eqasm"
	"eqasm/internal/asm"
	"eqasm/internal/compiler"
	"eqasm/internal/core"
	"eqasm/internal/cqasm"
	"eqasm/internal/ir"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/openqasm"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
	"eqasm/internal/stabilizer"
	"eqasm/internal/topology"
)

// stack is an instruction-set context the replays lower programs
// under; it mirrors what the public options resolve to.
type stack struct {
	topo  *topology.Topology
	opCfg *isa.OpConfig
	inst  isa.Instantiation
}

func newStack() stack {
	return stack{topology.TwoQubit(), isa.DefaultConfig(), isa.Default}
}

// sameResult compares the deterministic outputs of two runs: shot
// count, histogram and summed execution counters.
func sameResult(got, want *eqasm.Result) error {
	switch {
	case got == nil || want == nil:
		return fmt.Errorf("missing result")
	case got.Shots != want.Shots:
		return fmt.Errorf("ran %d shots, reference %d", got.Shots, want.Shots)
	case !maps.Equal(got.Histogram, want.Histogram):
		return fmt.Errorf("histogram %v, reference %v", got.Histogram, want.Histogram)
	case got.TotalStats != want.TotalStats:
		return fmt.Errorf("total stats %+v, reference %+v", got.TotalStats, want.TotalStats)
	}
	return nil
}

// execReplay re-runs serve requests in process, one layer below the
// workers' Simulator, with the seeds the tier used: per program a plan
// build, then per service shot batch a pool checkout (reseed included)
// at the batch's seed and a machine run per shot, each in its own span.
//
// Kernel time comes from a timing wrapper around the chip backend. A
// machine with a custom backend never fuses gates, so the wrapper runs
// every tableau request (the tableau never fuses) but only every other
// state-vector request; the others keep fusion on and give the machine
// span. The wrapped state-vector requests run their program unfused,
// which the tier's fused run matches bit for bit, so their kernel time
// is that of the unfused program.
type execReplay struct {
	t                   *tracer
	st                  stack
	sv, timedSV, tab    *core.SystemPool
	svKernel, tabKernel *timedBackend
	// Totals over the replay.
	cqGates, oqGates, gates, words int64
	runs, fused, sites             int64
	plainShots, plainOps           int64
	svShots, svNs, svCalls         int64
	tabShots, tabNs, tabCalls      int64
}

func newExecReplay(t *tracer) *execReplay {
	st := newStack()
	opts := core.Options{Topology: st.topo, OpConfig: st.opCfg, Instantiation: st.inst}
	rp := &execReplay{t: t, st: st, sv: core.NewSystemPool(opts)}
	rp.svKernel = &timedBackend{inner: quantum.NewSVBackend(st.topo.NumQubits, quantum.NoiseModel{}, 0)}
	rp.tabKernel = &timedBackend{inner: stabilizer.New(st.topo.NumQubits, 0)}
	timed := opts
	timed.Microarch.Backend = rp.svKernel
	rp.timedSV = core.NewSystemPool(timed)
	timed.Microarch.Backend = rp.tabKernel
	rp.tab = core.NewSystemPool(timed)
	return rp
}

// lower turns program i of op into the instruction list a worker
// plans, one layer below the public front ends: eQASM assembly, or the
// cQASM or OpenQASM parser and the pass pipeline as the public
// compilers run them for the two-qubit chip by default, with a span
// per pass. Programs with a 32-bit encoding then go through the
// instantiation's encoder and decoder, which must round-trip.
func (rp *execReplay) lower(k int, root int32, op serveOp, i int) (*isa.Program, error) {
	t, st, src := rp.t, rp.st, op.srcs[i]
	var prog *isa.Program
	if op.kind == kindSmoke {
		a := asm.New(st.opCfg, st.topo)
		a.Inst = st.inst
		var err error
		if prog, err = a.Assemble(src); err != nil {
			return nil, err
		}
	} else {
		parse, layer := cqasm.Parse, "cqasm.parse"
		if op.kind == kindOQ {
			parse, layer = openqasm.Parse, "openqasm.parse"
		}
		start := t.now()
		c, err := parse(src)
		t.add(layer, start, t.now(), root, int64(k))
		if err != nil {
			return nil, err
		}
		gates := int64(len(c.Gates))
		rp.gates += gates
		if op.kind == kindOQ {
			rp.oqGates += gates
		} else {
			rp.cqGates += gates
		}
		last := t.now()
		prog, err = st.compile(c, func(pass string, _ *ir.Program) error {
			t.add("compiler."+pass, last, t.now(), root, int64(k))
			last = t.now()
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if op.kind == kindSweep {
		return prog, nil // literal-angle rotations have no 32-bit encoding
	}
	start := t.now()
	words, err := st.inst.EncodeProgram(prog, st.opCfg)
	bin := isa.WordsToBytes(words)
	t.add("isa.encode", start, t.now(), root, int64(k))
	if err != nil {
		return nil, err
	}
	start = t.now()
	w2, err := isa.BytesToWords(bin)
	var back *isa.Program
	if err == nil {
		back, err = st.inst.DecodeProgram(w2, st.opCfg)
	}
	t.add("isa.decode", start, t.now(), root, int64(k))
	if err != nil {
		return nil, err
	}
	if back.String() != prog.String() {
		return nil, fmt.Errorf("encode -> decode does not round-trip")
	}
	rp.words += int64(len(words))
	return prog, nil
}

// compile drives an IR program through the pass pipeline exactly as
// the public Compile does for the stack's chip with default options
// (no SOMQ, no mapping, ASAP schedule, ts3 timing). observe is called
// after every pass.
func (s stack) compile(p *ir.Program, observe compiler.Observer) (*isa.Program, error) {
	pl, err := compiler.NewPipeline(compiler.PipelineConfig{
		Config:     s.opCfg,
		Topo:       s.topo,
		Inst:       s.inst,
		Arch:       compiler.DefaultArch(s.inst),
		AppendStop: true,
	})
	if err != nil {
		return nil, err
	}
	pl.Observe(observe)
	if err := pl.Run(p); err != nil {
		return nil, err
	}
	return p.Code, nil
}

// run replays request k and holds its outputs to want, the tier's
// (reference-checked) results.
func (rp *execReplay) run(k int, op serveOp, want []*eqasm.Result) error {
	t := rp.t
	root := t.open("replay", -1, int64(k))
	defer t.close(root)
	for i := range op.srcs {
		prog, err := rp.lower(k, root, op, i)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		start := t.now()
		ex, err := plan.Build(prog, rp.st.topo, rp.st.opCfg)
		t.add("plan.build", start, t.now(), root, int64(k))
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		// The Simulator's "auto" rule for a noiseless plan.
		pool, kernel := rp.tab, rp.tabKernel
		if !ex.CliffordOnly() {
			pool, kernel = rp.sv, nil
			if k%2 == 1 {
				pool, kernel = rp.timedSV, rp.svKernel
			}
		}
		res, err := rp.shots(k, root, ex, pool, kernel, op.seeds[i], op.shots)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		if err := sameResult(res, want[i]); err != nil {
			return fmt.Errorf("replay of %s request %d differs from the tier's result: %w", op.name, i, err)
		}
		rp.runs++
		rp.fused += int64(want[i].GateProfile[eqasm.ProfileFusionFused])
		rp.sites += int64(want[i].GateProfile[eqasm.ProfileFusionTotal])
		switch kernel {
		case nil:
			rp.plainShots += int64(res.Shots)
			rp.plainOps += res.TotalStats.QuantumOps
		case rp.svKernel:
			ns, calls := kernel.take()
			rp.svShots, rp.svNs, rp.svCalls = rp.svShots+int64(res.Shots), rp.svNs+ns, rp.svCalls+calls
		case rp.tabKernel:
			ns, calls := kernel.take()
			rp.tabShots, rp.tabNs, rp.tabCalls = rp.tabShots+int64(res.Shots), rp.tabNs+ns, rp.tabCalls+calls
		}
	}
	return nil
}

// shots runs one program the way a worker does: in service shot batches
// of serveShots, batch w at seed + w*core.SeedStride, each on a checked
// out machine, aggregating histogram and counters like the Simulator.
func (rp *execReplay) shots(k int, root int32, ex *plan.Executable, pool *core.SystemPool,
	kernel *timedBackend, seed int64, shots int) (*eqasm.Result, error) {
	t := rp.t
	span := "machine.run"
	if kernel != nil {
		span = "machine.run.timed"
	}
	res := &eqasm.Result{Histogram: map[string]int{}}
	for w := 0; w*serveShots < shots; w++ {
		bseed := seed + int64(w)*core.SeedStride
		start := t.now()
		sys, err := pool.Get(bseed)
		t.add("core.checkout", start, t.now(), root, int64(k))
		if err != nil {
			return nil, err
		}
		if kernel != nil {
			// A system the pool had to build takes its seed from the
			// options, which a supplied backend never sees; reseeding
			// again is a no-op for a reused one.
			sys.Reseed(bseed)
		}
		if err := sys.LoadPlan(ex); err != nil {
			return nil, err
		}
		m := sys.Machine
		for s := 0; s < min(serveShots, shots-w*serveShots); s++ {
			m.Reset()
			start := t.now()
			err := m.Run()
			t.add(span, start, t.now(), root, int64(k))
			if err != nil {
				return nil, fmt.Errorf("shot %d: %w", w*serveShots+s, err)
			}
			addShot(res, m)
		}
		start = t.now()
		pool.Put(sys)
		t.add("core.checkout", start, t.now(), root, int64(k))
	}
	return res, nil
}

// layers derives the execution metrics of the replay. serviceRunUs is
// the workers' execution time per run request over the same phase,
// the base of driver.self_us_per_run.
func (rp *execReplay) layers(l map[string]float64, serviceRunUs float64) {
	if rp.runs == 0 {
		return
	}
	spans := rp.t.byName()
	runs := float64(rp.runs)
	l["cqasm.parse_ns_per_gate"] = perUnit(spans, "cqasm.parse", float64(rp.cqGates))
	l["openqasm.parse_ns_per_gate"] = perUnit(spans, "openqasm.parse", float64(rp.oqGates))
	for _, pass := range compilerPasses {
		l["compiler."+pass+".ns_per_gate"] = perUnit(spans, "compiler."+pass, float64(rp.gates))
	}
	l["isa.encode_ns_per_word"] = perUnit(spans, "isa.encode", float64(rp.words))
	l["isa.decode_ns_per_word"] = perUnit(spans, "isa.decode", float64(rp.words))
	if ls := spans["plan.build"]; ls != nil {
		l["plan.build_us"] = float64(ls.total) / float64(ls.count) / 1e3
	}
	if rp.sites > 0 {
		l["plan.fused_site_share"] = float64(rp.fused) / float64(rp.sites)
	}
	checkoutUs := perUnit(spans, "core.checkout", runs) / 1e3
	l["core.checkout_us_per_run"] = checkoutUs
	machine := perUnit(spans, "machine.run", float64(rp.plainShots))
	l["machine.ns_per_shot"] = machine
	if rp.plainOps > 0 {
		l["microarch.ns_per_device_op"] = perUnit(spans, "machine.run", float64(rp.plainOps))
	}
	if timedShots := float64(rp.svShots + rp.tabShots); timedShots > 0 {
		timed := perUnit(spans, "machine.run.timed", timedShots)
		l["microarch.self_ns_per_shot"] = timed - float64(rp.svNs+rp.tabNs)/timedShots
	}
	if rp.svShots > 0 {
		l["quantum.kernel_ns_per_shot"] = float64(rp.svNs) / float64(rp.svShots)
		l["quantum.kernel_calls_per_shot"] = float64(rp.svCalls) / float64(rp.svShots)
	}
	if rp.tabShots > 0 {
		l["stabilizer.kernel_ns_per_shot"] = float64(rp.tabNs) / float64(rp.tabShots)
		l["stabilizer.kernel_calls_per_shot"] = float64(rp.tabCalls) / float64(rp.tabShots)
	}
	if serviceRunUs > 0 {
		machineUs := (perUnit(spans, "machine.run", runs) + perUnit(spans, "machine.run.timed", runs)) / 1e3
		l["driver.base_us_per_run"] = serviceRunUs
		l["driver.self_us_per_run"] = serviceRunUs - checkoutUs - machineUs
	}
}

// addShot folds a finished shot into res the way the Simulator
// aggregates a run: histogram key over the last result per measured
// qubit, qubits ascending, and the shot's counters summed.
func addShot(res *eqasm.Result, m *microarch.Machine) {
	st := m.Stats()
	res.Shots++
	res.Histogram[histKey(m.Measurements())]++
	res.TotalStats.Add(eqasm.ExecStats{
		Instructions:  st.InstructionsExecuted,
		Bundles:       st.BundlesIssued,
		QuantumOps:    st.QuantumOpsTriggered,
		CancelledOps:  st.OpsCancelled,
		FMRStallTicks: st.FMRStallTicks,
		DurationNs:    st.FinalTimeNs,
	})
}

func histKey(recs []microarch.MeasurementRecord) string {
	last := map[int]int{}
	for _, r := range recs {
		last[r.Qubit] = r.Result
	}
	qubits := sortedKeys(last)
	var b strings.Builder
	for _, q := range qubits {
		b.WriteByte(byte('0' + last[q]))
	}
	return b.String()
}
