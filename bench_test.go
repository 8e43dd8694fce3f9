// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Sections 4.2 and 5). Each benchmark reports the paper's
// metric through b.ReportMetric, so `go test -bench=. -benchmem`
// reproduces the evaluation next to the usual performance numbers:
//
//	Fig. 7  -> BenchmarkFig7_*          (instructions, relative to baseline)
//	Fig. 8  -> BenchmarkFig8_*          (binary round-trip throughput)
//	Table 1 -> BenchmarkTable1_*        (assembler over the full ISA)
//	Table 2 -> BenchmarkTable2_*        (OpSel mask resolution)
//	Fig. 11 -> BenchmarkFig11_AllXY     (staircase deviation)
//	Fig. 12 -> BenchmarkFig12_RBTiming  (error per gate vs interval)
//	Sec. 5  -> BenchmarkActiveReset, BenchmarkFeedbackLatency,
//	           BenchmarkCFCVerification, BenchmarkGroverTomography,
//	           BenchmarkQuMISBaseline
package eqasm_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eqasm"
	"eqasm/internal/asm"
	"eqasm/internal/benchmarks"
	"eqasm/internal/compiler"
	"eqasm/internal/core"
	"eqasm/internal/dse"
	"eqasm/internal/experiments"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
	"eqasm/internal/qumis"
	"eqasm/internal/service"
	"eqasm/internal/topology"
)

// --- Fig. 7: design-space exploration ---

// fig7Schedules caches the three benchmark schedules (RB reduced to 512
// Cliffords per qubit; all Fig. 7 ratios are size independent).
var fig7Schedules = func() map[string]*compiler.Schedule {
	circuits, order := dse.BenchmarkSet(512)
	out := map[string]*compiler.Schedule{}
	for _, name := range order {
		s, err := compiler.ASAP(circuits[name])
		if err != nil {
			panic(err)
		}
		out[name] = s
	}
	return out
}()

func BenchmarkFig7_Count(b *testing.B) {
	cases := []struct {
		bench  string
		config string
		opts   compiler.Options
	}{
		{"RB", "Config1_w1", compiler.Config1.WithWidth(1)},
		{"RB", "Config2_w2", compiler.Config2.WithWidth(2)},
		{"RB", "Config9_w2", compiler.Config9.WithWidth(2)},
		{"IM", "Config1_w1", compiler.Config1.WithWidth(1)},
		{"IM", "Config9_w2", compiler.Config9.WithWidth(2)},
		{"SR", "Config1_w1", compiler.Config1.WithWidth(1)},
		{"SR", "Config5_w1", compiler.Config5.WithWidth(1)},
		{"SR", "Config9_w2", compiler.Config9.WithWidth(2)},
	}
	for _, c := range cases {
		b.Run(c.bench+"_"+c.config, func(b *testing.B) {
			s := fig7Schedules[c.bench]
			var r compiler.CountResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = compiler.Count(s, c.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Instructions), "instructions")
			b.ReportMetric(r.OpsPerBundle(), "ops/bundle")
		})
	}
}

func BenchmarkFig7_FullSweep(b *testing.B) {
	var tab *dse.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = dse.Run(256)
		if err != nil {
			b.Fatal(err)
		}
	}
	if r, err := tab.Reduction("RB", "Config1", 1, "Config1", 4); err == nil {
		b.ReportMetric(100*r, "RB_w4_reduction_%")
	}
	if c, ok := tab.Lookup("RB", "Config9", 2); ok {
		b.ReportMetric(c.Result.OpsPerBundle(), "RB_ops/bundle")
	}
}

// --- Fig. 8: binary format ---

func BenchmarkFig8_EncodeDecode(b *testing.B) {
	cfg := isa.DefaultConfig()
	instrs := []isa.Instr{
		{Op: isa.OpSMIS, Addr: 7, Mask: isa.QubitMask(0, 2)},
		{Op: isa.OpSMIT, Addr: 3, Mask: 1},
		{Op: isa.OpQWAIT, Imm: 10000},
		isa.NewBundle(1, isa.QOp{Name: "X90", Target: 0}, isa.QOp{Name: "X", Target: 2}),
		{Op: isa.OpFMR, Rd: 1, Qi: 1},
		{Op: isa.OpBR, Cond: isa.CondEQ, Imm: 3},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, ins := range instrs {
			w, err := isa.Encode(ins, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := isa.Decode(w, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Table 1: the full instruction set through the assembler ---

const table1Program = `
start:
LDI R0, 1
LDUI R1, 100, R0
CMP R0, R1
FBR LT, R2
ADD R3, R0, R1
SUB R4, R1, R0
AND R5, R0, R1
OR R6, R0, R1
XOR R7, R0, R1
NOT R8, R0
ST R3, R0(16)
LD R9, R0(16)
SMIS S0, {0}
SMIS S2, {2}
SMIS S7, {0, 2}
SMIT T0, {(2, 0)}
QWAIT 100
QWAITR R0
X S0
1, X90 S0 | Y90 S2
CZ T0
2, MEASZ S7
QWAIT 50
FMR R10, Q0
CMP R10, R0
BR NEVER, start
NOP
STOP
`

func BenchmarkTable1_Assembler(b *testing.B) {
	a := asm.New(isa.DefaultConfig(), topology.TwoQubit())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Assemble(table1Program); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Execution(b *testing.B) {
	m, err := microarch.New(microarch.Config{
		Topo:     topology.TwoQubit(),
		OpConfig: isa.DefaultConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	a := asm.New(isa.DefaultConfig(), topology.TwoQubit())
	p, err := a.Assemble(table1Program)
	if err != nil {
		b.Fatal(err)
	}
	m.LoadProgram(p)
	var instrs int64
	for i := 0; i < b.N; i++ {
		m.Reset()
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		instrs = m.Stats().InstructionsExecuted
	}
	b.ReportMetric(float64(instrs), "instructions/run")
}

// --- Table 2: OpSel resolution ---

func BenchmarkTable2_OpSelResolve(b *testing.B) {
	m, err := microarch.New(microarch.Config{
		Topo:     topology.Surface7(),
		OpConfig: isa.DefaultConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	masks := []uint64{1 << 0, 1 << 9, 1<<0 | 1<<6, 1<<2 | 1<<4, 1 << 15}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, mask := range masks {
			if _, err := m.ResolveOpSelPair(mask); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig. 11: two-qubit AllXY ---

func BenchmarkFig11_AllXY(b *testing.B) {
	var r *experiments.AllXYResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunAllXY(experiments.AllXYOptions{
			Noise: experiments.CalibratedNoise(),
			Seed:  int64(i + 1),
			Shots: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxDeviation, "max_staircase_dev")
	b.ReportMetric(r.RMSDeviation, "rms_staircase_dev")
}

// --- Fig. 12: RB error versus gate interval ---

func BenchmarkFig12_RBTiming(b *testing.B) {
	for _, iv := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("interval_%dns", iv*20), func(b *testing.B) {
			var r *experiments.RBTimingResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = experiments.RunRBTiming(experiments.RBTimingOptions{
					Noise:           experiments.CalibratedNoise(),
					Seed:            int64(i + 1),
					IntervalsCycles: []int{iv},
					Lengths:         []int{1, 8, 16, 32, 64, 128},
					Randomizations:  6,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*r.Curves[0].ErrorPerGate, "error_%/gate")
		})
	}
}

// --- Section 5 feedback experiments ---

func BenchmarkActiveReset(b *testing.B) {
	var r *experiments.ResetResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunReset(experiments.ResetOptions{
			Noise: experiments.CalibratedNoise(),
			Seed:  int64(i + 1),
			Shots: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.P0, "P0_%")
}

func BenchmarkFeedbackLatency(b *testing.B) {
	var r *experiments.LatencyResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.MeasureLatencies()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.FastCondNs), "fastcond_ns")
	b.ReportMetric(float64(r.CFCNs), "cfc_ns")
}

func BenchmarkCFCVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCFC(experiments.CFCOptions{Rounds: 8})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Alternates {
			b.Fatal("CFC alternation failed")
		}
	}
}

func BenchmarkGroverTomography(b *testing.B) {
	var r *experiments.GroverResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunGrover(experiments.GroverOptions{
			Noise:           experiments.CalibratedNoise(),
			Seed:            int64(i + 1),
			Marked:          3,
			ShotsPerSetting: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.Fidelity, "fidelity_%")
}

func BenchmarkIQPE(b *testing.B) {
	var r *experiments.IQPEResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunIQPE(experiments.IQPEOptions{
			Noise:          experiments.CalibratedNoise(),
			Seed:           int64(i + 1),
			Bits:           3,
			PhaseNumerator: 5,
			Shots:          100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.SuccessRate, "exact_recovery_%")
}

// BenchmarkQECSOMQBenefit quantifies the Section 4.2 prediction that
// quantum error correction benefits most from SOMQ: repeated syndrome
// extraction on the surface-17 chip.
func BenchmarkQECSOMQBenefit(b *testing.B) {
	s, err := compiler.ASAP(benchmarks.QEC(20))
	if err != nil {
		b.Fatal(err)
	}
	var reduction float64
	for i := 0; i < b.N; i++ {
		plain, err1 := compiler.Count(s, compiler.Config5.WithWidth(1))
		somq, err2 := compiler.Count(s, compiler.Config9.WithWidth(1))
		if err1 != nil || err2 != nil {
			b.Fatal(err1, err2)
		}
		reduction = 1 - float64(somq.Instructions)/float64(plain.Instructions)
	}
	b.ReportMetric(100*reduction, "somq_reduction_%")
}

// --- Baseline: QuMIS information density (Sections 1.2 / 2.4) ---

func BenchmarkQuMISBaseline(b *testing.B) {
	s := fig7Schedules["RB"]
	var r qumis.CompareResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = qumis.CompareWithEQASM(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.QuMIS), "qumis_instructions")
	b.ReportMetric(float64(r.EQASM), "eqasm_instructions")
	b.ReportMetric(100*r.Reduction, "reduction_%")
}

// --- Substrate microbenchmarks ---

func BenchmarkStateVectorGate(b *testing.B) {
	s := quantum.NewState(10, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Apply1(quantum.GateX90, i%10)
	}
}

func BenchmarkStateVectorCZ(b *testing.B) {
	s := quantum.NewState(10, rand.New(rand.NewSource(1)))
	for i := 0; i < b.N; i++ {
		s.ApplyCZ(i%9, (i+1)%9+1)
	}
}

func BenchmarkDensityMatrixGate(b *testing.B) {
	d := quantum.NewDensity(4)
	for i := 0; i < b.N; i++ {
		d.Apply1(quantum.GateX90, i%4)
	}
}

func BenchmarkMicroarchRBThroughput(b *testing.B) {
	m, err := microarch.New(microarch.Config{
		Topo:     topology.TwoQubit(),
		OpConfig: isa.DefaultConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	// A 512-gate single-qubit stream, back to back.
	rng := rand.New(rand.NewSource(9))
	prog := &isa.Program{Labels: map[string]int{}}
	prog.Instrs = append(prog.Instrs, isa.Instr{Op: isa.OpSMIS, Addr: 0, Mask: 1})
	names := []string{"X", "Y", "X90", "Y90", "Xm90", "Ym90"}
	for i := 0; i < 512; i++ {
		prog.Instrs = append(prog.Instrs, isa.NewBundle(1, isa.QOp{Name: names[rng.Intn(len(names))], Target: 0}))
	}
	prog.Instrs = append(prog.Instrs, isa.Instr{Op: isa.OpSTOP})
	m.LoadProgram(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	ops := float64(m.Stats().QuantumOpsTriggered)
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

func BenchmarkTomographyMLE(b *testing.B) {
	d := quantum.NewDensity(2)
	d.Apply1(quantum.Hadamard, 0)
	d.ApplyCZ(0, 1)
	d.Depolarize2(0, 1, 0.1)
	expect := map[string]float64{}
	for _, p := range quantum.PauliStrings(2) {
		expect[string(p)] = d.ExpectationPauli(p)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rho := quantum.LinearInversion(2, expect)
		quantum.MLEProject(rho)
	}
}

// --- Serving layer: the concurrent execution service ---

// BenchmarkServiceShotsPerSec measures end-to-end shot throughput of the
// Bell program under three regimes: the pre-service status quo (each
// request assembles and builds its own machine, then runs shots
// serially, as cmd/eqasm-run does), a warm single machine, and the
// service fanning shot batches over a worker pool with its program
// cache and machine pool. The service rows scale with cores: on a
// multi-core box they beat both serial baselines, on a single-CPU
// cgroup they track the warm baseline to within scheduling overhead.
func BenchmarkServiceShotsPerSec(b *testing.B) {
	const shots = 512
	src := service.SmokePrograms()["bell"]

	b.Run("serial_coldstart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := core.NewSystem(core.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Load(src); err != nil {
				b.Fatal(err)
			}
			if err := sys.RunShots(shots, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*shots/b.Elapsed().Seconds(), "shots/s")
	})
	b.Run("serial_1machine", func(b *testing.B) {
		sys, err := core.NewSystem(core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Load(src); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.RunShots(shots, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*shots/b.Elapsed().Seconds(), "shots/s")
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("service_%dworkers", workers), func(b *testing.B) {
			svc, err := service.New(service.Config{
				Workers:    workers,
				QueueDepth: 65536,
				BatchShots: 64,
				Machine:    []eqasm.Option{eqasm.WithSeed(1)},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runService(context.Background(), svc, service.RequestSpec{Source: src, Shots: shots})
				if err != nil {
					b.Fatal(err)
				}
				if res.Shots != shots {
					b.Fatalf("ran %d shots", res.Shots)
				}
			}
			b.ReportMetric(float64(b.N)*shots/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkServiceSubmitLatency measures the submit-to-result round trip
// of a minimal single-shot job once its program is cache-resident.
func BenchmarkServiceSubmitLatency(b *testing.B) {
	svc, err := service.New(service.Config{
		Workers:    2,
		QueueDepth: 65536,
		Machine:    []eqasm.Option{eqasm.WithSeed(1)},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	src := service.SmokePrograms()["flip"]
	// Warm the program cache so the loop measures queue + dispatch.
	if _, err := runService(context.Background(), svc, service.RequestSpec{Source: src}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runService(context.Background(), svc, service.RequestSpec{Source: src}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/job")
}

// cqasmSource renders a compiler circuit as cQASM subset text (the
// inverse of the front end, for benchmark inputs).
func cqasmSource(b *testing.B, c *compiler.Circuit) string {
	b.Helper()
	names := map[string]string{
		"I": "i", "X": "x", "Y": "y", "Z": "z", "H": "h", "S": "s", "T": "t",
		"X90": "x90", "Y90": "y90", "Xm90": "mx90", "Ym90": "my90",
		"CZ": "cz", "CNOT": "cnot", "MEASZ": "measure",
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "version 1.0\nqubits %d\n", c.NumQubits)
	for _, g := range c.Gates {
		name, ok := names[g.Name]
		if !ok {
			b.Fatalf("gate %q has no cQASM spelling", g.Name)
		}
		if g.IsTwoQubit() {
			fmt.Fprintf(&sb, "%s q[%d], q[%d]\n", name, g.Qubits[0], g.Qubits[1])
		} else {
			fmt.Fprintf(&sb, "%s q[%d]\n", name, g.Qubits[0])
		}
	}
	return sb.String()
}

// BenchmarkCompileCircuit measures the compile-side serving cost the
// cQASM front end adds: parsing alone, and the full parse + pass
// pipeline (validate, schedule, SOMQ packing, register allocation, ts3
// timing lowering, emit) on a surface-17-sized syndrome-extraction
// workload. Gates/s is the capacity figure for sizing a service that
// accepts format "cqasm" jobs (recorded baselines: see cmd/README.md).
func BenchmarkCompileCircuit(b *testing.B) {
	qec := benchmarks.QEC(10)
	src := cqasmSource(b, qec)
	gates := float64(len(qec.Gates))
	opts := []eqasm.Option{eqasm.WithTopology("surface17"), eqasm.WithSOMQ()}
	if _, err := eqasm.CompileCircuit(src, opts...); err != nil {
		b.Fatal(err)
	}
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eqasm.ParseCircuit(src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*gates/b.Elapsed().Seconds(), "gates/s")
	})
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eqasm.CompileCircuit(src, opts...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*gates/b.Elapsed().Seconds(), "gates/s")
	})
}

// openqasmSource renders a compiler circuit as OpenQASM 2.0 text, the
// same workload cqasmSource spells in the other front-end syntax.
func openqasmSource(b *testing.B, c *compiler.Circuit) string {
	b.Helper()
	names := map[string]string{
		"I": "id", "X": "x", "Y": "y", "Z": "z", "H": "h", "S": "s", "T": "t",
		"CZ": "cz", "CNOT": "cx",
	}
	measures := 0
	for _, g := range c.Gates {
		if g.Measure {
			measures++
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "OPENQASM 2.0;\nqreg q[%d];\ncreg c[%d];\n", c.NumQubits, measures)
	bit := 0
	for _, g := range c.Gates {
		switch {
		case g.Measure:
			fmt.Fprintf(&sb, "measure q[%d] -> c[%d];\n", g.Qubits[0], bit)
			bit++
		case g.IsTwoQubit():
			name, ok := names[g.Name]
			if !ok {
				b.Fatalf("gate %q has no OpenQASM spelling", g.Name)
			}
			fmt.Fprintf(&sb, "%s q[%d], q[%d];\n", name, g.Qubits[0], g.Qubits[1])
		default:
			name, ok := names[g.Name]
			if !ok {
				b.Fatalf("gate %q has no OpenQASM spelling", g.Name)
			}
			fmt.Fprintf(&sb, "%s q[%d];\n", name, g.Qubits[0])
		}
	}
	return sb.String()
}

// BenchmarkParseOpenQASM measures the compile-side serving cost the
// OpenQASM front end adds, on the same surface-17-sized
// syndrome-extraction workload as BenchmarkCompileCircuit: parsing
// alone, and the full parse + pass pipeline. Gates/s is the capacity
// figure for sizing a service that accepts format "openqasm" jobs,
// directly comparable against the cqasm baseline (recorded baselines:
// see cmd/README.md).
func BenchmarkParseOpenQASM(b *testing.B) {
	qec := benchmarks.QEC(10)
	src := openqasmSource(b, qec)
	gates := float64(len(qec.Gates))
	opts := []eqasm.Option{eqasm.WithTopology("surface17"), eqasm.WithSOMQ()}
	if _, err := eqasm.CompileOpenQASM(src, opts...); err != nil {
		b.Fatal(err)
	}
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eqasm.ParseOpenQASM(src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*gates/b.Elapsed().Seconds(), "gates/s")
	})
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eqasm.CompileOpenQASM(src, opts...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*gates/b.Elapsed().Seconds(), "gates/s")
	})
}

// BenchmarkPublicAPIRunShots compares the public eqasm Backend facade
// against the raw core shot loop it wraps, shot for shot on the same
// program and seed: the facade (pooled machines, context checks, typed
// errors, histogram aggregation) must add no measurable per-shot
// overhead over core.RunShots.
func BenchmarkPublicAPIRunShots(b *testing.B) {
	const shots = 256
	src := service.SmokePrograms()["bell"]

	b.Run("core_RunShots", func(b *testing.B) {
		sys, err := core.NewSystem(core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Load(src); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hist := map[string]int{}
			err := sys.RunShots(shots, func(_ int, m *microarch.Machine) {
				key := ""
				for _, r := range m.Measurements() {
					key += fmt.Sprint(r.Result)
				}
				hist[key]++
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*shots/b.Elapsed().Seconds(), "shots/s")
	})
	b.Run("backend_Run", func(b *testing.B) {
		prog, err := eqasm.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := eqasm.NewSimulator(eqasm.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(ctx, prog, eqasm.RunOptions{Shots: shots})
			if err != nil {
				b.Fatal(err)
			}
			if res.Shots != shots {
				b.Fatalf("ran %d shots", res.Shots)
			}
		}
		b.ReportMetric(float64(b.N)*shots/b.Elapsed().Seconds(), "shots/s")
	})
}

// BenchmarkPlanVsInterpreter measures the decode-once refactor
// directly: the same shipped fixtures, shot for shot on one machine,
// first re-interpreting isa.Instr every shot (the pre-plan hot path,
// kept as the semantic reference), then replaying the pre-lowered
// plan.Executable with kernel-specialized gates. The two paths are
// bit-identical at a fixed seed (plan_parity_test.go); this benchmark
// exists to show the plan path's shots/s ≥ 1.5× the interpreter's.
func BenchmarkPlanVsInterpreter(b *testing.B) {
	const shots = 256
	for _, name := range []string{"bell", "loop", "active_reset"} {
		src, err := os.ReadFile(filepath.Join("testdata", "programs", name+".eqasm"))
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.NewSystem(core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := sys.Asm.Assemble(string(src))
		if err != nil {
			b.Fatal(err)
		}
		ex, err := plan.Build(prog, sys.Topo, sys.OpConfig)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sys.RunShots(shots, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*shots/b.Elapsed().Seconds(), "shots/s")
		}
		b.Run(name+"/interpreter", func(b *testing.B) {
			sys.LoadInterpreted(prog)
			b.ResetTimer()
			run(b)
		})
		b.Run(name+"/plan", func(b *testing.B) {
			if err := sys.LoadPlan(ex); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			run(b)
		})
	}
}

// BenchmarkFusion measures plan-time gate fusion on the shipped
// non-Clifford fixtures: the same program at the same seed, fusion on
// versus off, in shots/s. The state-vector backend pays one pass over
// 2^n amplitudes per kernel, so the win tracks the fraction of gate
// sites fusion elides. rz_chain16 is the headline workload: its 23
// single-qubit layers over 16 qubits coalesce into eight fused 4×4
// kernels around the CZ layer.
func BenchmarkFusion(b *testing.B) {
	cases := []struct {
		name  string
		shots int
	}{
		{"t_ladder", 256},
		{"rz_ladder", 256},
		// 2^16 amplitudes per pass: a few shots per iteration suffice.
		{"rz_chain16", 8},
	}
	ctx := context.Background()
	for _, tc := range cases {
		data, err := os.ReadFile(filepath.Join("testdata", "programs", tc.name+".eqasm"))
		if err != nil {
			b.Fatal(err)
		}
		src := string(data)
		copts := fixtureSimOptions(src)
		sim, err := eqasm.NewSimulator(append([]eqasm.Option{eqasm.WithSeed(1)}, copts...)...)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := eqasm.Assemble(src, copts...)
		if err != nil {
			b.Fatal(err)
		}
		for _, fusion := range []string{eqasm.FusionOn, eqasm.FusionOff} {
			b.Run(tc.name+"/fusion_"+fusion, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(ctx, prog, eqasm.RunOptions{
						Shots:   tc.shots,
						Backend: eqasm.BackendStateVector,
						Fusion:  fusion,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Shots != tc.shots {
						b.Fatalf("ran %d shots", res.Shots)
					}
				}
				b.ReportMetric(float64(b.N)*float64(tc.shots)/b.Elapsed().Seconds(), "shots/s")
			})
		}
	}
}

// BenchmarkBatchSubmit measures the job layer's batch amortization:
// K programs submitted as one Submit batch versus K sequential Run
// calls, in requests/s. Locally the batch saves per-call job plumbing
// (one driver goroutine and one handle for K requests); against the
// HTTP service it additionally collapses K round-trips and K queue
// admissions into one, which is the Fig. 4 operator pattern.
func BenchmarkBatchSubmit(b *testing.B) {
	const (
		kRequests = 8
		shots     = 64
	)
	progs := service.SmokePrograms()
	names := []string{"bell", "flip", "active_reset"}
	reqs := make([]eqasm.RunRequest, kRequests)
	for i := range reqs {
		prog, err := eqasm.Assemble(progs[names[i%len(names)]])
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = eqasm.RunRequest{
			Program: prog,
			Options: eqasm.RunOptions{Shots: shots, Seed: int64(i + 1)},
		}
	}
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("batch_Submit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			job, err := sim.Submit(ctx, reqs...)
			if err != nil {
				b.Fatal(err)
			}
			results, err := job.Wait(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != kRequests || results[0].Shots != shots {
				b.Fatalf("batch results = %d", len(results))
			}
		}
		b.ReportMetric(float64(b.N)*kRequests/b.Elapsed().Seconds(), "requests/s")
	})
	b.Run("sequential_Run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				res, err := sim.Run(ctx, req.Program, req.Options)
				if err != nil {
					b.Fatal(err)
				}
				if res.Shots != shots {
					b.Fatalf("ran %d shots", res.Shots)
				}
			}
		}
		b.ReportMetric(float64(b.N)*kRequests/b.Elapsed().Seconds(), "requests/s")
	})
}

// --- Backend comparison: state vector vs stabilizer tableau ---

// BenchmarkBackendShotsPerSec measures end-to-end shot throughput of
// every shipped smoke fixture on both forced chip-simulation backends
// through the public Simulator (Workers 1, so rows compare kernel
// cost, not fan-out). The fixtures are Clifford-only, so the rows are
// directly comparable; the tableau also scales to chips the state
// vector cannot represent (see BenchmarkTableauGates in
// internal/stabilizer).
func BenchmarkBackendShotsPerSec(b *testing.B) {
	const shots = 512
	ctx := context.Background()
	sim, err := eqasm.NewSimulator(eqasm.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	progs := service.SmokePrograms()
	for _, name := range []string{"bell", "active_reset", "flip"} {
		prog, err := eqasm.Assemble(progs[name])
		if err != nil {
			b.Fatal(err)
		}
		for _, backend := range []string{eqasm.BackendStateVector, eqasm.BackendStabilizer} {
			b.Run(name+"/"+backend, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(ctx, prog, eqasm.RunOptions{
						Shots: shots, Workers: 1, Backend: backend,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Shots != shots || res.Backend != backend {
						b.Fatalf("ran %d shots on %q", res.Shots, res.Backend)
					}
				}
				b.ReportMetric(float64(b.N)*shots/b.Elapsed().Seconds(), "shots/s")
			})
		}
	}
}

// BenchmarkGHZ1024Shot measures one full shot of the 1024-qubit GHZ
// demo (examples/ghz1024) through the Simulator: 1023 tableau CNOTs
// plus a 1024-qubit measurement sweep per shot, far beyond any
// state-vector size.
func BenchmarkGHZ1024Shot(b *testing.B) {
	const n = 1024
	opts := []eqasm.Option{eqasm.WithTopology("chain1024"), eqasm.WithSeed(7)}
	var src strings.Builder
	src.WriteString("SMIS S0, {0}\nSMIS S1, {")
	for i := 0; i < n; i++ {
		if i > 0 {
			src.WriteString(", ")
		}
		fmt.Fprintf(&src, "%d", i)
	}
	src.WriteString("}\nQWAIT 100\nH S0\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&src, "SMIT T0, {(%d, %d)}\n2, CNOT T0\n", i, i+1)
	}
	src.WriteString("2, MEASZ S1\nQWAIT 50\nSTOP\n")
	prog, err := eqasm.Assemble(src.String(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := eqasm.NewSimulator(opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(ctx, prog, eqasm.RunOptions{Shots: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Backend != eqasm.BackendStabilizer {
			b.Fatalf("backend %q", res.Backend)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "shots/s")
}

// sweepAnsatz renders a layered VQE-style trial circuit on the
// twoqubit chip's (0, 2) pair: the shape of a real sweep workload.
// With theta set, the rx angle is baked in as a literal; with it
// empty, the circuit is parametric in %theta.
func sweepAnsatz(layers int, theta string) string {
	var src strings.Builder
	src.WriteString("qubits 3\n")
	angle := "%theta"
	if theta != "" {
		angle = theta
	}
	for i := 0; i < layers; i++ {
		fmt.Fprintf(&src, "rx q[0], %s\nry q[2], %s\ncnot q[0], q[2]\n", angle, angle)
	}
	src.WriteString("measure q[0,2]\n")
	return src.String()
}

// BenchmarkParamSweep measures the parametric-sweep win of plan-level
// parameter binding: a 1000-point rx sweep submitted as one batch of
// Params bindings over a single compiled plan (each point patches the
// plan's rotation slots — a handful of 2x2 matrix builds) versus the
// old workflow of recompiling the circuit per point with the angle
// baked in as a literal. Reported in points/s.
func BenchmarkParamSweep(b *testing.B) {
	const points = 1000
	const shots = 1
	const layers = 48
	grid := make([]float64, points)
	for i := range grid {
		grid[i] = 2 * math.Pi * float64(i) / points
	}
	ctx := context.Background()

	b.Run("patched", func(b *testing.B) {
		sim, err := eqasm.NewSimulator(eqasm.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		prog, err := eqasm.CompileCircuit(sweepAnsatz(layers, ""))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reqs := make([]eqasm.RunRequest, points)
			for j, theta := range grid {
				reqs[j] = eqasm.RunRequest{
					Program: prog,
					Options: eqasm.RunOptions{Shots: shots, Seed: 1},
					Params:  map[string]float64{"theta": theta},
				}
			}
			job, err := sim.Submit(ctx, reqs...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := job.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*points/b.Elapsed().Seconds(), "points/s")
	})

	b.Run("recompiled", func(b *testing.B) {
		sim, err := eqasm.NewSimulator(eqasm.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, theta := range grid {
				prog, err := eqasm.CompileCircuit(sweepAnsatz(layers, fmt.Sprintf("%v", theta)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(ctx, prog, eqasm.RunOptions{Shots: shots, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*points/b.Elapsed().Seconds(), "points/s")
	})
}

// BenchmarkPlanBind isolates the per-point bind cost: resolving a
// parameter map against a compiled plan's patch table (validation plus
// one rotation-matrix build and Clifford classification per slot).
func BenchmarkPlanBind(b *testing.B) {
	sys, err := core.NewSystem(core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := sys.Asm.Assemble(`
SMIS S0, {0}
QWAIT 100
RX(%theta) S0
RY(%phi) S0
MEASZ S0
QWAIT 50
STOP
`)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := plan.Build(prog, sys.Topo, sys.OpConfig)
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]float64{"theta": 1.1, "phi": 2.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Bind(params); err != nil {
			b.Fatal(err)
		}
	}
}
