// Package core is the top-level facade of the eQASM reproduction: it
// wires the paper's full stack — operation configuration, assembler,
// QuMA_v2 microarchitecture and simulated quantum chip — into one System
// with assemble-and-run entry points, the way the host CPU of Fig. 1
// drives the quantum processor. The cmd/ tools and examples/ programs are
// thin wrappers around this package.
package core

import (
	"fmt"

	"eqasm/internal/asm"
	"eqasm/internal/isa"
	"eqasm/internal/microarch"
	"eqasm/internal/plan"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

// Options selects the chip, noise and instrumentation of a System.
type Options struct {
	// Topology is the quantum chip; defaults to the two-qubit validation
	// chip of Section 5.
	Topology *topology.Topology
	// OpConfig is the quantum operation configuration; defaults to the
	// Section 5 gate set.
	OpConfig *isa.OpConfig
	// Instantiation is the binary binding; defaults to the paper's 32-bit
	// seven-qubit instantiation (isa.Default). Alternative bindings such
	// as isa.Surface17Instantiation() widen masks or switch the SMIT
	// encoding.
	Instantiation isa.Instantiation
	// Noise parameterises the simulated chip; zero is ideal.
	Noise quantum.NoiseModel
	// Seed drives measurement sampling and trajectory noise.
	Seed int64
	// UseDensityMatrix selects the exact density-matrix chip simulator.
	UseDensityMatrix bool
	// UseStabilizer selects the Gottesman–Knill tableau simulator:
	// Clifford-only circuits at thousands of qubits, noiseless chips only.
	UseStabilizer bool
	// RecordDeviceOps enables the device-operation trace.
	RecordDeviceOps bool
	// MockMeasure substitutes scripted measurement results (CFC
	// verification mode).
	MockMeasure func(qubit, index int) int
	// Microarch overrides individual microarchitecture parameters; the
	// Topo/OpConfig/Noise/Seed fields of this nested config are ignored.
	Microarch microarch.Config
}

// System is an assembled eQASM machine: assembler + microarchitecture +
// chip, sharing one operation configuration (Section 3.2).
type System struct {
	Topo     *topology.Topology
	OpConfig *isa.OpConfig
	Asm      *asm.Assembler
	Machine  *microarch.Machine

	program *isa.Program
}

// withDefaults resolves the nil/zero context fields to the shared
// defaults, so Systems and plans built from the same Options share one
// instruction-set context.
func (o Options) withDefaults() Options {
	if o.Topology == nil {
		o.Topology = topology.TwoQubit()
	}
	if o.OpConfig == nil {
		o.OpConfig = isa.DefaultConfig()
	}
	if o.Instantiation.VLIWWidth == 0 {
		o.Instantiation = isa.Default
	}
	return o
}

// NewSystem builds a System.
func NewSystem(opts Options) (*System, error) {
	opts = opts.withDefaults()
	mcfg := opts.Microarch
	mcfg.Topo = opts.Topology
	mcfg.OpConfig = opts.OpConfig
	mcfg.Inst = opts.Instantiation
	mcfg.Noise = opts.Noise
	mcfg.Seed = opts.Seed
	mcfg.UseDensityMatrix = opts.UseDensityMatrix
	mcfg.UseStabilizer = opts.UseStabilizer
	mcfg.RecordDeviceOps = opts.RecordDeviceOps
	mcfg.MockMeasure = opts.MockMeasure
	m, err := microarch.New(mcfg)
	if err != nil {
		return nil, err
	}
	a := asm.New(opts.OpConfig, opts.Topology)
	a.Inst = opts.Instantiation
	return &System{
		Topo:     opts.Topology,
		OpConfig: opts.OpConfig,
		Asm:      a,
		Machine:  m,
	}, nil
}

// Load assembles source and uploads it to the instruction memory.
func (s *System) Load(src string) error {
	p, err := s.Asm.Assemble(src)
	if err != nil {
		return err
	}
	s.LoadProgram(p)
	return nil
}

// LoadProgram uploads an already-assembled program, lowering it once
// into a decode-once execution plan: repeated runs (shot loops) replay
// the pre-resolved plan instead of re-interpreting isa.Instr. When the
// plan cannot be built or loaded the machine falls back to the
// interpreter, which has identical semantics.
func (s *System) LoadProgram(p *isa.Program) {
	s.program = p
	ex, err := plan.Build(p, s.Topo, s.OpConfig)
	if err == nil {
		err = s.Machine.LoadPlan(ex)
	}
	if err != nil {
		s.Machine.LoadProgram(p)
	}
}

// LoadPlan uploads a pre-lowered execution plan (built once, shared
// read-only across machines).
func (s *System) LoadPlan(ex *plan.Executable) error {
	s.program = ex.Program()
	return s.Machine.LoadPlan(ex)
}

// LoadBoundPlan uploads a parametric plan together with the binding
// that patches its parameter slots; the underlying Executable stays
// shared read-only across every binding of a sweep.
func (s *System) LoadBoundPlan(b *plan.Binding) error {
	s.program = b.Plan().Program()
	return s.Machine.LoadBoundPlan(b)
}

// LoadInterpreted uploads an already-assembled program for interpreted
// execution, bypassing the plan layer. The interpreter re-resolves
// operations and masks on every run; it exists as the semantic
// reference the plan path is tested against (and for tooling that
// inspects raw instruction execution).
func (s *System) LoadInterpreted(p *isa.Program) {
	s.program = p
	s.Machine.LoadProgram(p)
}

// Program returns the loaded program.
func (s *System) Program() *isa.Program { return s.program }

// Run executes the loaded program once from the current machine state.
func (s *System) Run() error {
	return s.Machine.Run()
}

// RunAssembly assembles and executes source in one step.
func (s *System) RunAssembly(src string) error {
	if err := s.Load(src); err != nil {
		return err
	}
	return s.Run()
}

// RunShots re-executes the loaded program repeatedly from power-on state
// (Reset between shots; the random stream continues so outcomes vary),
// invoking collect after each successful shot.
func (s *System) RunShots(shots int, collect func(shot int, m *microarch.Machine)) error {
	if s.program == nil {
		return fmt.Errorf("core: no program loaded")
	}
	for i := 0; i < shots; i++ {
		s.Machine.Reset()
		if err := s.Machine.Run(); err != nil {
			return fmt.Errorf("core: shot %d: %w", i, err)
		}
		if collect != nil {
			collect(i, s.Machine)
		}
	}
	return nil
}

// SeedStride separates the random streams of sibling executions: worker
// w (or service batch w) runs at base seed + w*SeedStride.
const SeedStride = 1_000_003

// Reseed restarts the machine's random stream (backend permitting): the
// next Reset+Run sequence then reproduces a system freshly built with
// this seed. Machine pools use it to recycle simulator allocations.
func (s *System) Reseed(seed int64) bool { return s.Machine.Reseed(seed) }

// MeasuredBits returns the last run's measurement results as a bitmask
// keyed by qubit (the most recent result per qubit) plus the full record.
func (s *System) MeasuredBits() map[int]int {
	out := map[int]int{}
	for _, r := range s.Machine.Measurements() {
		out[r.Qubit] = r.Result
	}
	return out
}

// Binary assembles source straight to instruction words (host-side
// tooling path).
func (s *System) Binary(src string) ([]uint32, error) {
	return s.Asm.AssembleToBinary(src)
}
