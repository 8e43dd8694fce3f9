package compiler

import (
	"eqasm/internal/isa"
	"eqasm/internal/topology"
)

// Emitter generates executable eQASM from a schedule. It survives from
// the pre-pipeline compiler as a thin delegating wrapper: Emit drives
// the pack, mask-register allocation, timing-lowering and emit passes
// over the schedule's IR, so pre-pipeline callers (experiments,
// benchmarks, retargeting) compile unchanged while new code composes
// the passes directly or goes through NewPipeline.
type Emitter struct {
	Config *isa.OpConfig
	Topo   *topology.Topology
	Inst   isa.Instantiation
}

// NewEmitter builds an emitter for the default instantiation.
func NewEmitter(cfg *isa.OpConfig, topo *topology.Topology) *Emitter {
	return &Emitter{Config: cfg, Topo: topo, Inst: isa.Default}
}

// EmitOptions tunes executable generation.
type EmitOptions struct {
	// InitWaitCycles idles the chip before the first operation
	// (initialisation by relaxation; Fig. 3 uses 10000 cycles = 200 us).
	InitWaitCycles int
	// SOMQ combines same-name gates at a timing point into one operation.
	SOMQ bool
	// AppendStop terminates the program with STOP (default behaviour when
	// true).
	AppendStop bool
}

// Emit compiles a schedule into an executable eQASM program under the
// instantiation's adopted architecture (ts3 timing with its PI width
// and VLIW width).
func (e *Emitter) Emit(s *Schedule, opts EmitOptions) (*isa.Program, error) {
	arch := DefaultArch(e.Inst)
	arch.SOMQ = opts.SOMQ
	return e.EmitArch(s, arch, opts)
}

// EmitArch compiles a schedule under an explicit architecture: the
// timing-specification method, PI width, SOMQ and VLIW width become
// first-class knobs of the executable path (a zero WPI or VLIWWidth is
// filled from the instantiation; arch.SOMQ overrides opts.SOMQ).
func (e *Emitter) EmitArch(s *Schedule, arch Options, opts EmitOptions) (*isa.Program, error) {
	cfg := PipelineConfig{Config: e.Config, Topo: e.Topo, Inst: e.Inst, Arch: arch}
	narch, err := cfg.normalizeArch()
	if err != nil {
		return nil, err
	}
	p := s.ir()
	pl := (&Pipeline{}).Append(
		PassPack(e.Config, e.Topo, narch.SOMQ),
		PassAllocRegs(e.Inst),
		PassLowerTiming(narch, opts.InitWaitCycles),
		PassEmit(narch, opts.AppendStop),
	)
	if err := pl.Run(p); err != nil {
		return nil, err
	}
	return p.Code, nil
}

// regAlloc allocates target registers for mask values with LRU eviction.
type regAlloc struct {
	byMask  map[uint64]int
	lastUse map[int]int64
	size    int
	clock   int64
}

func newRegAlloc(size int) *regAlloc {
	return &regAlloc{byMask: map[uint64]int{}, lastUse: map[int]int64{}, size: size}
}

// get returns the register holding mask, allocating (fresh=true) when the
// mask is not resident.
func (a *regAlloc) get(mask uint64) (reg int, fresh bool) {
	a.clock++
	if r, ok := a.byMask[mask]; ok {
		a.lastUse[r] = a.clock
		return r, false
	}
	if len(a.byMask) < a.size {
		r := len(a.byMask)
		a.byMask[mask] = r
		a.lastUse[r] = a.clock
		return r, true
	}
	// Evict the least recently used register.
	victim, oldest := -1, int64(1<<62)
	for r, t := range a.lastUse {
		if t < oldest {
			victim, oldest = r, t
		}
	}
	for m, r := range a.byMask {
		if r == victim {
			delete(a.byMask, m)
			break
		}
	}
	a.byMask[mask] = victim
	a.lastUse[victim] = a.clock
	return victim, true
}

// splitMask chunks a bit mask into masks of at most maxBits set bits.
func splitMask(mask uint64, maxBits int) []uint64 {
	if maxBits <= 0 {
		maxBits = 1
	}
	var out []uint64
	var cur uint64
	n := 0
	for _, b := range isa.MaskQubits(mask) {
		cur |= 1 << uint(b)
		n++
		if n == maxBits {
			out = append(out, cur)
			cur, n = 0, 0
		}
	}
	if cur != 0 {
		out = append(out, cur)
	}
	return out
}
