package core

import (
	"context"
	"math"
	"testing"

	"eqasm/internal/microarch"
	"eqasm/internal/quantum"
	"eqasm/internal/topology"
)

func TestSystemDefaults(t *testing.T) {
	s, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Topo.Name != "twoqubit" {
		t.Errorf("default topology = %q", s.Topo.Name)
	}
	if _, ok := s.OpConfig.ByName("MEASZ"); !ok {
		t.Error("default config missing MEASZ")
	}
}

func TestRunAssembly(t *testing.T) {
	s, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunAssembly(`
SMIS S0, {0}
X S0
MEASZ S0
STOP
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MeasuredBits()[0]; got != 1 {
		t.Fatalf("measured %d, want 1", got)
	}
}

func TestRunShotsStatistics(t *testing.T) {
	s, err := NewSystem(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load("SMIS S0, {0}\nX90 S0\nMEASZ S0\nSTOP"); err != nil {
		t.Fatal(err)
	}
	ones := 0
	const shots = 2000
	err = s.RunShots(shots, func(_ int, m *microarch.Machine) {
		recs := m.Measurements()
		if len(recs) != 1 {
			t.Fatalf("shot produced %d measurements", len(recs))
		}
		ones += recs[0].Result
	})
	if err != nil {
		t.Fatal(err)
	}
	p := float64(ones) / shots
	if math.Abs(p-0.5) > 0.05 {
		t.Fatalf("P(1) after X90 = %v, want ~0.5", p)
	}
}

func TestRunShotsWithoutProgram(t *testing.T) {
	s, err := NewSystem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunShots(1, nil); err == nil {
		t.Fatal("expected error without a program")
	}
}

func TestBinaryPath(t *testing.T) {
	s, err := NewSystem(Options{Topology: topology.Surface7()})
	if err != nil {
		t.Fatal(err)
	}
	words, err := s.Binary("SMIS S0, {0}\nX S0\nSTOP")
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 3 {
		t.Fatalf("words = %d", len(words))
	}
	if err := s.Machine.LoadBinary(words); err != nil {
		t.Fatal(err)
	}
	if err := s.Machine.Run(); err != nil {
		t.Fatal(err)
	}
	if p := s.Machine.Backend().Prob1(0); math.Abs(p-1) > 1e-9 {
		t.Fatalf("binary execution failed: P1 = %v", p)
	}
}

func TestNoiseWiring(t *testing.T) {
	s, err := NewSystem(Options{
		Noise:            quantum.NoiseModel{ReadoutError: 1}, // always flips
		Seed:             1,
		UseDensityMatrix: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAssembly("SMIS S0, {0}\nMEASZ S0\nSTOP"); err != nil {
		t.Fatal(err)
	}
	// Ground state read through a fully broken discriminator: always 1.
	if got := s.MeasuredBits()[0]; got != 1 {
		t.Fatalf("readout error not applied: got %d", got)
	}
}

// fanShots assembles src and runs it through SystemPool.FanShots,
// collecting every successful shot and returning the first failure.
func fanShots(opts Options, src string, shots, workers int, collect func(shot int, m *microarch.Machine)) error {
	// Resolve context defaults once, so the assembling system and the
	// pool's plans share one topology and configuration.
	opts = opts.withDefaults()
	sys, err := NewSystem(opts)
	if err != nil {
		return err
	}
	prog, err := sys.Asm.Assemble(src)
	if err != nil {
		return err
	}
	return NewSystemPool(opts).FanShots(context.Background(), prog, opts.Seed, shots, workers,
		func(shot int, m *microarch.Machine, runErr error) error {
			if runErr == nil && collect != nil {
				collect(shot, m)
			}
			return runErr
		})
}

func TestParallelShots(t *testing.T) {
	const shots = 400
	ones := 0
	seen := map[int]bool{}
	err := fanShots(Options{Seed: 11}, `
SMIS S0, {0}
X90 S0
MEASZ S0
STOP
`, shots, 4, func(shot int, m *microarch.Machine) {
		if seen[shot] {
			t.Errorf("shot %d collected twice", shot)
		}
		seen[shot] = true
		recs := m.Measurements()
		if len(recs) != 1 {
			t.Errorf("shot %d has %d measurements", shot, len(recs))
			return
		}
		ones += recs[0].Result
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != shots {
		t.Fatalf("collected %d shots, want %d", len(seen), shots)
	}
	p := float64(ones) / shots
	if math.Abs(p-0.5) > 0.1 {
		t.Fatalf("P(1) = %v, want ~0.5", p)
	}
}

func TestParallelShotsPropagatesErrors(t *testing.T) {
	// LD from a negative address faults every shot at runtime.
	err := fanShots(Options{}, "LDI R1, -8\nLD R2, R1(0)\nSTOP", 4, 2, nil)
	if err == nil {
		t.Fatal("faulting program ran clean")
	}
}

func TestParallelShotsWorkerClamping(t *testing.T) {
	count := 0
	err := fanShots(Options{}, "NOP\nSTOP", 3, 16, func(int, *microarch.Machine) {
		count++
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("collected %d, want 3", count)
	}
}
