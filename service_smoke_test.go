// Service smoke tests: every shipped testdata program is a valid
// payload for the concurrent execution service, and the aggregated
// histograms reproduce the programs' documented outcomes.
package eqasm_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eqasm"
	"eqasm/internal/service"
)

// runService submits one request as a batch and waits for its result.
func runService(ctx context.Context, svc *service.Service, rs service.RequestSpec) (*service.Result, error) {
	job, err := svc.SubmitBatch(ctx, service.BatchSpec{Requests: []service.RequestSpec{rs}})
	if err != nil {
		return nil, err
	}
	return job.Wait(ctx)
}

func TestServiceRunsShippedPrograms(t *testing.T) {
	svc, err := service.New(service.Config{
		Workers:    4,
		BatchShots: 8,
		Machine:    []eqasm.Option{eqasm.WithSeed(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	entries, err := os.ReadDir(filepath.Join("testdata", "programs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no shipped programs")
	}
	const shots = 40
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			src := loadProgramFile(t, e.Name())
			svc := svc
			if topoOpts := fixtureSimOptions(src); topoOpts != nil {
				// Chip-directive fixtures need a service whose machines
				// are built on their chip.
				tsvc, err := service.New(service.Config{
					Workers:    2,
					BatchShots: 8,
					Machine:    append([]eqasm.Option{eqasm.WithSeed(4)}, topoOpts...),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer tsvc.Close()
				svc = tsvc
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := runService(ctx, svc, service.RequestSpec{Source: src, Shots: shots})
			if err != nil {
				t.Fatal(err)
			}
			if res.Shots != shots {
				t.Fatalf("ran %d shots, want %d", res.Shots, shots)
			}
			hist := res.Requests[0].Histogram
			total := 0
			for _, n := range hist {
				total += n
			}
			if total != shots {
				t.Fatalf("histogram sums to %d, want %d", total, shots)
			}
			switch e.Name() {
			case "bell.eqasm":
				// Correlated outcomes only.
				if hist["00"]+hist["11"] != shots {
					t.Fatalf("Bell histogram: %v", hist)
				}
			case "active_reset.eqasm":
				// The conditional flip always restores |0>.
				if hist["0"] != shots {
					t.Fatalf("reset histogram: %v", hist)
				}
			case "cfc.eqasm":
				// Qubit 2 reads 1, the EQ path flips qubit 0 to 1.
				if hist["11"] != shots {
					t.Fatalf("CFC histogram: %v", hist)
				}
			case "loop.eqasm":
				// The double flip returns qubit 0 to |0>.
				if hist["0"] != shots {
					t.Fatalf("loop histogram: %v", hist)
				}
			}
		})
	}
}
