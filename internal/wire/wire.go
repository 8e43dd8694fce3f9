// Package wire declares the request side of the eQASM serving tier's
// JSON protocol: the POST /v1/batches body and its request item. The
// public eqasm.Client encodes these types, both HTTP front ends
// (internal/httpapi's Server and BackendServer) decode them, and the
// coordinator journals the request item in its write-ahead log, so
// one request has one shape from the client to the journal.
//
// The JSON keys are a compatibility contract: journals written by
// earlier coordinators carry request items with the same keys and
// must keep replaying.
package wire

// Batch is the POST /v1/batches body: N program requests admitted,
// queued and retired as one job.
type Batch struct {
	// Requests are the programs to execute, each with its own shots,
	// seed and tag.
	Requests []Request `json:"requests"`
	// Priority orders the whole batch: "low", "normal" (default) or
	// "high".
	Priority string `json:"priority,omitempty"`
	// Wait makes the POST synchronous: the response carries the
	// terminal batch description instead of a queued-batch ticket.
	Wait bool `json:"wait,omitempty"`
}

// Request is one program execution of a batch. Exactly one of Source
// and Circuit must be set.
type Request struct {
	// Source is program text in the language named by Format.
	Source string `json:"source,omitempty"`
	// Format is the source language: "eqasm" (default), "cqasm" or
	// "openqasm" (circuit text compiled server-side).
	Format string `json:"format,omitempty"`
	// Circuit is a hardware-independent circuit to compile
	// server-side.
	Circuit *Circuit `json:"circuit,omitempty"`
	// Shots is the repetition count (default 1).
	Shots int `json:"shots,omitempty"`
	// Seed, when nonzero, fixes the request's random streams (must be
	// non-negative).
	Seed int64 `json:"seed,omitempty"`
	// Tag is an opaque caller label echoed back in statuses.
	Tag string `json:"tag,omitempty"`
	// Chip, when set, names the topology the program was built for;
	// the server rejects the request if it runs a different chip.
	Chip string `json:"chip,omitempty"`
	// Backend overrides the chip-simulation backend: "auto",
	// "statevector", "densitymatrix" or "stabilizer".
	Backend string `json:"backend,omitempty"`
	// Fusion overrides plan-time gate fusion: "on" or "off".
	Fusion string `json:"fusion,omitempty"`
	// Params binds the program's symbolic rotation parameters (name →
	// angle in radians).
	Params map[string]float64 `json:"params,omitempty"`
}

// Circuit is a hardware-independent gate list over NumQubits qubits.
type Circuit struct {
	Name      string `json:"name,omitempty"`
	NumQubits int    `json:"num_qubits"`
	Gates     []Gate `json:"gates"`
}

// Gate is one circuit-level operation on explicit qubits.
type Gate struct {
	Name           string  `json:"name"`
	Qubits         []int   `json:"qubits"`
	DurationCycles int     `json:"duration_cycles,omitempty"`
	Measure        bool    `json:"measure,omitempty"`
	Angle          float64 `json:"angle,omitempty"`
	Param          string  `json:"param,omitempty"`
}
