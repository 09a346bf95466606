// Package journal is the admission server's crash-safe flight
// recorder: an append-only log of every accepted mutation and every
// published snapshot digest, with periodic full stream.Problem
// checkpoints, size-based segment rotation, a configurable fsync
// policy, and recovery that tolerates a torn tail record.
//
// The on-disk format is a directory of numbered segment files
// ("journal-00000000.wal", "journal-00000001.wal", ...). Each segment
// is a sequence of length-prefixed, CRC-framed JSON records:
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//
// and always begins with a header record naming the journal instance,
// the segment index, and an optional compiled-workload SHA-256 for
// provenance. A process killed mid-write leaves at most one partial
// frame at the tail of its last segment; readers detect it (length or
// CRC check fails) and drop it. Recovery then appends a fresh segment
// over the tear without rewriting old bytes, so a tear is tolerated
// both at the journal's overall tail and at the tail of any segment
// whose successor was opened by a different writer. A bad frame
// anywhere else is real corruption and fails the read: the writer
// syncs a segment before rotating, so nothing legitimate tears
// mid-history under a single writer.
//
// Three record kinds carry the decision trajectory:
//
//   - checkpoint: a full problem serialization at a revision. The
//     server writes one at boot (Restart=true, carrying its effective
//     solver parameters) and every CheckpointEvery accepted mutations.
//   - mutation: one accepted mutation batch — rev, wall+monotonic
//     time, operation kind, target, payload, and the decision trace ID.
//   - digest: one published snapshot — generation, rev, warm/cold,
//     iterations, convergence, utility, a hash of the admitted set,
//     and the admission flips it caused.
//
// A restart checkpoint opens a run; revisions restart with each run.
// Within a run, mutations lie in revision order. A periodic checkpoint
// is marshalled and appended in the background, so the checkpoint at
// rev M lands after mutation M, anywhere later within its run — after
// mutations M+1…M+k and their digests, too. Readers therefore key
// checkpoints by revision, never by position: Recover starts from the
// newest run's highest-revision checkpoint and applies that run's
// mutations of higher revision, and replay checks a checkpoint right
// after it applies the mutation of that revision.
//
// Because the solver is bitwise-deterministic (PR 4), replaying the
// mutations of a journal through a fresh server — one solve per
// recorded digest — must reproduce every digest exactly; internal/
// replay and cmd/replay turn that into a verification gate.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// Version is the on-disk format version stamped into segment headers.
const Version = 1

// Kind discriminates journal records.
type Kind string

// The record kinds.
const (
	KindHeader     Kind = "header"
	KindCheckpoint Kind = "checkpoint"
	KindMutation   Kind = "mutation"
	KindDigest     Kind = "digest"
)

// Record is one journal entry. Exactly one of Header, Checkpoint,
// Mutation, Digest is set, per Kind. The Writer stamps WallUnixNano
// and MonoNanos (nanoseconds since the writer opened) on append when
// they are zero, so records rewritten from an existing journal keep
// their original clocks.
type Record struct {
	Kind         Kind   `json:"kind"`
	Rev          int64  `json:"rev,omitempty"`
	WallUnixNano int64  `json:"wallUnixNano,omitempty"`
	MonoNanos    int64  `json:"monoNanos,omitempty"`
	Trace        string `json:"trace,omitempty"`

	Header     *Header     `json:"header,omitempty"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
	Mutation   *Mutation   `json:"mutation,omitempty"`
	Digest     *Digest     `json:"digest,omitempty"`
}

// Header opens every segment.
type Header struct {
	Version   int    `json:"version"`
	JournalID string `json:"journalId"` // random per Writer; ties segments of one run together
	Segment   int    `json:"segment"`
	// StreamSHA is the compiled workload's event-stream SHA-256 when
	// the journal was recorded by a loadgen drive — provenance linking
	// the journal to the exact scenario bytes that produced it.
	StreamSHA string `json:"streamSha,omitempty"`
}

// SolverParams are the server's effective solver knobs, recorded on
// restart checkpoints so a replay solves with identical arithmetic.
type SolverParams struct {
	Epsilon       float64 `json:"epsilon"`
	Eta           float64 `json:"eta"`
	MaxIters      int     `json:"maxIters"`
	StationaryTol float64 `json:"stationaryTol"`
	// Serving records the serving step mode (shard.Config.Serving).
	// Omitted — every journal from before the mode existed — means the
	// paper mode.
	Serving bool `json:"serving,omitempty"`
	// Momentum is the serving step's heavy-ball coefficient
	// (shard.Config.Momentum). Omitted — a paper-mode run, or a serving
	// one recorded before the step had momentum — means none.
	Momentum float64 `json:"momentum,omitempty"`

	// Shard topology of the recording server: shard count and placement
	// salt, so replay re-boots every run with the partition that
	// recorded it. Omitted fields (older journals) decode to one shard.
	Shards        int    `json:"shards,omitempty"`
	PlacementSalt uint64 `json:"placementSalt,omitempty"`
	// PriceExchangeEvery and PriceDamping are what journals recorded
	// before shards took turns: the cadence and γ of the damped Jacobi
	// exchange. New journals leave both out. They still decode and the
	// solver ignores them; replay reads PriceDamping only to refuse a
	// multi-shard run recorded under that exchange.
	PriceExchangeEvery int     `json:"priceExchangeEvery,omitempty"`
	PriceDamping       float64 `json:"priceDamping,omitempty"`
}

// Checkpoint is a full problem serialization at Record.Rev. Restart
// marks the first checkpoint of a server run (fresh boot or recovery);
// replay starts a fresh in-proc server there, and generations restart
// at 1 — matching what the real restarted server did. Non-restart
// checkpoints are recovery accelerators and replay cross-checks.
type Checkpoint struct {
	Problem json.RawMessage `json:"problem"`
	Restart bool            `json:"restart,omitempty"`
	Solver  *SolverParams   `json:"solver,omitempty"` // set on restart checkpoints
}

// Flip is one admitted↔rejected transition a generation caused, in
// snapshot commodity order.
type Flip struct {
	Commodity string `json:"commodity"`
	Admitted  bool   `json:"admitted"`
}

// Digest summarizes one published snapshot. Utility round-trips
// exactly through JSON (Go encodes the shortest representation that
// parses back to the same float64), so replay compares it with ==.
type Digest struct {
	Generation int64 `json:"generation"`
	Warm       bool  `json:"warm,omitempty"`
	Iterations int   `json:"iterations,omitempty"`
	Converged  bool  `json:"converged,omitempty"`
	// Drained marks a solve cut short by server shutdown: its
	// iteration count reflects when the drain landed, not solver
	// behavior, so replay verification skips the digest (it is always
	// the last of its run).
	Drained      bool    `json:"drained,omitempty"`
	Feasible     bool    `json:"feasible,omitempty"`
	Utility      float64 `json:"utility"`
	Commodities  int     `json:"commodities"`
	AdmittedHash string  `json:"admittedHash"`
	Flips        []Flip  `json:"flips,omitempty"`
}

// AdmittedEntry is one commodity's admitted rate, input to
// AdmittedHash.
type AdmittedEntry struct {
	Name string
	Rate float64
}

// AdmittedHash is the canonical hash of an admitted set: SHA-256 over
// name-sorted (name, exact float64 bits) pairs. Two snapshots hash
// equal iff every commodity's admitted rate is bit-identical.
func AdmittedHash(entries []AdmittedEntry) string {
	sorted := make([]AdmittedEntry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	h := sha256.New()
	var buf [8]byte
	for _, e := range sorted {
		_, _ = h.Write([]byte(e.Name))
		_, _ = h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Rate))
		_, _ = h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Framing constants.
const (
	frameHeaderLen = 8        // 4B length + 4B CRC32-C
	maxRecordBytes = 64 << 20 // sanity bound; a full checkpoint stays far below
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame renders one record as a framed byte slice.
func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("journal: record too large (%d bytes)", len(payload))
	}
	out := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, crcTable))
	copy(out[frameHeaderLen:], payload)
	return out, nil
}
