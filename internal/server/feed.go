package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"powerroute/internal/sched"
)

// The daemon's price store lives in pricefeed.go: one flat history of
// per-cluster rows keyed by int64 instants. This file holds the binary
// batch wire format shared with the load generator and the shard
// coordinator.

// Binary batch bodies: the high-throughput ingest path the trace-replay
// load generator uses. A batch is one text header line followed by
// rows×cols little-endian float64s:
//
//	powerroute-batch v1 kind=<demand|prices> start=<unixnano> step=<ns> rows=<n> cols=<m> [hubs=<id,id,...>] [jobs=1] [gates=1]\n
//
// Demand columns are the fleet's states in order; price columns are the
// named hubs. On a demand batch, jobs=1 puts a deferrable-job block before
// each row's rates, and gates=1 puts one burst gate byte (0 closed, 1
// open) before everything else in the row: the fleet-wide bit a
// coordinator derives from the full row for the lease-fed shards it
// feeds. The header is self-describing, so a chunked replay can POST any
// number of batches back to back.
const (
	batchMagic = "powerroute-batch v1"

	// ContentTypeDemandBatch and ContentTypePricesBatch select the binary
	// batch parser on POST /v1/demand and /v1/prices.
	ContentTypeDemandBatch = "application/x-powerroute-demand-batch"
	ContentTypePricesBatch = "application/x-powerroute-prices-batch"

	// maxBatchRows bounds one batch body (a protective cap, not a
	// throughput limit — replays just send more batches).
	maxBatchRows = 1 << 20

	// maxBatchHeader bounds the header line, newline included: it is the
	// size of the buffered reader a batch is read through (OpenBatch). A
	// prices header names one hub per column, so it bounds their count.
	maxBatchHeader = 1 << 16

	// stageRows and stageCells cap what staging is sized for before any
	// row arrives (BatchHeader.StageRows): a header's dimensions are the
	// client's claim, so staging past them grows with the rows actually
	// read. stageRows is the replay's chunk and stageCells 1 MiB of
	// float64s, so a replayed batch, 29 hubs or 51 states wide, still
	// sizes its staging once.
	stageRows  = 2048
	stageCells = 1 << 17

	// MaxPriceBatchBody bounds the rows of a binary price batch, rows ×
	// cols × 8 bytes. Both daemons refuse a header declaring more with
	// 413 (OpenBatch) before reading a row.
	MaxPriceBatchBody = 1 << 30

	// maxJobsPerRow bounds the deferrable-job block a jobs=1 demand row
	// may carry (same protective role as maxBatchRows).
	maxJobsPerRow = 1 << 16

	// MaxJSONBody bounds every JSON ingest body (DecodeJSONBody): 6 MiB
	// plus 1 KiB. A JSON price post, or a demand post for one interval,
	// takes a few KiB; the rest is room for the deferrable jobs a demand
	// post may carry, tens of thousands of them at under 100 bytes each.
	MaxJSONBody = 6<<20 + 1<<10

	// wireJobBytes is the fixed encoded size of one WireJob record.
	wireJobBytes = 24
)

// BatchHeader is the parsed first line of a binary batch body. It is
// exported, with ParseBatchHeader, for the shard coordinator and the load
// generator, which split and re-emit batches along shard boundaries.
type BatchHeader struct {
	Kind  string
	Start time.Time
	Step  time.Duration
	Rows  int
	Cols  int
	Hubs  []string // Kind == "prices" only
	// Jobs marks a demand batch whose rows each carry a deferrable-job
	// block before the rate columns (header field jobs=1). Builds that
	// predate the batch class reject the unknown field loudly instead of
	// misparsing the body.
	Jobs bool
	// Gates marks a demand batch whose rows each start with a burst gate
	// byte, 0 or 1 (header field gates=1).
	Gates bool
}

// StageRows is the row count to size a batch's staging for before its
// rows arrive: the header's, capped at a replay chunk and at 1 MiB of
// cells.
func (h *BatchHeader) StageRows() int { return min(h.Rows, stageRows, stageCells/max(h.Cols, 1)) }

// ParseBatchHeader reads and validates one batch header line, refusing a
// line longer than 64 KiB, newline included.
func ParseBatchHeader(r *bufio.Reader) (*BatchHeader, error) {
	line, err := readHeaderLine(r)
	if err != nil {
		return nil, fmt.Errorf("server: reading batch header: %w", err)
	}
	line = strings.TrimSuffix(line, "\n")
	if !strings.HasPrefix(line, batchMagic+" ") {
		return nil, fmt.Errorf("server: batch header missing %q magic", batchMagic)
	}
	h := &BatchHeader{}
	for _, field := range strings.Fields(line[len(batchMagic)+1:]) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("server: malformed batch header field %q", field)
		}
		switch key {
		case "kind":
			h.Kind = val
		case "start":
			ns, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("server: batch start: %w", err)
			}
			h.Start = time.Unix(0, ns).UTC()
		case "step":
			ns, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("server: batch step: %w", err)
			}
			h.Step = time.Duration(ns)
		case "rows":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("server: batch rows: %w", err)
			}
			h.Rows = n
		case "cols":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("server: batch cols: %w", err)
			}
			h.Cols = n
		case "hubs":
			h.Hubs = strings.Split(val, ",")
		case "jobs":
			if val != "1" {
				return nil, fmt.Errorf("server: batch jobs flag %q (only jobs=1 is defined)", val)
			}
			h.Jobs = true
		case "gates":
			if val != "1" {
				return nil, fmt.Errorf("server: batch gates flag %q (only gates=1 is defined)", val)
			}
			h.Gates = true
		default:
			return nil, fmt.Errorf("server: unknown batch header field %q", key)
		}
	}
	if h.Kind != "demand" && h.Kind != "prices" {
		return nil, fmt.Errorf("server: batch kind %q", h.Kind)
	}
	// A missing start would silently anchor the batch at the Unix epoch —
	// and for prices there is no downstream alignment check to catch it.
	if h.Start.IsZero() {
		return nil, fmt.Errorf("server: batch header missing start")
	}
	if h.Rows <= 0 || h.Rows > maxBatchRows || h.Cols <= 0 {
		return nil, fmt.Errorf("server: batch dimensions %dx%d out of range", h.Rows, h.Cols)
	}
	if h.Step <= 0 {
		return nil, fmt.Errorf("server: non-positive batch step %v", h.Step)
	}
	// Every row's instant, start + i·step, must fit in int64 nanoseconds:
	// the price feed stores that unit, and a wrapped instant would break
	// chronology partway through a batch. MaxInt64 − start is exact as a
	// uint64 even for negative starts.
	if span := uint64(h.Rows - 1); span > 0 && uint64(h.Step) > (math.MaxInt64-uint64(h.Start.UnixNano()))/span {
		return nil, fmt.Errorf("server: batch of %d rows at step %v from %v runs past %v",
			h.Rows, h.Step, h.Start, maxFeedInstant)
	}
	if h.Kind == "demand" && h.Hubs != nil {
		return nil, errors.New("server: demand batch must not name hubs")
	}
	if h.Jobs && h.Kind != "demand" {
		return nil, fmt.Errorf("server: jobs flag on a %q batch (jobs ride demand batches)", h.Kind)
	}
	if h.Gates && h.Kind != "demand" {
		return nil, fmt.Errorf("server: gates flag on a %q batch (gate bits ride demand batches)", h.Kind)
	}
	if h.Kind == "prices" {
		if len(h.Hubs) != h.Cols {
			return nil, fmt.Errorf("server: %d hub names for %d price columns", len(h.Hubs), h.Cols)
		}
		// strings.Split never returns an empty slice, so "hubs=" yields
		// one empty name; and a duplicated hub (hubs=MISO,MISO) would let
		// the last column silently win the cluster assignment.
		seen := make(map[string]bool, len(h.Hubs))
		for _, hub := range h.Hubs {
			if hub == "" {
				return nil, errors.New("server: batch header has an empty hub name")
			}
			if seen[hub] {
				return nil, fmt.Errorf("server: batch header names hub %q twice", hub)
			}
			seen[hub] = true
		}
	}
	return h, nil
}

// readHeaderLine reads one line through r, newline included, and fails
// once it runs past maxBatchHeader bytes, whatever r's buffer size.
func readHeaderLine(r *bufio.Reader) (string, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		if len(line)+len(frag) > maxBatchHeader {
			return "", fmt.Errorf("header line exceeds %d bytes", maxBatchHeader)
		}
		line = append(line, frag...)
		if !errors.Is(err, bufio.ErrBufferFull) {
			return string(line), err
		}
	}
}

// decodeRows stages a whole batch body: rows×cols little-endian float64s
// decoded into one flat slice, one row at a time through the caller's
// buffered reader, rejecting NaN and ±Inf. The slice is sized for
// h.StageRows() rows and grows with the rows that arrive. On error the
// second return is the offending row (truncation reports the first
// incomplete row). Rows carrying non-finite values are rejected for the
// same reason the JSON path cannot express them: one poisoned sample
// would corrupt meters, p95 bills, and every checkpoint downstream.
func decodeRows(r io.Reader, h *BatchHeader) ([]float64, int, error) {
	flat := make([]float64, 0, h.StageRows()*h.Cols)
	b := make([]byte, h.Cols*8)
	for row := 0; row < h.Rows; row++ {
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, row, fmt.Errorf("server: batch body truncated: %w", err)
		}
		n := len(flat)
		flat = slices.Grow(flat, h.Cols)[:n+h.Cols]
		if err := DecodeRow(b, flat[n:]); err != nil {
			return nil, row, err
		}
	}
	return flat, 0, nil
}

// DecodeRow decodes one batch row of little-endian float64s from b into
// dst, rejecting NaN and ±Inf. Exported for the shard coordinator, which
// re-splits demand rows along shard boundaries.
func DecodeRow(b []byte, dst []float64) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("server: batch row is %d bytes for %d columns", len(b), len(dst))
	}
	for i := range dst {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("server: batch row has non-finite value in column %d", i)
		}
		dst[i] = v
	}
	return nil
}

// Write writes h as a batch header line, the one ParseBatchHeader reads
// back: the load generator, the shard coordinator and the daemon's tests
// all write headers through it, so every side shares one definition of
// the format.
func (h *BatchHeader) Write(w io.Writer) error {
	b := fmt.Appendf(nil, "%s kind=%s start=%d step=%d rows=%d cols=%d",
		batchMagic, h.Kind, h.Start.UnixNano(), int64(h.Step), h.Rows, h.Cols)
	if h.Kind == "prices" {
		b = append(append(b, " hubs="...), strings.Join(h.Hubs, ",")...)
	}
	if h.Jobs {
		b = append(b, " jobs=1"...)
	}
	if h.Gates {
		b = append(b, " gates=1"...)
	}
	_, err := w.Write(append(b, '\n'))
	return err
}

// WriteBatchHeader writes the header line of a batch with neither job
// blocks nor gate bytes (see BatchHeader.Write).
func WriteBatchHeader(w io.Writer, kind string, start time.Time, step time.Duration, rows, cols int, hubs []string) error {
	h := BatchHeader{Kind: kind, Start: start, Step: step, Rows: rows, Cols: cols, Hubs: hubs}
	return h.Write(w)
}

// AppendRow appends one row of little-endian float64s to b. Exported for
// the load generator.
func AppendRow(b []byte, row []float64) []byte {
	for _, v := range row {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// WireJob is the fixed-size wire form of one deferrable batch job riding
// a jobs=1 demand row: the home cluster's engine-local index, the
// deadline as steps after the row's interval, the job's energy, and its
// partial-execution floor.
type WireJob struct {
	Cluster       uint32
	DeadlineSteps uint32
	EnergyKWh     float64
	MinFraction   float64
}

// AppendJobs appends a row's job block to b: a uint32 count followed by
// the fixed-size records, all little-endian. Exported for the load
// generator; rows with no jobs append just the zero count.
func AppendJobs(b []byte, jobs []WireJob) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(jobs)))
	for _, j := range jobs {
		b = binary.LittleEndian.AppendUint32(b, j.Cluster)
		b = binary.LittleEndian.AppendUint32(b, j.DeadlineSteps)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(j.EnergyKWh))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(j.MinFraction))
	}
	return b
}

// Job converts the wire job into the scheduler's form for a row routed
// at step base. Like JobPost.Job it leaves admission to sim.CheckJob,
// which rejects an out-of-range cluster or a zero DeadlineSteps.
func (j WireJob) Job(base int) sched.Job {
	return sched.Job{
		Cluster:     int(j.Cluster),
		Arrival:     base,
		Deadline:    base + int(j.DeadlineSteps),
		EnergyKWh:   j.EnergyKWh,
		MinFraction: j.MinFraction,
	}
}

// ReadJobBlock reads one jobs=1 row's job block (a uint32 count, then
// that many WireJob records) and decodes the jobs into dst[:0]. buf is
// byte scratch, grown when a block outgrows it. Both come back for reuse.
// The daemon's demand path and the shard coordinator's splitter share
// it, so the block layout and the per-row cap are declared once.
func ReadJobBlock(r io.Reader, dst []WireJob, buf []byte) ([]WireJob, []byte, error) {
	dst = dst[:0]
	if cap(buf) < 4 {
		buf = make([]byte, 4, wireJobBytes)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return dst, buf, fmt.Errorf("server: batch body truncated: %v", err)
	}
	count := int(binary.LittleEndian.Uint32(buf[:4]))
	if count > maxJobsPerRow {
		return dst, buf, fmt.Errorf("%d jobs exceed the per-row cap", count)
	}
	n := count * wireJobBytes
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	b := buf[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return dst, buf, fmt.Errorf("server: batch body truncated: %v", err)
	}
	for i := 0; i < count; i++ {
		dst = append(dst, decodeWireJob(b[i*wireJobBytes:]))
	}
	return dst, buf, nil
}

// decodeWireJob decodes one fixed-size job record.
func decodeWireJob(b []byte) WireJob {
	return WireJob{
		Cluster:       binary.LittleEndian.Uint32(b),
		DeadlineSteps: binary.LittleEndian.Uint32(b[4:]),
		EnergyKWh:     math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		MinFraction:   math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
	}
}
