// Package server is the network serving layer for online sample streams:
// it multiplexes many concurrent client sessions over a shared set of
// sampleview.Views, speaking a length-prefixed binary frame protocol over
// TCP (or any net.Conn).
//
// The paper's product is an *online* sample stream — results that improve
// the longer the client listens — and that shape dictates the protocol:
// a client opens a view, opens any number of streams against it, pulls
// batches at its own pace, and cancels the moment its estimate is good
// enough. The server performs admission control (server-wide and
// per-connection stream caps, bounded batch sizes) so that heavy traffic
// degrades into typed rejections rather than unbounded buffering, reaps
// sessions that go idle on the simulated disk clock, and drains in-flight
// batches on shutdown.
//
// # Wire format
//
// Every message is one frame:
//
//	uint32 length (little endian)   payload length, including the type byte
//	uint8  type                     FrameType
//	...                             body, length-1 bytes
//
// A frame's length must be in [1, MaxFrame]; anything else is a protocol
// error and closes the connection. All integers are little endian; strings
// are uint16-length-prefixed UTF-8; records travel in their 100-byte
// storage encoding (internal/record); boxes as a dimension count followed
// by per-dimension [lo, hi] int64 pairs. Requests and responses alternate
// strictly on a connection: the server writes exactly one response frame
// per request frame, so a client may multiplex many streams over one
// connection with a single in-flight request.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// errFrameLength marks a length-prefix protocol violation, as opposed to a
// transport failure; the server's read loop counts only these as bad frames.
var errFrameLength = errors.New("server: frame length outside bounds")

// MaxFrame is the largest legal frame payload (type byte + body) in bytes.
// Decoders reject larger length prefixes before allocating, so a corrupt
// or hostile length cannot force a large allocation.
const MaxFrame = 1 << 20

// headerSize is the length prefix size in bytes.
const headerSize = 4

// FrameType identifies a frame's meaning. Client-to-server types are
// requests; server-to-client types are responses.
type FrameType uint8

const (
	// Client → server.
	FOpenView    FrameType = 0x01 // body: name — resolve a served view by name
	FOpenStream  FrameType = 0x02 // body: viewID, box — start an online sample stream
	FNextBatch   FrameType = 0x03 // body: streamID, max — pull up to max records
	FEstimate    FrameType = 0x04 // body: viewID, box — estimate matching-record count
	FCancel      FrameType = 0x05 // body: streamID — close a stream early
	FStats       FrameType = 0x06 // body: empty — snapshot server/session counters
	FListViews   FrameType = 0x07 // body: empty — enumerate servable views
	FAppend      FrameType = 0x08 // body: viewID, records — ingest into the live write path
	FDeleteRecs  FrameType = 0x09 // body: viewID, records — tombstone records in the write path
	FFlushView   FrameType = 0x0a // body: viewID — persist the memview as a delta level
	FSetTenant   FrameType = 0x0b // body: tenant — attribute this connection's quota usage to a tenant
	FReplicaInfo FrameType = 0x0c // body: empty — identify the replica and its live load

	// Server → client.
	FViewInfo          FrameType = 0x81 // body: viewID, dims, height, count
	FStreamOpened      FrameType = 0x82 // body: streamID
	FBatch             FrameType = 0x83 // body: streamID, eof, records
	FEstimateResult    FrameType = 0x84 // body: float64 count
	FCancelOK          FrameType = 0x85 // body: streamID
	FStatsResult       FrameType = 0x86 // body: encoded StatsSnapshot
	FViewList          FrameType = 0x87 // body: view-list entries (name, shape, health)
	FAppendOK          FrameType = 0x88 // body: viewID, records accepted
	FDeleteOK          FrameType = 0x89 // body: viewID, tombstones recorded
	FFlushOK           FrameType = 0x8a // body: viewID, buffered entries persisted
	FTenantOK          FrameType = 0x8b // body: tenant — per-tenant accounting now in effect
	FReplicaInfoResult FrameType = 0x8c // body: replica id, open streams, stream cap, draining flag
	FError             FrameType = 0xff // body: code, message
)

func (t FrameType) String() string {
	switch t {
	case FOpenView:
		return "OpenView"
	case FOpenStream:
		return "OpenStream"
	case FNextBatch:
		return "NextBatch"
	case FEstimate:
		return "Estimate"
	case FCancel:
		return "Cancel"
	case FStats:
		return "Stats"
	case FListViews:
		return "ListViews"
	case FAppend:
		return "Append"
	case FDeleteRecs:
		return "DeleteRecs"
	case FFlushView:
		return "FlushView"
	case FSetTenant:
		return "SetTenant"
	case FReplicaInfo:
		return "ReplicaInfo"
	case FViewInfo:
		return "ViewInfo"
	case FStreamOpened:
		return "StreamOpened"
	case FBatch:
		return "Batch"
	case FEstimateResult:
		return "EstimateResult"
	case FCancelOK:
		return "CancelOK"
	case FStatsResult:
		return "StatsResult"
	case FViewList:
		return "ViewList"
	case FAppendOK:
		return "AppendOK"
	case FDeleteOK:
		return "DeleteOK"
	case FFlushOK:
		return "FlushOK"
	case FTenantOK:
		return "TenantOK"
	case FReplicaInfoResult:
		return "ReplicaInfoResult"
	case FError:
		return "Error"
	default:
		return fmt.Sprintf("FrameType(0x%02x)", uint8(t))
	}
}

// AppendFrame appends one encoded frame carrying the given type and body to
// dst and returns the extended slice. It fails if the frame would exceed
// MaxFrame.
func AppendFrame(dst []byte, t FrameType, body []byte) ([]byte, error) {
	hdr, err := frameHeader(t, len(body))
	if err != nil {
		return dst, err
	}
	return append(append(dst, hdr[:]...), body...), nil
}

// frameHeader encodes the length prefix and type byte of a frame whose body
// is n bytes long.
func frameHeader(t FrameType, n int) ([headerSize + 1]byte, error) {
	var hdr [headerSize + 1]byte
	if n+1 > MaxFrame {
		return hdr, fmt.Errorf("server: frame payload %d bytes exceeds limit %d", n+1, MaxFrame)
	}
	binary.LittleEndian.PutUint32(hdr[:headerSize], uint32(n+1))
	hdr[headerSize] = byte(t)
	return hdr, nil
}

// WriteFrame writes one frame to w. A *bufio.Writer takes the header and
// the body as two writes into its buffer, so the body is copied once and
// no frame-sized buffer is allocated; any other writer receives the whole
// frame in a single Write, so a frame written straight to a connection
// never leaves in two pieces.
func WriteFrame(w io.Writer, t FrameType, body []byte) error {
	hdr, err := frameHeader(t, len(body))
	if err != nil {
		return err
	}
	if bw, ok := w.(*bufio.Writer); ok {
		// Staging the header in the writer's own free space keeps hdr off
		// the heap.
		if _, err = bw.Write(append(bw.AvailableBuffer(), hdr[:]...)); err == nil {
			_, err = bw.Write(body)
		}
	} else {
		frame := make([]byte, 0, len(hdr)+len(body))
		_, err = w.Write(append(append(frame, hdr[:]...), body...))
	}
	if err != nil {
		return fmt.Errorf("server: writing %v frame: %w", t, err)
	}
	return nil
}

// ReadFrame reads one frame from r. The returned body slice is freshly
// allocated (at most MaxFrame bytes — the length prefix is validated before
// allocating). io.EOF is returned untouched when the reader is exhausted at
// a frame boundary, so callers can distinguish a clean close from a torn
// frame (io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("server: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d outside [1, %d]", errFrameLength, n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("server: reading %d-byte frame payload: %w", n, err)
	}
	return FrameType(payload[0]), payload[1:], nil
}

// DecodeFrame decodes the first frame of b without copying: body aliases b,
// and rest is the remainder after the frame. The length prefix is validated
// against both MaxFrame and the bytes actually available, so DecodeFrame
// never allocates and never reads past b.
func DecodeFrame(b []byte) (t FrameType, body, rest []byte, err error) {
	if len(b) < headerSize {
		return 0, nil, nil, fmt.Errorf("server: truncated frame header: %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b[:headerSize])
	if n == 0 || n > MaxFrame {
		return 0, nil, nil, fmt.Errorf("%w: %d outside [1, %d]", errFrameLength, n, MaxFrame)
	}
	if uint32(len(b)-headerSize) < n {
		return 0, nil, nil, fmt.Errorf("server: frame length %d exceeds available %d bytes", n, len(b)-headerSize)
	}
	payload := b[headerSize : headerSize+int(n)]
	return FrameType(payload[0]), payload[1:], b[headerSize+int(n):], nil
}
