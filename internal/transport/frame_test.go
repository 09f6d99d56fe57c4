package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// frameClient speaks the stage protocol on one raw connection.
type frameClient struct {
	conn  net.Conn
	codec *frameCodec
}

// dialFrames connects to a stage; the connection closes when t ends.
func dialFrames(t *testing.T, addr string) *frameClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &frameClient{conn: conn, codec: newFrameCodec(conn, frameLimit(cfg))}
}

// roundTrip sends req and returns the reply, whose Data is valid until
// the next call.
func (c *frameClient) roundTrip(t *testing.T, req *Request) Response {
	t.Helper()
	if err := c.codec.writeRequest(req); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := c.codec.readResponse(&resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// frameBytes is the length on the wire of a frame carrying rows × cols
// floats and no text, by the layout frame.go documents. The chaos tests
// check it against real traffic.
func frameBytes(rows, cols int) int64 { return frameHeaderSize + 4*int64(rows)*int64(cols) }

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzFrame feeds arbitrary bytes to the frame reader, as a request and
// as a response: each frame decodes or returns an error, never panics,
// and never grows the codec's buffers past one frame of the limit. It
// then builds a request and a response from the same bytes, payload bit
// patterns (NaNs included) and texts, and checks that each survives a
// write and a read exactly, in frameBytes bytes when it carries no text.
func FuzzFrame(f *testing.F) {
	const limit = 24
	valid := func(flags uint32, rows, cols int, text string) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 7)
		for _, v := range []uint32{3, uint32(rows), uint32(cols), flags, uint32(len(text)), 0} {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		for i := 0; i < rows*cols; i++ {
			b = binary.LittleEndian.AppendUint32(b, 0x7fc00001+uint32(i))
		}
		return append(b, text...)
	}
	f.Add([]byte{})
	f.Add(valid(0, 2, 3, ""))
	f.Add(valid(frameClose, 0, 0, ""))
	f.Add(valid(framePing, 1, limit, ""))
	f.Add(valid(0, 1, 2, "stale"))
	f.Add(valid(0, 5, 5, ""))      // payload past the limit
	f.Add(valid(0, 2, 3, "")[:40]) // cut inside the payload
	f.Add(valid(1<<7, 1, 1, ""))   // unknown flag
	f.Add(append(valid(0, 1, 1, ""), valid(0, 0, 0, "")...))
	f.Add(bytes.Repeat([]byte{0xff}, frameHeaderSize+8))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, asRequest := range []bool{true, false} {
			c := newFrameCodec(bytes.NewBuffer(b), limit)
			for {
				var err error
				if asRequest {
					var req Request
					err = c.readRequest(&req)
					if err == nil && req.Rows*req.Cols != len(req.Data) {
						t.Fatalf("request of %d floats for %dx%d", len(req.Data), req.Rows, req.Cols)
					}
				} else {
					var resp Response
					err = c.readResponse(&resp)
				}
				if cap(c.buf) > 4*limit+2*maxFrameText || cap(c.data) > limit {
					t.Fatalf("reader grew to %d bytes and %d floats", cap(c.buf), cap(c.data))
				}
				if err != nil {
					break
				}
			}
		}

		// Round trips built from the same bytes.
		var floats []float32
		for i := 12; i+4 <= len(b) && len(floats) < limit; i += 4 {
			floats = append(floats, math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		}
		rows, cols := 1, len(floats)
		if cols%2 == 0 && cols > 0 {
			rows, cols = 2, cols/2
		}
		var session uint64
		var offset int32
		var flags byte
		if len(b) >= 13 {
			session = binary.LittleEndian.Uint64(b)
			offset = int32(binary.LittleEndian.Uint32(b[8:]))
			flags = b[12]
		}
		var buf bytes.Buffer
		c := newFrameCodec(&buf, limit)
		req := Request{Session: session, Offset: int(offset), Rows: rows, Cols: cols, Data: floats,
			Close: flags&1 != 0, Ping: flags&2 != 0}
		if err := c.writeRequest(&req); err != nil {
			t.Fatal(err)
		}
		if n := int64(buf.Len()); n != frameBytes(rows, cols) {
			t.Fatalf("request frame of %d bytes, frameBytes says %d", n, frameBytes(rows, cols))
		}
		var gotReq Request
		if err := c.readRequest(&gotReq); err != nil {
			t.Fatal(err)
		}
		if gotReq.Session != req.Session || gotReq.Offset != req.Offset || gotReq.Rows != rows ||
			gotReq.Cols != cols || gotReq.Close != req.Close || gotReq.Ping != req.Ping || !sameBits(gotReq.Data, floats) {
			t.Fatalf("request %+v came back as %+v", req, gotReq)
		}
		text := string(b[:min(len(b), maxFrameText)])
		resp := Response{Rows: rows, Cols: cols, Data: floats, Err: text, Code: text[:len(text)/2]}
		if err := c.writeResponse(&resp); err != nil {
			t.Fatal(err)
		}
		var gotResp Response
		if err := c.readResponse(&gotResp); err != nil {
			t.Fatal(err)
		}
		if gotResp.Rows != rows || gotResp.Cols != cols || gotResp.Err != resp.Err ||
			gotResp.Code != resp.Code || !sameBits(gotResp.Data, floats) {
			t.Fatalf("response %+v came back as %+v", resp, gotResp)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d bytes left after the round trips", buf.Len())
		}
	})
}

// roundTripAllocs is the most allocations a steady decode round trip to
// a loopback stage may make, client and stage together: the frame codecs
// reuse their buffers and the stage's session reuses a closed session's
// KV cache and workspace, so it is zero.
const roundTripAllocs = 0

// TestStageRoundTripAllocs pins a steady decode round trip through a
// loopback StageServer to roundTripAllocs. A first session runs to 40
// positions and closes, leaving its cache idle on the connection; the
// measured session reuses it.
func TestStageRoundTripAllocs(t *testing.T) {
	s, err := NewStageServer(cfg, seed, nil, 0, cfg.Layers)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialFrames(t, addr)
	rng := stats.NewRNG(3)
	x := make([]float32, 8*cfg.Hidden)
	for i := range x {
		x[i] = float32(rng.NormMS(0, 1))
	}
	step := func(session uint64, pos, rows int) {
		req := Request{Session: session, Offset: pos, Rows: rows, Cols: cfg.Hidden, Data: x[:rows*cfg.Hidden]}
		if resp := c.roundTrip(t, &req); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	step(1, 0, 8)
	for pos := 8; pos < 40; pos++ {
		step(1, pos, 1)
	}
	c.roundTrip(t, &Request{Session: 1, Close: true})
	step(2, 0, 8)
	pos := 8
	allocs := testing.AllocsPerRun(20, func() {
		step(2, pos, 1)
		pos++
	})
	if allocs > roundTripAllocs {
		t.Fatalf("a decode round trip allocates %v times, want at most %d", allocs, roundTripAllocs)
	}
}

// TestDriversShareStage: two drivers generate on one chain at the same
// time. A request hook on the first stage holds the first prefill until
// the second arrives, so both sessions are open on both stages at once;
// drivers that drew the same session id would collide there. Both
// generations must equal Reference.
func TestDriversShareStage(t *testing.T) {
	var prefills atomic.Int64
	// stop frees a held prefill if the test ends before the second
	// arrives, so closing the stage cannot wait on the hook forever.
	second, stop := make(chan struct{}), make(chan struct{})
	var servers []*StageServer
	var addrs []string
	for i, c := range [][2]int{{0, 3}, {3, 6}} {
		s, err := NewStageServer(cfg, seed, nil, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			s.SetRequestHook(func(req *Request) {
				if req.Close || req.Ping || req.Offset != 0 {
					return
				}
				switch prefills.Add(1) {
				case 1:
					select {
					case <-second:
					case <-stop:
					}
				case 2:
					close(second)
				}
			})
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, addr)
	}
	defer close(stop)
	const n = 12
	prompts := [][]int{
		RandomPrompt(stats.NewRNG(21), cfg.Vocab, 9),
		RandomPrompt(stats.NewRNG(22), cfg.Vocab, 14),
	}
	got := make([][]int, len(prompts))
	errs := make([]error, len(prompts))
	var wg sync.WaitGroup
	for i, p := range prompts {
		d, err := NewDriver(cfg, seed, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = d.Generate(p, n)
		}()
	}
	wg.Wait()
	for i, p := range prompts {
		if errs[i] != nil {
			t.Fatalf("driver %d: %v", i, errs[i])
		}
		assertMatchesReference(t, nil, p, got[i], n)
	}
	for i, s := range servers {
		if k := s.SessionCount(); k != 0 {
			t.Fatalf("stage %d holds %d sessions after both generations", i, k)
		}
	}
}
