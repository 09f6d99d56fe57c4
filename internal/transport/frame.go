// The stage wire format: every request and every response is one frame,
// a fixed little-endian header followed by the float32 payload and then
// the error text and code, if any:
//
//	offset  size  field
//	0       8     session
//	8       4     offset (int32)
//	12      4     rows
//	16      4     cols
//	20      4     flags (frameClose, framePing)
//	24      4     error text length
//	28      4     error code length
//	32      4·rows·cols  payload, row-major float32 bits
//	...     error text, then error code
//
// A response leaves session, offset and flags zero; a request carries no
// text. A reader rejects a header whose payload exceeds the model's
// MaxPos × Hidden, or whose texts exceed maxFrameText, before it
// allocates anything, so a corrupt or hostile length cannot make it
// allocate more than one legitimate frame would.

package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// frameHeaderSize is the length of a frame's fixed header in bytes.
const frameHeaderSize = 32

// maxFrameText bounds a frame's error text and code, each.
const maxFrameText = 1 << 12

// Request flags.
const (
	frameClose = 1 << iota
	framePing
)

// frameCodec reads and writes frames on one connection. It reuses its
// reader, writer and payload buffers: a decoded payload is valid until
// the next read. It is not safe for concurrent use.
type frameCodec struct {
	r *bufio.Reader
	w *bufio.Writer
	// limit bounds a frame's payload in floats.
	limit int
	hdr   [frameHeaderSize]byte
	buf   []byte    // payload and text bytes of the frame being read
	data  []float32 // the decoded payload
}

// newFrameCodec wraps a connection whose frames carry at most limit
// floats. The writer holds a whole frame of limit floats, so a frame
// without text leaves in one write.
func newFrameCodec(conn io.ReadWriter, limit int) *frameCodec {
	return &frameCodec{limit: limit,
		r: bufio.NewReader(conn),
		w: bufio.NewWriterSize(conn, frameHeaderSize+4*limit)}
}

// reset points the codec at a new connection, keeping its buffers.
func (c *frameCodec) reset(conn io.ReadWriter) {
	c.r.Reset(conn)
	c.w.Reset(conn)
}

// frame is one decoded header plus its payload and texts.
type frame struct {
	session       uint64
	offset        int
	rows, cols    int
	flags         uint32
	data          []float32
	errText, code string
}

// write sends one frame and flushes it.
func (c *frameCodec) write(f *frame) error {
	if f.rows < 0 || f.cols < 0 || f.rows*f.cols != len(f.data) {
		return fmt.Errorf("transport: frame of %d floats for %dx%d", len(f.data), f.rows, f.cols)
	}
	if f.offset < math.MinInt32 || f.offset > math.MaxInt32 {
		return fmt.Errorf("transport: frame offset %d out of range", f.offset)
	}
	if len(f.errText) > maxFrameText || len(f.code) > maxFrameText {
		return fmt.Errorf("transport: frame text of %d and %d bytes", len(f.errText), len(f.code))
	}
	b := c.w.AvailableBuffer()
	b = binary.LittleEndian.AppendUint64(b, f.session)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(f.offset)))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.cols))
	b = binary.LittleEndian.AppendUint32(b, f.flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.errText)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.code)))
	for _, v := range f.data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	b = append(b, f.errText...)
	b = append(b, f.code...)
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
}

// read receives one frame into f. f.data aliases the codec's buffer.
func (c *frameCodec) read(f *frame) error {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return err
	}
	h := c.hdr[:]
	rows := binary.LittleEndian.Uint32(h[12:])
	cols := binary.LittleEndian.Uint32(h[16:])
	errLen := binary.LittleEndian.Uint32(h[24:])
	codeLen := binary.LittleEndian.Uint32(h[28:])
	limit := uint64(c.limit)
	if uint64(rows) > limit || uint64(cols) > limit || uint64(rows)*uint64(cols) > limit {
		return fmt.Errorf("transport: %dx%d frame exceeds the model's positions × hidden", rows, cols)
	}
	if errLen > maxFrameText || codeLen > maxFrameText {
		return fmt.Errorf("transport: frame text of %d and %d bytes", errLen, codeLen)
	}
	n := int(rows) * int(cols)
	size := 4*n + int(errLen) + int(codeLen)
	if cap(c.buf) < size {
		c.buf = make([]byte, size)
	}
	b := c.buf[:size]
	if _, err := io.ReadFull(c.r, b); err != nil {
		return err
	}
	if cap(c.data) < n {
		c.data = make([]float32, n)
	}
	data := c.data[:n]
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	*f = frame{
		session: binary.LittleEndian.Uint64(h),
		offset:  int(int32(binary.LittleEndian.Uint32(h[8:]))),
		rows:    int(rows), cols: int(cols),
		flags: binary.LittleEndian.Uint32(h[20:]),
		data:  data,
	}
	if errLen+codeLen > 0 {
		text := b[4*n:]
		f.errText, f.code = string(text[:errLen]), string(text[errLen:])
	}
	return nil
}

// writeRequest sends req.
func (c *frameCodec) writeRequest(req *Request) error {
	var flags uint32
	if req.Close {
		flags |= frameClose
	}
	if req.Ping {
		flags |= framePing
	}
	return c.write(&frame{session: req.Session, offset: req.Offset,
		rows: req.Rows, cols: req.Cols, flags: flags, data: req.Data})
}

// readRequest receives a request into req; req.Data is valid until the
// next read.
func (c *frameCodec) readRequest(req *Request) error {
	var f frame
	if err := c.read(&f); err != nil {
		return err
	}
	if f.flags&^(frameClose|framePing) != 0 || f.errText != "" || f.code != "" {
		return fmt.Errorf("transport: malformed request frame (flags %#x, %d text bytes)", f.flags, len(f.errText)+len(f.code))
	}
	*req = Request{Session: f.session, Offset: f.offset, Rows: f.rows, Cols: f.cols, Data: f.data,
		Close: f.flags&frameClose != 0, Ping: f.flags&framePing != 0}
	return nil
}

// writeResponse sends resp.
func (c *frameCodec) writeResponse(resp *Response) error {
	return c.write(&frame{rows: resp.Rows, cols: resp.Cols, data: resp.Data,
		errText: resp.Err, code: resp.Code})
}

// readResponse receives a response into resp; resp.Data is valid until
// the next read.
func (c *frameCodec) readResponse(resp *Response) error {
	var f frame
	if err := c.read(&f); err != nil {
		return err
	}
	if f.session != 0 || f.offset != 0 || f.flags != 0 {
		return errors.New("transport: malformed response frame")
	}
	*resp = Response{Rows: f.rows, Cols: f.cols, Data: f.data, Err: f.errText, Code: f.code}
	return nil
}
