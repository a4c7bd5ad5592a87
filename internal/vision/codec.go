package vision

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frame payload codec. A payload is the "rendered image" models decode:
// a compact, versioned binary encoding of the frame's ground truth plus
// deterministic clutter bytes. Real frames would be megabytes of
// pixels; the payload carries the same information a perfect detector
// could extract, while the storage engine accounts the virtual RGB24
// size separately (see Dataset.VirtualFrameBytes).

const (
	payloadMagic   = 0x45564146 // "EVAF"
	payloadVersion = 1
	clutterBytes   = 24
)

// EncodeFrame renders the frame's ground truth into a payload.
func (d Dataset) EncodeFrame(frame int64) []byte {
	objs := d.Objects(frame)
	buf := make([]byte, 0, 24+len(objs)*32+clutterBytes)
	buf = binary.LittleEndian.AppendUint32(buf, payloadMagic)
	buf = append(buf, payloadVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(frame))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Width))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Height))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(objs)))
	for _, o := range objs {
		buf = append(buf, byte(indexOf(Labels, o.Label)))
		buf = append(buf, byte(indexOf(VehicleTypes, o.VType)))
		buf = append(buf, byte(indexOf(Colors, o.Color)))
		buf = append(buf, byte(len(o.Plate)))
		buf = append(buf, o.Plate...)
		for _, v := range []float64{o.X, o.Y, o.W, o.H} {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	}
	// Clutter: deterministic noise standing in for pixel texture, so
	// payload hashing (FunCache) sees realistic per-frame variety.
	h := mix(d.Seed, uint64(frame), 0xC1077E5)
	for i := 0; i < clutterBytes; i++ {
		buf = append(buf, byte(h>>(uint(i%8)*8)))
		if i%8 == 7 {
			h = mix(h)
		}
	}
	return buf
}

// DecodedFrame is the result of decoding a payload.
type DecodedFrame struct {
	Frame   int64
	Width   int
	Height  int
	Objects []Object
}

// FrameVirtualBytes reads only the payload header and returns the
// frame's virtual decoded size (RGB24). On a well-formed payload it is
// the allocation-free fast path for callers that need the simulated
// pixel volume — e.g. FunCache hash-cost accounting — without
// materializing the object list DecodeFrame builds.
func FrameVirtualBytes(payload []byte) (int, bool) {
	r, err := newFrameReader(payload)
	if err != nil {
		return 0, false
	}
	return r.width * r.height * 3, true
}

// DecodeFrame parses a payload produced by EncodeFrame.
func DecodeFrame(payload []byte) (DecodedFrame, error) {
	var df DecodedFrame
	r, err := newFrameReader(payload)
	if err != nil {
		return df, err
	}
	df.Frame, df.Width, df.Height = r.frame, r.width, r.height
	df.Objects = make([]Object, 0, r.n)
	var o payloadObject
	for {
		ok, err := r.next(&o)
		if err != nil || !ok {
			return df, err
		}
		df.Objects = append(df.Objects, Object{
			ID:    o.id,
			Label: Labels[o.label],
			VType: VehicleTypes[o.vtype],
			Color: Colors[o.color],
			Plate: string(o.plate),
			X:     o.x, Y: o.y, W: o.w, H: o.h,
		})
	}
}

// payloadObject is one object of a frame payload, read in place: its
// index in the frame, its label, type and color table indices, and its
// box. plate aliases the payload.
type payloadObject struct {
	id                  int
	label, vtype, color int
	plate               []byte
	x, y, w, h          float64
}

// frameReader walks a payload's objects in place, validating each one
// as it goes. DecodeFrame and the classifiers' nearestObject both read
// through it, so they accept the same payloads with the same errors.
type frameReader struct {
	payload       []byte
	frame         int64
	width, height int
	n, i, off     int // object count, next object, its offset
}

func newFrameReader(payload []byte) (frameReader, error) {
	if len(payload) < 19 {
		return frameReader{}, fmt.Errorf("vision: short payload (%d bytes)", len(payload))
	}
	if binary.LittleEndian.Uint32(payload) != payloadMagic {
		return frameReader{}, fmt.Errorf("vision: bad payload magic")
	}
	if payload[4] != payloadVersion {
		return frameReader{}, fmt.Errorf("vision: unsupported payload version %d", payload[4])
	}
	return frameReader{
		payload: payload,
		frame:   int64(binary.LittleEndian.Uint64(payload[5:])),
		width:   int(binary.LittleEndian.Uint16(payload[13:])),
		height:  int(binary.LittleEndian.Uint16(payload[15:])),
		n:       int(binary.LittleEndian.Uint16(payload[17:])),
		off:     19,
	}, nil
}

// next reads the next object into o and reports whether there was one.
func (r *frameReader) next(o *payloadObject) (bool, error) {
	if r.i >= r.n {
		return false, nil
	}
	p, off := r.payload, r.off
	if off+4 > len(p) {
		return false, fmt.Errorf("vision: truncated object header at %d", off)
	}
	o.id, o.label, o.vtype, o.color = r.i, int(p[off]), int(p[off+1]), int(p[off+2])
	plateLen := int(p[off+3])
	off += 4
	if off+plateLen+16 > len(p) {
		return false, fmt.Errorf("vision: truncated object body at %d", off)
	}
	if o.label >= len(Labels) || o.vtype >= len(VehicleTypes) || o.color >= len(Colors) {
		return false, fmt.Errorf("vision: corrupt object indices at %d", off)
	}
	o.plate = p[off : off+plateLen]
	off += plateLen
	o.x = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[off:])))
	o.y = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[off+4:])))
	o.w = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[off+8:])))
	o.h = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[off+12:])))
	r.off, r.i = off+16, r.i+1
	return true, nil
}

// nearestObject walks a payload for the object whose center lies
// nearest (cx, cy), the first such object on ties, without building an
// object list: the classifiers call it once per (frame, bbox). dist is
// +Inf when no object has a comparable distance.
// lint:hotpath classifier payload walk must not allocate per object
func nearestObject(payload []byte, cx, cy float64) (frame int64, best payloadObject, dist float64, err error) {
	dist = math.Inf(1)
	r, err := newFrameReader(payload)
	if err != nil {
		return 0, best, dist, err
	}
	var o payloadObject
	for {
		ok, err := r.next(&o)
		if err != nil {
			return 0, best, dist, err
		}
		if !ok {
			return r.frame, best, dist, nil
		}
		if d := math.Hypot(cx-(o.x+o.w/2), cy-(o.y+o.h/2)); d < dist {
			best, dist = o, d
		}
	}
}

func indexOf(vals []string, v string) int {
	for i, s := range vals {
		if s == v {
			return i
		}
	}
	return 0
}
