package vision

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The classifier head walks the frame payload in place, DecodeFrame
// reads through the same frame reader, and the bbox codec formats and
// parses without fmt or strings.Split. The earlier implementations
// live on here as oracles: the rewritten code must match them byte for
// byte, value for value and error for error.

func oracleFormatBBox(x, y, w, h float64) string {
	return fmt.Sprintf("%.4f,%.4f,%.4f,%.4f", x, y, w, h)
}

func oracleParseBBox(s string) (x, y, w, h float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return 0, 0, 0, 0, fmt.Errorf("vision: bad bbox %q", s)
	}
	var vals [4]float64
	for i, p := range parts {
		v, perr := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if perr != nil {
			return 0, 0, 0, 0, fmt.Errorf("vision: bad bbox %q: %v", s, perr)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], vals[3], nil
}

func oracleDecodeFrame(payload []byte) (DecodedFrame, error) {
	var df DecodedFrame
	if len(payload) < 19 {
		return df, fmt.Errorf("vision: short payload (%d bytes)", len(payload))
	}
	if binary.LittleEndian.Uint32(payload) != payloadMagic {
		return df, fmt.Errorf("vision: bad payload magic")
	}
	if payload[4] != payloadVersion {
		return df, fmt.Errorf("vision: unsupported payload version %d", payload[4])
	}
	df.Frame = int64(binary.LittleEndian.Uint64(payload[5:]))
	df.Width = int(binary.LittleEndian.Uint16(payload[13:]))
	df.Height = int(binary.LittleEndian.Uint16(payload[15:]))
	n := int(binary.LittleEndian.Uint16(payload[17:]))
	off := 19
	df.Objects = make([]Object, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(payload) {
			return df, fmt.Errorf("vision: truncated object header at %d", off)
		}
		labelIdx, typeIdx, colorIdx := int(payload[off]), int(payload[off+1]), int(payload[off+2])
		plateLen := int(payload[off+3])
		off += 4
		if off+plateLen+16 > len(payload) {
			return df, fmt.Errorf("vision: truncated object body at %d", off)
		}
		if labelIdx >= len(Labels) || typeIdx >= len(VehicleTypes) || colorIdx >= len(Colors) {
			return df, fmt.Errorf("vision: corrupt object indices at %d", off)
		}
		plate := string(payload[off : off+plateLen])
		off += plateLen
		var coords [4]float64
		for j := range coords {
			coords[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[off:])))
			off += 4
		}
		df.Objects = append(df.Objects, Object{
			ID:    i,
			Label: Labels[labelIdx],
			VType: VehicleTypes[typeIdx],
			Color: Colors[colorIdx],
			Plate: plate,
			X:     coords[0], Y: coords[1], W: coords[2], H: coords[3],
		})
	}
	return df, nil
}

func oracleMatchObject(df DecodedFrame, x, y, w, h float64) (Object, bool) {
	cx, cy := x+w/2, y+h/2
	best, bestDist := Object{}, math.Inf(1)
	for _, o := range df.Objects {
		ox, oy := o.X+o.W/2, o.Y+o.H/2
		d := math.Hypot(cx-ox, cy-oy)
		if d < bestDist {
			best, bestDist = o, d
		}
	}
	const tolerance = 0.05
	return best, bestDist <= tolerance
}

func oracleClassify(model string, payload []byte, bbox string, attr func(Object) string, domain []string) (string, error) {
	p, err := ProfileFor(model)
	if err != nil {
		return "", err
	}
	df, err := oracleDecodeFrame(payload)
	if err != nil {
		return "", err
	}
	x, y, w, h, err := oracleParseBBox(bbox)
	if err != nil {
		return "", err
	}
	obj, ok := oracleMatchObject(df, x, y, w, h)
	if !ok {
		return "unknown", nil
	}
	truth := attr(obj)
	draw := unit(mix(stringSeed(p.Name), uint64(df.Frame), uint64(obj.ID), 0xC1A55))
	if draw < p.ClassAcc || len(domain) == 0 {
		return truth, nil
	}
	idx := indexOf(domain, truth)
	shift := 1 + int(mix(stringSeed(p.Name), uint64(df.Frame), uint64(obj.ID), 0x0FF)%uint64(len(domain)-1))
	return domain[(idx+shift)%len(domain)], nil
}

// oracleClassifiers pairs each classifier with its oracle form.
var oracleClassifiers = []struct {
	name   string
	run    func(payload []byte, bbox string) (string, error)
	oracle func(payload []byte, bbox string) (string, error)
}{
	{"CarType", ClassifyType, func(p []byte, b string) (string, error) {
		return oracleClassify(CarTypeModel, p, b, func(o Object) string { return o.VType }, VehicleTypes)
	}},
	{"ColorDet", ClassifyColor, func(p []byte, b string) (string, error) {
		return oracleClassify(ColorDetModel, p, b, func(o Object) string { return o.Color }, Colors)
	}},
	{"License", ReadLicense, func(p []byte, b string) (string, error) {
		return oracleClassify(LicenseModel, p, b, func(o Object) string { return o.Plate }, nil)
	}},
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestFormatBBoxMatchesSprintf(t *testing.T) {
	check := func(x, y, w, h float64) {
		t.Helper()
		if got, want := FormatBBox(x, y, w, h), oracleFormatBBox(x, y, w, h); got != want {
			t.Errorf("FormatBBox(%v, %v, %v, %v) = %q, want %q", x, y, w, h, got, want)
		}
	}
	for i := uint64(0); i < 20000; i++ {
		check(unit(mix(i, 1)), unit(mix(i, 2)), unit(mix(i, 3)), unit(mix(i, 4)))
	}
	// Halfway ties at the fifth decimal, plus the values fmt treats
	// specially.
	specials := []float64{
		0.00005, 0.00015, 0.00025, 0.12345, 0.12355, 0.5, 0.99995, 0.99994999, 1.00005,
		-0.00005, -0.12345, 0, math.Copysign(0, -1), 1, -1,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	for _, a := range specials {
		for _, b := range specials {
			check(a, b, b, a)
		}
	}
}

func TestParseBBoxMatchesSplitOracle(t *testing.T) {
	for _, s := range bboxCorpus() {
		checkParseBBox(t, s)
	}
}

// FuzzParseBBox checks that ParseBBox accepts and rejects exactly what
// the strings.Split parser did, with the same values and error text.
func FuzzParseBBox(f *testing.F) {
	for _, s := range bboxCorpus() {
		f.Add(s)
	}
	f.Fuzz(checkParseBBox)
}

func bboxCorpus() []string {
	return []string{
		"0.1000,0.2000,0.3000,0.4000", " 0.1 , 0.2 ,0.3, 0.4 ", "0.1,0.2,0.3", "0.1,0.2,0.3,0.4,0.5",
		"", ",,,", "a,b,c,d", "0.1,0.2,0.3,x", "1e400,0,0,0", "NaN,+Inf,-Inf,-0", "0x1p-2,1_0,.5,5.",
		"0.1,,0.3,0.4", "\t0.1\n,0.2,0.3,0.4", "0.1,0.2,0.3,0.4,", "１,2,3,4",
	}
}

func checkParseBBox(t *testing.T, s string) {
	x, y, w, h, err := ParseBBox(s)
	ox, oy, ow, oh, oerr := oracleParseBBox(s)
	if errText(err) != errText(oerr) {
		t.Fatalf("ParseBBox(%q) error %q, oracle %q", s, errText(err), errText(oerr))
	}
	if !sameFloat(x, ox) || !sameFloat(y, oy) || !sameFloat(w, ow) || !sameFloat(h, oh) {
		t.Fatalf("ParseBBox(%q) = %v,%v,%v,%v, oracle %v,%v,%v,%v", s, x, y, w, h, ox, oy, ow, oh)
	}
}

// TestClassifyMatchesDecodeOracle drives DecodeFrame, the payload walk
// and the DecodeFrame + matchObject oracle over well-formed, random,
// truncated and corrupted payloads with boxes on, near and far from
// objects.
func TestClassifyMatchesDecodeOracle(t *testing.T) {
	checkDecode := func(payload []byte) {
		t.Helper()
		df, err := DecodeFrame(payload)
		odf, oerr := oracleDecodeFrame(payload)
		if errText(err) != errText(oerr) || !reflect.DeepEqual(df, odf) {
			t.Fatalf("DecodeFrame(%d-byte payload) = %+v, %v; oracle %+v, %v", len(payload), df, err, odf, oerr)
		}
	}
	compare := func(payload []byte, bbox string) {
		t.Helper()
		for _, c := range oracleClassifiers {
			got, err := c.run(payload, bbox)
			want, oerr := c.oracle(payload, bbox)
			if got != want || errText(err) != errText(oerr) {
				t.Fatalf("%s(%d-byte payload, %q) = %q, %v; oracle %q, %v",
					c.name, len(payload), bbox, got, err, want, oerr)
			}
		}
	}
	for _, ds := range []Dataset{MediumUADetrac, Jackson} {
		for f := int64(0); f < 200; f++ {
			payload := ds.EncodeFrame(f)
			objs := ds.Objects(f)
			var boxes []string
			for i, o := range objs {
				// On the object, jittered like a detector, and offset
				// around the match tolerance.
				j := (unit(mix(uint64(f), uint64(i), 7)) - 0.5) * 0.004
				boxes = append(boxes, FormatBBox(o.X+j, o.Y-j, o.W, o.H),
					FormatBBox(o.X+0.05, o.Y, o.W, o.H), FormatBBox(o.X+0.0499, o.Y, o.W, o.H))
			}
			boxes = append(boxes, FormatBBox(unit(mix(uint64(f), 1)), unit(mix(uint64(f), 2)), 0.1, 0.1),
				"not a bbox", "NaN,0,0,0", "0,0,0")
			checkDecode(payload)
			for _, b := range boxes {
				compare(payload, b)
			}
			// Truncations land in the header, mid-object and mid-clutter.
			bbox := boxes[0]
			for _, n := range []int{0, 5, 18, 19, 20, 23, 30, 40, len(payload) / 2, len(payload) - 1} {
				if n < len(payload) {
					checkDecode(payload[:n])
					compare(payload[:n], bbox)
				}
			}
			// Random bytes behind a valid header: arbitrary object
			// counts, indices and coordinates.
			rnd := make([]byte, 19+int(mix(uint64(f), 3)%160))
			for i := range rnd {
				rnd[i] = byte(mix(uint64(f), uint64(i), 4))
			}
			copy(rnd, payload[:5])
			rnd[17], rnd[18] = rnd[17]%8, 0
			checkDecode(rnd)
			compare(rnd, bbox)
			// Corrupt the header and the first object's indices.
			for _, mut := range []func(p []byte){
				func(p []byte) { p[0] ^= 0xFF },
				func(p []byte) { p[4] = payloadVersion + 1 },
				func(p []byte) { binary.LittleEndian.PutUint16(p[17:], 0x0400) },
				func(p []byte) { p[19] = byte(len(Labels)) },
				func(p []byte) { p[20] = 0xFF },
				func(p []byte) { p[21] = byte(len(Colors)) },
				func(p []byte) { p[22] = 0xFF },
			} {
				bad := append([]byte(nil), payload...)
				mut(bad)
				checkDecode(bad)
				compare(bad, bbox)
			}
		}
	}
}

// TestClassifyAllocatesOnlyItsResult pins the payload walk as
// allocation-free: a classification allocates nothing, and a license
// read and a bbox rendering only their result strings.
func TestClassifyAllocatesOnlyItsResult(t *testing.T) {
	payload := MediumUADetrac.EncodeFrame(42)
	o := MediumUADetrac.Objects(42)[0]
	bbox := FormatBBox(o.X, o.Y, o.W, o.H)
	if got := testing.AllocsPerRun(100, func() { _ = FormatBBox(o.X, o.Y, o.W, o.H) }); got > 1 {
		t.Errorf("FormatBBox allocates %.1f per call, want 1", got)
	}
	for _, c := range []struct {
		name string
		run  func([]byte, string) (string, error)
		max  float64
	}{{"CarType", ClassifyType, 0}, {"ColorDet", ClassifyColor, 0}, {"License", ReadLicense, 1}} {
		if got := testing.AllocsPerRun(100, func() { _, _ = c.run(payload, bbox) }); got > c.max {
			t.Errorf("%s allocates %.1f per call, want at most %.0f", c.name, got, c.max)
		}
	}
}
