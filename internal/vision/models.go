package vision

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// AccuracyLevel orders model accuracy tiers; a query's ACCURACY
// constraint is a lower bound on the tier.
type AccuracyLevel int

// Accuracy tiers (Table 5).
const (
	AccuracyLow AccuracyLevel = iota + 1
	AccuracyMedium
	AccuracyHigh
)

// ParseAccuracy parses "LOW", "MEDIUM", or "HIGH" (case-insensitive).
func ParseAccuracy(s string) (AccuracyLevel, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "LOW":
		return AccuracyLow, nil
	case "MEDIUM":
		return AccuracyMedium, nil
	case "HIGH":
		return AccuracyHigh, nil
	default:
		return 0, fmt.Errorf("vision: unknown accuracy level %q", s)
	}
}

// String returns the tier name.
func (a AccuracyLevel) String() string {
	switch a {
	case AccuracyLow:
		return "LOW"
	case AccuracyMedium:
		return "MEDIUM"
	case AccuracyHigh:
		return "HIGH"
	default:
		return fmt.Sprintf("AccuracyLevel(%d)", int(a))
	}
}

// Profile describes a physical model: its identity, logical vision
// task, profiled per-tuple cost, and quality. Costs and boxAP values
// are the paper's published numbers (Tables 3 and 5); recall values are
// the knob through which detector quality manifests (a higher-accuracy
// detector finds more objects — the effect behind Fig. 10's Q4).
type Profile struct {
	Name        string
	LogicalType string
	Accuracy    AccuracyLevel
	BoxAP       float64       // COCO boxAP, for Table 5
	Cost        time.Duration // per-tuple inference cost (C_u)
	Device      string        // "GPU" or "CPU"
	Recall      float64       // fraction of ground-truth objects detected
	ClassAcc    float64       // classification accuracy (classifiers)
}

// Physical model names.
const (
	YoloTiny      = "YoloTiny"
	FasterRCNN50  = "FasterRCNNResnet50"
	FasterRCNN101 = "FasterRCNNResnet101"
	CarTypeModel  = "CarType"
	ColorDetModel = "ColorDet"
	LicenseModel  = "License"
	VehicleFilter = "VehicleFilter"
)

// Logical vision task names.
const (
	LogicalObjectDetector = "ObjectDetector"
	LogicalCarType        = "CarType"
	LogicalColorDet       = "ColorDet"
	LogicalLicense        = "License"
	LogicalFilter         = "VehicleFilter"
)

// profiles holds the built-in model zoo. The detector costs/boxAP are
// Table 5; CarType and ColorDet costs are Table 3; License and the
// specialized filter are not profiled in the paper, so we document the
// chosen values here: License is a heavier OCR head (15 ms), and the
// 2-conv specialized filter runs at 1 ms per frame.
var profiles = map[string]Profile{
	YoloTiny: {
		Name: YoloTiny, LogicalType: LogicalObjectDetector, Accuracy: AccuracyLow,
		BoxAP: 17.6, Cost: 9 * time.Millisecond, Device: "GPU", Recall: 0.55,
	},
	FasterRCNN50: {
		Name: FasterRCNN50, LogicalType: LogicalObjectDetector, Accuracy: AccuracyMedium,
		BoxAP: 37.9, Cost: 99 * time.Millisecond, Device: "GPU", Recall: 0.85,
	},
	FasterRCNN101: {
		Name: FasterRCNN101, LogicalType: LogicalObjectDetector, Accuracy: AccuracyHigh,
		BoxAP: 42.0, Cost: 120 * time.Millisecond, Device: "GPU", Recall: 0.92,
	},
	CarTypeModel: {
		Name: CarTypeModel, LogicalType: LogicalCarType, Accuracy: AccuracyHigh,
		Cost: 6 * time.Millisecond, Device: "GPU", ClassAcc: 0.93,
	},
	ColorDetModel: {
		Name: ColorDetModel, LogicalType: LogicalColorDet, Accuracy: AccuracyHigh,
		Cost: 5 * time.Millisecond, Device: "CPU", ClassAcc: 0.91,
	},
	LicenseModel: {
		Name: LicenseModel, LogicalType: LogicalLicense, Accuracy: AccuracyHigh,
		Cost: 15 * time.Millisecond, Device: "GPU", ClassAcc: 0.95,
	},
	VehicleFilter: {
		Name: VehicleFilter, LogicalType: LogicalFilter, Accuracy: AccuracyLow,
		Cost: time.Millisecond, Device: "GPU", ClassAcc: 0.97,
	},
}

// ViewReadCost is the profiled per-tuple cost of reading a tuple from
// a materialized view on disk (c_r in §4.2: 1.8 ms).
const ViewReadCost = 1800 * time.Microsecond

// ProfileFor returns the profile of a physical model. The name matches
// case-insensitively; an exact match skips the case-folding scan.
func ProfileFor(name string) (Profile, error) {
	if p, ok := profiles[name]; ok {
		return p, nil
	}
	p, ok := profiles[canonical(name)]
	if !ok {
		return Profile{}, fmt.Errorf("vision: unknown model %q", name)
	}
	return p, nil
}

// ProfilesForLogical returns every physical model implementing the
// logical task, in ascending cost order.
func ProfilesForLogical(logical string) []Profile {
	var out []Profile
	for _, p := range profiles {
		if strings.EqualFold(p.LogicalType, logical) {
			out = append(out, p)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Cost < out[j-1].Cost; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func canonical(name string) string {
	for n := range profiles {
		if strings.EqualFold(n, name) {
			return n
		}
	}
	return name
}

// Detection is one detector output row.
type Detection struct {
	Label string
	X, Y  float64
	W, H  float64
	Score float64
}

// Area returns the detection's relative area.
func (d Detection) Area() float64 { return d.W * d.H }

// BBox renders the bounding box in the canonical textual form that
// flows through the bbox column ("x,y,w,h" with 4 decimal places).
func (d Detection) BBox() string { return FormatBBox(d.X, d.Y, d.W, d.H) }

// FormatBBox renders normalized box coordinates canonically: each
// coordinate as %.4f, comma-separated.
func FormatBBox(x, y, w, h float64) string {
	var buf [48]byte
	b := buf[:0]
	for i, v := range [4]float64{x, y, w, h} {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'f', 4, 64)
	}
	return string(b)
}

// ParseBBox parses the canonical bbox form: exactly four
// comma-separated numbers, each optionally space-padded.
func ParseBBox(s string) (x, y, w, h float64, err error) {
	if strings.Count(s, ",") != 3 {
		return 0, 0, 0, 0, fmt.Errorf("vision: bad bbox %q", s)
	}
	var vals [4]float64
	rest := s
	for i := range vals {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		v, perr := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if perr != nil {
			return 0, 0, 0, 0, fmt.Errorf("vision: bad bbox %q: %v", s, perr)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], vals[3], nil
}

// Detect runs an object-detection model over a frame payload. Each
// ground-truth object is detected iff a deterministic draw clears the
// model's recall; detected boxes carry small model-specific jitter
// (different physical models box the same object slightly differently,
// the premise of the §6 fuzzy-matching extension).
func Detect(model string, payload []byte) ([]Detection, error) {
	p, err := ProfileFor(model)
	if err != nil {
		return nil, err
	}
	if p.LogicalType != LogicalObjectDetector {
		return nil, fmt.Errorf("vision: %s is not an object detector", model)
	}
	df, err := DecodeFrame(payload)
	if err != nil {
		return nil, err
	}
	seed := mix([]uint64{uint64(len(p.Name))}...) ^ stringSeed(p.Name)
	var out []Detection
	for _, o := range df.Objects {
		draw := unit(mix(seed, uint64(df.Frame), uint64(o.ID), 0xDE7EC7))
		if draw >= p.Recall {
			continue
		}
		jx := (unit(mix(seed, uint64(df.Frame), uint64(o.ID), 1)) - 0.5) * 0.004
		jy := (unit(mix(seed, uint64(df.Frame), uint64(o.ID), 2)) - 0.5) * 0.004
		score := 0.5 + 0.5*unit(mix(seed, uint64(df.Frame), uint64(o.ID), 3))
		out = append(out, Detection{
			Label: o.Label,
			X:     clamp01f(o.X + jx),
			Y:     clamp01f(o.Y + jy),
			W:     o.W,
			H:     o.H,
			Score: score,
		})
	}
	return out, nil
}

// matchTolerance is how far (in normalized units) a bbox center may lie
// from an object's center and still match it, absorbing detector
// jitter.
const matchTolerance = 0.05

// classify is the shared classifier head: it finds the object under
// the bbox by walking the frame payload — the ground-truth object
// whose center is nearest the bbox center, within matchTolerance — and
// returns attr(object) corrupted with probability 1−ClassAcc
// (deterministically, so results are reusable).
// lint:hotpath classifier head runs once per (frame, bbox)
func classify(model string, payload []byte, bbox string, attr func(payloadObject) string, domain []string) (string, error) {
	p, err := ProfileFor(model)
	if err != nil {
		return "", err
	}
	// A malformed payload is reported before a malformed bbox.
	x, y, w, h, bboxErr := ParseBBox(bbox)
	frame, obj, dist, err := nearestObject(payload, x+w/2, y+h/2)
	if err != nil {
		return "", err
	}
	if bboxErr != nil {
		return "", bboxErr
	}
	if dist > matchTolerance {
		return "unknown", nil
	}
	truth := attr(obj)
	draw := unit(mix(stringSeed(p.Name), uint64(frame), uint64(obj.id), 0xC1A55))
	if draw < p.ClassAcc || len(domain) == 0 {
		return truth, nil
	}
	// Deterministic misclassification: rotate within the domain.
	idx := indexOf(domain, truth)
	shift := 1 + int(mix(stringSeed(p.Name), uint64(frame), uint64(obj.id), 0x0FF)%uint64(len(domain)-1))
	return domain[(idx+shift)%len(domain)], nil
}

// ClassifyType runs the vehicle-type classifier (CARTYPE in the paper).
func ClassifyType(payload []byte, bbox string) (string, error) {
	return classify(CarTypeModel, payload, bbox, func(o payloadObject) string { return VehicleTypes[o.vtype] }, VehicleTypes)
}

// ClassifyColor runs the vehicle-color classifier (COLORDET).
func ClassifyColor(payload []byte, bbox string) (string, error) {
	return classify(ColorDetModel, payload, bbox, func(o payloadObject) string { return Colors[o.color] }, Colors)
}

// ReadLicense runs the license-plate OCR model (LICENSE).
func ReadLicense(payload []byte, bbox string) (string, error) {
	return classify(LicenseModel, payload, bbox, func(o payloadObject) string { return string(o.plate) }, nil)
}

// filterSkipConfidence is the fraction of truly empty frames the
// specialized filter is confident enough to skip. Production filters
// (NoScope-style two-conv networks) are tuned for near-perfect recall
// of frames *with* vehicles — false negatives would silently drop
// results — so they only rule out a minority of empty frames with
// enough margin. 0.3 reproduces the paper's §5.6 gain (≈1.3× on top
// of EVA's reuse) rather than an oracle filter's.
const filterSkipConfidence = 0.30

// FilterVehicles runs the lightweight specialized filter (§5.6): TRUE
// means the frame needs full processing, FALSE means the filter is
// confident the frame contains no vehicle. Frames with vehicles always
// pass (high recall); empty frames are skipped only when the filter's
// deterministic confidence draw clears filterSkipConfidence.
func FilterVehicles(payload []byte) (bool, error) {
	p, err := ProfileFor(VehicleFilter)
	if err != nil {
		return false, err
	}
	df, err := DecodeFrame(payload)
	if err != nil {
		return false, err
	}
	has := false
	for _, o := range df.Objects {
		if o.Label == "car" || o.Label == "bus" || o.Label == "truck" {
			has = true
			break
		}
	}
	if has {
		return true, nil
	}
	draw := unit(mix(stringSeed(p.Name), uint64(df.Frame), 0xF117E5))
	if draw < filterSkipConfidence {
		return false, nil // confidently empty: skip downstream UDFs
	}
	return true, nil // uncertain: let the expensive UDFs decide
}

func stringSeed(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func clamp01f(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
