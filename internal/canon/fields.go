package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/ccnet/ccnet/internal/cluster"
	"github.com/ccnet/ccnet/internal/core"
	"github.com/ccnet/ccnet/internal/netchar"
)

// Fields derives a Key from fields written in a fixed order, for
// callers that know their request's structure and want its key in
// time proportional to the fields, not to a JSON encoding of them.
// Fields carry no type tags, so each kind must fix its layout. Every
// field is fixed-width; a variable-length list must be preceded by its
// length (or by anything else that tells where it ends). Floats are
// keyed by their bits, the same equivalence Hash's shortest
// round-trippable spelling gives finite floats: -0 and 0 differ, and
// NaN or ±Inf is an error.
//
// A Fields key never equals a Hash key: Hash length-prefixes each part
// the same way, but its parts are canonical JSON, so a leading string
// part opens with '"', while Fields writes its kind raw. Kinds must
// therefore not begin with '"'.
type Fields struct {
	buf []byte
	err error
}

// newFields starts a key in kind's domain, writing the kind
// length-prefixed: keys of different kinds never collide, whatever
// fields follow.
func newFields(kind string) *Fields {
	f := &Fields{buf: make([]byte, 0, 512)}
	f.Int(len(kind))
	f.buf = append(f.buf, kind...)
	return f
}

// Int writes v as 8 bytes.
func (f *Fields) Int(v int) { f.buf = binary.BigEndian.AppendUint64(f.buf, uint64(v)) }

// Bool writes b as one byte.
func (f *Fields) Bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	f.buf = append(f.buf, v)
}

// Float writes v's IEEE 754 bits; a non-finite v makes Key fail.
func (f *Fields) Float(v float64) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && f.err == nil {
		f.err = fmt.Errorf("canon: non-finite number %v", v)
	}
	f.buf = binary.BigEndian.AppendUint64(f.buf, math.Float64bits(v))
}

// Floats writes len(vs) and then each value.
func (f *Fields) Floats(vs []float64) {
	f.Int(len(vs))
	for _, v := range vs {
		f.Float(v)
	}
}

// Key hashes the fields written so far into a Key of the current
// scheme, or reports the first non-finite float.
func (f *Fields) Key() (Key, error) {
	if f.err != nil {
		return "", f.err
	}
	sum := sha256.Sum256(f.buf)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return Key(scheme + ":" + string(hexSum[:])), nil
}

// ModelFields starts the key of a request for the model core.New builds
// from sys, msg and opt; the caller appends the rest of the request (a
// rate, a grid) and takes the Key. The system is written as the model
// reads it, by homogeneous cluster class: each run of consecutive
// identical clusters once, with its count. An N=1120 system keys in a
// few hundred bytes, and a group of 8 clusters keys like two adjacent
// groups of 4 identical ones. The system's Name is a label, not
// structure, and is left out.
func ModelFields(kind string, sys *cluster.System, msg netchar.MessageSpec, opt core.Options) *Fields {
	f := newFields(kind)
	f.Int(sys.Ports)
	f.characteristics(sys.ICN2)
	// The cluster count ends the run list: every run has at least one.
	f.Int(len(sys.Clusters))
	for i := 0; i < len(sys.Clusters); {
		c := sys.Clusters[i]
		n := 1
		for i+n < len(sys.Clusters) && sameConfig(sys.Clusters[i+n], c) {
			n++
		}
		f.Int(n)
		f.Int(c.TreeLevels)
		f.characteristics(c.ICN1)
		f.characteristics(c.ECN1)
		i += n
	}
	f.Int(msg.Flits)
	f.Int(msg.FlitBytes)
	f.Int(int(opt.Variant))
	f.Bool(opt.InvertRelaxFactor)
	f.Bool(opt.CalibratedECNCrossing)
	f.Bool(opt.GatewayStoreAndForward)
	f.Bool(opt.UseLocality)
	f.Float(opt.LocalityFraction)
	return f
}

func (f *Fields) characteristics(c netchar.Characteristics) {
	f.Float(c.Bandwidth)
	f.Float(c.NetworkLatency)
	f.Float(c.SwitchLatency)
}

// sameConfig compares clusters by their floats' bits, the equivalence
// Fields keys them by (== would put -0 and 0 in one run).
func sameConfig(a, b cluster.Config) bool {
	return a.TreeLevels == b.TreeLevels && sameNetchar(a.ICN1, b.ICN1) && sameNetchar(a.ECN1, b.ECN1)
}

func sameNetchar(a, b netchar.Characteristics) bool {
	return math.Float64bits(a.Bandwidth) == math.Float64bits(b.Bandwidth) &&
		math.Float64bits(a.NetworkLatency) == math.Float64bits(b.NetworkLatency) &&
		math.Float64bits(a.SwitchLatency) == math.Float64bits(b.SwitchLatency)
}
