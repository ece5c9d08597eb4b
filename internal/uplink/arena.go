package uplink

// The frame arena holds a stream's in-frame measurements lane-major, so
// every decode stage reads a channel as one contiguous series: lane 0
// holds the timestamps and lane 1+c channel c. All the lanes of one
// arena live in one slab, lane l at slab[l·stride : l·stride+n]. A store
// writes one float into every lane (91 of them for 3×30 CSI), so the
// stride is an odd number of 64-byte cache lines. A stride that is a
// multiple of 4 KiB would put every lane's write into the same L1 set; an
// odd count of lines is never one, and spreads the lanes over all the
// sets.

import (
	"math/bits"
	"sort"
	"unsafe"

	"repro/internal/csi"
)

// lineFloats is the float64 count of one 64-byte cache line.
const lineFloats = 8

// laneStride returns the narrowest stride whose lanes hold c samples: c
// rounded up to whole cache lines, and then to an odd count of them.
func laneStride(c int) int {
	lines := (c + lineFloats - 1) / lineFloats
	return (lines | 1) * lineFloats
}

// fitStride returns the widest stride of laneStride's form that fits
// lanes lanes into size floats, so an arena uses the whole of whatever
// slab the pool hands it.
func fitStride(size, lanes int) int {
	lines := size / lanes / lineFloats
	return ((lines - 1) | 1) * lineFloats
}

// slabClass returns the size class of a request for n floats and the
// size of that class's slabs: the smallest m·2^s, m in 5..8, that holds n.
// Four classes per doubling keep a slab's unused tail under a quarter of
// it. A slab of exactly a class's size is in that class.
func slabClass(n int) (class, size int) {
	shift := max(bits.Len(uint(n-1))-3, 0)
	m := (n-1)>>shift + 1
	return 4*shift + m, m << shift
}

// classSize returns the size of a class's slabs: the inverse of
// slabClass, whose class c = 4·s + m has size m·2^s.
func classSize(class int) int {
	shift := max((class-5)/4, 0)
	return (class - 4*shift) << shift
}

// slabStashes recycle arena slabs by size class (slabClass), in stashes
// of their own, apart from the frame scratch. A stash holds a slab by its
// first element: every slab of a class has the class's size, so the
// class gives back its length.
var slabStashes [4 * 48]stash[float64]

// getSlab returns a slab of at least size floats: the smallest pooled one
// at most twice the class size, searching the four classes above size's,
// or else a new one of its class's size. It never takes a slab it cannot
// use, so no request throws a pooled slab away, and a frame that finds
// only a somewhat larger kind of frame's slab uses that one (whole, see
// fitStride) rather than allocating; the bound keeps a small frame from
// holding on to a much larger one. Its contents are stale: the arena
// reads only samples it has written.
func getSlab(size int) []float64 {
	class, n := slabClass(size)
	for c := class; c <= class+4; c++ {
		if p := slabStashes[c].get(); p != nil {
			return unsafe.Slice(p, classSize(c))
		}
	}
	return make([]float64, n)
}

// putSlab returns a slab from getSlab to its class. The caller must not
// use s afterwards.
func putSlab(s []float64) {
	if s == nil {
		return
	}
	class, size := slabClass(len(s))
	if len(s) != size || cap(s) != size {
		panic("uplink: putSlab of a slab getSlab did not make")
	}
	slabStashes[class].put(&s[0])
}

// frameMeasurements returns the index range [lo, hi) of the measurements
// timestamped in [from, to), assuming non-decreasing timestamps: the
// selection frameRange makes from a series' timestamps.
func frameMeasurements(ms []csi.Measurement, from, to float64) (lo, hi int) {
	lo = sort.Search(len(ms), func(i int) bool { return ms[i].Timestamp >= from })
	hi = lo
	for hi < len(ms) && ms[hi].Timestamp < to {
		hi++
	}
	return lo, hi
}

// store appends one in-frame measurement to the arena, moving it to a
// larger slab when it is full (see capacity). It tops out at the frame's
// measurement count, because out-of-frame pushes are never stored.
func (sd *StreamDecoder) store(m csi.Measurement) {
	if sd.n == sd.stride {
		sd.reserve(sd.capacity())
	}
	s, stride, j := sd.slab, sd.stride, sd.n
	s[j] = m.Timestamp
	j += stride
	switch {
	case sd.single:
		s[j] = m.CSI[sd.antenna][sd.subchannel]
	case sd.mode == StreamRSSI:
		for _, v := range m.RSSI {
			s[j] = v
			j += stride
		}
	default:
		for _, row := range m.CSI {
			for _, v := range row {
				s[j] = v
				j += stride
			}
		}
	}
	sd.n++
}

// capacity returns the lane capacity a full arena moves to. The first
// store sizes it for frameLen measurements when the caller knows that
// count (the batch entry points and the preamble windows do), and for at
// least 128. A stream fed by Push starts at 128; once that slab is full,
// it is sized once for the frame, from the mean spacing of the samples
// held and the frame time left after the last, with 1/8 slack, but never
// for more than 16 times what it holds: a run of near-equal timestamps
// must not reserve a frame the traffic will not fill. Should the traffic
// outrun the estimate, the arena doubles.
func (sd *StreamDecoder) capacity() int {
	n := sd.n
	if n == 0 {
		return max(sd.frameLen, 128)
	}
	if sd.reserves == 1 {
		ts := sd.times()
		if span := ts[n-1] - ts[0]; span > 0 {
			left := (sd.end - ts[n-1]) / (span / float64(n-1))
			c := n + int(min(left, float64(16*n)))
			if c += c / 8; c > n {
				return min(c, 16*n)
			}
		}
	}
	return 2 * n
}

// reserve moves the arena into a slab whose lanes hold at least c samples,
// keeping the samples already held, and releases the old slab.
func (sd *StreamDecoder) reserve(c int) {
	lanes := sd.nchan() + 1
	slab := getSlab(lanes * laneStride(c))
	stride := fitStride(len(slab), lanes)
	for l := 0; l < lanes; l++ {
		copy(slab[l*stride:][:sd.n], sd.slab[l*sd.stride:][:sd.n])
	}
	putSlab(sd.slab)
	sd.slab, sd.stride = slab, stride
	sd.reserves++
}

// release returns the arena's slab to the pool.
func (sd *StreamDecoder) release() {
	putSlab(sd.slab)
	sd.slab, sd.stride, sd.n = nil, 0, 0
}

// times returns the timestamps of the measurements held.
func (sd *StreamDecoder) times() []float64 { return sd.slab[:sd.n:sd.n] }

// lane returns channel c's samples of the measurements held.
func (sd *StreamDecoder) lane(c int) []float64 {
	o := (c + 1) * sd.stride
	return sd.slab[o : o+sd.n : o+sd.n]
}
