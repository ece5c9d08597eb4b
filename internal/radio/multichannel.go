package radio

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/units"
)

// MultiChannel is the composite uplink channel observed by the reader:
//
//	H[a][k] = H_direct[a](f_k) + Σ_i s_i · A_i · H_ht,i(f_k) · H_tr,i[a](f_k)
//
// where s_i ∈ {0, 1} is tag i's switch state, A_i is the product of its two
// hop path gains and its differential scattering gain, a indexes reader
// antennas, and k indexes sub-channels. Each tag contributes its own
// backscatter path with independent fading, so two tags modulating
// simultaneously interfere at the reader — the physical basis for
// inventory collisions (§2's EPC Gen-2 discussion).
type MultiChannel struct {
	cfg      ChannelConfig
	offsets  []units.Hertz
	direct   []*Multipath
	ampDir   float64
	scale    float64
	antennas int
	stream   *rng.Stream
	geoBase  Geometry
	tags     []*tagPath
	// ar holds the evolution step factors: every path evolves to the
	// packet's time, so one packet computes them once.
	ar arStep
}

// tagPath is one tag's backscatter contribution.
type tagPath struct {
	helpTag *Multipath
	tagRead []*Multipath
	ampBack float64
	// help holds helpTag's response per sub-channel for the packet being
	// observed; it is shared by every antenna.
	help []complex128
	// read holds one antenna's tagRead response per sub-channel.
	read []complex128
}

// NewMultiChannel builds a channel with no tags; add them with AddTag. The
// geometry supplies the helper/reader placement; per-tag distances come
// from AddTag.
func NewMultiChannel(cfg ChannelConfig, geo Geometry, stream *rng.Stream) (*MultiChannel, error) {
	if cfg.Subchannels <= 0 || cfg.Antennas <= 0 {
		return nil, fmt.Errorf("radio: channel needs positive subchannels and antennas, got %d, %d",
			cfg.Subchannels, cfg.Antennas)
	}
	if geo.HelperToTag <= 0 {
		return nil, fmt.Errorf("radio: helper distance must be positive: %+v", geo)
	}
	c := &MultiChannel{
		cfg:      cfg,
		scale:    cfg.CSIScale,
		antennas: cfg.Antennas,
		stream:   stream,
		geoBase:  geo,
	}
	c.offsets = make([]units.Hertz, cfg.Subchannels)
	for k := range c.offsets {
		c.offsets[k] = units.Hertz(float64(k)-float64(cfg.Subchannels-1)/2) * cfg.SubchannelSpacing
	}
	c.direct = make([]*Multipath, cfg.Antennas)
	for a := 0; a < cfg.Antennas; a++ {
		c.direct[a] = NewMultipath(cfg.Multipath, c.offsets, stream.Split(fmt.Sprintf("direct-%d", a)))
	}
	c.ampDir = cfg.PathLoss.AmplitudeGain(geo.helperReader(), geo.HelperWalls)
	return c, nil
}

// AddTag adds a tag at the given distance from the reader and returns its
// index. The helper→tag distance defaults to the base geometry's.
func (c *MultiChannel) AddTag(tagToReader units.Meters) (int, error) {
	if tagToReader <= 0 {
		return 0, fmt.Errorf("radio: tag distance must be positive, got %v", tagToReader)
	}
	idx := len(c.tags)
	tp := &tagPath{
		helpTag: NewMultipath(c.cfg.Multipath, c.offsets, c.stream.Split(fmt.Sprintf("tag%d-helptag", idx))),
		tagRead: make([]*Multipath, c.antennas),
		help:    make([]complex128, len(c.offsets)),
		read:    make([]complex128, len(c.offsets)),
	}
	trCfg := c.cfg.Multipath
	trCfg.RiceK = 10
	for a := 0; a < c.antennas; a++ {
		tp.tagRead[a] = NewMultipath(trCfg, c.offsets, c.stream.Split(fmt.Sprintf("tag%d-tagread-%d", idx, a)))
	}
	lambda := c.cfg.Carrier.Wavelength()
	gHT := c.cfg.PathLoss.AmplitudeGain(c.geoBase.HelperToTag, c.geoBase.HelperWalls)
	gTR := FreeSpaceAmplitudeGain(tagToReader, lambda)
	tp.ampBack = gHT * gTR * c.cfg.Antenna.DifferentialGain(lambda)
	c.tags = append(c.tags, tp)
	return idx, nil
}

// Tags returns the number of tags attached.
func (c *MultiChannel) Tags() int { return len(c.tags) }

// Subchannels returns the number of sub-channels.
func (c *MultiChannel) Subchannels() int { return len(c.offsets) }

// Antennas returns the number of reader antennas.
func (c *MultiChannel) Antennas() int { return c.antennas }

// ModulationDepth returns tag i's backscatter-to-direct amplitude ratio.
func (c *MultiChannel) ModulationDepth(i int) float64 {
	if i < 0 || i >= len(c.tags) || c.ampDir == 0 {
		return 0
	}
	return c.tags[i].ampBack / c.ampDir
}

// Observe evaluates the composite channel, in CSI units and indexed
// [antenna][subchannel], at time t given each tag's switch state;
// len(reflecting) must equal Tags(). It writes into dst, reallocating only
// when dst is not Antennas() rows of Subchannels(), and returns it. The
// caller owns the result, and the next Observe into the same dst
// overwrites it.
//
//wblint:hotpath-root
func (c *MultiChannel) Observe(t float64, reflecting []bool, dst [][]complex128) ([][]complex128, error) {
	if len(reflecting) != len(c.tags) {
		return nil, fmt.Errorf("radio: got %d states for %d tags", len(reflecting), len(c.tags))
	}
	for i, tp := range c.tags {
		tp.helpTag.evolveTo(t, &c.ar)
		if reflecting[i] {
			tp.helpTag.responses(tp.help)
		}
	}
	if len(dst) != c.antennas {
		dst = make([][]complex128, c.antennas)
	}
	for a := range dst {
		if len(dst[a]) != len(c.offsets) {
			dst[a] = make([]complex128, len(c.offsets))
		}
		c.direct[a].evolveTo(t, &c.ar)
		for _, tp := range c.tags {
			tp.tagRead[a].evolveTo(t, &c.ar)
		}
		// The row first holds the direct path's responses; each entry is
		// then scaled and summed with the reflecting tags' paths in place.
		row := dst[a]
		c.direct[a].responses(row)
		for i, tp := range c.tags {
			if reflecting[i] {
				tp.tagRead[a].responses(tp.read)
			}
		}
		for k := range row {
			h := row[k] * complex(c.ampDir, 0)
			for i, tp := range c.tags {
				if !reflecting[i] {
					continue
				}
				h += tp.help[k] * tp.read[k] * complex(tp.ampBack, 0)
			}
			row[k] = h * complex(c.scale, 0)
		}
	}
	return dst, nil
}

// Advance evolves every path to time t exactly as Observe does, in the
// same order and with the same innovation draws, and evaluates nothing:
// a packet whose channel nobody reads still moves the fading processes
// on, so the channel at the next Observe is the one it would have been.
//
//wblint:hotpath-root
func (c *MultiChannel) Advance(t float64) {
	for _, tp := range c.tags {
		tp.helpTag.evolveTo(t, &c.ar)
	}
	for a := 0; a < c.antennas; a++ {
		c.direct[a].evolveTo(t, &c.ar)
		for _, tp := range c.tags {
			tp.tagRead[a].evolveTo(t, &c.ar)
		}
	}
}
