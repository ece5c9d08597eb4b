package radio

import "repro/internal/units"

// Geometry places the three actors of a Wi-Fi Backscatter link. Distances
// follow the paper's experiments: the helper sits meters away while the
// tag-reader distance is the swept variable.
type Geometry struct {
	// HelperToTag is the helper→tag distance (3 m in most experiments).
	HelperToTag units.Meters
	// TagToReader is the tag→reader distance (5–65 cm short range).
	TagToReader units.Meters
	// HelperToReader is the direct helper→reader distance. Zero means
	// "derive": the reader is next to the tag, so it defaults to
	// HelperToTag.
	HelperToReader units.Meters
	// HelperWalls counts walls between helper and the tag/reader area
	// (location 5 in Fig. 13 is in a different room).
	HelperWalls int
}

// helperReader returns the effective helper→reader distance.
func (g Geometry) helperReader() units.Meters {
	if g.HelperToReader > 0 {
		return g.HelperToReader
	}
	return g.HelperToTag
}

// ChannelConfig configures the composite backscatter channel observed by
// the reader.
type ChannelConfig struct {
	// Subchannels is the number of OFDM sub-channels reported (Intel
	// 5300: 30).
	Subchannels int
	// SubchannelSpacing between reported sub-channels (625 kHz for the
	// 5300's grouping of the 20 MHz band).
	SubchannelSpacing units.Hertz
	// Antennas at the reader (Intel 5300: 3).
	Antennas int
	// Carrier frequency.
	Carrier units.Hertz
	// PathLoss is the room-scale propagation model for the direct path.
	PathLoss LogDistance
	// Multipath parameterizes the small-scale fading of every
	// constituent channel.
	Multipath MultipathConfig
	// Antenna is the tag's antenna/RCS model.
	Antenna TagAntenna
	// CSIScale converts field amplitude at the reader into the Intel
	// card's dimensionless CSI units.
	CSIScale float64
}

// DefaultChannelConfig returns the configuration that reproduces the
// paper's testbed (channel 6, Intel 5300 reader).
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		Subchannels:       30,
		SubchannelSpacing: 625 * units.KHz,
		Antennas:          3,
		Carrier:           2.437 * units.GHz,
		PathLoss:          DefaultIndoor(),
		Multipath:         DefaultMultipathConfig(),
		Antenna:           DefaultTagAntenna(),
		CSIScale:          5000,
	}
}
