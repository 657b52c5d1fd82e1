package wire

import "fmt"

// ErrUnsupportedLayer is returned by DecodingLayerParser when it reaches a
// layer type it has no decoder for. Layers decoded before the stop remain
// valid in the caller's decoded slice.
type ErrUnsupportedLayer struct {
	LayerType LayerType
}

func (e ErrUnsupportedLayer) Error() string {
	return fmt.Sprintf("wire: no decoder registered for %v", e.LayerType)
}

// DecodingLayerParser decodes packet data into caller-owned layer structs
// without allocating, reusing the same layer values for every frame. It
// is the comparator in the decode ablation (DESIGN §4): the gopacket
// fast-path idiom, measured against the pooled Packet decode that the
// analysis pipeline uses. No production path decodes through it; the
// simulated capture engine does not decode frames at all.
//
// Like its gopacket namesake, the parser stops (with ErrUnsupportedLayer)
// when it encounters a layer type that was not registered; the decoded
// slice reports how far it got.
type DecodingLayerParser struct {
	first    LayerType
	decoders [layerTypeMax]DecodingLayer
	// Truncated is set after each DecodeLayers call when decoding stopped
	// because the data ran out rather than because of a protocol error.
	Truncated bool
}

// NewDecodingLayerParser builds a parser starting at first with the given
// decoding layers registered.
func NewDecodingLayerParser(first LayerType, layers ...DecodingLayer) *DecodingLayerParser {
	p := &DecodingLayerParser{first: first}
	for _, l := range layers {
		p.AddDecodingLayer(l)
	}
	return p
}

// AddDecodingLayer registers an additional decoding layer.
func (p *DecodingLayerParser) AddDecodingLayer(l DecodingLayer) {
	t := l.CanDecode()
	if t <= 0 || t >= layerTypeMax {
		panic(fmt.Sprintf("wire: cannot register decoder for %v", t))
	}
	p.decoders[t] = l
}

// DecodeLayers decodes data, appending each decoded layer's type to
// *decoded (which is truncated first). It stops at the first unregistered
// layer type (returning ErrUnsupportedLayer), at a terminal layer, or on a
// decode error.
func (p *DecodingLayerParser) DecodeLayers(data []byte, decoded *[]LayerType) error {
	*decoded = (*decoded)[:0]
	p.Truncated = false
	typ := p.first
	for typ != LayerTypeZero && len(data) > 0 {
		d := p.decoders[typ]
		if d == nil {
			return ErrUnsupportedLayer{typ}
		}
		if err := d.DecodeFromBytes(data); err != nil {
			if IsTruncated(err) {
				p.Truncated = true
			}
			return &DecodeError{Layer: typ, Err: err}
		}
		*decoded = append(*decoded, typ)
		data = d.LayerPayload()
		typ = d.NextLayerType()
	}
	return nil
}
