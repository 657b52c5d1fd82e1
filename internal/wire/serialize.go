package wire

import "fmt"

// SerializeOptions control serialization behaviour.
type SerializeOptions struct {
	// FixLengths recomputes length fields (IP total length, UDP length,
	// TCP data offset) from actual payload sizes.
	FixLengths bool
	// ComputeChecksums fills in IP/TCP/UDP/ICMP checksums.
	ComputeChecksums bool
}

// SerializableLayer is a layer that can write itself into a
// SerializeBuffer.
type SerializableLayer interface {
	// SerializeTo prepends this layer onto the buffer, treating the
	// buffer's current contents as its payload.
	SerializeTo(b *SerializeBuffer) error
	// LayerType identifies the layer being serialized.
	LayerType() LayerType
}

// networkForChecksum is implemented by IPv4 and IPv6 to supply the
// pseudo-header partial sum for transport checksums.
type networkForChecksum interface {
	pseudoHeaderChecksum(proto IPProtocol, length int) uint32
}

// tailReserve is the room Clear leaves after the write position so that
// trailers and minimum-frame padding can usually be appended without
// growing storage.
const tailReserve = 256

// SerializeBuffer accumulates packet bytes back-to-front: each layer
// prepends its header in front of the payload serialized so far. Trailers
// and padding can be appended at the back.
type SerializeBuffer struct {
	store      []byte
	start, end int // current bytes are store[start:end]

	opts           SerializeOptions
	netForChecksum networkForChecksum
}

// NewSerializeBuffer returns an empty buffer with a reasonable default
// capacity for jumbo frames.
func NewSerializeBuffer() *SerializeBuffer {
	return NewSerializeBufferExpectedSize(EthernetJumboMax)
}

// NewSerializeBufferExpectedSize pre-allocates for packets of about the
// given size.
func NewSerializeBufferExpectedSize(n int) *SerializeBuffer {
	if n < 0 {
		n = 0
	}
	b := &SerializeBuffer{store: make([]byte, n+tailReserve)}
	b.Clear()
	return b
}

// Bytes returns the serialized packet so far.
func (b *SerializeBuffer) Bytes() []byte { return b.store[b.start:b.end] }

// Clear resets the buffer for reuse.
func (b *SerializeBuffer) Clear() {
	b.start = len(b.store) - tailReserve
	if b.start < 0 {
		b.start = 0
	}
	b.end = b.start
	b.netForChecksum = nil
}

// PrependBytes grows the front of the buffer by n bytes and returns the
// new region for the caller to fill.
func (b *SerializeBuffer) PrependBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("wire: prepend negative size %d", n)
	}
	if n > b.start {
		// Grow storage, shifting current bytes toward the tail to open
		// prepend headroom.
		shift := n - b.start + len(b.store)
		ns := make([]byte, len(b.store)+shift)
		copy(ns[b.start+shift:b.end+shift], b.store[b.start:b.end])
		b.store = ns
		b.start += shift
		b.end += shift
	}
	b.start -= n
	return b.store[b.start : b.start+n], nil
}

// AppendBytes grows the back of the buffer by n bytes (used for trailers
// and padding) and returns the new region.
func (b *SerializeBuffer) AppendBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("wire: append negative size %d", n)
	}
	if b.end+n > len(b.store) {
		ns := make([]byte, len(b.store)+n+tailReserve)
		copy(ns[b.start:b.end], b.store[b.start:b.end])
		b.store = ns
	}
	b.end += n
	return b.store[b.end-n : b.end], nil
}

// SerializeLayers clears the buffer and serializes the given layers in
// order (outermost first), applying opts. Transport checksums use the
// nearest enclosing IPv4/IPv6 layer's pseudo-header.
func SerializeLayers(b *SerializeBuffer, opts SerializeOptions, layers ...SerializableLayer) error {
	b.Clear()
	b.opts = opts
	// Serialize back-to-front. Before serializing each layer, point the
	// checksum context at the closest network layer above it; only the
	// checksum code reads it.
	for i := len(layers) - 1; i >= 0; i-- {
		if opts.ComputeChecksums {
			b.netForChecksum = nil
			for j := i - 1; j >= 0; j-- {
				if n, ok := layers[j].(networkForChecksum); ok {
					b.netForChecksum = n
					break
				}
			}
		}
		if err := layers[i].SerializeTo(b); err != nil {
			return fmt.Errorf("wire: serializing %v: %w", layers[i].LayerType(), err)
		}
	}
	return nil
}

// PadToMinimumFrame appends zero bytes so the buffer meets the Ethernet
// minimum frame size (64 bytes including a notional 4-byte FCS, so 60
// bytes of header+payload).
func PadToMinimumFrame(b *SerializeBuffer) error {
	const minNoFCS = EthernetMinFrame - 4
	if n := len(b.Bytes()); n < minNoFCS {
		pad, err := b.AppendBytes(minNoFCS - n)
		if err != nil {
			return err
		}
		for i := range pad {
			pad[i] = 0
		}
	}
	return nil
}
