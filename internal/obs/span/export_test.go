package span

import (
	"encoding/hex"
	"strconv"
)

// Traceparent renders the context in the W3C `traceparent` header form
// (version 00): 00-<trace-id>-<span-id>-<flags>, the input
// ParseTraceparent reads.
func (c Context) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, '0', '0', '-')
	b = hex.AppendEncode(b, c.Trace[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, c.Span[:])
	b = append(b, '-')
	if c.Flags < 0x10 {
		b = append(b, '0')
	}
	b = strconv.AppendUint(b, uint64(c.Flags), 16)
	return string(b)
}
