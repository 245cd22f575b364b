// Binary wire codec registration for the DAG vertex payload (see
// internal/wire for the frame layout and tag-range assignments). The
// vertex body, its bounds and its digest are package dag's (dag/wire.go):
// the decoder seals the digest into the vertex it builds, so only dag
// hashes vertex content. This package registers the codec, under
// dag.WireTag (50, in rider's range 50–59).
package rider

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/wire"
)

func init() {
	wire.Register(dag.WireTag, VertexPayload{}, wire.Codec{
		Append: func(dst []byte, msg any) ([]byte, error) {
			v := msg.(VertexPayload).V
			if v == nil {
				return dst, fmt.Errorf("rider: cannot encode VertexPayload with nil vertex")
			}
			return dag.AppendWire(dst, v)
		},
		Decode: func(b []byte) (any, []byte, error) {
			v, rest, err := dag.DecodeWire(b)
			if err != nil {
				return nil, b, err
			}
			return VertexPayload{V: v}, rest, nil
		},
	})
}
