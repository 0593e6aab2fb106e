package poet

import (
	"bufio"
	"bytes"
	"testing"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// FuzzShardFrontierCodec interprets the fuzz input as a program driving
// a shard export session's frontier: a vector clock is mutated per
// record (the exporting shard's advancing frontier) and each export is
// pushed through the exact wire path a shard session uses — a
// per-session frameWriter emitting a head count and a delta-encoded
// export frame, and a per-connection frameReader on the far side. Any
// divergence between the decoded timestamp and the encoder's input, or
// a lost MsgID/identity/head, fails.
//
// Opcodes (byte pairs: op, operand), in the style of the delta-VC
// corpus in internal/vclock:
//
//	0: Tick(operand % 64) — local progress on one trace
//	1: Merge a remote stamp that is the current clock ticked at
//	   (operand % 64) — a cross-shard receive advancing the frontier
//	2: export the current clock as a record with MsgID operand+1
//	3: export a zero-entry clock (fresh trace edge case), MsgID 1000+operand
func FuzzShardFrontierCodec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 2, 2, 1, 1, 5, 2, 2})
	f.Add([]byte{2, 0, 2, 0, 2, 0})
	f.Add([]byte{0, 63, 1, 0, 2, 9, 3, 3, 2, 10})
	f.Add([]byte{3, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		var frontier vclock.VC
		var wire bytes.Buffer
		fw := newFrameWriter(&wire)
		fr := &frameReader{br: bufio.NewReader(&wire)}
		trace := 0
		export := func(step int, msgID uint64, vc vclock.VC) {
			// The own entry is the index, as on a collector's stream.
			id := event.ID{Trace: event.TraceID(trace % 64), Index: max(vc.Get(trace%64), 1)}
			fw.head(step + 1)
			fw.export(&shardExport{MsgID: msgID, ID: id, VC: vc.Stamp(int(id.Trace))}, true)
			if err := fw.flush(); err != nil {
				t.Fatalf("step %d: encode: %v", step, err)
			}
			var f frame
			if err := fr.next(&f); err != nil || f.kind != frameHead || f.head != step+1 {
				t.Fatalf("step %d: head frame = %+v, %v", step, f, err)
			}
			if err := fr.next(&f); err != nil || f.kind != frameExport {
				t.Fatalf("step %d: decode: kind %d, %v", step, f.kind, err)
			}
			if f.exp.MsgID != msgID {
				t.Fatalf("step %d: export frame lost its MsgID: %+v", step, f.exp)
			}
			if f.exp.ID != id {
				t.Fatalf("step %d: identity mangled: %v, want %v", step, f.exp.ID, id)
			}
			if !f.exp.VC.Equal(vc.Stamp(int(id.Trace))) {
				t.Fatalf("step %d: decoded %s, want %s", step, f.exp.VC, vc)
			}
		}
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i], program[i+1]
			switch op % 4 {
			case 0:
				trace = int(arg % 64)
				frontier = frontier.Tick(trace)
			case 1:
				remote := frontier.Clone().Tick(int(arg % 64))
				frontier = frontier.Merge(remote)
			case 2:
				export(i, uint64(arg)+1, frontier.Clone())
			case 3:
				export(i, 1000+uint64(arg), nil)
			}
		}
	})
}
