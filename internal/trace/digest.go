package trace

import (
	"fmt"
	"hash/fnv"

	"repro/internal/program"
)

// StateDigest hashes an instance's entire object universe — identity
// (address, size, kind, name) and raw contents, in canonical per-process
// index order — into one FNV-64a word. Two instances with equal digests
// hold bit-identical state; a digest taken before and after an event
// proves the event left the state untouched. The canary layer leans on
// this twice: the old instance's digest must not drift while it sits
// adoptable behind an open window (its warm shadows stay valid), and a
// reverted update must hand back exactly the state it checkpointed.
func StateDigest(inst *program.Instance) (uint64, error) {
	h := fnv.New64a()
	var scratch []byte
	for _, p := range inst.Procs() {
		for _, o := range p.Index().Table().Objects() {
			if o.Scratch {
				// Framework-owned overlay metadata is not program state:
				// it is regenerated per version and never read back.
				continue
			}
			fmt.Fprintf(h, "%x:%x:%d:%s;", o.Addr, o.Size, o.Kind, o.Name)
			buf := scratchFor(&scratch, o.Size)
			if err := p.Space().ReadAt(o.Addr, buf); err != nil {
				return 0, fmt.Errorf("trace: digest %s at %#x: %w", p.Key(), o.Addr, err)
			}
			h.Write(buf)
		}
	}
	return h.Sum64(), nil
}
