// Package fabric is an ownership-analyzer fixture mirroring the real
// ix/internal/fabric surface: the analyzer matches tracked types by
// (package-path tail, type name), so this stand-in exercises it without
// importing the real tree.
package fabric

type Frame struct {
	Data []byte
	free bool
}

func (f *Frame) Release() { f.free = true }
func (f *Frame) Detach()  {}
func (f *Frame) Len() int { return len(f.Data) }

type FramePool struct{}

func (p *FramePool) Get(n int) *Frame { return &Frame{Data: make([]byte, n)} }

type Port struct{}

func (p *Port) Send(f *Frame) {}
