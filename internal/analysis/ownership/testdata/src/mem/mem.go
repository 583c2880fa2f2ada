// Package mem is an ownership-analyzer fixture mirroring the real
// ix/internal/mem TxChunk surface.
package mem

import "fabric"

// Mbuf mirrors the receive buffer that adopts a frame.
type Mbuf struct {
	f *fabric.Frame
}

func (m *Mbuf) Adopt(f *fabric.Frame) { m.f = f }
func (m *Mbuf) Unref()                {}

type MbufPool struct{}

func (p *MbufPool) Alloc() *Mbuf { return &Mbuf{} }

type TxChunk struct {
	used int
}

func (k *TxChunk) Release()            {}
func (k *TxChunk) Append(b []byte) int { return len(b) }

type TxChunkPool struct{}

func (p *TxChunkPool) Alloc() *TxChunk { return &TxChunk{} }
