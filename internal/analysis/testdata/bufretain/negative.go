package bufretain

import "photon/internal/mem"

type wireOp struct {
	local []byte
	n     int
}

func post(op wireOp) error     { return nil }
func encode(dst, src []byte)   {}
func consume(b []byte)         {}
func postPtr(op *wireOp) error { return nil }

// straightLine is the canonical scratch lifetime: Get, fill, Put.
func straightLine(p *mem.BufPool) {
	b := p.Get(64)
	b[0] = 1
	p.Put(b)
}

// deferredPut releases on all paths via defer.
func deferredPut(p *mem.BufPool) {
	b := p.Get(64)
	defer p.Put(b)
	b[0] = 1
}

// aliasPut releases through a re-slice alias; cap is preserved so the
// pool accepts it.
func aliasPut(p *mem.BufPool) {
	b := p.Get(64)
	head := b[:8]
	head[0] = 1
	p.Put(head)
}

// handoff transfers the buffer to a callee whose contract covers it.
func handoff(p *mem.BufPool) {
	b := p.Get(64)
	consume(b)
}

// literalHandoff passes a composite literal holding the buffer straight
// into a call — ownership moves to the callee's contract (the postPair
// idiom).
func literalHandoff(p *mem.BufPool) {
	b := p.Get(64)
	_ = post(wireOp{local: b, n: len(b)})
}

// literalPtrHandoff covers the &T{...} argument form.
func literalPtrHandoff(p *mem.BufPool) {
	b := p.Get(64)
	_ = postPtr(&wireOp{local: b})
}

// spreadCopy appends the buffer's bytes, not the buffer itself.
func spreadCopy(p *mem.BufPool, dst []byte) []byte {
	b := p.Get(64)
	dst = append(dst, b...)
	p.Put(b)
	return dst
}

// owned uses CopyOwned, whose documented contract transfers ownership
// permanently — bufretain does not track it.
func owned(p *mem.BufPool, src []byte) []byte {
	b := p.CopyOwned(src)
	return b
}

// inlineArg consumes the Get in argument position: an immediate
// hand-off, never bound to a local.
func inlineArg(p *mem.BufPool) {
	consume(p.Get(64))
}

// copyOut copies the bytes somewhere durable and releases the scratch.
func copyOut(p *mem.BufPool, dst []byte) {
	b := p.Get(64)
	encode(b, dst)
	copy(dst, b)
	p.Put(b)
}
