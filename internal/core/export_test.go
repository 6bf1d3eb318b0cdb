package core

// SendFIN writes a rendezvous FIN naming tok toward rank, as the target
// of a rendezvous send does once its read has landed. Tests use it to
// forge stale and misdirected FINs.
func (p *Photon) SendFIN(rank int, tok uint64) { p.sendFIN(rank, tok) }

// PendingRemote reports how many harvested remote completions are
// queued.
func (p *Photon) PendingRemote() int {
	r := p.eng.remoteCQ
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.q.Len()
}
