package core

// SendFIN writes a rendezvous FIN naming tok toward rank, as the target
// of a rendezvous send does once its read has landed. Tests use it to
// forge stale and misdirected FINs.
func (p *Photon) SendFIN(rank int, tok uint64) { p.sendFIN(rank, tok) }
