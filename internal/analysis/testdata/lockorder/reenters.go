package lockorder

import "sync"

// wire stands in for a transport of another package that runs the
// handler registered with it before a send returns, as the fabric runs
// a simulated NIC's frame handler on the sending goroutine.
type wire struct {
	handler func()
}

func (w *wire) send() { w.handler() }

type port struct {
	// A send on the wire may run onFrame.
	//photon:reenters onFrame
	link *wire

	//photon:lock table 10
	tableMu sync.Mutex
	//photon:lock port 40
	mu sync.Mutex
}

// onFrame is the handler: it looks its target up, then locks the port.
func (p *port) onFrame() {
	p.tableMu.Lock()
	p.tableMu.Unlock()
	p.mu.Lock()
	p.mu.Unlock()
}

// sendUnderPortLock holds the port lock across a send: the handler on
// the same goroutine would take it again.
func (p *port) sendUnderPortLock() {
	p.mu.Lock()
	p.link.send() // want `call to send \(which may run onFrame\) may acquire table \(rank 10\) while holding port \(rank 40\): inverts the declared lock order` `call to send \(which may run onFrame\) may acquire port \(rank 40\) while holding port \(rank 40\): same-rank nesting`
	p.mu.Unlock()
}

// respond reaches the wire through a helper.
func (p *port) respond() { p.link.send() }

// respondUnderTableLock holds the table lock across a helper that sends.
func (p *port) respondUnderTableLock() {
	p.tableMu.Lock()
	p.respond() // want `call to respond may acquire table \(rank 10\) while holding table \(rank 10\): same-rank nesting`
	p.tableMu.Unlock()
}

// sendUnlocked releases before sending: no finding.
func (p *port) sendUnlocked() {
	p.mu.Lock()
	p.mu.Unlock()
	p.link.send()
}

// tryThenLock is the handler's try idiom: the port lock is held after
// the if either way, so the table lock taken under it is reported.
func (p *port) tryThenLock(try bool) bool {
	if !p.mu.TryLock() {
		if try {
			return false
		}
		p.mu.Lock()
	}
	p.tableMu.Lock() // want `acquires table \(rank 10\) while holding port \(rank 40\): inverts the declared lock order`
	p.tableMu.Unlock()
	p.mu.Unlock()
	return true
}
