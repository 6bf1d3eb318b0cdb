// Package verbs is a thin convenience layer over the simulated NIC,
// shaped like the subset of libibverbs an RDMA middleware consumes:
// open a device, register memory, create completion queues and queue
// pairs, post work, and poll completions.
//
// Two packages sit on it: backend/vsim, which implements core.Backend
// over one-sided verbs, and msg, the two-sided baseline. Both name
// nicsim types only through the aliases below, so the verbs-shaped
// surface they depend on is written down in one place.
package verbs

import (
	"fmt"

	"photon/internal/fabric"
	"photon/internal/nicsim"
)

// Re-exported nicsim types: the verbs layer is deliberately transparent.
type (
	// MR is a registered memory region.
	MR = nicsim.MR
	// CQ is a completion queue.
	CQ = nicsim.CQ
	// QP is a reliable connected queue pair.
	QP = nicsim.QP
	// CQE is a completion queue entry.
	CQE = nicsim.CQE
	// SendWR is a send work request.
	SendWR = nicsim.SendWR
	// RecvWR is a receive work request.
	RecvWR = nicsim.RecvWR
	// Access is an MR permission mask.
	Access = nicsim.Access
)

// Re-exported opcodes, statuses and access flags.
const (
	OpSend           = nicsim.OpSend
	OpRDMAWrite      = nicsim.OpRDMAWrite
	OpRDMARead       = nicsim.OpRDMARead
	OpAtomicFetchAdd = nicsim.OpAtomicFetchAdd
	OpAtomicCompSwap = nicsim.OpAtomicCompSwap

	StatusOK = nicsim.StatusOK

	AccessAll        = nicsim.AccessAll
	AccessRemoteRead = nicsim.AccessRemoteRead
)

// Device is an opened RDMA device on one fabric node.
type Device struct {
	nic  *nicsim.NIC
	node int
}

// Open attaches a new device to the given fabric node.
func Open(fab *fabric.Fabric, node int, cfg nicsim.Config) (*Device, error) {
	nic, err := nicsim.New(fab, node, cfg)
	if err != nil {
		return nil, fmt.Errorf("verbs: open device on node %d: %w", node, err)
	}
	return &Device{nic: nic, node: node}, nil
}

// Node returns the fabric node index of the device.
func (d *Device) Node() int { return d.node }

// NIC exposes the underlying simulated NIC (for counters/ablation).
func (d *Device) NIC() *nicsim.NIC { return d.nic }

// RegMR registers buf for local and remote access per the mask.
func (d *Device) RegMR(buf []byte, access Access) (*MR, error) {
	return d.nic.RegisterMemory(buf, access)
}

// DeregMR removes a registration.
func (d *Device) DeregMR(mr *MR) error { return d.nic.DeregisterMemory(mr) }

// CreateCQ creates a completion queue of the given depth.
func (d *Device) CreateCQ(depth int) *CQ { return nicsim.NewCQ(depth) }

// CreateQP creates a queue pair bound to the given CQs.
func (d *Device) CreateQP(sendCQ, recvCQ *CQ) (*QP, error) {
	return d.nic.CreateQP(sendCQ, recvCQ)
}

// Close releases the device; all its QPs stop.
func (d *Device) Close() { d.nic.Close() }
