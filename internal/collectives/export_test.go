package collectives

// AllreduceForced is AllreduceInPlace with the allreduce algorithm named
// by algo ("rd", "ring" or "tree") in place of the one selection picks,
// so tests reach the ring below its natural length and the tree, which
// selection picks only past 512 ranks. A choice the vector cannot take
// (rd beyond the arena slot, the ring with fewer elements than ranks)
// and "" fall back to selection. Every rank must force the same
// algorithm.
func (c *Comm) AllreduceForced(algo string, vec []float64, op Op) error {
	a := c.pickAllreduce(len(vec))
	switch {
	case algo == "rd" && 8*len(vec) <= smallAllreduceMax:
		a = algoRD
	case algo == "ring" && len(vec) >= c.size:
		a = algoRing
	case algo == "tree":
		a = algoTree
	}
	return c.allreduce(a, vec, op)
}
