package ir

import "fmt"

// Alloc hands out registers, arrays, and operation instance IDs, and
// remembers human-readable names for debugging and printing.
type Alloc struct {
	nextReg   Reg
	nextArray Array
	nextOp    int
	regNames  map[Reg]string
	arrByName map[string]Array
}

// NewAlloc returns an empty allocator.
func NewAlloc() *Alloc {
	return &Alloc{
		nextReg:   1,
		nextArray: 1,
		nextOp:    1,
		regNames:  make(map[Reg]string),
		arrByName: make(map[string]Array),
	}
}

// Reg allocates a fresh register with the given debug name.
func (a *Alloc) Reg(name string) Reg {
	r := a.nextReg
	a.nextReg++
	if name != "" {
		a.regNames[r] = name
	}
	return r
}

// Array returns the array with the given name, allocating it on first use.
func (a *Alloc) Array(name string) Array {
	if id, ok := a.arrByName[name]; ok {
		return id
	}
	id := a.nextArray
	a.nextArray++
	a.arrByName[name] = id
	return id
}

// OpID allocates a fresh operation instance ID.
func (a *Alloc) OpID() int {
	id := a.nextOp
	a.nextOp++
	return id
}

// RegName returns the debug name of r, or "r<n>".
func (a *Alloc) RegName(r Reg) string {
	if n, ok := a.regNames[r]; ok {
		return n
	}
	return fmt.Sprintf("r%d", r)
}

// NumRegs reports how many registers have been allocated.
func (a *Alloc) NumRegs() int { return int(a.nextReg) - 1 }

// NumOps reports how many op IDs have been allocated.
func (a *Alloc) NumOps() int { return a.nextOp - 1 }
