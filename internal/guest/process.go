package guest

// Process models one user process inside a UnixBench guest kernel. Its
// lifecycle is what drives the hypervisor's virtual-memory management
// load (§VI-A: programs "selected for their ability to stress the
// hypervisor's handling of hypercalls, especially those related to
// virtual memory management"): fork pins the new page tables, the running
// process issues system calls, and exit unpins everything.
type Process struct {
	PID int
	// PageTables are the frames pinned (PV) or EPT-mapped (HVM) for this
	// process's address space. The exit path consumes the slice from the
	// front as each unpin is issued.
	PageTables []int

	// buf is the backing array PageTables started from. Exit trims
	// PageTables from the front, so the original start must be kept
	// separately for the free list to reuse the array on a later fork.
	buf []int
}

// doneFill records the (possibly regrown) backing array once the caller
// has appended all of the process's page-table frames.
func (p *Process) doneFill() { p.buf = p.PageTables[:0] }

// procTable is the guest kernel's process accounting. Reaped Process
// records go to a free list so the fork/exit churn of a benchmark run —
// and of every reseeded forked run after it — reuses the same handful of
// records and page-table arrays.
type procTable struct {
	procs   []*Process
	free    []*Process
	nextPID int
}

// fork registers a new process with an empty page-table list, reusing a
// reaped record when one is free. The caller appends the pinned frames
// directly to p.PageTables and finishes with doneFill.
func (pt *procTable) fork() *Process {
	var p *Process
	if n := len(pt.free); n > 0 {
		p = pt.free[n-1]
		pt.free[n-1] = nil
		pt.free = pt.free[:n-1]
	} else {
		p = &Process{}
	}
	p.PID = pt.nextPID
	p.PageTables = p.buf[:0]
	pt.nextPID++
	pt.procs = append(pt.procs, p)
	return p
}

// oldest returns the longest-lived process, or nil.
func (pt *procTable) oldest() *Process {
	if len(pt.procs) == 0 {
		return nil
	}
	return pt.procs[0]
}

// reap removes the oldest process (after its page tables were unpinned)
// and recycles its record.
func (pt *procTable) reap() {
	if len(pt.procs) == 0 {
		return
	}
	p := pt.procs[0]
	copy(pt.procs, pt.procs[1:])
	last := len(pt.procs) - 1
	pt.procs[last] = nil
	pt.procs = pt.procs[:last]
	p.PageTables = nil
	pt.free = append(pt.free, p)
}

// count returns the live process count.
func (pt *procTable) count() int { return len(pt.procs) }

// reset recycles every live process and rewinds the PID counter (run
// restore); the free list and its page-table arrays carry across runs.
func (pt *procTable) reset() {
	for i, p := range pt.procs {
		p.PageTables = nil
		pt.free = append(pt.free, p)
		pt.procs[i] = nil
	}
	pt.procs = pt.procs[:0]
	pt.nextPID = 0
}
